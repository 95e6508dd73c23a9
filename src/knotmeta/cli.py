"""Command-line frontend: parse inputs, orchestrate computations, render
deterministic reports.

Each command states its options in its `command` registration; `main`
builds the parser of the invoked command alone. A command builds its JSON
rows once, as one dict or an iterable of dicts; `meta-enum`, `meta-verify`
and `sweep` feed a generator, knot by knot. `_emit` writes every row as it
comes, as JSON, table or CSV, to sys.stdout, and `_fail` writes every
stderr line. Exit codes: 0 success, 1 verification failure, 2 input or
usage error, mapped from the package's errors in `main` alone. Input is
validated in full before the first byte goes out. JSON output is bit-stable
(sorted keys, rationals as "num/den" strings).
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from json.encoder import encode_basestring_ascii

from . import apoly as apoly_mod
from . import metabelian, riley
from .exactalg import poly_str, ratio_str
from .intlinalg import IntLinAlgError
from .knotdata import (
    KnotDataError,
    SeifertKnot,
    TwoBridge,
    all_two_bridge,
    determinant_of_knot,
    load_apolys,
    load_knots,
)

INPUT_ERRORS = (KnotDataError, apoly_mod.APolyError, IntLinAlgError)
VERIFICATION_ERRORS = (riley.RileyError, metabelian.CensusError)


def _fail(kind, exc):
    """The one stderr line, `kind: exc`, after a flush of stdout, so it follows
    the rows before it in a merged stream; a closed stdout pipe does not drop it."""
    try:
        sys.stdout.flush()
    finally:
        print(f"{kind}: {exc}", file=sys.stderr, flush=True)


def _cell(value) -> str:
    """One CSV cell, quoted as csv.writer quotes minimally: a cell holding
    a comma, a double quote or a line break goes in double quotes, its own
    quotes doubled."""
    if value is None:
        return ""
    s = ";".join(map(str, value)) if isinstance(value, list) else str(value)
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _json(o, indent="") -> str:
    """The bytes of json.dumps(o, sort_keys=True, indent=2) for the only
    types rows hold: dicts with str keys, lists, tuples, str, int, bool and
    None. Any other type (a subclass, a float, a non-str key) raises
    TypeError; encode_basestring_ascii raises it for a key."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is bool:
        return "true" if o else "false"
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    inner = indent + "  "
    if t is dict:
        if not o:
            return "{}"
        items = [
            f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
            for k, v in sorted(o.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        items = [_json(v, inner) for v in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise TypeError(f"{t.__name__} has no JSON rendering here")


# The source text that renders a flat row's value {v} at indent "    ", by
# the value's exact type: the types _json renders on one line, and a list,
# which fits only if every element is a str.
_FLAT = {
    str: "e({v})",
    bool: "('true' if {v} else 'false')",
    int: "int.__repr__({v})",
    type(None): "'null'",
    list: "('[\\n      ' + ',\\n      '.join(map(e, {v})) + '\\n    ]'"
    " if {v} else '[]')",
}


def _row_template(row):
    """Compile `row`'s shape: a function that renders any dict with the
    same keys in the same insertion order, and values of the same exact
    types, as _json(r, "  ") does, and returns None for any other dict with
    those keys. None when `row` is empty or not flat: a key that is not a
    str, or a value of a type _FLAT does not hold."""
    types = tuple(map(type, row.values()))
    if not row or any(type(k) is not str for k in row) or not all(
        t in _FLAT for t in types
    ):
        return None
    n = len(types)
    src = [
        "def fill(r):",
        "    " + "".join(f"v{i}, " for i in range(n)) + "= r.values()",
        "    if " + " or ".join(f"type(v{i}) is not t{i}" for i in range(n)) + ":",
        "        return None",
    ]
    for i, t in enumerate(types):
        if t is list:
            src += [
                f"    for x in v{i}:",
                "        if type(x) is not str:",
                "            return None",
            ]
    # each key's encoded prefix, then its value's rendering, in key order
    parts = []
    seps = ["{\n    "] + [",\n    "] * (n - 1)
    for sep, (k, i) in zip(seps, sorted(zip(row, range(n)))):
        prefix = sep + encode_basestring_ascii(k) + ": "
        parts += [repr(prefix), _FLAT[types[i]].format(v=f"v{i}")]
    src.append("    return ''.join((" + ", ".join(parts) + r", '\n  }'))")
    scope = {f"t{i}": t for i, t in enumerate(types)}
    scope["e"] = encode_basestring_ascii
    exec("\n".join(src), scope)
    return scope["fill"]


def _json_rows(rows):
    """The bytes of _json(list(rows)) in pieces, one per row, taken from
    `rows` as it yields. A template is compiled whenever a dict row's key
    tuple differs from the previous dict row's; rows of that shape whose
    values fit it are filled in, and every other row (not a dict, not
    flat, or of other value types) goes through _json, which also raises
    the TypeError for a type it has no rendering of."""
    sep = "[\n  "
    shape = fill = None
    for r in rows:
        piece = None
        if type(r) is dict:
            keys = tuple(r)
            if keys != shape:
                shape, fill = keys, _row_template(r)
            if fill is not None:
                piece = fill(r)
        yield sep + (piece or _json(r, "  "))
        sep = ",\n  "
    yield "[]" if sep == "[\n  " else "\n]"


def _emit(fmt, rows, line, columns=(), ok=True):
    """Write `rows`, one dict or an iterable of dicts, as JSON, as a table
    of `line(row)` strings, or, for flat rows, as CSV over `columns`, all
    to sys.stdout with no flush per line, and an iterable as it yields. One
    flush at the end lets a closed pipe fail inside the command, which main
    exits 1 on; then exit 1 unless `ok` and no row reads "ok": false."""
    write = sys.stdout.write
    single = type(rows) is dict

    def tally(rows):
        nonlocal ok
        for r in rows:
            ok = ok and r.get("ok", True)
            yield r

    rows = tally([rows] if single else rows)
    if fmt == "json":
        for piece in map(_json, rows) if single else _json_rows(rows):
            write(piece)
        write("\n")
    else:
        if fmt == "csv":
            write(",".join(columns) + "\n")
            line = lambda r: ",".join(_cell(r[k]) for k in columns)
        for r in rows:
            write(line(r) + "\n")
    sys.stdout.flush()
    if not ok:
        sys.exit(1)


def _pairs(row: dict) -> str:
    return "\n".join(f"{k}: {v}" for k, v in row.items())


# name -> (command function, the (flags, keywords) of each add_argument)
_COMMANDS = {}


def command(name, *options):
    """Register the decorated function as command `name`, taking `options`."""
    return lambda f: _COMMANDS.update({name: (f, options)}) or f


_option = lambda *flags, **keywords: (flags, keywords)
_flag = lambda name, help: _option(name, action="store_true", help=help)


def _format(*extra):
    """-f/--format: table and json, plus `extra` for commands with flat rows."""
    choices = ["table", "json", *extra]
    return _option("-f", "--format", dest="fmt", choices=choices, default="table")


_INPUT = _option("-i", "--input", dest="path", required=True)
_PQ = _option("-p", type=int, required=True), _option("-q", type=int, required=True)


@command("det", _INPUT, _format("csv"))
def det_cmd(path, fmt):
    """Knot determinant |Delta_K(-1)| for each record in a knot file."""
    rows = [{"name": K.name, "det": determinant_of_knot(K)} for K in load_knots(path)]
    _emit(fmt, rows, lambda r: f"{r['name']}: {r['det']}", ("name", "det"))


@command("meta-count", _INPUT, _format("csv"))
def meta_count_cmd(path, fmt):
    """Number of irreducible metabelian characters, (det-1)/2."""
    count = metabelian.count_metabelian
    rows = [{"name": K.name, "count": count(K)} for K in load_knots(path)]
    line = lambda r: str(r["count"]) if len(rows) == 1 else f"{r['name']}: {r['count']}"
    _emit(fmt, rows, line, ("name", "count"))


def _seifert_only(path):
    knots = load_knots(path)
    bad = [K.name for K in knots if not isinstance(K, SeifertKnot)]
    if bad:
        msg = "are not Seifert-matrix knots; enumeration needs V"
        raise KnotDataError(f"records {bad} {msg}")
    return knots


@command("meta-enum", _INPUT, _format("csv"))
def meta_enum_cmd(path, fmt):
    """Enumerate the metabelian character classes of Seifert-matrix knots."""
    knots = _seifert_only(path)
    rows = (
        {"name": K.name, "thetas": [ratio_str(x, c.D) for x in c.k], "order": c.order}
        for K in knots
        for c in metabelian.enumerate_metabelian(K)
    )
    line = lambda r: f"{r['name']}: ({', '.join(r['thetas'])}) order {r['order']}"
    _emit(fmt, rows, line, ("name", "thetas", "order"))


def _class_line(r: dict) -> str:
    status = "ok" if r["ok"] else "FAIL " + "; ".join(r["failures"])
    return f"{r['knot']} ({', '.join(r['thetas'])}): {status}"


@command("meta-verify", _INPUT, _format())
def meta_verify_cmd(path, fmt):
    """Verify every enumerated class: relation, irreducibility, trace 0."""
    knots = _seifert_only(path)
    rows = (
        metabelian.verify_class(K, c).to_dict()
        for K in knots
        for c in metabelian.enumerate_metabelian(K)
    )
    _emit(fmt, rows, _class_line)


@command("tb-riley", *_PQ, _flag("--roots", "include approximate real roots"), _format())
def tb_riley_cmd(p, q, roots, fmt):
    """The t = -1 Riley section of S(p,q): phi(-1,u), degrees, squarefreeness."""
    K = TwoBridge(name=f"S({p},{q})", p=p, q=q)
    sec = riley.section_at_minus_one(K)
    row = {
        "name": K.name,
        "p": p,
        "q": q,
        "phi": poly_str(sec.phi),
        "deg_phi": sec.roots_count,
        "deg_w11": len(sec.w11) - 1,
        "deg_w12": len(sec.w12) - 1,
        "squarefree": sec.squarefree,
    }
    if roots:
        real, pairs = riley.approx_real_roots(sec.phi)
        row["approx"] = {
            "real_roots": [f"{r:.12g}" for r in real],
            "complex_pair_count": pairs,
        }
    _emit(fmt, row, _pairs)


@command(
    "tb-verify", *_PQ,
    _flag("--general-t", "also check the relator identity mod phi(t,u) over Z[t][u]"),
    _format(),
)
def tb_verify_cmd(p, q, general_t, fmt):
    """Verify the relator and longitude identities of S(p,q) mod phi(-1,u)."""
    K = TwoBridge(name=f"S({p},{q})", p=p, q=q)
    sec = riley.section_at_minus_one(K)
    rel = riley.verify_relator_mod_phi(sec)
    lon = riley.verify_longitude_mod_phi(sec)
    row = {
        "name": K.name,
        "relator_ok": rel.ok,
        "longitude": lon.result,
        "longitude_trace_is_two": lon.trace_is_two,
    }
    ok = rel.ok and lon.ok
    if general_t:
        row["relator_general_t_ok"] = riley.verify_relator_general_t(K).ok
        ok = ok and row["relator_general_t_ok"]
    _emit(fmt, row, _pairs, ok=ok)


def _crosscheck_line(r: dict) -> str:
    return (
        f"{r['knot']}: riley roots {r['riley_root_count']} = "
        f"(p-1)/2 {r['half_p_minus_one']} = metabelian {r['metabelian_count']} "
        f"-> {'ok' if r['ok'] else 'MISMATCH'}"
    )


@command("tb-crosscheck", *_PQ, _format())
def tb_crosscheck_cmd(p, q, fmt):
    """Three-way count: distinct Riley roots = (p-1)/2 = metabelian census."""
    K = TwoBridge(name=f"S({p},{q})", p=p, q=q)
    sec = riley.section_at_minus_one(K)
    row = riley.cross_check_counts(sec).to_dict()
    _emit(fmt, row, _crosscheck_line)


def _apoly_lines(r: dict) -> str:
    prof, bound, probe = r["factor_profile"], r["degree_bound"], r["probe"]
    lines = [
        f"{r['name']}:",
        f"  deg_l: {r['deg_l']}",
        f"  A(sqrt(-1), l) = {r['eval_at_i']}",
        f"  factors: l^{prof['l_power']} (l-1)^{prof['l_minus_1_power']} "
        f"(l+1)^{prof['l_plus_1_power']} * ({prof['residual']})"
        + ("  [identically zero]" if prof["identically_zero"] else ""),
        f"  vertical edge: {r['has_vertical_edge']}",
    ]
    if bound["applicable"]:
        lines.append(
            f"  2-bridge bound: deg_l {bound['deg_l']} <= {bound['bound']} "
            f"(slack {bound['slack']}), pure (l-1)^k: "
            f"{bound['pure_l_minus_1_power']}"
        )
    else:
        lines.append("  2-bridge bound: not applicable (no (p,q) tag)")
    lines += [f"  criterion [{f['kind']}]: {f['detail']}" for f in r["criteria"]]
    if probe:
        lines.append(
            f"  probe: k = {probe['k']} <= {probe['bound']}: {probe['within_bound']}"
            + ("" if probe["within_bound"] else "  [conjecture counterexample]")
        )
    if r["warning"]:
        lines.append(f"  warning: {r['warning']}")
    return "\n".join(lines)


@command(
    "apoly-analyze", _INPUT,
    _option("--det", dest="det_value", type=int,
            help="knot determinant, enables the (l-1)-multiplicity conjecture probe"),
    _format(),
)
def apoly_analyze_cmd(path, det_value, fmt):
    """Analyze A-polynomial records: eval at sqrt(-1), Newton polygon, criteria."""
    rows = [apoly_mod.analyze(A, det=det_value).to_dict() for A in load_apolys(path)]
    _emit(fmt, rows, _apoly_lines)


SWEEP_HEADER = "name,p,q,det,meta_count,riley_deg,squarefree,relator_ok,longitude_ok"
SWEEP_COLUMNS = SWEEP_HEADER.split(",")


def _sweep_row(K: TwoBridge) -> dict:
    """One knot's row: the section is computed once and shared by every
    check. A RileyError fails the row, not the run; its unmeasured columns
    are null and the message goes to stderr and the row's "error"."""
    row = {"name": K.name, "p": K.p, "q": K.q, "det": K.p}
    try:
        sec = riley.section_at_minus_one(K)
        cross = riley.cross_check_counts(sec)
        rel = riley.verify_relator_mod_phi(sec)
        lon = riley.verify_longitude_mod_phi(sec)
    except riley.RileyError as exc:
        _fail("verification failure", exc)
        return dict.fromkeys(SWEEP_COLUMNS) | row | {"ok": False, "error": str(exc)}
    row.update(
        meta_count=cross.metabelian_count,
        riley_deg=sec.roots_count,
        squarefree=sec.squarefree,
        relator_ok=rel.ok,
        longitude_ok=lon.ok,
        ok=sec.squarefree and cross.ok and rel.ok and lon.ok,
    )
    return row


def _sweep_line(r: dict) -> str:
    if "error" in r:
        return f"{r['name']}: FAIL {r['error']}"
    return (
        f"{r['name']}: det {r['det']}, count {r['meta_count']}, "
        f"riley deg {r['riley_deg']}, {'ok' if r['ok'] else 'FAIL'}"
    )


@command(
    "sweep",
    _option("--p-max", type=int, required=True),
    _flag("--negative-q", "also sweep mirror pairs q < 0"),
    _format("csv"),
)
def sweep_cmd(p_max, negative_q, fmt):
    """Run the full verification battery for every S(p,q) with p <= p-max."""
    if p_max < 3 or p_max % 2 == 0:
        raise KnotDataError("p-max must be odd and >= 3")
    knots = all_two_bridge(p_max, include_negative_q=negative_q)
    _emit(fmt, map(_sweep_row, knots), _sweep_line, SWEEP_COLUMNS)


def _parser(prog, description):
    # a fixed width: usage and help text do not depend on $COLUMNS
    fmt = lambda prog: argparse.RawDescriptionHelpFormatter(prog, width=80)
    return argparse.ArgumentParser(
        prog, description=description, allow_abbrev=False, formatter_class=fmt
    )


def main(args=None, prog_name="knotmeta"):
    """Run the command args[0] (default sys.argv[1:]) on the rest of `args`;
    exit 1 on a failed verification or a closed stdout, 2 on bad input."""
    args = sys.argv[1:] if args is None else list(args)
    for stream in sys.stdout, sys.stderr:
        # an ASCII stream writes a name as UTF-8, not as an encoding error
        if codecs.lookup(getattr(stream, "encoding", None) or "utf-8").name == "ascii":
            stream.reconfigure(encoding="utf-8", errors="replace")
    if not args or args[0] not in _COMMANDS:
        listing = [f"\n  {name:<14} {f.__doc__}" for name, (f, _) in _COMMANDS.items()]
        parser = _parser(prog_name, "commands:" + "".join(listing))
        parser.add_argument("command", choices=_COMMANDS, metavar="command")
        parser.parse_args(args[:1])  # exits: 0 on --help, else 2
    f, options = _COMMANDS[args[0]]
    parser = _parser(f"{prog_name} {args[0]}", f.__doc__)
    for flags, keywords in options:
        parser.add_argument(*flags, **keywords)
    try:
        try:
            f(**vars(parser.parse_args(args[1:])))
        except INPUT_ERRORS as exc:
            _fail("error", exc)
            sys.exit(2)
        except VERIFICATION_ERRORS as exc:
            _fail("verification failure", exc)
            sys.exit(1)
    except BrokenPipeError:
        # exit 1 quietly; the flush at exit writes the rest to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        sys.exit(1)


# perfbench/worker.py calls main.main(args=, prog_name=, standalone_mode=False)
main.main = lambda args, prog_name, standalone_mode: main(args, prog_name)


if __name__ == "__main__":
    main()
