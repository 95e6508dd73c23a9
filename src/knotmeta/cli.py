"""Command-line frontend: parse inputs, orchestrate computations, render
deterministic reports.

Each command states its options in its `command` registration; `main`
parses argv from that table; argparse parses what that parse refuses: help,
usage errors, spellings such as --format=json. A command's rows are one dict
or an iterable: of dicts, or of the census classes of `meta-enum` and
`meta-verify`, rendered straight from each class by one function per format.
Those two and `sweep` feed a generator, knot by knot. `_emit` writes every
row as it comes, as JSON, table or CSV, to sys.stdout, and `_fail` writes
every stderr line. Exit codes: 0 success, 1 verification failure (after the
rows), 2 input or usage error; `main` alone maps the package's errors. Input
is validated in full before the first byte goes out. JSON output is
bit-stable (sorted keys, rationals as "num/den" strings).
"""

from __future__ import annotations

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


def _emit(fmt, rows, line, columns=()):
    """Write `rows` to sys.stdout with no flush per line, an iterable as it
    yields: one dict whole, else JSON array elements, table lines or CSV
    lines under the header `columns`. `line` renders a table row, or is a
    dict of a function per format over the defaults for dict rows: _json,
    and `columns`' cells. One flush at the end lets a closed pipe fail
    inside the command, which main exits 1 on."""
    write = sys.stdout.write
    render = {
        "json": lambda r: _json(r, "  "),
        "csv": lambda r: ",".join(_cell(r[k]) for k in columns),
        **(line if type(line) is dict else {"table": line}),
    }[fmt]
    if type(rows) is dict:
        write((_json(rows) if fmt == "json" else render(rows)) + "\n")
    elif fmt == "json":
        sep = "[\n  "
        for r in rows:
            write(sep + render(r))
            sep = ",\n  "
        write("[]\n" if sep == "[\n  " else "\n]\n")
    else:
        if fmt == "csv":
            write(",".join(columns) + "\n")
        for r in rows:
            write(render(r) + "\n")
    sys.stdout.flush()


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


def _ratios(k, D) -> list:
    """The thetas k/D of a census row. Census rows (a meta-enum (name,
    MetabelianClass) pair, a meta-verify ClassReport) and measured sweep
    rows render with _json's bytes and no dict walk; k is never empty, and
    ratio_str gives -?[0-9]+(/[0-9]+)?, which JSON needs no escape for."""
    return [ratio_str(x, D) for x in k]


def _enum_json(row) -> str:
    name, c = row
    thetas = '",\n      "'.join(_ratios(*c))
    return (
        f'{{\n    "name": {encode_basestring_ascii(name)},\n    "order": {c.order},'
        f'\n    "thetas": [\n      "{thetas}"\n    ]\n  }}'
    )


def _enum_line(row) -> str:
    name, c = row
    return f"{name}: ({', '.join(_ratios(*c))}) order {c.order}"


def _enum_csv(row) -> str:
    name, c = row
    return f"{_cell(name)},{';'.join(_ratios(*c))},{c.order}"


@command("meta-enum", _INPUT, _format("csv"))
def meta_enum_cmd(path, fmt):
    """Enumerate the metabelian character classes of Seifert-matrix knots."""
    knots = _seifert_only(path)
    rows = ((K.name, c) for K in knots for c in metabelian.enumerate_metabelian(K))
    render = {"json": _enum_json, "table": _enum_line, "csv": _enum_csv}
    _emit(fmt, rows, render, ("name", "thetas", "order"))


_bool = lambda b: "true" if b else "false"


def _report_json(r) -> str:
    knot, k, D, relation, irreducible, meridian, failures = r
    thetas = '",\n      "'.join(_ratios(k, D))
    failed = ",\n      ".join(map(encode_basestring_ascii, failures))
    failed = f"[\n      {failed}\n    ]" if failures else "[]"
    return (
        f'{{\n    "failures": {failed},\n    "irreducible_ok": {_bool(irreducible)},'
        f'\n    "knot": {encode_basestring_ascii(knot)},'
        f'\n    "meridian_trace_zero": {_bool(meridian)},'
        f'\n    "ok": {_bool(relation and irreducible and meridian)},'
        f'\n    "relation_ok": {_bool(relation)},'
        f'\n    "thetas": [\n      "{thetas}"\n    ]\n  }}'
    )


def _report_line(r) -> str:
    status = "ok" if r.ok else "FAIL " + "; ".join(r.failures)
    return f"{r.knot} ({', '.join(_ratios(r.k, r.D))}): {status}"


@command("meta-verify", _INPUT, _format())
def meta_verify_cmd(path, fmt):
    """Verify every enumerated class: relation, irreducibility, trace 0."""
    knots = _seifert_only(path)
    failed = []

    def reports():
        for K in knots:
            for c in metabelian.enumerate_metabelian(K):
                r = metabelian.verify_class(K, c)
                if not r.ok:
                    failed.append(r)
                yield r

    _emit(fmt, reports(), {"json": _report_json, "table": _report_line})
    if failed:
        sys.exit(1)


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
    _emit(fmt, row, _pairs)
    if not ok:
        sys.exit(1)


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
    report = riley.cross_check_counts(sec)
    _emit(fmt, report.to_dict(), _crosscheck_line)
    if not report.ok:
        sys.exit(1)


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


def _sweep_row(K: TwoBridge, failed: list) -> dict:
    """One knot's row: the section is computed once and shared by every
    check. A RileyError fails the row, not the run; its unmeasured columns
    are null and the message goes to stderr and the row's "error". A row
    that is not ok is appended to `failed`."""
    row = {"name": K.name, "p": K.p, "q": K.q, "det": K.p}
    try:
        sec = riley.section_at_minus_one(K)
        cross = riley.cross_check_counts(sec)
        rel = riley.verify_relator_mod_phi(sec)
        lon = riley.verify_longitude_mod_phi(sec)
    except riley.RileyError as exc:
        _fail("verification failure", exc)
        row = dict.fromkeys(SWEEP_COLUMNS) | row | {"ok": False, "error": str(exc)}
    else:
        row.update(
            meta_count=cross.metabelian_count,
            riley_deg=sec.roots_count,
            squarefree=sec.squarefree,
            relator_ok=rel.ok,
            longitude_ok=lon.ok,
            ok=sec.squarefree and cross.ok and rel.ok and lon.ok,
        )
    if not row["ok"]:
        failed.append(row)
    return row


def _sweep_json(r: dict) -> str:
    if "error" in r:  # a failing row, with null columns
        return _json(r, "  ")
    return (
        f'{{\n    "det": {r["det"]},\n    "longitude_ok": {_bool(r["longitude_ok"])},'
        f'\n    "meta_count": {r["meta_count"]},'
        f'\n    "name": {encode_basestring_ascii(r["name"])},\n    "ok": {_bool(r["ok"])},'
        f'\n    "p": {r["p"]},\n    "q": {r["q"]},'
        f'\n    "relator_ok": {_bool(r["relator_ok"])},\n    "riley_deg": {r["riley_deg"]},'
        f'\n    "squarefree": {_bool(r["squarefree"])}\n  }}'
    )


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
    failed = []
    rows = (_sweep_row(K, failed) for K in knots)
    _emit(fmt, rows, {"json": _sweep_json, "table": _sweep_line}, SWEEP_COLUMNS)
    if failed:
        sys.exit(1)


def _table_parse(options, argv):
    """The keywords argparse parses from `argv` under `options` if argv gives
    each flag at most once, as a separate token followed by one value of its
    type and choices (none for store_true), and every required flag; else
    None. A value starting with "-" must be a negative integer, which
    argparse takes as a value since no flag looks like a negative number."""
    table = {flag: (flags, kw) for flags, kw in options for flag in flags}
    given = {}
    tokens = iter(argv)
    for token in tokens:
        if token not in table or table[token][0] in given:
            return None
        flags, kw = table[token]
        if kw.get("action") == "store_true":
            given[flags] = True
            continue
        value = next(tokens, "-")  # no value left: "-", refused below
        if value[:1] == "-" and not (value[1:].isdigit() and value.isascii()):
            return None
        try:
            given[flags] = value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
    keywords = {}
    for flags, kw in options:
        if kw.get("required") and flags not in given:
            return None
        long = next((f for f in flags if f[:2] == "--"), flags[0]).lstrip("-")
        default = False if kw.get("action") == "store_true" else kw.get("default")
        keywords[kw.get("dest") or long.replace("-", "_")] = given.get(flags, default)
    return keywords


def _parser(prog, description):
    import argparse  # here alone: argv that _table_parse takes needs none
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
    keywords = _table_parse(options, args[1:])
    if keywords is None:
        parser = _parser(f"{prog_name} {args[0]}", f.__doc__)
        for flags, kw in options:
            parser.add_argument(*flags, **kw)
        keywords = vars(parser.parse_args(args[1:]))
    try:
        try:
            f(**keywords)
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
