"""Command-line frontend: parse inputs, orchestrate computations, render
deterministic reports.

Each command builds its JSON rows once, as a list of dicts or one dict.
Table and CSV output are views of those rows, written by `_emit`. Exit
codes: 0 success, 1 verification failure, 2 input error; `KnotmetaGroup`
maps the package's errors to them in one place. JSON output is bit-stable
(sorted keys, rationals rendered as "num/den" strings).
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii

import click

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


class KnotmetaGroup(click.Group):
    """The one error mapping: input errors exit 2, a failed identity or
    census count exits 1, each with its message on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)
        except VERIFICATION_ERRORS as exc:
            click.echo(f"verification failure: {exc}", err=True)
            ctx.exit(1)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


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


def _emit(fmt, rows, line, columns=(), ok=True):
    """Write `rows` (a list of dicts or one dict) as JSON, as a table of
    `line(row)` strings, or, for a list of flat rows, as CSV over
    `columns`. Then exit 1 unless `ok`."""
    if fmt == "json":
        click.echo(_json(rows))
    elif fmt == "csv":
        click.echo(",".join(columns))
        for r in rows:
            click.echo(",".join(_cell(r[k]) for k in columns))
    else:
        for r in rows if isinstance(rows, list) else [rows]:
            click.echo(line(r))
    if not ok:
        sys.exit(1)


def _pairs(row: dict) -> str:
    return "\n".join(f"{k}: {v}" for k, v in row.items())


def format_option(*extra):
    """-f/--format: table and json, plus `extra` for commands with flat rows."""
    choice = click.Choice(["table", "json", *extra])
    return click.option(
        "-f", "--format", "fmt", type=choice, default="table", show_default=True
    )


input_option = click.option("-i", "--input", "path", required=True, type=click.Path())


def two_bridge_options(f):
    f = click.option("-q", "q", required=True, type=int)(f)
    return click.option("-p", "p", required=True, type=int)(f)


@click.group(cls=KnotmetaGroup)
def main():
    """Exact computation and cross-verification of metabelian SL(2,C)
    characters, Riley sections of 2-bridge knots, and A-polynomial degree
    bounds."""


@main.command("det")
@input_option
@format_option("csv")
def det_cmd(path, fmt):
    """Knot determinant |Delta_K(-1)| for each record in a knot file."""
    rows = [{"name": K.name, "det": determinant_of_knot(K)} for K in load_knots(path)]
    _emit(fmt, rows, lambda r: f"{r['name']}: {r['det']}", ("name", "det"))


@main.command("meta-count")
@input_option
@format_option("csv")
def meta_count_cmd(path, fmt):
    """Number of irreducible metabelian characters, (det-1)/2."""
    rows = [
        {"name": K.name, "count": metabelian.count_metabelian(K)}
        for K in load_knots(path)
    ]
    _emit(
        fmt,
        rows,
        lambda r: str(r["count"]) if len(rows) == 1 else f"{r['name']}: {r['count']}",
        ("name", "count"),
    )


def _seifert_only(path):
    knots = load_knots(path)
    bad = [K.name for K in knots if not isinstance(K, SeifertKnot)]
    if bad:
        raise KnotDataError(
            f"records {bad} are not Seifert-matrix knots; enumeration needs V"
        )
    return knots


@main.command("meta-enum")
@input_option
@format_option("csv")
def meta_enum_cmd(path, fmt):
    """Enumerate the metabelian character classes of Seifert-matrix knots."""
    rows = [
        {"name": K.name, "thetas": [ratio_str(x, c.D) for x in c.k], "order": c.order}
        for K in _seifert_only(path)
        for c in metabelian.enumerate_metabelian(K)
    ]
    _emit(
        fmt,
        rows,
        lambda r: f"{r['name']}: ({', '.join(r['thetas'])}) order {r['order']}",
        ("name", "thetas", "order"),
    )


def _class_line(r: dict) -> str:
    status = "ok" if r["ok"] else "FAIL " + "; ".join(r["failures"])
    return f"{r['knot']} ({', '.join(r['thetas'])}): {status}"


@main.command("meta-verify")
@input_option
@format_option()
def meta_verify_cmd(path, fmt):
    """Verify every enumerated class: relation, irreducibility, trace 0."""
    rows = [
        metabelian.verify_class(K, c).to_dict()
        for K in _seifert_only(path)
        for c in metabelian.enumerate_metabelian(K)
    ]
    _emit(fmt, rows, _class_line, ok=all(r["ok"] for r in rows))


@main.command("tb-riley")
@two_bridge_options
@click.option("--roots", is_flag=True, help="include approximate real roots")
@format_option()
def tb_riley_cmd(p, q, roots, fmt):
    """The t = -1 Riley section of S(p,q): phi(-1,u), degrees, squarefreeness."""
    K = TwoBridge(name=f"S({p},{q})", p=p, q=q)
    sec = riley.section_at_minus_one(K)
    row = {
        "name": K.name,
        "p": sec.p,
        "q": sec.q,
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


@main.command("tb-verify")
@two_bridge_options
@click.option(
    "--general-t",
    is_flag=True,
    help="also check the relator identity over Z[t^(+-1)][u] (costly)",
)
@format_option()
def tb_verify_cmd(p, q, general_t, fmt):
    """Verify the relator and longitude identities of S(p,q) mod phi(-1,u)."""
    K = TwoBridge(name=f"S({p},{q})", p=p, q=q)
    sec = riley.section_at_minus_one(K)
    rel = riley.verify_relator_mod_phi(K, sec)
    lon = riley.verify_longitude_mod_phi(K, sec)
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


@main.command("tb-crosscheck")
@two_bridge_options
@format_option()
def tb_crosscheck_cmd(p, q, fmt):
    """Three-way count: distinct Riley roots = (p-1)/2 = metabelian census."""
    K = TwoBridge(name=f"S({p},{q})", p=p, q=q)
    row = riley.cross_check_counts(K).to_dict()
    _emit(fmt, row, _crosscheck_line, ok=row["ok"])


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


@main.command("apoly-analyze")
@input_option
@click.option(
    "--det",
    "det_value",
    type=int,
    help="knot determinant, enables the (l-1)-multiplicity conjecture probe",
)
@format_option()
def apoly_analyze_cmd(path, det_value, fmt):
    """Analyze A-polynomial records: eval at sqrt(-1), Newton polygon,
    degree bound, non-metabelian criteria."""
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
        cross = riley.cross_check_counts(K, sec)
        rel = riley.verify_relator_mod_phi(K, sec)
        lon = riley.verify_longitude_mod_phi(K, sec)
    except riley.RileyError as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return {k: row.get(k) for k in SWEEP_COLUMNS} | {
            "ok": False,
            "error": str(exc),
        }
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


@main.command("sweep")
@click.option("--p-max", "p_max", required=True, type=int)
@click.option("--negative-q", is_flag=True, help="also sweep mirror pairs q < 0")
@format_option("csv")
def sweep_cmd(p_max, negative_q, fmt):
    """Run the full verification battery for every S(p,q) with p <= p-max."""
    if p_max < 3 or p_max % 2 == 0:
        raise KnotDataError("p-max must be odd and >= 3")
    knots = all_two_bridge(p_max, include_negative_q=negative_q)
    rows = sorted(map(_sweep_row, knots), key=lambda r: (r["p"], r["q"]))
    _emit(fmt, rows, _sweep_line, SWEEP_COLUMNS, ok=all(r["ok"] for r in rows))


if __name__ == "__main__":
    main()
