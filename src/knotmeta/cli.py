"""Command-line frontend: parse inputs, orchestrate computations, render
deterministic reports.

Exit codes: 0 success, 1 verification failure, 2 input error. JSON output
is bit-stable (sorted keys, rationals rendered as "num/den" strings).
"""

from __future__ import annotations

import json
import sys

import click

from . import apoly as apoly_mod
from . import metabelian, riley
from .apoly import APolyError
from .exactalg import poly_str
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

INPUT_ERRORS = (KnotDataError, APolyError, IntLinAlgError, OSError)


def _emit_json(payload):
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _verification_failure(exc: Exception):
    click.echo(f"verification failure: {exc}", err=True)
    sys.exit(1)


format_option = click.option(
    "-f",
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default="table",
    show_default=True,
)


@click.group()
def main():
    """Exact computation and cross-verification of metabelian SL(2,C)
    characters, Riley sections of 2-bridge knots, and A-polynomial degree
    bounds."""


@main.command("det")
@click.option("-i", "--input", "path", required=True, type=click.Path())
@format_option
def det_cmd(path, fmt):
    """Knot determinant |Delta_K(-1)| for each record in a knot file."""
    try:
        rows = [
            {"name": K.name, "det": determinant_of_knot(K)}
            for K in load_knots(path)
        ]
    except INPUT_ERRORS as exc:
        _fail(str(exc))
    if fmt == "json":
        _emit_json(rows)
    elif fmt == "csv":
        click.echo("name,det")
        for r in rows:
            click.echo(f"{r['name']},{r['det']}")
    else:
        for r in rows:
            click.echo(f"{r['name']}: {r['det']}")


@main.command("meta-count")
@click.option("-i", "--input", "path", required=True, type=click.Path())
@format_option
def meta_count_cmd(path, fmt):
    """Number of irreducible metabelian characters, (det-1)/2."""
    try:
        rows = [
            {"name": K.name, "count": metabelian.count_metabelian(K)}
            for K in load_knots(path)
        ]
    except INPUT_ERRORS as exc:
        _fail(str(exc))
    if fmt == "json":
        _emit_json(rows)
    elif fmt == "csv":
        click.echo("name,count")
        for r in rows:
            click.echo(f"{r['name']},{r['count']}")
    else:
        for r in rows:
            click.echo(str(r["count"]) if len(rows) == 1 else f"{r['name']}: {r['count']}")


def _seifert_only(path):
    knots = load_knots(path)
    bad = [K.name for K in knots if not isinstance(K, SeifertKnot)]
    if bad:
        raise KnotDataError(
            f"records {bad} are not Seifert-matrix knots; enumeration needs V"
        )
    return knots


@main.command("meta-enum")
@click.option("-i", "--input", "path", required=True, type=click.Path())
@format_option
def meta_enum_cmd(path, fmt):
    """Enumerate the metabelian character classes of Seifert-matrix knots."""
    try:
        rows = []
        for K in _seifert_only(path):
            for c in metabelian.enumerate_metabelian(K):
                rows.append(
                    {
                        "name": K.name,
                        "thetas": [str(t) for t in c.thetas],
                        "order": c.order,
                    }
                )
    except INPUT_ERRORS as exc:
        _fail(str(exc))
    except metabelian.CensusError as exc:
        _verification_failure(exc)
    if fmt == "json":
        _emit_json(rows)
    elif fmt == "csv":
        click.echo("name,thetas,order")
        for r in rows:
            click.echo(f"{r['name']},{';'.join(r['thetas'])},{r['order']}")
    else:
        for r in rows:
            click.echo(f"{r['name']}: ({', '.join(r['thetas'])}) order {r['order']}")


@main.command("meta-verify")
@click.option("-i", "--input", "path", required=True, type=click.Path())
@format_option
def meta_verify_cmd(path, fmt):
    """Verify every enumerated class: relation, irreducibility, trace 0."""
    try:
        reports = []
        for K in _seifert_only(path):
            for c in metabelian.enumerate_metabelian(K):
                reports.append(metabelian.verify_class(K, c))
    except INPUT_ERRORS as exc:
        _fail(str(exc))
    except metabelian.CensusError as exc:
        _verification_failure(exc)
    if fmt == "json":
        _emit_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            status = "ok" if r.ok else "FAIL " + "; ".join(r.failures)
            click.echo(f"{r.knot} ({', '.join(str(t) for t in r.thetas)}): {status}")
    if not all(r.ok for r in reports):
        sys.exit(1)


def _two_bridge_arg(p, q) -> TwoBridge:
    try:
        return TwoBridge(name=f"S({p},{q})", p=p, q=q)
    except KnotDataError as exc:
        _fail(str(exc))


@main.command("tb-riley")
@click.option("-p", "p", required=True, type=int)
@click.option("-q", "q", required=True, type=int)
@click.option("--roots", is_flag=True, help="include approximate real roots")
@format_option
def tb_riley_cmd(p, q, roots, fmt):
    """The t = -1 Riley section of S(p,q): phi(-1,u), degrees, squarefreeness."""
    K = _two_bridge_arg(p, q)
    try:
        sec = riley.section_at_minus_one(K)
    except riley.RileyError as exc:
        _verification_failure(exc)
    payload = {
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
        payload["approx"] = {
            "real_roots": [f"{r:.12g}" for r in real],
            "complex_pair_count": pairs,
        }
    if fmt == "json":
        _emit_json(payload)
    else:
        for k, v in payload.items():
            click.echo(f"{k}: {v}")


@main.command("tb-verify")
@click.option("-p", "p", required=True, type=int)
@click.option("-q", "q", required=True, type=int)
@click.option(
    "--general-t",
    is_flag=True,
    help="also check the relator identity over Z[t^(+-1)][u] (costly)",
)
@format_option
def tb_verify_cmd(p, q, general_t, fmt):
    """Verify the relator and longitude identities of S(p,q) mod phi(-1,u)."""
    K = _two_bridge_arg(p, q)
    try:
        sec = riley.section_at_minus_one(K)
        rel = riley.verify_relator_mod_phi(K, sec)
        lon = riley.verify_longitude_mod_phi(K, sec)
        gen = riley.verify_relator_general_t(K) if general_t else None
    except riley.RileyError as exc:
        _verification_failure(exc)
    payload = {
        "name": K.name,
        "relator_ok": rel.ok,
        "longitude": lon.result,
        "longitude_trace_is_two": lon.trace_is_two,
    }
    if gen is not None:
        payload["relator_general_t_ok"] = gen.ok
    if fmt == "json":
        _emit_json(payload)
    else:
        for k, v in payload.items():
            click.echo(f"{k}: {v}")
    ok = rel.ok and lon.ok and (gen is None or gen.ok)
    if not ok:
        sys.exit(1)


@main.command("tb-crosscheck")
@click.option("-p", "p", required=True, type=int)
@click.option("-q", "q", required=True, type=int)
@format_option
def tb_crosscheck_cmd(p, q, fmt):
    """Three-way count: distinct Riley roots = (p-1)/2 = metabelian census."""
    K = _two_bridge_arg(p, q)
    try:
        rep = riley.cross_check_counts(K)
    except riley.RileyError as exc:
        _verification_failure(exc)
    if fmt == "json":
        _emit_json(rep.to_dict())
    else:
        click.echo(
            f"{rep.knot}: riley roots {rep.riley_root_count} = "
            f"(p-1)/2 {rep.half_p_minus_one} = "
            f"metabelian {rep.metabelian_count} -> "
            f"{'ok' if rep.ok else 'MISMATCH'}"
        )
    if not rep.ok:
        sys.exit(1)


@main.command("apoly-analyze")
@click.option("-i", "--input", "path", required=True, type=click.Path())
@click.option(
    "--det",
    "det_value",
    type=int,
    default=None,
    help="knot determinant, enables the (l-1)-multiplicity conjecture probe",
)
@format_option
def apoly_analyze_cmd(path, det_value, fmt):
    """Analyze A-polynomial records: eval at sqrt(-1), Newton polygon,
    degree bound, non-metabelian criteria."""
    try:
        reports = [apoly_mod.analyze(A, det=det_value) for A in load_apolys(path)]
    except INPUT_ERRORS as exc:
        _fail(str(exc))
    if fmt == "json":
        _emit_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            click.echo(f"{r.name}:")
            click.echo(f"  deg_l: {r.deg_l}")
            click.echo(f"  A(sqrt(-1), l) = {apoly_mod._lstr(r.eval_at_i)}")
            prof = r.profile
            click.echo(
                f"  factors: l^{prof.a} (l-1)^{prof.b} (l+1)^{prof.c} "
                f"* ({apoly_mod._lstr(prof.residual)})"
                + ("  [identically zero]" if prof.is_zero else "")
            )
            click.echo(f"  vertical edge: {r.has_vertical_edge}")
            if r.bound.applicable:
                click.echo(
                    f"  2-bridge bound: deg_l {r.bound.deg_l} <= {r.bound.bound} "
                    f"(slack {r.bound.slack}), pure (l-1)^k: "
                    f"{r.bound.pure_l_minus_1_power}"
                )
            else:
                click.echo("  2-bridge bound: not applicable (no (p,q) tag)")
            for f in r.criteria:
                click.echo(f"  criterion [{f.kind}]: {f.detail}")
            if r.probe:
                click.echo(
                    f"  probe: k = {r.probe.k} <= {r.probe.bound}: "
                    f"{r.probe.within_bound}"
                    + ("" if r.probe.within_bound else "  [conjecture counterexample]")
                )
            if r.warning:
                click.echo(f"  warning: {r.warning}")


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


@main.command("sweep")
@click.option("--p-max", "p_max", required=True, type=int)
@click.option("--negative-q", is_flag=True, help="also sweep mirror pairs q < 0")
@format_option
def sweep_cmd(p_max, negative_q, fmt):
    """Run the full verification battery for every S(p,q) with p <= p-max."""
    if p_max < 3 or p_max % 2 == 0:
        _fail("p-max must be odd and >= 3")
    knots = all_two_bridge(p_max, include_negative_q=negative_q)
    rows = [_sweep_row(K) for K in knots]
    rows.sort(key=lambda r: (r["p"], r["q"]))
    if fmt == "json":
        _emit_json(rows)
    elif fmt == "csv":
        click.echo(SWEEP_HEADER)
        for r in rows:
            click.echo(
                ",".join(
                    "" if r[k] is None else str(r[k]) for k in SWEEP_COLUMNS
                )
            )
    else:
        for r in rows:
            if "error" in r:
                click.echo(f"{r['name']}: FAIL {r['error']}")
                continue
            status = "ok" if r["ok"] else "FAIL"
            click.echo(
                f"{r['name']}: det {r['det']}, count {r['meta_count']}, "
                f"riley deg {r['riley_deg']}, {status}"
            )
    if not all(r["ok"] for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
