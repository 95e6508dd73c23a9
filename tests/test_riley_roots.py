"""The display roots of phi(-1,u) from `tb-riley --roots`: byte-stable
against recorded output, checked against sympy, and fast at p = 101."""

import json
import time
from pathlib import Path

import pytest
import sympy
from click.testing import CliRunner

from knotmeta import riley
from knotmeta.cli import main
from knotmeta.exactalg import _sign_at
from knotmeta.knotdata import all_two_bridge
from knotmeta.riley import approx_real_roots, section_at_minus_one

RECORDED = Path(__file__).parent / "data" / "tb_riley_roots"
ODD_P = range(3, 46, 2)


def tb_riley_roots(p, q):
    res = CliRunner().invoke(
        main, ["tb-riley", "-p", str(p), "-q", str(q), "--roots", "-f", "json"]
    )
    assert res.exit_code == 0, res.output
    return res.output


@pytest.mark.parametrize("p", ODD_P)
def test_output_matches_recording(p):
    # recorded from the Fraction-based Sturm bisection this replaced
    assert tb_riley_roots(p, 1) == (RECORDED / f"p{p:02d}_q1.json").read_text()


def test_p101_matches_recording():
    # recorded before the certified grid cells replaced the halving loop
    assert tb_riley_roots(101, 3) == (RECORDED / "p101_q3.json").read_text()


@pytest.mark.parametrize("p", ODD_P)
def test_sympy_agrees(p):
    u = sympy.Symbol("u")
    for q in sorted({1, p - 2, -1}):
        payload = json.loads(tb_riley_roots(p, q))
        phi = sympy.Poly(sympy.sympify(payload["phi"].replace("^", "**")), u)
        assert phi.degree() == payload["deg_phi"] == (p - 1) // 2
        _content, factors = phi.sqf_list()
        assert all(mult == 1 for _f, mult in factors), (p, q)
        real = payload["approx"]["real_roots"]
        assert phi.count_roots() == len(real), (p, q)
        assert len(real) + 2 * payload["approx"]["complex_pair_count"] == phi.degree()


def test_p101_within_budget():
    budget = 5.0
    t0 = time.monotonic()
    payload = json.loads(tb_riley_roots(101, 3))
    elapsed = time.monotonic() - t0
    print(f"pass: tb-riley -p 101 -q 3 --roots ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget
    roots = [float(r) for r in payload["approx"]["real_roots"]]
    assert payload["approx"]["complex_pair_count"] == 0
    assert len(roots) == len(set(roots)) == 50
    assert all(-4 < r < 0 for r in roots)
    assert roots == sorted(roots)


# ---------------------------------------------------------------------------
# Certified grid cells against the halving they replace


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# (2u - 1)(u^2 - 3): the root 1/2 is the right end of its grid cell
GRID_POINT = _mul((-1, 2), (-3, 0, 1))
# (u - 1)(2^60 u - 2^60 - 1): two roots 2^-60 apart, and a pair u^2 + 5
NEAR_DOUBLE = _mul(_mul((-1, 1), (-(2**60) - 1, 2**60)), (5, 0, 1))


@pytest.fixture
def cells(monkeypatch):
    """Record, for each isolating interval, the cell approx_real_roots takes
    and the cell of the halving loop alone; and count the halvings run."""
    log = {"cells": [], "halvings": 0, "guess_off": []}
    grid, halving, newton = riley._grid_cell, riley._halving_cell, riley._newton_cell

    def counting_halving(*args):
        log["halvings"] += 1
        return halving(*args)

    def spy_newton(sqf, lo, hi, m, lo_sign, bits):
        j = newton(sqf, lo, hi, m, lo_sign, bits)
        L, _R, _M = halving(sqf, lo, hi, m, lo_sign, bits)
        log["guess_off"].append(None if j is None else j - (L - (lo << bits)) // (hi - lo))
        return j

    def spy_grid(sqf, lo, hi, m, bits):
        got = grid(sqf, lo, hi, m, bits)
        log["cells"].append((got, halving(sqf, lo, hi, m, _sign_at(sqf, lo, m), bits)))
        return got

    monkeypatch.setattr(riley, "_halving_cell", counting_halving)
    monkeypatch.setattr(riley, "_newton_cell", spy_newton)
    monkeypatch.setattr(riley, "_grid_cell", spy_grid)
    return log


def _halving_only(monkeypatch, phi):
    with monkeypatch.context() as mp:
        mp.setattr(riley, "_newton_cell", lambda *args: None)
        return approx_real_roots(phi)


def test_certified_cells_equal_halving_p_le_45(cells):
    knots = all_two_bridge(45, include_negative_q=True)
    phis = {section_at_minus_one(K).phi for K in knots}
    for phi in phis:
        approx_real_roots(phi)
    # phi(-1,u) has (p-1)/2 real roots
    assert len(cells["cells"]) == sum(len(phi) - 1 for phi in phis)
    assert all(got == want for got, want in cells["cells"])
    # every guess is the cell or its neighbour, so no halving runs
    assert cells["halvings"] == 0
    assert {abs(d) for d in cells["guess_off"]} <= {0, 1}


def test_root_on_a_grid_point(cells, monkeypatch):
    roots = approx_real_roots(GRID_POINT)
    on_grid = [
        off
        for ((_L, R, M), _want), off in zip(cells["cells"], cells["guess_off"])
        if _sign_at(GRID_POINT, R, M) == 0
    ]
    # Newton lands on the root 1/2, the left end of the cell after the one
    # that holds it; that cell's first sign sends the check to its neighbour
    assert on_grid == [1]
    assert cells["halvings"] == 0
    assert all(got == want for got, want in cells["cells"])
    assert roots == _halving_only(monkeypatch, GRID_POINT)


def test_near_double_root(cells, monkeypatch):
    roots, pairs = approx_real_roots(NEAR_DOUBLE)
    assert len(roots) == 2 and pairs == 1
    assert all(got == want for got, want in cells["cells"])
    assert (roots, pairs) == _halving_only(monkeypatch, NEAR_DOUBLE)


@pytest.mark.parametrize("wrong", [None, -1, 1, -2, 2, -(2**70), 2**70])
@pytest.mark.parametrize(
    "phi",
    [GRID_POINT, NEAR_DOUBLE, section_at_minus_one(all_two_bridge(31)[-1]).phi],
    ids=["grid-point", "near-double", "S(31,q)"],
)
def test_wrong_guess(monkeypatch, phi, wrong):
    """A guess `wrong` cells off the true one (None: no guess). One cell
    off is caught by the neighbour check; anything further, or no guess,
    falls back to halving. The roots are the halving loop's either way."""
    want = _halving_only(monkeypatch, phi)
    halving = riley._halving_cell
    halvings = []

    def bad_guess(sqf, lo, hi, m, lo_sign, bits):
        if wrong is None:
            return None
        L, _R, _M = halving(sqf, lo, hi, m, lo_sign, bits)
        return (L - (lo << bits)) // (hi - lo) + wrong

    def counting_halving(*args):
        halvings.append(args)
        return halving(*args)

    monkeypatch.setattr(riley, "_newton_cell", bad_guess)
    monkeypatch.setattr(riley, "_halving_cell", counting_halving)
    roots = approx_real_roots(phi)
    assert roots == want
    assert len(halvings) == (0 if wrong in (-1, 1) else len(roots[0]))
