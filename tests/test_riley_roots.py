"""The display roots of phi(-1,u) from `tb-riley --roots`: byte-stable
against recorded output, checked against sympy, and fast at p = 101."""

import json
import time
from pathlib import Path

import pytest
import sympy
from click.testing import CliRunner

from knotmeta.cli import main

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
