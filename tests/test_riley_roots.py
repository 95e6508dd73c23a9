"""The display roots of phi(-1,u) from `tb-riley --roots`: byte-stable
against recorded output, checked against sympy, and fast at p = 101; and
every grid cell `riley._grid_cell` finds checked against the halving loop
it must reproduce."""

import json
import random
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
# Grid cells against the halving loop they must reproduce


def _halving_cell(sqf, lo, hi, m, bits):
    """The oracle: halve (lo, hi]/m `bits` times by the exact sign of sqf,
    a zero at the midpoint going to hi; the final (lo, hi, m)."""
    lo_sign = _sign_at(sqf, lo, m)
    for _ in range(bits):
        lo, hi, m = 2 * lo, 2 * hi, 2 * m
        mid = (lo + hi) >> 1
        s = _sign_at(sqf, mid, m)
        if s == 0 or s != lo_sign:
            hi = mid
        else:
            lo = mid
    return lo, hi, m


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


def _intervals(monkeypatch, polys):
    """The arguments of every _grid_cell call approx_real_roots makes,
    each answered by the oracle."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _halving_cell(*args)

    with monkeypatch.context() as mp:
        mp.setattr(riley, "_grid_cell", spy)
        for phi in polys:
            approx_real_roots(phi)
    return calls


def _check_cells(monkeypatch, polys, before=None):
    """Find the cell of every isolating interval of `polys` and compare it
    with the oracle's. Each cell may take 2*bits + 4 exact evaluations, and
    the next one raises, so a loop that never ends fails. With true slopes
    (no `before`), one sign is at lo and at most one at a grid point;
    `before` sees each interval and its oracle cell first. Returns the
    cells."""
    used = {}
    budget = 0

    def counted(kind, f):
        def wrapper(*args):
            used[kind] += 1
            if sum(used.values()) > budget:
                raise AssertionError(f"a cell took over {budget} evaluations")
            return f(*args)

        return wrapper

    cells = []
    intervals = _intervals(monkeypatch, polys)
    with monkeypatch.context() as mp:
        mp.setattr(riley, "_sign_at", counted("signs", _sign_at))
        slopes = counted("slopes", riley._value_and_slope)
        mp.setattr(riley, "_value_and_slope", slopes)
        for args in intervals:
            want = _halving_cell(*args)
            if before:
                before(args, want)
            used.update(signs=0, slopes=0)
            budget = 2 * args[-1] + 4
            cell = riley._grid_cell(*args)
            assert cell == want, args
            if not before:
                assert used["signs"] <= 2, f"{args}: a second sign at a grid point"
            cells.append(cell)
    return cells


def test_certified_cells_equal_halving_p_le_45(monkeypatch):
    knots = all_two_bridge(45, include_negative_q=True)
    phis = {section_at_minus_one(K).phi for K in knots}
    cells = _check_cells(monkeypatch, phis)
    # phi(-1,u) has (p-1)/2 real roots
    assert len(cells) == sum(len(phi) - 1 for phi in phis)


def test_root_on_a_grid_point(monkeypatch):
    # (2^k u - 5)(2^(k-3) u + 7): both dyadic roots on grid points
    dyadic = [_mul((-5, 2**k), (7, 2 ** (k - 3))) for k in range(9, 46, 6)]
    for phi in [GRID_POINT, *dyadic]:
        cells = _check_cells(monkeypatch, [phi])
        # a root on a grid point closes its cell
        closing = [(L, R) for L, R, M in cells if _sign_at(phi, R, M) == 0]
        assert len(closing) == (1 if phi == GRID_POINT else 2), phi
    assert approx_real_roots(GRID_POINT)[0][1] < 0.5


def test_near_double_root(monkeypatch):
    # (u - 3)(2^k u - 3 * 2^k - 1)(u + 1): two roots 2^-k apart
    pairs = [
        _mul(_mul((-3, 1), (-3 * 2**k - 1, 2**k)), (1, 1)) for k in range(20, 81, 4)
    ]
    cells = _check_cells(monkeypatch, [NEAR_DOUBLE, *pairs])
    assert len(cells) == 2 + 3 * len(pairs)
    roots, complex_pairs = approx_real_roots(NEAR_DOUBLE)
    assert len(roots) == 2 and complex_pairs == 1


def test_cells_equal_halving_seeded(monkeypatch):
    rng = random.Random(23)
    polys = []
    for _ in range(300):
        deg = rng.randint(1, 12)
        lead = rng.choice((-1, 1)) * rng.randint(1, 9)
        polys.append(tuple(rng.randint(-30, 30) for _ in range(deg)) + (lead,))
    assert len(_check_cells(monkeypatch, polys)) > 300


@pytest.mark.parametrize("wrong", [None, -1, 1, -2, 2, -(2**70), 2**70])
@pytest.mark.parametrize(
    "phi",
    [GRID_POINT, NEAR_DOUBLE, section_at_minus_one(all_two_bridge(31)[-1]).phi],
    ids=["grid-point", "near-double", "S(31,q)"],
)
def test_wrong_guess(monkeypatch, phi, wrong):
    """Slopes patched so that every Newton step aims `wrong` cells off the
    root's cell (None: a zero slope, so no Newton step at all). They only
    choose where the bracket probes; every move rests on an exact sign, so
    the cell stays the oracle's, within the same budget."""
    value_and_slope = riley._value_and_slope
    aim = {}

    def steered(f, n, m):
        F, _G = value_and_slope(f, n, m)
        if wrong is None:
            return F, 0
        # the probe n/m minus the aim, in units of 1/m
        d = n - aim["L"] * m // aim["M"]
        return F, F // d if d else 0

    def aim_at(args, want):
        _sqf, lo, hi, _m, _bits = args
        # the grid's cells are hi - lo apart over M
        aim.update(L=want[0] + (wrong or 0) * (hi - lo), M=want[2])

    monkeypatch.setattr(riley, "_value_and_slope", steered)
    _check_cells(monkeypatch, [phi], before=aim_at)
