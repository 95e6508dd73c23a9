"""Acceptance battery: the headline claims, each with an explicit time
budget. Every check is exact; there are no numeric tolerances anywhere."""

import hashlib
import itertools
import json
import random
import time

from cli_runner import CliRunner
from knotmeta.apoly import (
    APoly,
    APolyError,
    degree_bound_check,
    eval_at_sqrt_minus_one,
    factor_profile,
    proposition_criteria,
    vertical_edge_check,
)
from knotmeta.cli import main
from knotmeta.intlinalg import IntMat, det, torsion_solutions
from knotmeta.knotdata import (
    SeifertKnot,
    all_two_bridge,
    builtin_apolys,
    builtin_seifert_knots,
)
from knotmeta.metabelian import enumerate_metabelian, verify_class
from knotmeta.riley import (
    cross_check_counts,
    section_at_minus_one,
    verify_longitude_mod_phi,
    verify_relator_mod_phi,
)


def _report(label, elapsed, budget):
    print(f"pass: {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeded {budget:.0f}s budget"


def fixture_apoly(name):
    return next(A for A in builtin_apolys() if A.name == name)


def test_census_formula_trefoil_figure8():
    t0 = time.monotonic()
    expected = {"3_1": 1, "4_1": 2}
    for K in builtin_seifert_knots():
        classes = enumerate_metabelian(K)
        assert len(classes) == expected[K.name]
        for c in classes:
            report = verify_class(K, c)
            assert report.ok, (K.name, report.failures)
    _report("census formula on trefoil and figure-8", time.monotonic() - t0, 1)


def test_census_genus_2_det_7113():
    # torsion Z/7113 = Z/3 x Z/2371; enumeration plus verification of all
    # 3556 classes took about 0.04 s on a 2-CPU host, against a 0.2 s target
    V = [[-36, -5, -5, 44], [-6, -1, 0, 1], [-5, 0, -5, 39], [44, 1, 38, -416]]
    K = SeifertKnot("g2-det7113", IntMat(V))
    t0 = time.monotonic()
    classes = enumerate_metabelian(K)
    assert len(classes) == (7113 - 1) // 2
    for c in classes:
        report = verify_class(K, c)
        assert report.ok, report.failures
    _report("det 7113 census enumerated and verified", time.monotonic() - t0, 1)


def test_census_genus_12_det_1001():
    # blocks of det 7, 11 and -13 and nine of det -1, as a connected sum
    # V, mixed to a dense U^T V U (entries up to 26131) by 200 random column
    # additions on U. On a 2-CPU host it is enumerated and verified in about
    # 0.04 s, against 0.1 s by a Smith form with unimodular transforms.
    rng = random.Random(12)
    blocks = [(2, 1), (1, 3), (1, -3)] + [(0, 0)] * 9
    n = 2 * len(blocks)
    V = [[0] * n for _ in range(n)]
    for g, (a, b) in enumerate(blocks):
        V[2 * g][2 * g], V[2 * g][2 * g + 1], V[2 * g + 1][2 * g + 1] = a, 1, b
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(200):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in U:
            row[i] += c * row[j]
    U = IntMat(U)
    K = SeifertKnot("mixed-g12-det1001", U.transpose() @ IntMat(V) @ U)
    t0 = time.monotonic()
    classes = enumerate_metabelian(K)
    assert len(classes) == 500
    for c in classes:
        report = verify_class(K, c)
        assert report.ok, report.failures
    _report("genus-12 det 1001 census enumerated and verified", time.monotonic() - t0, 1)


def test_census_cli_genus_1_det_99999(tmp_path):
    # V + V^T = [[50, 1], [1, 2000]], torsion Z/99999: 49 999 classes.
    # The digests pin the bytes of both JSON reports.
    path = tmp_path / "knots.json"
    path.write_text(
        json.dumps([{"type": "seifert", "name": "g1-det99999", "V": [[25, 1], [0, 1000]]}])
    )
    expected = {
        "meta-enum": "ea50d58803d59d8e7018c5b395c184b8b512cf7ca0ede6df92e49f127e67df37",
        "meta-verify": "eed4f12f11337e0d702071b686e70ee7586fae0d091f3c2805b4029f74ddf986",
    }
    t0 = time.monotonic()
    for cmd, digest in expected.items():
        res = CliRunner().invoke(main, [cmd, "-i", str(path), "-f", "json"])
        assert res.exit_code == 0, res.stderr
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest, cmd
    _report("meta-enum and meta-verify, det 99999", time.monotonic() - t0, 2)


def test_torsion_count_against_brute_force():
    from test_intlinalg import brute_force_torsion, torsion_thetas

    t0 = time.monotonic()
    rng = random.Random(2026)
    done = 0
    while done < 200:
        n = rng.randint(1, 3)
        W = IntMat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        d = det(W)
        if d == 0 or abs(d) > 30:
            continue
        done += 1
        assert len(torsion_solutions(W)) == abs(d)
        assert torsion_thetas(W) == brute_force_torsion(W)
    _report("200 random torsion counts vs brute force", time.monotonic() - t0, 10)


def test_riley_degree_claims_p_le_45():
    t0 = time.monotonic()
    knots = all_two_bridge(45, include_negative_q=True)
    assert len(knots) == 422
    for K in knots:
        sec = section_at_minus_one(K)  # raises on any degree/squarefree breach
        assert len(sec.w11) - 1 == (K.p - 1) // 2
        assert len(sec.w12) - 1 == (K.p - 3) // 2
        assert len(sec.phi) - 1 == (K.p - 1) // 2
        assert sec.squarefree
    _report("Riley degree claims for all S(p,q), p <= 45", time.monotonic() - t0, 30)


def test_three_way_count_agreement_p_le_45():
    t0 = time.monotonic()
    for K in all_two_bridge(45, include_negative_q=True):
        rep = cross_check_counts(section_at_minus_one(K))
        assert rep.ok, K.name
        assert rep.half_p_minus_one == (K.p - 1) // 2
    _report("three-way count agreement, p <= 45", time.monotonic() - t0, 30)


def test_relator_and_longitude_identities_p_le_25():
    t0 = time.monotonic()
    for K in all_two_bridge(25, include_negative_q=True):
        sec = section_at_minus_one(K)
        rel = verify_relator_mod_phi(sec)
        assert rel.ok, (K.name, rel.to_dict()["residues"])
        lon = verify_longitude_mod_phi(sec)
        assert lon.result == "id", (K.name, lon.result)
        assert lon.trace_is_two, K.name
    _report("relator and longitude identities, p <= 25", time.monotonic() - t0, 60)


def test_sweep_p_le_101():
    t0 = time.monotonic()
    res = CliRunner().invoke(main, ["sweep", "--p-max", "101", "--negative-q", "-f", "json"])
    assert res.exit_code == 0, res.stderr
    rows = json.loads(res.stdout)
    knots = all_two_bridge(101, include_negative_q=True)
    assert len(rows) == len(knots)
    assert {r["name"] for r in rows} == {K.name for K in knots}
    for r in rows:
        half = (r["p"] - 1) // 2
        assert r["ok"] is True, r["name"]
        assert r["det"] == r["p"], r["name"]
        assert r["meta_count"] == r["riley_deg"] == half, r["name"]
    _report("sweep --p-max 101 --negative-q", time.monotonic() - t0, 2)


def test_8_20_fixture_numbers():
    t0 = time.monotonic()
    A = fixture_apoly("8_20")
    assert A.deg_l == 5
    prof = factor_profile(A)
    assert (prof.a, prof.b, prof.c) == (0, 3, 2)  # (l-1)^3 (l+1)^2
    assert len(prof.residual) == 1
    assert (9 - 1) // 2 == 4 and prof.b <= 4
    bound = degree_bound_check(A)
    assert not bound.applicable  # not a 2-bridge knot: no bound claimed
    findings = proposition_criteria(A)
    assert any(
        f.kind == "trace-free-nonmetabelian" and "omega = -1" in f.detail
        for f in findings
    )
    _report("8_20 fixture numbers", time.monotonic() - t0, 1)


def test_two_bridge_apoly_bound():
    t0 = time.monotonic()
    for name in ("3_1", "4_1"):
        A = fixture_apoly(name)
        prof = factor_profile(A)
        # eval at sqrt(-1) is +-(l-1)^k, k = deg_l(A)
        assert prof.a == 0 and prof.c == 0
        assert prof.residual in ((1,), (-1,))
        assert prof.b == A.deg_l
        rep = degree_bound_check(A)
        assert rep.applicable and rep.ok and rep.slack >= 0
        assert vertical_edge_check(A) is False
    _report("2-bridge A-polynomial bound on trefoil and figure-8",
            time.monotonic() - t0, 1)


def _lift(poly_in_l):
    """Integer polynomial in l -> APoly terms; if l-1 divides it, add m^2+1
    so ingest passes while the evaluation at sqrt(-1) is unchanged."""
    terms = {(0, e): c for e, c in enumerate(poly_in_l) if c}
    if sum(poly_in_l) == 0:  # vanishes at l = 1
        terms[(2, 0)] = terms.get((2, 0), 0) + 1
        terms[(0, 0)] = terms.get((0, 0), 0) + 1
    return terms


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] += x * y
    return out


def test_criteria_on_synthetic_polynomials():
    t0 = time.monotonic()

    # finding 1: (m^2+1) * g(l) for a spread of g
    for g in ([1, 1], [2, 0, 3], [1, 1, 1, 1], [-1, 0, 0, 0, 1]):
        terms = {}
        for e, c in enumerate(g):
            if c:
                terms[(2, e)] = c
                terms[(0, e)] = c
        try:
            A = APoly.from_terms("syn-arcs", terms)
        except APolyError:
            continue  # g divisible by l-1: not an admissible fixture
        (f,) = proposition_criteria(A)
        assert f.kind == "arcs"

    # finding 2: every monic residual of degree <= 4 with small roots,
    # optionally padded with (l-1)^b (l+1)^c
    roots_pool = [2, 3, -2, 5]
    for deg in range(1, 5):
        for roots in itertools.combinations_with_replacement(roots_pool, deg):
            poly = [1]
            for r in roots:
                poly = _mul(poly, [-r, 1])
            for b, c in ((0, 0), (1, 0), (0, 1), (2, 1)):
                full = poly
                for _ in range(b):
                    full = _mul(full, [-1, 1])
                for _ in range(c):
                    full = _mul(full, [1, 1])
                A = APoly.from_terms("syn-res", _lift(full), small_flag=True)
                findings = proposition_criteria(A)
                kinds = {f.kind for f in findings}
                assert kinds == {"trace-free-nonmetabelian"}, (roots, b, c)
                details = " | ".join(f.detail for f in findings)
                if deg <= 2:
                    for r in set(roots):
                        assert f"omega = {r}" in details, (roots, details)
                else:
                    assert "residual factor of degree" in details
                # without the smallness assertion the same data is inconclusive
                A2 = APoly.from_terms("syn-res", _lift(full), small_flag=None)
                assert {f.kind for f in proposition_criteria(A2)} == {"inconclusive"}

    # sanity: a pure (l-1)^k never fires anything
    for k in range(1, 5):
        poly = [1]
        for _ in range(k):
            poly = _mul(poly, [-1, 1])
        A = APoly.from_terms("syn-pure", _lift(poly))
        (f,) = proposition_criteria(A)
        assert f.kind == "none"
        assert len(eval_at_sqrt_minus_one(A)) - 1 == k

    _report("criteria on synthetic polynomials, residual degree <= 4",
            time.monotonic() - t0, 30)
