import random
from pathlib import Path

import pytest
import sympy

from knotmeta import apoly
from knotmeta.apoly import (
    APoly,
    APolyError,
    analyze,
    degree_bound_check,
    eval_at_sqrt_minus_one,
    factor_profile,
    metabelian_multiplicity_probe,
    proposition_criteria,
    squarefree_in_l_warning,
    vertical_edge_check,
)
from knotmeta.exactalg import _CERT_PRIME, _trim, poly_derivative, poly_gcd
from knotmeta.knotdata import builtin_apolys, load_apolys

ANALYZE_DATA = Path(__file__).parent / "data" / "apoly_analyze"


def ap(name, terms, **kw):
    return APoly.from_terms(name, terms, **kw)


def fixture(name):
    return next(A for A in builtin_apolys() if A.name == name)


class TestIngest:
    def test_rejects_zero(self):
        with pytest.raises(APolyError, match="zero polynomial"):
            ap("z", {(0, 0): 0})

    def test_rejects_odd_m_exponent(self):
        with pytest.raises(APolyError, match="odd m-exponent"):
            ap("odd", {(1, 0): 1})

    def test_rejects_l_minus_one_divisible(self):
        with pytest.raises(APolyError, match="divisible by l-1"):
            ap("ab", {(0, 1): 1, (0, 0): -1})

    def test_rejects_l_minus_one_divisible_bivariate(self):
        # (l-1)(m^2 + l)
        with pytest.raises(APolyError, match="divisible by l-1"):
            ap("ab2", {(2, 1): 1, (2, 0): -1, (0, 2): 1, (0, 1): -1})

    def test_rejects_negative_exponent(self):
        with pytest.raises(APolyError, match="negative exponent"):
            ap("neg", {(0, -1): 1})

    def test_rejects_duplicate_pairs_in_record(self):
        rec = {
            "type": "apoly",
            "name": "dup",
            "terms": [{"m": 0, "l": 1, "c": 1}, {"m": 0, "l": 1, "c": 2}],
        }
        with pytest.raises(APolyError, match="duplicate"):
            APoly.from_record(rec)

    def test_rejects_duplicate_pairs_in_pair_list(self):
        terms = [((0, 0), 1), ((0, 0), 2), ((0, 1), 1)]
        with pytest.raises(APolyError, match=r"dup: duplicate exponent pair \(0, 0\)"):
            ap("dup", terms)

    def test_duplicate_zero_term_is_still_a_duplicate(self):
        with pytest.raises(APolyError, match="duplicate"):
            ap("dup0", [((0, 1), 0), ((0, 1), 1), ((0, 0), 2)])

    def test_pair_list_equals_dict(self):
        terms = {(0, 2): 1, (2, 1): -3, (0, 0): 5}
        assert ap("x", list(terms.items())) == ap("x", terms)

    @pytest.mark.parametrize("flag", ["yes", 0, 1, "", [], 1.0])
    def test_rejects_non_bool_small_flag(self, flag):
        with pytest.raises(APolyError, match="small flag must be True, False or None"):
            ap("f", {(0, 1): 1, (0, 0): 2}, small_flag=flag)

    @pytest.mark.parametrize("flag", [True, False, None])
    def test_bool_small_flag_round_trips(self, flag):
        A = ap("f", {(0, 1): 1, (0, 0): 2}, small_flag=flag)
        assert A.small_flag is flag
        assert APoly.from_record(A.to_record()) == A

    def test_sign_normalization(self):
        a = ap("s", {(0, 0): -1, (0, 2): -1})
        b = ap("s", {(0, 0): 1, (0, 2): 1})
        assert a.terms == b.terms

    def test_record_round_trip(self):
        for A in builtin_apolys():
            assert APoly.from_record(A.to_record()) == A


class TestEvalAtSqrtMinusOne:
    def test_trefoil_fixture(self):
        # l + m^6 evaluates to l - 1
        assert eval_at_sqrt_minus_one(fixture("3_1")) == (-1, 1)

    def test_figure8_fixture(self):
        # sign-normalized fixture: the evaluation is -(l-1)^2
        assert eval_at_sqrt_minus_one(fixture("4_1")) == (-1, 2, -1)

    def test_against_independent_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            terms = {
                (2 * rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-9, 9)
                for _ in range(rng.randint(1, 6))
            }
            try:
                A = ap("rand", terms)
            except APolyError:
                continue
            expected = {}
            for (me, le), c in A.terms:
                expected[le] = expected.get(le, 0) + sympy.I**me * c
            got = eval_at_sqrt_minus_one(A)
            for le, v in expected.items():
                coeff = got[le] if le < len(got) else 0
                assert coeff == v
                assert sympy.im(v) == 0  # even m-powers keep everything rational


class TestVerticalEdge:
    def test_artificial_edge(self):
        A = ap("edge", {(0, 0): 1, (0, 1): 1, (2, 0): 1})
        assert vertical_edge_check(A) is True

    def test_figure8_no_edge(self):
        assert vertical_edge_check(fixture("4_1")) is False

    def test_no_edge_with_degree_drop_is_accepted(self):
        # (m^2 + 1) l^2: no vertical edge, yet A(sqrt(-1), l) = 0, since
        # the top l-coefficient vanishes at m = sqrt(-1)
        A = ap("drop", {(0, 2): 1, (2, 2): 1})
        assert vertical_edge_check(A) is False
        assert A.deg_l == 2
        assert eval_at_sqrt_minus_one(A) == ()


class TestFactorProfile:
    def test_trefoil(self):
        prof = factor_profile(fixture("3_1"))
        assert (prof.a, prof.b, prof.c) == (0, 1, 0)
        assert prof.residual == (1,)

    def test_8_20(self):
        prof = factor_profile(fixture("8_20"))
        assert (prof.a, prof.b, prof.c) == (0, 3, 2)
        assert len(prof.residual) == 1

    def test_reconstruct_matches_eval(self):
        for A in builtin_apolys():
            prof = factor_profile(A)
            got = prof.reconstruct()
            assert got == eval_at_sqrt_minus_one(A), A.name

    def test_matches_sympy_factorization(self):
        l, m = sympy.symbols("l m")
        rng = random.Random(43)
        for _ in range(40):
            a, b, c = (rng.randint(0, 2) for _ in range(3))
            g = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
            g.append(rng.choice((-2, 1, 3)))
            target = l**a * (l - 1) ** b * (l + 1) ** c * sum(
                x * l**k for k, x in enumerate(g)
            )
            # (m^2 + 1) h(l) vanishes at m = i; h(1) != 0 keeps l - 1 from
            # dividing A itself
            h = l ** rng.randint(0, 4) + 1
            A_expr = sympy.expand(target + (m**2 + 1) * h)
            terms = {
                (me, le): int(cf)
                for (me, le), cf in sympy.Poly(A_expr, m, l).terms()
            }
            prof = factor_profile(ap("rand", terms))
            ev = sympy.Poly(sympy.expand(target), l)
            mult = {f: k for f, k in sympy.factor_list(ev.as_expr(), l)[1]}
            expected = (mult.get(l, 0), mult.get(l - 1, 0), mult.get(l + 1, 0))
            assert (prof.a, prof.b, prof.c) == expected, g
            rebuilt = prof.reconstruct()
            coeffs = tuple(int(x) for x in ev.all_coeffs()[::-1])
            # ingest normalizes the sign of A
            assert rebuilt in (coeffs, tuple(-x for x in coeffs)), g

    def test_identically_zero(self):
        A = ap("van", {(2, 1): 1, (0, 1): 1, (2, 0): 1, (0, 0): 1})
        prof = factor_profile(A)
        assert prof.is_zero
        assert prof.reconstruct() == ()


class TestPropositionCriteria:
    def test_finding_one_arcs(self):
        # (m^2+1)(l^2+l+1)
        A = ap(
            "arcs",
            {(2, 2): 1, (2, 1): 1, (2, 0): 1, (0, 2): 1, (0, 1): 1, (0, 0): 1},
        )
        (f,) = proposition_criteria(A)
        assert f.kind == "arcs"

    def test_finding_two_8_20(self):
        kinds = {f.kind for f in proposition_criteria(fixture("8_20"))}
        assert kinds == {"trace-free-nonmetabelian"}
        details = [f.detail for f in proposition_criteria(fixture("8_20"))]
        assert any("omega = -1" in d for d in details)
        assert any("trace(rho(lambda)) = -2" in d for d in details)

    def test_finding_two_rational_omegas(self):
        A = ap("quad", {(0, 2): 1, (0, 1): -5, (0, 0): 6}, small_flag=True)
        details = [f.detail for f in proposition_criteria(A)]
        assert any("omega = 2" in d for d in details)
        assert any("omega = 3" in d for d in details)
        assert any("5/2" in d for d in details)

    def test_missing_small_flag_is_inconclusive(self):
        A = ap("quad2", {(0, 2): 1, (0, 1): -5, (0, 0): 6})
        (f,) = proposition_criteria(A)
        assert f.kind == "inconclusive"

    def test_irrational_residual_reported(self):
        # l^2 - 3 has no roots in Q(i)
        A = ap("irr", {(0, 2): 1, (0, 0): -3}, small_flag=True)
        (f,) = proposition_criteria(A)
        assert f.kind == "trace-free-nonmetabelian"
        assert "residual factor of degree 2" in f.detail

    def test_pure_l_minus_one_power_fires_nothing(self):
        for name in ("3_1", "4_1"):
            (f,) = proposition_criteria(fixture(name))
            assert f.kind == "none"


class TestDegreeBound:
    def test_trefoil(self):
        rep = degree_bound_check(fixture("3_1"))
        assert rep.applicable
        assert (rep.deg_l, rep.bound, rep.slack, rep.k) == (1, 1, 0, 1)
        assert rep.pure_l_minus_1_power
        assert rep.ok

    def test_figure8(self):
        rep = degree_bound_check(fixture("4_1"))
        assert (rep.deg_l, rep.bound, rep.slack, rep.k) == (2, 2, 0, 2)
        assert rep.ok

    def test_untagged_not_applicable(self):
        rep = degree_bound_check(fixture("8_20"))
        assert not rep.applicable
        assert rep.bound is None
        assert rep.ok  # vacuously

    def test_violation_raises(self):
        A = ap("bad", {(0, 2): 1, (6, 0): 1}, pq=(3, 1))
        with pytest.raises(APolyError, match="exceeds the 2-bridge bound"):
            degree_bound_check(A)


class TestProbe:
    def test_8_20(self):
        rep = metabelian_multiplicity_probe(fixture("8_20"), det=9)
        assert (rep.k, rep.bound, rep.within_bound) == (3, 4, True)

    def test_violation_reported_not_raised(self):
        # (l-1)^5 + m^2 + 1 against determinant 3
        terms = {(0, 5): 1, (0, 4): -5, (0, 3): 10, (0, 2): -10, (0, 1): 5, (2, 0): 1}
        A = ap("hot", terms)
        rep = metabelian_multiplicity_probe(A, det=3)
        assert rep.k == 5
        assert rep.bound == 1
        assert not rep.within_bound

    def test_even_determinant_rejected(self):
        with pytest.raises(APolyError, match="odd"):
            metabelian_multiplicity_probe(fixture("3_1"), det=4)

    @pytest.mark.parametrize("det", [True, False])
    def test_boolean_determinant_rejected(self, det):
        # read as 1, True would give bound 0: a false counterexample
        with pytest.raises(APolyError, match="3_1: det: boolean"):
            analyze(fixture("3_1"), det=det)

    @pytest.mark.parametrize("det", [3.0, 2.5])
    def test_float_determinant_rejected(self, det):
        # 3.0 would put the float 1.0 into the bound; 2.5 passes the odd test
        with pytest.raises(TypeError):
            analyze(fixture("3_1"), det=det)


class TestWarning:
    def test_fixtures_clean(self):
        for A in builtin_apolys():
            assert squarefree_in_l_warning(A) is None, A.name

    def test_repeated_factor_flagged(self):
        A = ap("sq", {(0, 2): 1, (0, 1): -4, (0, 0): 4})
        msg = squarefree_in_l_warning(A)
        assert msg is not None and "repeated factor" in msg


def _exact_warning(A):
    """The normal-form warning from the exact gcd over Q alone."""
    by_l = {}
    for (me, le), c in A.terms:
        by_l[le] = by_l.get(le, 0) + c * 3**me
    p = _trim([by_l.get(e, 0) for e in range(max(by_l) + 1)])
    if len(p) < 2:
        return None
    g = poly_gcd(p, poly_derivative(p))
    if len(g) == 1:
        return None
    return (
        f"{A.name}: A(3, l) has a repeated factor (gcd degree {len(g) - 1}); "
        "fixture may not be in normal form"
    )


def _random_terms(rng):
    return {
        (2 * rng.randrange(5), rng.randrange(6)): rng.randint(-9, 9)
        for _ in range(rng.randint(2, 7))
    }


def _square(terms):
    out = {}
    for (m1, l1), c1 in terms.items():
        for (m2, l2), c2 in terms.items():
            out[m1 + m2, l1 + l2] = out.get((m1 + m2, l1 + l2), 0) + c1 * c2
    return out


def _seeded_records(seed=11, count=300):
    """Random records and their squares F^2, the ones ingest refuses
    (zero, divisible by l-1) left out."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        terms = _random_terms(rng)
        for name, t in ((f"r{i}", terms), (f"r{i}^2", _square(terms))):
            try:
                out.append(ap(name, t))
            except APolyError:
                pass
    return out


class TestCertifiedWarning:
    """The warning takes the modular certificate when it holds and the
    exact gcd otherwise; either way it says what the exact gcd says."""

    @pytest.fixture
    def gcd_calls(self, monkeypatch):
        calls = []
        exact = apoly.poly_gcd

        def counting(a, b):
            calls.append(a)
            return exact(a, b)

        monkeypatch.setattr(apoly, "poly_gcd", counting)
        return calls

    def test_fixtures_and_recorded_inputs(self):
        records = builtin_apolys() + [
            A
            for f in ("residuals.json", "gaussian.json")
            for A in load_apolys(ANALYZE_DATA / f)
        ]
        for A in records:
            assert squarefree_in_l_warning(A) == _exact_warning(A), A.name

    def test_seeded_records_and_squares(self, gcd_calls):
        records = _seeded_records()
        squares = [A for A in records if A.name.endswith("^2")]
        assert len(records) > 400 and len(squares) > 200
        warned = 0
        for A in records:
            want = _exact_warning(A)
            assert squarefree_in_l_warning(A) == want, A.name
            warned += want is not None
        # the squares are flagged, and only flagged records reach the exact
        # gcd: the certificate settles every coprime one
        assert warned >= len(squares)
        assert len(gcd_calls) == warned

    def test_leading_coefficient_divisible_by_the_prime(self, gcd_calls):
        # A(3, l) = P l^2 + l + 1 is squarefree, but P | lc: exact path
        A = ap("lcP", {(0, 2): _CERT_PRIME, (0, 1): 1, (0, 0): 1})
        assert squarefree_in_l_warning(A) is None
        assert len(gcd_calls) == 1
        # (P l + 1)^2: P^2 | lc, and the exact gcd finds the square
        B = ap("lcP^2", {(0, 2): _CERT_PRIME**2, (0, 1): 2 * _CERT_PRIME, (0, 0): 1})
        assert squarefree_in_l_warning(B) == _exact_warning(B) is not None
        assert "gcd degree 1" in squarefree_in_l_warning(B)

    def test_certificate_alone_on_a_coprime_record(self, gcd_calls):
        assert squarefree_in_l_warning(fixture("8_20")) is None
        assert gcd_calls == []


class TestAnalyze:
    def test_8_20_full_report(self):
        rep = analyze(fixture("8_20"), det=9)
        d = rep.to_dict()
        assert d["deg_l"] == 5
        assert d["factor_profile"]["l_minus_1_power"] == 3
        assert d["factor_profile"]["l_plus_1_power"] == 2
        assert d["has_vertical_edge"] is True
        assert d["degree_bound"]["applicable"] is False
        assert d["probe"]["bound"] == 4
        assert "u" not in d["eval_at_i"]  # rendered in the variable l

    def test_without_det_no_probe(self):
        rep = analyze(fixture("3_1"))
        assert rep.probe is None
        assert rep.bound.ok
