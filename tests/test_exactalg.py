import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmeta.exactalg import (
    LaurentBiPoly,
    LB_ONE,
    LB_S,
    LB_S_INV,
    LB_U,
    Mat2,
    _iadd,
    _irem_monic,
    _ishift,
    _isub,
    _trim,
    poly_derivative,
    poly_gcd,
    poly_str,
    ratio_str,
)


def mul(a, b):
    """Product by shift-and-add (Horner in a) on the kernel's operations."""
    out = ()
    for c in reversed(a):
        out = _iadd(_ishift(out), tuple(c * x for x in b))
    return out


class TestUniPoly:
    """Dense univariate polynomials over Z: tuples, constant term first."""

    def test_mul_difference_of_squares(self):
        assert mul((1, 1), (-1, 1)) == (-1, 0, 1)

    def test_mul_zero_absorbs(self):
        assert mul((), (3, 2, 1)) == ()
        assert mul((3, 2, 1), ()) == ()

    def test_mul_hand_expansion(self):
        assert mul((2, 1), (3, 1)) == (6, 5, 1)

    def test_zero_degree_sentinel(self):
        # u_degree of zero is -1, matching len(a) - 1 on tuples
        zero = LaurentBiPoly()
        assert zero.u_degree() == -1 == len(zero.eval_s_to_i()) - 1
        assert LB_ONE.u_degree() == 0
        assert (LB_U * LB_U + LB_S).u_degree() == 2

    def test_add_sub_trim(self):
        assert _iadd((1, 2, 3), (1, 2, -3)) == (2, 4)
        assert _isub((1, 2, 3), (1, 2, 3)) == ()
        assert _ishift(()) == ()

    def test_gcd_shared_factor(self):
        assert poly_gcd((-1, 0, 1), (-1, 1)) == (-1, 1)

    def test_gcd_squarefree_witness(self):
        # disc(u^2+5u+5) = 5 != 0
        assert poly_gcd((5, 5, 1), (5, 2)) == (1,)

    def test_gcd_with_zero_is_monic(self):
        assert poly_gcd((4, 2), ()) == (2, 1)
        assert poly_gcd((), (-6, -4)) == (3, 2)

    def test_gcd_content_free_positive_lead(self):
        # 6(u+1)(u+2) and -4(u+1)(u+3): gcd u+1, content and sign gone
        assert poly_gcd((12, 18, 6), (-12, -16, -4)) == (1, 1)

    def test_gcd_both_zero_raises(self):
        with pytest.raises(ValueError):
            poly_gcd((), ())

    def test_derivative(self):
        assert poly_derivative((5, 5, 1)) == (5, 2)
        assert poly_derivative((7,)) == ()
        assert poly_derivative((0, 0, 0, 1)) == (0, 0, 3)

    def test_rem_linear(self):
        assert _irem_monic((0, 0, 1), (3, 1)) == (9,)

    def test_rem_self(self):
        phi = (5, 5, 1)
        assert _irem_monic(phi, phi) == ()

    def test_rem_cubic(self):
        assert _irem_monic((0, 0, 0, 1), (5, 5, 1)) == (25, 20)

    def test_rem_by_zero_raises(self):
        with pytest.raises(AssertionError):
            _irem_monic((1, 1), ())

    def test_str(self):
        assert poly_str((5, 5, 1)) == "(1)*u^2 + (5)*u + (5)"
        assert poly_str((0, -3, 0, 2)) == "(2)*u^3 + (-3)*u"
        assert poly_str(()) == "0"


class TestLaurentBiPoly:
    def test_unit_cancellation(self):
        assert LB_S * LB_S_INV == LB_ONE

    def test_hand_expansion(self):
        p = LB_S * LB_S - LB_U
        got = p * (LB_S_INV * LB_S_INV)
        assert got == LB_ONE - LB_U * LB_S_INV * LB_S_INV

    def test_one_is_identity(self):
        p = LaurentBiPoly({(-3, 2): 5, (1, 0): -1})
        assert p * LB_ONE == p

    def test_eval_s_squared(self):
        assert (LB_S * LB_S).eval_s_to_i() == (-1,)

    def test_eval_matches_hand_expansion(self):
        assert (LB_S * LB_S - LB_U).eval_s_to_i() == (-1, -1)

    def test_eval_s_inverse(self):
        # s^-1 -> -i is not real: odd s-exponents are refused
        with pytest.raises(ValueError):
            LB_S_INV.eval_s_to_i()
        assert (LB_S_INV * LB_S_INV).eval_s_to_i() == (-1,)

    def test_u_exponent_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            LaurentBiPoly({(0, -1): 1})


class TestMat2:
    def test_x1_x2_product_at_minus_one(self):
        # at t = -1 each letter maps to i*N_g with N_g^2 = 1, so x1 x2 =
        # -N1 N2; the trace of N1 N2 is 2 + u
        u = Fraction(3, 2)
        n1 = Mat2(1, -1, 0, -1)
        n2 = Mat2(1, 0, -u, -1)
        assert n1 * n1 == n2 * n2 == Mat2.identity(1, 0)
        assert (n1 * n2).trace() == 2 + u
        assert (n1 * n2).det() == 1

    def test_antidiagonal_square_is_minus_identity(self):
        b = Fraction(3, 2)
        M = Mat2(0, b, -1 / b, 0)
        assert M * M == Mat2(-1, 0, 0, -1)


def test_gcd_matches_sympy():
    u = sympy.Symbol("u")
    rng = random.Random(5)

    def rand_poly(deg):
        return tuple(rng.randint(-6, 6) for _ in range(deg)) + (rng.choice((-3, -1, 2)),)

    for _ in range(60):
        g = rand_poly(rng.randint(0, 3))
        a = mul(g, rand_poly(rng.randint(0, 4)))
        b = mul(g, rand_poly(rng.randint(0, 4)))
        expected = sympy.Poly(
            sympy.gcd(sympy.Poly(a[::-1], u), sympy.Poly(b[::-1], u)), u
        ).primitive()[1]
        if expected.LC() < 0:
            expected = -expected
        assert poly_gcd(a, b) == tuple(int(c) for c in expected.all_coeffs()[::-1])


# ---------------------------------------------------------------------------
# ring properties

small_poly = st.lists(st.integers(-5, 5), max_size=4).map(_trim)
nonzero_poly = small_poly.filter(bool)
monic_poly = st.lists(st.integers(-5, 5), max_size=3).map(lambda c: tuple(c) + (1,))

small_laurent = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=4,
).map(LaurentBiPoly)
even_laurent = st.dictionaries(
    st.tuples(st.integers(-2, 2).map(lambda k: 2 * k), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=4,
).map(LaurentBiPoly)


@settings(max_examples=60)
@given(small_poly, small_poly, small_poly)
def test_unipoly_ring_axioms(p, q, r):
    assert _iadd(p, q) == _iadd(q, p)
    assert _isub(_iadd(p, q), q) == p
    assert mul(p, q) == mul(q, p)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, _iadd(q, r)) == _iadd(mul(p, q), mul(p, r))


@settings(max_examples=60)
@given(nonzero_poly, nonzero_poly)
def test_unipoly_degree_additivity(p, q):
    assert len(mul(p, q)) - 1 == (len(p) - 1) + (len(q) - 1)


@settings(max_examples=60)
@given(small_poly, small_poly, monic_poly)
def test_poly_rem_ideal_invariance(a, r, phi):
    assert _irem_monic(_iadd(mul(a, phi), r), phi) == _irem_monic(r, phi)


@settings(max_examples=60)
@given(small_laurent, small_laurent, small_laurent)
def test_laurent_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60)
@given(even_laurent, even_laurent)
def test_eval_s_to_i_is_ring_homomorphism(p, q):
    assert (p * q).eval_s_to_i() == mul(p.eval_s_to_i(), q.eval_s_to_i())
    assert (p + q).eval_s_to_i() == _iadd(p.eval_s_to_i(), q.eval_s_to_i())


# small values (zero, units, shared factors) and values far beyond one word
_ratio_ints = st.integers(-12, 12) | st.integers(-(2**130), 2**130)


@settings(derandomize=True, max_examples=400, database=None)
@given(_ratio_ints, _ratio_ints.filter(bool))
def test_ratio_str_matches_fraction(num, den):
    assert ratio_str(num, den) == str(Fraction(num, den))


def test_ratio_str_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        ratio_str(1, 0)
