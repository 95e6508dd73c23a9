import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmeta.exactalg import (
    _badd,
    _bmul_t,
    _bmul_u,
    _bprem,
    _bsub,
    _iadd,
    _imul,
    _iprem,
    _ishift,
    _isub,
    _trim,
    poly_derivative,
    poly_gcd,
    poly_str,
    ratio_str,
)
from knotmeta.knotdata import GroupWord
from knotmeta.riley import word_holonomy


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
        # over Z[t][u] as over Z, the u-degree is len(a) - 1, -1 for zero
        one = ((1,),)
        assert len(_bsub(one, one)) - 1 == -1
        assert len(one) - 1 == 0
        assert len(_badd(_bmul_u(_bmul_u(one)), _bmul_t(one))) - 1 == 2

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

    # by a monic divisor _iprem scales by 1: the exact remainder over Z
    def test_rem_linear(self):
        assert _iprem((0, 0, 1), (3, 1)) == (9,)

    def test_rem_self(self):
        phi = (5, 5, 1)
        assert _iprem(phi, phi) == ()

    def test_rem_cubic(self):
        assert _iprem((0, 0, 0, 1), (5, 5, 1)) == (25, 20)

    def test_rem_by_zero_raises(self):
        # the zero polynomial has no leading coefficient
        with pytest.raises(IndexError):
            _iprem((1, 1), ())

    def test_str(self):
        assert poly_str((5, 5, 1)) == "(1)*u^2 + (5)*u + (5)"
        assert poly_str((0, -3, 0, 2)) == "(2)*u^3 + (-3)*u"
        assert poly_str(()) == "0"


class TestBiPoly:
    """Z[t][u]: a tuple indexed by u-degree of Z[t] tuples."""

    def test_imul_hand_expansion(self):
        assert _imul((1, 1), (-1, 1)) == (-1, 0, 1)
        assert _imul((0, 0, 1), (3, 2)) == (0, 0, 3, 2)
        assert _imul((), (1, 2)) == _imul((1, 2), ()) == ()

    def test_add_trims_empty_coefficients(self):
        a = ((1,), (0, 1), (2, 0, 3))
        assert _bsub(a, a) == ()
        assert _bsub(a, ((), (), (2, 0, 3))) == ((1,), (0, 1))
        assert _badd(((1,),), ((-1,), (5,))) == ((), (5,))

    def test_shifts(self):
        a = ((1,), (), (2, 1))
        assert _bmul_t(a) == ((0, 1), (), (0, 2, 1))
        assert _bmul_u(a) == ((), (1,), (), (2, 1))
        assert _bmul_t(()) == _bmul_u(()) == ()

    def test_prem_hand_expansion(self):
        # t^2 (t u^2 + 1) mod (t u + 2) = t^2 + 4t
        assert _bprem(((1,), (), (0, 1)), ((2,), (0, 1))) == ((0, 4, 1),)
        # deg a < deg b: a itself
        assert _bprem(((1,), (3,)), ((1,), (), (1,))) == ((1,), (3,))
        with pytest.raises(ZeroDivisionError):
            _bprem(((1,),), ())


class TestMatrixTuples:
    """A 2x2 matrix is the tuple (a, b, c, d); at t = -1 the letter matrices
    of word_holonomy are the involutions -N_g."""

    def test_x1_x2_product_at_minus_one(self):
        # M_w = s^len(w) rho(w) and rho(x_g) = i N_g at s = i, so the t = -1
        # value of M_w is N_g for w = x_g x_g and N1 N2 for w = x1 x2; the
        # trace of N1 N2 is 2 + u
        def at_minus_one(w):
            return tuple(
                _trim([sum(e[::2]) - sum(e[1::2]) for e in entry])
                for entry in word_holonomy(GroupWord(w))
            )

        identity = ((1,), (), (), (1,))
        assert at_minus_one(((1, 1), (1, 1))) == identity
        assert at_minus_one(((2, 1), (2, 1))) == identity
        a, b, c, d = at_minus_one(((1, 1), (2, 1)))
        assert _iadd(a, d) == (2, 1)
        assert _isub(mul(a, d), mul(b, c)) == (1,)

    def test_antidiagonal_square_is_minus_identity(self):
        b = Fraction(3, 2)
        x, y, z, w = 0, b, -1 / b, 0
        assert (x * x + y * z, x * y + y * w, z * x + w * z, z * y + w * w) == (-1, 0, 0, -1)


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

small_bipoly = st.lists(small_poly, max_size=3).map(_trim)
nonzero_bipoly = small_bipoly.filter(bool)


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
    assert _iprem(_iadd(mul(a, phi), r), phi) == _iprem(r, phi)


@settings(max_examples=60)
@given(small_poly, small_poly)
def test_imul_matches_shift_add(p, q):
    assert _imul(p, q) == mul(p, q)


@settings(max_examples=60)
@given(small_bipoly, small_bipoly, small_bipoly)
def test_bipoly_additive_group_and_shifts(p, q, r):
    assert _badd(p, q) == _badd(q, p)
    assert _badd(_badd(p, q), r) == _badd(p, _badd(q, r))
    assert _bsub(_badd(p, q), q) == p
    assert _bmul_t(_bmul_u(p)) == _bmul_u(_bmul_t(p))
    assert _bmul_t(_badd(p, q)) == _badd(_bmul_t(p), _bmul_t(q))


def test_bprem_matches_sympy():
    u, t = sympy.symbols("u t")
    rng = random.Random(17)

    def rand_bipoly(deg_u):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] for _ in range(deg_u)]
        rows.append([rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] + [rng.choice((-2, 1, 3))])
        return _trim([_trim(row) for row in rows])

    def to_sympy(a):
        return sum(c * t**i * u**j for j, row in enumerate(a) for i, c in enumerate(row))

    for _ in range(80):
        a, b = rand_bipoly(rng.randint(0, 5)), rand_bipoly(rng.randint(0, 3))
        expected = sympy.expand(sympy.prem(to_sympy(a), to_sympy(b), u))
        assert sympy.expand(to_sympy(_bprem(a, b)) - expected) == 0, (a, b)


# small values (zero, units, shared factors) and values far beyond one word
_ratio_ints = st.integers(-12, 12) | st.integers(-(2**130), 2**130)


@settings(derandomize=True, max_examples=400, database=None)
@given(_ratio_ints, _ratio_ints.filter(bool))
def test_ratio_str_matches_fraction(num, den):
    assert ratio_str(num, den) == str(Fraction(num, den))


@settings(derandomize=True, max_examples=400, database=None)
@given(_ratio_ints, _ratio_ints.filter(bool))
def test_ratio_str_needs_no_json_escape(num, den):
    # the census row renderers put it between JSON quotes as it is
    assert re.fullmatch(r"-?[0-9]+(/[0-9]+)?", ratio_str(num, den))


def test_ratio_str_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        ratio_str(1, 0)
