import math
import random
from fractions import Fraction

import pytest

from knotmeta import riley
from knotmeta.exactalg import (
    LB_ONE,
    LB_S,
    LB_S_INV,
    LB_U,
    LB_ZERO,
    Mat2,
    _content_normalize,
    _gcd_degree_mod,
    _iadd,
    _ineg,
    _iprem,
    _irem_monic,
    _ishift,
    _isub,
)
from knotmeta.knotdata import (
    GroupWord,
    TwoBridge,
    all_two_bridge,
    longitude_word,
    relator_word,
)
from knotmeta.riley import (
    _CERT_PRIME,
    _holonomy_at_i,
    _is_squarefree,
    _power_x1x2_at_i,
    approx_real_roots,
    cross_check_counts,
    riley_polynomial,
    section_at_minus_one,
    verify_longitude_mod_phi,
    verify_relator_general_t,
    verify_relator_mod_phi,
    word_holonomy,
)


def tb(p, q):
    return TwoBridge(name=f"S({p},{q})", p=p, q=q)


@pytest.fixture(autouse=True)
def fresh_memos():
    """Start every test with empty t = -1 memos, so a test that counts the
    work behind a memoized call sees that work whatever ran before it."""
    for memo in (riley._alternating_at_i, riley._power_x1x2_at_i, riley._is_squarefree):
        memo.cache_clear()


def letter_walk_at_i(w):
    """Reference for _holonomy_at_i: right-multiply by i*N_g letter by
    letter, with no reduction and no memo."""
    A, B, C, D = (1,), (), (), (1,)
    k = 0
    for g, e in w.letters:
        k += 1 if e == 1 else 3
        if g == 1:
            A, B = A, _ineg(_iadd(A, B))
            C, D = C, _ineg(_iadd(C, D))
        else:
            A, B = _isub(A, _ishift(B)), _ineg(B)
            C, D = _isub(C, _ishift(D)), _ineg(D)
    return k % 4, (A, B, C, D)


class TestReducedHolonomy:
    """_holonomy_at_i reduces the word in Z/2 * Z/2 and memoizes the
    alternating product; it must agree with the plain letter walk and, at
    small p, with the Laurent route."""

    KNOTS = all_two_bridge(45, include_negative_q=True)

    def test_matches_letter_walk_p_le_45(self):
        assert len(self.KNOTS) == 422
        for K in self.KNOTS:
            for w in (relator_word(K), longitude_word(K)):
                assert _holonomy_at_i(w) == letter_walk_at_i(w), K.name

    def test_matches_laurent_route_p_le_15(self):
        for K in all_two_bridge(15, include_negative_q=True):
            for w in (relator_word(K), longitude_word(K)):
                k, P = _holonomy_at_i(w)
                sign = 1 if k == 0 else -1
                lau = word_holonomy(w).entries()
                assert P == tuple(
                    tuple(sign * x for x in e.eval_s_to_i()) for e in lau
                ), K.name

    def test_relator_and_longitude_reduce(self):
        # the relator alternates x1, x2 with no cancellation; the longitude
        # cancels to the empty word with k = 0
        identity = ((1,), (), (), (1,))
        for K in self.KNOTS:
            k, P = _holonomy_at_i(relator_word(K))
            assert k % 2 == 0
            # the memoized product for (x1, p - 1) itself, not a recomputation
            assert P is riley._alternating_at_i(1, K.p - 1), K.name
            assert _holonomy_at_i(longitude_word(K)) == (0, identity), K.name

    def test_one_alternating_product_per_p(self):
        for K in self.KNOTS:
            section_at_minus_one(K)
            verify_longitude_mod_phi(K)
        # one relator product per p, and the empty word
        p_values = {K.p for K in self.KNOTS}
        assert riley._alternating_at_i.cache_info().currsize == len(p_values) + 1

    def test_cancellation(self):
        # x1 x2 x2^-1 x1^-1 x2 = i^{1+1+3+3+1} N2
        w = GroupWord(((1, 1), (2, 1), (2, -1), (1, -1), (2, 1)))
        assert _holonomy_at_i(w) == letter_walk_at_i(w)
        assert _holonomy_at_i(w) == (1, riley._alternating_at_i(2, 1))


class TestWordHolonomy:
    def test_empty_word_is_identity(self):
        got = word_holonomy(GroupWord(()))
        assert got == Mat2.identity(LB_ONE, LB_ZERO)

    def test_x1_x2_product(self):
        got = word_holonomy(GroupWord(((1, 1), (2, 1))))
        assert got == Mat2(
            LB_S * LB_S - LB_U,
            LB_S_INV * LB_S_INV,
            -LB_U,
            LB_S_INV * LB_S_INV,
        )

    def test_x1_x2_specializes_to_unit_matrix(self):
        got = word_holonomy(GroupWord(((1, 1), (2, 1))))
        # at s^2 = -1 this is [[-1-u, -1], [-u, -1]]
        assert got.a.eval_s_to_i() == (-1, -1)
        assert got.b.eval_s_to_i() == (-1,)
        assert got.c.eval_s_to_i() == (0, -1)
        assert got.d.eval_s_to_i() == (-1,)

    def test_random_word_times_inverse(self):
        rng = random.Random(13)
        for _ in range(8):
            letters = tuple(
                (rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(6)
            )
            w = GroupWord(letters)
            prod = word_holonomy(w) * word_holonomy(w.inverse())
            assert prod == Mat2.identity(LB_ONE, LB_ZERO)

    def test_determinant_one(self):
        for K in all_two_bridge(9):
            rho_w = word_holonomy(relator_word(K))
            assert rho_w.det() == LB_ONE


class TestRileyPolynomial:
    def test_s31_at_minus_one(self):
        phi = riley_polynomial(tb(3, 1)).eval_s_to_i()
        assert phi == (-3, -1)

    def test_s53_at_minus_one(self):
        phi = riley_polynomial(tb(5, 3)).eval_s_to_i()
        assert phi in ((5, 5, 1), (-5, -5, -1))

    def test_only_even_s_exponents(self):
        for K in all_two_bridge(11):
            assert riley_polynomial(K).s_exponents_all_even()


class TestSectionFastPath:
    def test_s31(self):
        sec = section_at_minus_one(tb(3, 1))
        assert sec.phi == (3, 1)
        assert sec.roots_count == 1
        assert sec.squarefree

    def test_s53(self):
        sec = section_at_minus_one(tb(5, 3))
        assert sec.phi == (5, 5, 1)
        assert sec.roots_count == 2

    def test_degrees(self):
        for K in all_two_bridge(21, include_negative_q=True):
            sec = section_at_minus_one(K)
            assert len(sec.phi) - 1 == (K.p - 1) // 2
            assert len(sec.w11) - 1 == (K.p - 1) // 2
            assert len(sec.w12) - 1 == (K.p - 3) // 2

    def test_agrees_with_laurent_route(self):
        # dual-route check: integer fast path vs full Laurent specialization
        for K in all_two_bridge(13, include_negative_q=True):
            sec = section_at_minus_one(K)
            lau = riley_polynomial(K).eval_s_to_i()
            normalized = _ineg(lau) if lau[-1] < 0 else lau
            assert sec.phi == normalized

    def test_power_form_matches_letter_product(self):
        for K in all_two_bridge(15):
            k, P = _holonomy_at_i(relator_word(K))
            assert k % 2 == 0
            power = _power_x1x2_at_i((K.p - 1) // 2)
            sign = 1 if k == 0 else -1
            assert tuple(tuple(sign * x for x in e) for e in P) == power


class TestInternalHelpers:
    def test_irem_monic(self):
        # u^3 mod u^2+5u+5 = 20u + 25
        assert _irem_monic((0, 0, 0, 1), (5, 5, 1)) == (25, 20)

    def test_content_normalize(self):
        assert _content_normalize((-10, -15, -5)) == (2, 3, 1)
        assert _content_normalize(()) == ()

    def test_perturbed_phi_leaves_residue(self):
        # the relator identity P N1 = N2 P must fail mod phi + 1
        K = tb(5, 3)
        phi_bad = (6, 5, 1)
        _k, (A, B, C, D) = _holonomy_at_i(relator_word(K))
        lhs = (A, _ineg(_iadd(A, B)), C, _ineg(_iadd(C, D)))
        rhs = (A, B, _isub(_ineg(_ishift(A)), C), _isub(_ineg(_ishift(B)), D))
        residues = [_irem_monic(_isub(l, r), phi_bad) for l, r in zip(lhs, rhs)]
        assert any(r != () for r in residues)


class TestVerifyOps:
    def test_relator_s53(self):
        report = verify_relator_mod_phi(tb(5, 3))
        assert report.ok
        assert report.residues == ((), (), (), ())

    def test_relator_sweep(self):
        for K in all_two_bridge(17, include_negative_q=True):
            assert verify_relator_mod_phi(K).ok, K.name

    def test_longitude_s53(self):
        report = verify_longitude_mod_phi(tb(5, 3))
        assert report.result == "id"
        assert report.trace_is_two
        assert report.ok

    def test_longitude_sweep(self):
        for K in all_two_bridge(15, include_negative_q=True):
            report = verify_longitude_mod_phi(K)
            assert report.result == "id", K.name
            assert report.trace_is_two

    def test_relator_general_t(self):
        for K in all_two_bridge(9):
            assert verify_relator_general_t(K).ok, K.name

    def test_report_serialization(self):
        d = verify_relator_mod_phi(tb(7, 3)).to_dict()
        assert d["ok"] is True
        assert d["residues"] == ["0"] * 4

    def test_shared_section_gives_the_same_reports(self):
        for K in all_two_bridge(11, include_negative_q=True):
            sec = section_at_minus_one(K)
            assert verify_relator_mod_phi(K, sec) == verify_relator_mod_phi(K)
            assert verify_longitude_mod_phi(K, sec) == verify_longitude_mod_phi(K)
            assert cross_check_counts(K, sec) == cross_check_counts(K)

    def test_section_of_another_knot_refused(self):
        sec = section_at_minus_one(tb(7, 3))
        with pytest.raises(ValueError):
            verify_relator_mod_phi(tb(7, 1), sec)

    def test_section_carries_integer_phi(self):
        K = tb(5, 3)
        sec = section_at_minus_one(K)
        assert sec.phi == (5, 5, 1)
        assert sec.relator == _holonomy_at_i(relator_word(K))[1]

    def test_relator_check_reuses_the_section_holonomy(self, monkeypatch):
        K = tb(9, 5)
        sec = section_at_minus_one(K)
        walks = []
        real = riley._holonomy_at_i

        def counting(w):
            walks.append(w)
            return real(w)

        monkeypatch.setattr(riley, "_holonomy_at_i", counting)
        assert verify_relator_mod_phi(K, sec).ok
        assert walks == []
        # a wrong holonomy in the section must show as a residue
        A, B, C, D = sec.relator
        bad = sec._replace(relator=(A, B, _iadd(C, (1,)), D))
        assert not verify_relator_mod_phi(K, bad).ok


class TestSquarefreeCertificate:
    @pytest.fixture
    def gcd_calls(self, monkeypatch):
        calls = []
        exact = riley.poly_gcd

        def counting(a, b):
            calls.append((a, b))
            return exact(a, b)

        monkeypatch.setattr(riley, "poly_gcd", counting)
        return calls

    def test_cert_prime_is_prime(self):
        P = _CERT_PRIME
        assert P < 2**31 and all(P % d for d in range(2, 46341))

    def test_squarefree_over_q_but_not_mod_prime(self, gcd_calls):
        # u^2 - P = u^2 mod P: the modular gcd is u, the exact one is 1
        phi = (-_CERT_PRIME, 0, 1)
        assert _gcd_degree_mod(phi, (0, 2), _CERT_PRIME) == 1
        assert _is_squarefree(phi)
        assert len(gcd_calls) == 1

    def test_repeated_factor_reported(self, gcd_calls):
        # (u+1)^2 (u+2)
        assert not _is_squarefree((2, 5, 4, 1))
        assert len(gcd_calls) == 1

    def test_modular_certificate_suffices_on_sections(self, gcd_calls):
        for K in all_two_bridge(21, include_negative_q=True):
            assert section_at_minus_one(K).squarefree
        assert gcd_calls == []

    def test_gcd_degree_mod(self):
        # (u+1)(u+2) and (u+1)(u+3) share u+1 over any field
        assert _gcd_degree_mod((2, 3, 1), (3, 4, 1), 101) == 1
        # u+1 and u+3 are coprime unless the prime divides 2
        assert _gcd_degree_mod((1, 1), (3, 1), 101) == 0
        assert _gcd_degree_mod((1, 1), (3, 1), 2) == 1


class TestCrossCheck:
    def test_s15_11(self):
        report = cross_check_counts(tb(15, 11))
        assert report.riley_root_count == 7
        assert report.half_p_minus_one == 7
        assert report.metabelian_count == 7
        assert report.ok

    def test_sweep(self):
        for K in all_two_bridge(21):
            assert cross_check_counts(K).ok, K.name


class TestApproxRealRoots:
    def test_linear(self):
        roots, pairs = approx_real_roots((3, 1))
        assert pairs == 0
        assert roots == [pytest.approx(-3.0)]

    def test_quadratic_golden(self):
        roots, pairs = approx_real_roots((5, 5, 1))
        assert pairs == 0
        assert roots == [
            pytest.approx((-5 - 5**0.5) / 2),
            pytest.approx((-5 + 5**0.5) / 2),
        ]

    def test_complex_pair(self):
        roots, pairs = approx_real_roots((1, 0, 1))
        assert roots == []
        assert pairs == 1

    def test_constant(self):
        assert approx_real_roots((7,)) == ([], 0)

    @pytest.mark.parametrize(
        "coeffs",
        [
            # 6u^2 + 10u - 7 scaled by 1/2: root bound 8/3, not dyadic
            (Fraction(-7, 2), 5, 3),
            # -(2/3)u^3 + u^2 + (5/7)u - 1/5: negative leading coefficient
            (Fraction(-1, 5), Fraction(5, 7), 1, Fraction(-2, 3)),
            # (u - 1/3)^2 (u + 2): a double root, so phi never changes sign there
            (Fraction(2, 9), Fraction(-11, 9), Fraction(4, 3), 1),
            # (u^2 + 1)(7u - 3)(5u + 11): one complex pair
            (-33, 34, 2, 34, 35),
        ],
    )
    def test_matches_fraction_bisection(self, coeffs):
        phi = [Fraction(c) for c in coeffs]
        assert approx_real_roots(scaled_to_int(phi)) == fraction_bisection_roots(phi)

    def test_matches_fraction_bisection_random(self):
        rng = random.Random(7)
        for _ in range(30):
            deg = rng.randint(1, 7)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
            coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)))
            assert approx_real_roots(scaled_to_int(coeffs)) == fraction_bisection_roots(
                coeffs
            ), coeffs

    def test_sturm_remainder_is_a_positive_multiple(self):
        rng = random.Random(11)
        for _ in range(30):
            a = tuple(rng.randint(-20, 20) for _ in range(6)) + (rng.randint(1, 9),)
            b = tuple(rng.randint(-20, 20) for _ in range(3)) + (rng.choice((-7, -2, 3)),)
            exact = frac_rem([Fraction(c) for c in a], [Fraction(c) for c in b])
            scaled = _iprem(a, b)
            if not exact:
                assert scaled == ()
                continue
            ratio = scaled[-1] / exact[-1]
            assert ratio > 0
            assert list(scaled) == [ratio * c for c in exact]


# ---------------------------------------------------------------------------
# Reference arithmetic on rational polynomials as Fraction lists, constant
# term first, no trailing zeros.

def scaled_to_int(coeffs) -> tuple:
    """The integer polynomial den * phi, den the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs)


def frac_eval(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def frac_rem(a, b):
    """Remainder of a by b over Q."""
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        s = len(rem) - len(b)
        for j, x in enumerate(b):
            rem[s + j] -= c * x
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def fraction_bisection_roots(phi, bits: int = 50):
    """Reference: Sturm isolation and bisection over Fractions, evaluating
    the whole chain at every step."""
    chain = [phi, [k * c for k, c in enumerate(phi)][1:]]
    while chain[-1]:
        chain.append([-c for c in frac_rem(chain[-2], chain[-1])])
    chain.pop()

    def changes(x):
        signs = [1 if v > 0 else -1 for v in (frac_eval(f, x) for f in chain) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(a, b):
        return changes(a) - changes(b)

    bound = 1 + max(abs(c) for c in phi) / abs(phi[-1])
    roots = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        n = count(a, b)
        if n == 0:
            continue
        if n == 1:
            lo, hi = a, b
            for _ in range(bits):
                mid = (lo + hi) / 2
                if count(lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            roots.append(float((lo + hi) / 2))
            continue
        mid = (a + b) / 2
        while frac_eval(phi, mid) == 0:
            mid = (a + mid) / 2
        stack.extend([(a, mid), (mid, b)])
    roots.sort()
    return roots, (len(phi) - 1 - len(roots)) // 2


class TestErrorPaths:
    def test_holonomy_unit_tracking(self):
        # rho(x1)^2 at t=-1 is i^2 * id = -id
        k, P = _holonomy_at_i(GroupWord(((1, 1), (1, 1))))
        assert k == 2
        assert P == ((1,), (), (), (1,))

    def test_inverse_letter_units(self):
        k, P = _holonomy_at_i(GroupWord(((2, 1), (2, -1))))
        assert k == 0
        assert P == ((1,), (), (), (1,))

    def test_bad_internal_phi_raises_nothing_silently(self):
        with pytest.raises(AssertionError):
            _irem_monic((1, 2, 3), (5, 5, 2))  # non-monic divisor refused
