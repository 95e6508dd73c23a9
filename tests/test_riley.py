import math
import random
from fractions import Fraction

import pytest

from cli_runner import CliRunner
from knotmeta import riley
from knotmeta.cli import main
from knotmeta.exactalg import (
    _CERT_PRIME,
    _badd,
    _bsub,
    _content_normalize,
    _gcd_degree_mod,
    _iadd,
    _imul,
    _ineg,
    _iprem,
    _ishift,
    _isub,
    _trim,
)
from knotmeta.knotdata import (
    GroupWord,
    TwoBridge,
    all_two_bridge,
    longitude_word,
    relator_word,
)
from knotmeta.riley import (
    RelatorReport,
    RileyError,
    _holonomy_at_i,
    _is_squarefree,
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
    for memo in (
        riley._alternating_at_i,
        riley._power_section,
        riley._relator_residues,
        riley._longitude_verdict,
    ):
        memo.cache_clear()


def at_minus_one(a):
    """An element of Z[t][u] at t = -1, as an integer polynomial in u."""
    return _trim([sum(e[::2]) - sum(e[1::2]) for e in a])


def bmul(a, b):
    """Product in Z[t][u], term by term in u."""
    out = ()
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out = _badd(out, ((),) * (i + j) + (_imul(x, y),))
    return out


def mat_mul(X, Y):
    """Product of 2x2 matrices (a, b, c, d) over Z[t][u]."""
    a, b, c, d = X
    e, f, g, h = Y
    return (
        _badd(bmul(a, e), bmul(b, g)),
        _badd(bmul(a, f), bmul(b, h)),
        _badd(bmul(c, e), bmul(d, g)),
        _badd(bmul(c, f), bmul(d, h)),
    )


def t_power(n):
    """t^n in Z[t][u]."""
    return ((0,) * n + (1,),)


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
    alternating product; it must agree with the plain letter walk and with
    the general-t route."""

    KNOTS = all_two_bridge(45, include_negative_q=True)

    def test_matches_letter_walk_p_le_45(self):
        assert len(self.KNOTS) == 422
        for K in self.KNOTS:
            for w in (relator_word(K), longitude_word(K)):
                assert _holonomy_at_i(w) == letter_walk_at_i(w), K.name

    def test_matches_general_t_route_p_le_45(self):
        # M_w = s^len(w) rho(w) = i^(len(w) + k) P at s = i, and len(w) + k
        # is even: each x_g adds 2 and each x_g^-1 adds 4
        for K in self.KNOTS:
            for w in (relator_word(K), longitude_word(K)):
                k, P = _holonomy_at_i(w)
                assert (len(w) + k) % 2 == 0
                sign = (-1) ** ((len(w) + k) // 2)
                assert tuple(at_minus_one(e) for e in word_holonomy(w)) == tuple(
                    tuple(sign * x for x in e) for e in P
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
        # a cold sweep builds one relator product per p, which is also the
        # power form, and the empty word's, for every longitude
        res = CliRunner().invoke(main, ["sweep", "--p-max", "45", "--negative-q", "-f", "json"])
        assert res.exit_code == 0, res.stderr
        p_values = {K.p for K in self.KNOTS}
        info = riley._alternating_at_i.cache_info()
        assert info.misses == info.currsize == len(p_values) + 1

    def test_cancellation(self):
        # x1 x2 x2^-1 x1^-1 x2 = i^{1+1+3+3+1} N2
        w = GroupWord(((1, 1), (2, 1), (2, -1), (1, -1), (2, 1)))
        assert _holonomy_at_i(w) == letter_walk_at_i(w)
        assert _holonomy_at_i(w) == (1, riley._alternating_at_i(2, 1))


ID = (((1,),), (), (), ((1,),))


class TestWordHolonomy:
    """M_w = s^len(w) rho(w) over Z[t][u], with s^2 = t."""

    def test_empty_word_is_identity(self):
        assert word_holonomy(GroupWord(())) == ID

    def test_x1_x2_product(self):
        # [[t,1],[0,1]] [[t,0],[-tu,1]] = [[t^2 - tu, 1], [-tu, 1]]
        got = word_holonomy(GroupWord(((1, 1), (2, 1))))
        assert got == (((0, 0, 1), (0, -1)), ((1,),), ((), (0, -1)), ((1,),))

    def test_x1_x2_specializes_to_unit_matrix(self):
        a, b, c, d = word_holonomy(GroupWord(((1, 1), (2, 1))))
        # at t = s^2 = -1 this is -[[-1-u, -1], [-u, -1]]
        assert at_minus_one(a) == (1, 1)
        assert at_minus_one(b) == (1,)
        assert at_minus_one(c) == (0, 1)
        assert at_minus_one(d) == (1,)

    def test_random_word_times_inverse(self):
        # rho(w) rho(w^-1) = id, so M_w M_(w^-1) = t^len(w) id
        rng = random.Random(13)
        for _ in range(8):
            letters = tuple(
                (rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(6)
            )
            w = GroupWord(letters)
            tn = t_power(len(w))
            assert mat_mul(word_holonomy(w), word_holonomy(w.inverse())) == (tn, (), (), tn)

    def test_determinant_one(self):
        # det rho(w) = 1, so det M_w = t^len(w)
        for K in all_two_bridge(9):
            w = relator_word(K)
            a, b, c, d = word_holonomy(w)
            assert _bsub(bmul(a, d), bmul(b, c)) == t_power(len(w))


class TestRileyPolynomial:
    """Phi = M11 + (1 - t) M12 = t^((p-1)/2) phi(t,u) over Z[t][u]."""

    def test_s31_at_minus_one(self):
        # phi(-1,u) = -3 - u, times t = -1
        assert at_minus_one(riley_polynomial(tb(3, 1))) == (3, 1)

    def test_s53_at_minus_one(self):
        assert at_minus_one(riley_polynomial(tb(5, 3))) in ((5, 5, 1), (-5, -5, -1))

    def test_only_even_s_exponents(self, monkeypatch):
        # phi = s^-len(w) Phi has only even s-exponents: the relator word
        # has even length, and an odd one is refused
        for K in all_two_bridge(11):
            assert len(relator_word(K)) % 2 == 0, K.name
        monkeypatch.setattr(riley, "relator_word", lambda K: GroupWord(((1, 1),)))
        with pytest.raises(RileyError, match="odd length 1"):
            riley_polynomial(tb(5, 3))

    def test_monic_in_u_up_to_a_power_of_t(self):
        # deg_u Phi = (p-1)/2 with leading coefficient (-t)^((p-1)/2): phi
        # is monic in u up to sign
        for K in all_two_bridge(45, include_negative_q=True):
            n = (K.p - 1) // 2
            phi = riley_polynomial(K)
            assert len(phi) - 1 == n, K.name
            assert phi[-1] == (0,) * n + ((-1) ** n,), K.name


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

    def test_agrees_with_general_t_route(self):
        # dual-route check: integer fast path vs Phi(-1,u) = +-phi(-1,u)
        for K in all_two_bridge(45, include_negative_q=True):
            sec = section_at_minus_one(K)
            phi = at_minus_one(riley_polynomial(K))
            assert phi in (sec.phi, _ineg(sec.phi)), K.name

    def test_power_form_matches_letter_product(self):
        # (rho(x1) rho(x2))^h at t = -1 is M^h, M = [[-1-u,-1],[-u,-1]],
        # folded here with shift/add steps: it must be (-1)^h times the
        # alternating product of 2h factors from N1
        powers = [((1,), (), (), (1,))]
        for h in range(100):
            A, B, C, D = powers[-1]
            powers.append((
                _isub(_ineg(A), _ishift(_iadd(A, B))), _ineg(_iadd(A, B)),
                _isub(_ineg(C), _ishift(_iadd(C, D))), _ineg(_iadd(C, D)),
            ))
        for h, power in enumerate(powers):
            sign = (-1) ** h
            alternating = riley._alternating_at_i(1, 2 * h)
            assert power == tuple(tuple(sign * x for x in e) for e in alternating), h
        # and each knot's relator walk, with its unit, is the fold
        for K in all_two_bridge(15):
            half = (K.p - 1) // 2
            k, P = _holonomy_at_i(relator_word(K))
            assert k % 2 == 0
            sign = 1 if k == 0 else -1
            assert tuple(tuple(sign * x for x in e) for e in P) == powers[half]
            sec = section_at_minus_one(K)
            assert (sec.w11, sec.w12) == powers[half][:2], K.name


class TestInternalHelpers:
    def test_iprem_by_monic(self):
        # u^3 mod u^2+5u+5 = 20u + 25, exactly: the divisor is monic
        assert _iprem((0, 0, 0, 1), (5, 5, 1)) == (25, 20)

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
        residues = [_iprem(_isub(l, r), phi_bad) for l, r in zip(lhs, rhs)]
        assert any(r != () for r in residues)


class TestVerifyOps:
    def test_relator_s53(self):
        report = verify_relator_mod_phi(section_at_minus_one(tb(5, 3)))
        assert report.ok
        assert report.residues == ((), (), (), ())

    def test_relator_sweep(self):
        for K in all_two_bridge(17, include_negative_q=True):
            assert verify_relator_mod_phi(section_at_minus_one(K)).ok, K.name

    def test_longitude_s53(self):
        report = verify_longitude_mod_phi(section_at_minus_one(tb(5, 3)))
        assert report.result == "id"
        assert report.trace_is_two
        assert report.ok

    def test_longitude_sweep(self):
        for K in all_two_bridge(15, include_negative_q=True):
            report = verify_longitude_mod_phi(section_at_minus_one(K))
            assert report.result == "id", K.name
            assert report.trace_is_two

    def test_relator_general_t(self):
        for K in all_two_bridge(45, include_negative_q=True):
            assert verify_relator_general_t(K).ok, K.name

    def test_flipped_exponent_leaves_general_t_residue(self, monkeypatch):
        K = tb(13, 5)
        letters = list(relator_word(K).letters)
        g, e = letters[3]
        letters[3] = (g, -e)
        monkeypatch.setattr(riley, "relator_word", lambda K: GroupWord(tuple(letters)))
        report = verify_relator_general_t(K)
        assert not report.ok
        assert any(report.residues)

    def test_report_serialization(self):
        d = verify_relator_mod_phi(section_at_minus_one(tb(7, 3))).to_dict()
        assert d["ok"] is True
        assert d["residues"] == ["0"] * 4

    def test_general_t_residue_serialization(self):
        # a Z[t][u] residue renders with t inside each u-coefficient
        r = RelatorReport("K", False, (((0, 0, 1), (), (-1, 2)), (), (), ()))
        assert r.to_dict()["residues"] == [
            "((2)*t + (-1))*u^2 + ((1)*t^2)", "0", "0", "0",
        ]

    def test_section_carries_integer_phi(self):
        K = tb(5, 3)
        sec = section_at_minus_one(K)
        assert sec.knot is K
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
        assert verify_relator_mod_phi(sec).ok
        assert walks == []
        # a wrong holonomy in the section must show as a residue
        A, B, C, D = sec.relator
        bad = sec._replace(relator=(A, B, _iadd(C, (1,)), D))
        assert not verify_relator_mod_phi(bad).ok


class TestPerValueMemos:
    """The power form and phi are memoized per p, the relator residues and
    the longitude verdict per distinct value: a knot whose own data differ
    misses the memo and gets its own verdict, and a failure, which no memo
    keeps, names each knot it is raised for."""

    def test_perturbed_relator_after_a_good_one(self):
        sec = section_at_minus_one(tb(7, 1))
        assert verify_relator_mod_phi(sec).ok
        A, B, C, D = sec.relator
        report = verify_relator_mod_phi(sec._replace(relator=(A, B, _iadd(C, (1,)), D)))
        assert not report.ok
        assert any(report.residues)

    def test_longitude_of_one_knot_broken(self, monkeypatch):
        real = riley.longitude_word

        def broken(K):
            w = real(K)
            # x1 x2 appended to S(7,3)'s longitude only
            return w * GroupWord(((1, 1), (2, 1))) if K.q == 3 else w

        monkeypatch.setattr(riley, "longitude_word", broken)
        assert verify_longitude_mod_phi(section_at_minus_one(tb(7, 1))).result == "id"
        report = verify_longitude_mod_phi(section_at_minus_one(tb(7, 3)))
        assert report.result == "neither"
        assert not report.trace_is_two

    def test_power_form_error_names_each_knot(self, monkeypatch):
        real = riley._alternating_at_i
        # one factor rho(x1) rho(x2) too many in the shared product: w11 of
        # degree half + 1
        monkeypatch.setattr(riley, "_alternating_at_i", lambda g, n: real(g, n + 2))
        for q in (1, 3, 1):
            with pytest.raises(RileyError, match=rf"^S\(7,{q}\): deg w11\(-1,u\) = 4, expected 3$"):
                section_at_minus_one(tb(7, q))

    def test_sweep_shares_each_p(self):
        # S(p, +-q) for 3 <= p <= 21: 94 knots over 10 values of p
        res = CliRunner().invoke(main, ["sweep", "--p-max", "21", "--negative-q", "-f", "json"])
        assert res.exit_code == 0, res.stderr
        for memo in (riley._power_section, riley._relator_residues, riley._longitude_verdict):
            info = memo.cache_info()
            assert (info.misses, info.hits) == (10, 84), memo.__name__


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
        report = cross_check_counts(section_at_minus_one(tb(15, 11)))
        assert report.riley_root_count == 7
        assert report.half_p_minus_one == 7
        assert report.metabelian_count == 7
        assert report.ok

    def test_sweep(self):
        for K in all_two_bridge(21):
            assert cross_check_counts(section_at_minus_one(K)).ok, K.name


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

    @pytest.mark.parametrize(
        "edit",
        [
            # the same reduced product, with the unit i^2 too many
            lambda letters: ((letters[0][0], -letters[0][1]),) + letters[1:],
            # another reduced product
            lambda letters: letters[:-2],
        ],
        ids=["unit", "product"],
    )
    def test_another_relator_word_is_refused(self, monkeypatch, edit):
        real = riley.relator_word
        monkeypatch.setattr(riley, "relator_word", lambda K: GroupWord(edit(real(K).letters)))
        for q in (1, 3):
            with pytest.raises(
                RileyError,
                match=rf"^S\(7,{q}\): letter-product holonomy differs from the "
                r"\(rho\(x1\)rho\(x2\)\)\^3 power form at t = -1$",
            ):
                section_at_minus_one(tb(7, q))
