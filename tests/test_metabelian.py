import math
import random
from fractions import Fraction

import pytest

from knotmeta import intlinalg, metabelian
from knotmeta.exactalg import ratio_str
from knotmeta.intlinalg import IntMat, det
from knotmeta.knotdata import KnotDataError, SeifertKnot, TwoBridge
from knotmeta.metabelian import (
    CensusError,
    MetabelianClass,
    count_metabelian,
    enumerate_metabelian,
    verify_class,
)

TREFOIL = SeifertKnot("3_1", IntMat([[-1, 1], [0, -1]]))
FIGURE8 = SeifertKnot("4_1", IntMat([[1, 1], [0, -1]]))


def canonical_rotation(thetas) -> tuple:
    """Lexicographic minimum of {theta, -theta mod 1}, for int or Fraction
    entries: the oracle for the member of each pair that the enumeration
    keeps."""
    thetas = tuple(t % 1 for t in thetas)
    return min(thetas, tuple((-t) % 1 for t in thetas))


def random_seifert(rng, genus):
    """Random valid Seifert matrix: symmetric part arbitrary, antisymmetric
    part the standard symplectic form. det(V+V^T) is then always odd."""
    n = 2 * genus
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = rng.randint(-3, 3)
    for g in range(genus):
        S[2 * g][2 * g + 1] += 1  # upper half of the symplectic form
    return SeifertKnot(f"rand-g{genus}", IntMat(S))


class TestCount:
    def test_trefoil(self):
        assert count_metabelian(TREFOIL) == 1

    def test_two_bridge(self):
        assert count_metabelian(TwoBridge("S(15,11)", 15, 11)) == 7

    def test_det_nine_gives_four(self):
        # the 8_20 census number: (9-1)/2
        assert count_metabelian(TwoBridge("S(9,5)", 9, 5)) == 4


class TestEnumerate:
    def test_trefoil_single_class(self):
        classes = enumerate_metabelian(TREFOIL)
        assert [c.thetas for c in classes] == [(Fraction(1, 3), Fraction(2, 3))]
        assert classes[0].order == 3

    def test_figure8_two_classes(self):
        classes = enumerate_metabelian(FIGURE8)
        assert len(classes) == 2
        assert all(c.order == 5 for c in classes)
        assert all(t.denominator in (1, 5) for c in classes for t in c.thetas)

    def test_count_matches_formula_random(self):
        rng = random.Random(5)
        for _ in range(25):
            K = random_seifert(rng, rng.randint(1, 2))
            classes = enumerate_metabelian(K)
            assert len(classes) == count_metabelian(K)

    def test_deterministic(self):
        a = enumerate_metabelian(FIGURE8)
        b = enumerate_metabelian(FIGURE8)
        assert a == b

    def test_genus_2_against_brute_force(self):
        """Every theta in ((1/D)Z/Z)^4, D = |det W| <= 25: the solutions of
        W theta = 0 mod 1, nonzero and taken up to sign, are the classes
        (Boden-Friedl, Pacific J. Math. 2008: (|det| - 1)/2 of them)."""
        import numpy as np

        rng = random.Random(17)
        seen = set()
        while len(seen) < 8:
            K = random_seifert(rng, 2)
            W = K.symmetrized()
            D = abs(det(W))
            if D > 25 or D in seen:
                continue
            seen.add(D)
            A = np.array(W.tolists(), dtype=np.int64)
            grid = np.indices((D,) * 4).reshape(4, -1)
            mask = ((A @ grid) % D == 0).all(axis=0)
            classes = set()
            for col in grid[:, mask].T:
                theta = tuple(Fraction(int(x), D) for x in col)
                if any(theta):
                    neg = tuple((-t) % 1 for t in theta)
                    classes.add(min(theta, neg))
            expected = [
                (t, math.lcm(*(x.denominator for x in t))) for t in sorted(classes)
            ]
            got = [(c.thetas, c.order) for c in enumerate_metabelian(K)]
            assert got == expected, (K.V, D)
            assert len(got) == (D - 1) // 2

    def test_dropped_solution_raises_census_error(self, monkeypatch):
        real = metabelian.torsion_solutions
        # the smallest nonzero solution is always its class's representative
        monkeypatch.setattr(
            metabelian, "torsion_solutions", lambda W: [real(W)[0]] + real(W)[2:]
        )
        with pytest.raises(CensusError) as info:
            enumerate_metabelian(FIGURE8)
        err = info.value
        assert (err.knot, err.enumerated, err.expected) == ("4_1", 1, 2)
        assert str(err) == (
            "4_1: enumerated 1 metabelian classes, expected (|det| - 1)/2 = 2"
        )

    def test_lattice_index_error_raises_census_error(self, monkeypatch):
        from test_intlinalg import dropping_a_pivot

        monkeypatch.setattr(
            intlinalg, "_hermite_mod", dropping_a_pivot(intlinalg._hermite_mod)
        )
        with pytest.raises(CensusError) as info:
            enumerate_metabelian(FIGURE8)
        err = info.value
        assert (err.knot, err.stage, err.enumerated, err.expected) == (
            "4_1",
            "torsion lattice",
            1,
            5,
        )
        assert str(err) == (
            "4_1: torsion lattice: Hermite pivots give 1 points, expected |det W| = 5"
        )

    def test_classes_skip_the_constructor_checks(self, monkeypatch):
        """The lattice already gives nonzero k in [0, D), so enumeration
        never runs MetabelianClass's checks; the constructor keeps them."""
        K = random_seifert(random.Random(4), 2)
        expected = enumerate_metabelian(K)

        def refuse(cls, k, D):
            raise AssertionError("MetabelianClass.__new__ called")

        with monkeypatch.context() as m:
            m.setattr(MetabelianClass, "__new__", refuse)
            classes = enumerate_metabelian(K)
            with pytest.raises(AssertionError):
                MetabelianClass((1, 2), 3)
        assert classes == expected
        assert all(type(c) is MetabelianClass for c in classes)
        for k in ((0, 0), (3, 0), (-1, 1)):
            with pytest.raises(ValueError):
                MetabelianClass(k, 3)

    def test_canonicalization_idempotent(self):
        rng = random.Random(9)
        for _ in range(10):
            K = random_seifert(rng, 1)
            for c in enumerate_metabelian(K):
                assert canonical_rotation(c.thetas) == c.thetas
                neg = tuple((-t) % 1 for t in c.thetas)
                assert canonical_rotation(neg) == c.thetas


def test_theta_str_matches_fraction():
    for D in (1, 3, 9, 15, 105):
        for x in range(-2 * D, 2 * D + 1):
            assert ratio_str(x, D) == str(Fraction(x, D)), (x, D)


class TestBuildRepresentation:
    def test_rejects_trivial_class(self):
        with pytest.raises(ValueError):
            MetabelianClass(k=(0, 0), D=3)

    def test_rejects_numerators_outside_zero_to_d(self):
        for k in ((3, 0), (-1, 1)):
            with pytest.raises(ValueError):
                MetabelianClass(k=k, D=3)


class TestVerifyClass:
    def test_all_enumerated_classes_pass(self):
        for K in (TREFOIL, FIGURE8):
            for c in enumerate_metabelian(K):
                report = verify_class(K, c)
                assert report.ok, report.failures
                assert report.meridian_trace_zero

    def test_corrupted_denominator_fails_relation(self):
        report = verify_class(TREFOIL, (Fraction(1, 4), Fraction(1, 4)))
        assert not report.relation_ok
        assert any("row" in f for f in report.failures)

    def test_wrong_length_vector_raises(self):
        # W is 2x2; zip would silently drop a third entry or check one row
        for theta in (
            (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)),
            (Fraction(1, 3),),
        ):
            with pytest.raises(ValueError) as info:
                verify_class(TREFOIL, theta)
            assert str(info.value) == (
                f"3_1: rotation vector has {len(theta)} entries, W has 2 rows"
            )

    def test_inexact_entries_raise(self):
        # a float used to be read as its binary fraction and fail a row
        for theta, i in (((1 / 3, 2 / 3), 0), ((Fraction(1, 3), "2/3"), 1)):
            with pytest.raises(ValueError) as info:
                verify_class(TREFOIL, theta)
            assert str(info.value) == (
                f"3_1: rotation vector entry {i} is {theta[i]!r}, not an exact rational"
            )
        with pytest.raises(ValueError, match="entry 0 is 0.5"):
            verify_class(TREFOIL, (0.5, Fraction(1, 2)))

    def test_boolean_entries_raise(self):
        # True has numerator 1 and denominator 1, but it is not a rational
        with pytest.raises(ValueError) as info:
            verify_class(TREFOIL, (True, Fraction(2, 3)))
        assert str(info.value) == (
            "3_1: rotation vector entry 0 is True, not an exact rational"
        )

    def test_int_entries_reduce_like_fractions(self):
        mixed = verify_class(TREFOIL, (1, Fraction(-2, 3)))
        assert mixed == verify_class(TREFOIL, (Fraction(0), Fraction(1, 3)))
        assert (mixed.k, mixed.D) == ((0, 1), 3)
        assert verify_class(TREFOIL, (Fraction(4, 3), Fraction(-1, 3))).ok

    def test_zero_vector_fails_irreducibility(self):
        report = verify_class(TREFOIL, (Fraction(0), Fraction(0)))
        assert report.relation_ok
        assert not report.irreducible_ok

    def test_non_solutions_with_right_denominator_fail(self):
        solutions = {c.thetas for c in enumerate_metabelian(TREFOIL)}
        for a in range(3):
            for b in range(3):
                theta = (Fraction(a, 3), Fraction(b, 3))
                report = verify_class(TREFOIL, theta)
                is_solution = (
                    canonical_rotation(theta) in solutions
                    or all(t == 0 for t in theta)
                )
                assert report.relation_ok == is_solution

    def test_even_determinant_rejected(self):
        # a valid symplectic-basis matrix cannot have even determinant,
        # so exercise the guard through a raw non-knot input
        class Fake:
            name = "fake"

        with pytest.raises((KnotDataError, TypeError)):
            count_metabelian(Fake())
