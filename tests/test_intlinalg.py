import math
import operator
import random
import time
from fractions import Fraction

import pytest

from knotmeta import intlinalg
from knotmeta.intlinalg import (
    IntLinAlgError,
    IntMat,
    LatticeIndexError,
    det,
    smith_normal_form,
    torsion_solutions,
)


def brute_force_torsion(W: IntMat):
    """Independent oracle: enumerate every theta with denominator dividing
    |det W| and keep those with W theta integral. Exact integer arithmetic
    throughout (W k = 0 mod D)."""
    import numpy as np

    D = abs(det(W))
    n = W.rows
    A = np.array(W.tolists(), dtype=np.int64)
    grid = np.indices((D,) * n).reshape(n, -1)
    mask = ((A @ grid) % D == 0).all(axis=0)
    sols = sorted(
        tuple(Fraction(int(k), D) for k in col) for col in grid[:, mask].T
    )
    return sols


def torsion_thetas(W: IntMat):
    """torsion_solutions as rotation vectors: each k becomes k / |det W|."""
    D = abs(det(W))
    return [tuple(Fraction(x, D) for x in k) for k in torsion_solutions(W)]


def check_invariant_factors(W: IntMat) -> tuple:
    """smith_normal_form(W) against sympy's invariant factors: positive,
    each dividing the next, with product |det W|."""
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import ZZ

    d = smith_normal_form(W)
    assert d == tuple(abs(x) for x in invariant_factors(Matrix(W.tolists()), domain=ZZ))
    assert all(x > 0 for x in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    assert math.prod(d) == abs(det(W))
    return d


def random_nonsingular(rng, n, entries):
    while True:
        W = IntMat([[rng.randint(-entries, entries) for _ in range(n)] for _ in range(n)])
        if det(W):
            return W


def mixed(rng, diag):
    """U @ diag @ V for random unimodular U and V: integer row and column
    additions on a diagonal matrix, so |det| = prod(diag) stays small while
    the entries and the torsion's shape vary."""
    n = len(diag)
    a = [[d if i == j else 0 for j, d in enumerate(diag)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        else:
            for row in a:
                row[i] += c * row[j]
    return IntMat(a)


def dropping_a_pivot(hermite):
    """`hermite` with its first pivot below D replaced by D*e_i: a basis of
    the wrong index, as a bug in the Hermite routine would give."""

    def dropped(gens, D):
        basis = hermite(gens, D)
        i = next(i for i, b in enumerate(basis) if b[i] < D)
        basis[i] = [D * (j == i) for j in range(len(basis))]
        return basis

    return dropped


# A dense genus-3 Seifert matrix (det 483) on which the swap-and-reduce
# Smith form once ran without end, its entries growing to millions of bits.
DENSE_G3 = [
    [7, -4, 3, -5, -4, -10],
    [-5, 1, 1, 4, 0, 1],
    [3, 1, -2, -1, 0, 1],
    [-5, 4, -2, 6, 0, 4],
    [-4, 0, 0, 0, 4, 6],
    [-10, 1, 1, 4, 5, 10],
]


class TestDet:
    def test_trefoil_symmetrized(self):
        assert det(IntMat([[-2, 1], [1, -2]])) == 3

    def test_identity(self):
        assert det(IntMat.identity(4)) == 1

    def test_figure8_symmetrized(self):
        assert det(IntMat([[2, 1], [1, -2]])) == -5

    def test_non_square_raises(self):
        with pytest.raises(IntLinAlgError):
            det(IntMat([[1, 2, 3], [4, 5, 6]]))

    def test_singular(self):
        assert det(IntMat([[1, 2], [2, 4]])) == 0

    def test_matches_snf_product_up_to_sign(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            M = IntMat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            d = det(M)
            if d:
                assert abs(d) == math.prod(smith_normal_form(M))
            else:
                with pytest.raises(IntLinAlgError):
                    smith_normal_form(M)


class TestSmithNormalForm:
    """smith_normal_form returns the invariant factors d_1 | ... | d_n of a
    nonsingular square matrix as a tuple."""

    def test_diag_2_3(self):
        assert smith_normal_form(IntMat([[2, 0], [0, 3]])) == (1, 6)

    def test_identity(self):
        assert smith_normal_form(IntMat.identity(3)) == (1, 1, 1)

    def test_trefoil(self):
        assert smith_normal_form(IntMat([[-2, 1], [1, -2]])) == (1, 3)

    def test_non_cyclic(self):
        assert smith_normal_form(IntMat([[6, 0], [0, 10]])) == (2, 30)
        assert smith_normal_form(IntMat([[3, 0, 0], [0, 9, 0], [0, 0, 3]])) == (3, 3, 9)

    def test_non_square_raises(self):
        with pytest.raises(IntLinAlgError):
            smith_normal_form(IntMat([[1, 2, 3]]))

    def test_singular_raises(self):
        with pytest.raises(IntLinAlgError, match="singular"):
            smith_normal_form(IntMat([[1, 2], [2, 4]]))

    def test_matches_sympy_up_to_8x8(self):
        rng = random.Random(13)
        for _ in range(120):
            check_invariant_factors(random_nonsingular(rng, rng.randint(1, 8), 9))

    def test_reconstruction_and_chain(self):
        """The invariant factors rebuild the torsion group: for every m | D
        the solutions k with m*k = 0 mod D number prod gcd(m, d_i), which
        the torsion solver counts by another route."""
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 5)
            W = mixed(rng, [rng.choice((1, 1, 2, 3, 3, 5, 6, 9)) for _ in range(n)])
            d = check_invariant_factors(W)
            D = math.prod(d)
            sols = torsion_solutions(W)
            for m in (m for m in range(1, D + 1) if D % m == 0):
                killed = sum(all(m * x % D == 0 for x in k) for k in sols)
                assert killed == math.prod(math.gcd(m, x) for x in d), (W, m)

    def test_dense_genus_3_terminates(self):
        from knotmeta.knotdata import SeifertKnot
        from knotmeta.metabelian import enumerate_metabelian

        t0 = time.monotonic()
        K = SeifertKnot("dense-g3", IntMat(DENSE_G3))
        assert check_invariant_factors(K.symmetrized()) == (1, 1, 1, 1, 1, 483)
        assert len(enumerate_metabelian(K)) == 241
        assert time.monotonic() - t0 < 1.0

    def test_random_dense_up_to_genus_5(self):
        rng = random.Random(41)
        for _ in range(200):
            W = random_nonsingular(rng, 2 * rng.randint(1, 5), 9)
            d = smith_normal_form(W)
            assert all(b % a == 0 for a, b in zip(d, d[1:]))
            assert math.prod(d) == abs(det(W))


class TestTorsionSolutions:
    def test_single_entry(self):
        assert torsion_solutions(IntMat([[2]])) == [(0,), (1,)]
        assert torsion_thetas(IntMat([[2]])) == [
            (Fraction(0),),
            (Fraction(1, 2),),
        ]

    def test_identity_unimodular(self):
        assert torsion_thetas(IntMat.identity(3)) == [
            (Fraction(0), Fraction(0), Fraction(0))
        ]

    def test_trefoil(self):
        assert torsion_solutions(IntMat([[-2, 1], [1, -2]])) == [
            (0, 0),
            (1, 2),
            (2, 1),
        ]
        assert torsion_thetas(IntMat([[-2, 1], [1, -2]])) == [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(1, 3)),
        ]

    def test_singular_raises(self):
        with pytest.raises(IntLinAlgError):
            torsion_solutions(IntMat([[1, 1], [1, 1]]))

    def test_cardinality_validity_and_negation_closure(self):
        rng = random.Random(23)
        done = 0
        while done < 50:
            n = rng.randint(1, 3)
            W = IntMat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            d = det(W)
            if d == 0 or abs(d) > 30:
                continue
            done += 1
            assert all(
                0 <= x < abs(d) for k in torsion_solutions(W) for x in k
            )
            sols = torsion_thetas(W)
            assert len(sols) == abs(d)
            assert len(set(sols)) == len(sols)
            assert sols == sorted(sols)
            entries = W.entries
            for theta in sols:
                for row in entries:
                    s = sum((w * t for w, t in zip(row, theta)), Fraction(0))
                    assert s % 1 == 0
                neg = tuple((-t) % 1 for t in theta)
                assert neg in set(sols)

    def test_against_brute_force_oracle(self):
        rng = random.Random(31)
        done = 0
        while done < 40:
            n = rng.randint(1, 3)
            W = IntMat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            d = det(W)
            if d == 0 or abs(d) > 30:
                continue
            done += 1
            assert torsion_thetas(W) == brute_force_torsion(W)

    def test_points_ordered_and_solving_up_to_12x12(self):
        """Exactly D points, strictly increasing, each with W k = 0 mod D:
        together these fix the list, as W k = 0 mod 1 has D solutions in
        (Q/Z)^n and [0, D)^n holds one representative of each."""
        rng = random.Random(5)
        for n in [*range(1, 13)] * 8:
            diag = [1] * n
            for i in rng.sample(range(n), min(n, 3)):
                diag[i] = rng.choice((1, 2, 3, 5, 7, 9))
            W = mixed(rng, diag)
            D = abs(det(W))
            sols = torsion_solutions(W)
            assert len(sols) == D
            assert all(a < b for a, b in zip(sols, sols[1:]))
            for k in sols:
                assert all(0 <= x < D for x in k)
                assert all(sum(map(operator.mul, row, k)) % D == 0 for row in W.entries)

    def test_dropped_pivot_is_a_lattice_index_error(self, monkeypatch):
        """Pivots whose index is not D are a bug, not bad input: the error
        is no IntLinAlgError, and it comes before the first point."""
        monkeypatch.setattr(
            intlinalg, "_hermite_mod", dropping_a_pivot(intlinalg._hermite_mod)
        )
        with pytest.raises(LatticeIndexError) as info:
            torsion_solutions(IntMat([[-2, 1], [1, -2]]))
        assert not isinstance(info.value, IntLinAlgError)
        assert (info.value.points, info.value.D) == (1, 3)
        assert str(info.value) == "Hermite pivots give 1 points, expected |det W| = 3"
