import random
import time
from fractions import Fraction

import pytest

from knotmeta.intlinalg import (
    IntLinAlgError,
    IntMat,
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


def check_snf(W: IntMat):
    snf = smith_normal_form(W)
    assert snf.U @ W @ snf.Vt == snf.D
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.Vt)) == 1
    d = snf.diag
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return snf


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
            prod = 1
            for x in smith_normal_form(M).diag:
                prod *= x
            assert abs(d) == prod


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(IntMat([[2, 0], [0, 3]])).diag == (1, 6)

    def test_identity(self):
        snf = smith_normal_form(IntMat.identity(3))
        assert snf.diag == (1, 1, 1)

    def test_trefoil(self):
        assert smith_normal_form(IntMat([[-2, 1], [1, -2]])).diag == (1, 3)

    def test_non_square_raises(self):
        with pytest.raises(IntLinAlgError):
            smith_normal_form(IntMat([[1, 2, 3]]))

    def test_reconstruction_and_chain(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            W = IntMat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            check_snf(W)

    def test_dense_genus_3_terminates(self):
        from knotmeta.knotdata import SeifertKnot
        from knotmeta.metabelian import enumerate_metabelian

        t0 = time.monotonic()
        K = SeifertKnot("dense-g3", IntMat(DENSE_G3))
        assert check_snf(K.symmetrized()).diag == (1, 1, 1, 1, 1, 483)
        assert len(enumerate_metabelian(K)) == 241
        assert time.monotonic() - t0 < 1.0

    def test_random_dense_up_to_genus_5(self):
        rng = random.Random(41)
        for _ in range(200):
            n = 2 * rng.randint(1, 5)
            W = IntMat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            snf = check_snf(W)
            prod = 1
            for x in snf.diag:
                prod *= x
            assert prod == abs(det(W))


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
