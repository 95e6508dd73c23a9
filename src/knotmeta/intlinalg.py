"""Exact integer matrix algebra: determinants, Smith normal form with
unimodular transforms, and the torsion solver for W*theta = 0 over Q/Z.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class IntLinAlgError(ValueError):
    pass


class IntMat:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise IntLinAlgError("matrix must be nonempty")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise IntLinAlgError("ragged rows in matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *args):
        raise AttributeError("IntMat is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, IntMat):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def transpose(self) -> "IntMat":
        return IntMat(list(zip(*self.entries)))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise IntLinAlgError("shape mismatch in addition")
        return IntMat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise IntLinAlgError("shape mismatch in subtraction")
        return IntMat(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise IntLinAlgError("shape mismatch in product")
        bt = list(zip(*other.entries))
        return IntMat(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def tolists(self):
        return [list(r) for r in self.entries]

    def __repr__(self):
        return f"IntMat({self.tolists()})"


def det(M: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not M.is_square():
        raise IntLinAlgError("determinant of a non-square matrix")
    n = M.rows
    a = M.tolists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SnfResult(NamedTuple):
    """U @ W @ Vt = D with U, Vt unimodular and D = diag(d_1,...,d_n),
    d_i >= 0 and d_i | d_{i+1}."""

    U: IntMat
    D: IntMat
    Vt: IntMat

    @property
    def diag(self) -> tuple:
        return tuple(self.D[i, i] for i in range(self.D.rows))


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def smith_normal_form(W: IntMat) -> SnfResult:
    """Pivot on a smallest nonzero entry, then clear its row and column.
    An entry the pivot divides is cleared by a subtraction; any other by a
    2x2 unimodular step built from the extended gcd, which replaces the
    pivot by a proper divisor, at most half its size. So each pivot takes
    at most log2 |pivot| such steps."""
    if not W.is_square():
        raise IntLinAlgError("Smith normal form of a non-square matrix")
    n = W.rows
    a = W.tolists()
    u = IntMat.identity(n).tolists()
    v = IntMat.identity(n).tolists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def mix_rows(i, j, s, t, x, y):
        """row i <- s*row i + t*row j, row j <- x*row i + y*row j."""
        for m in (a, u):
            ri, rj = m[i], m[j]
            m[i] = [s * p + t * q for p, q in zip(ri, rj)]
            m[j] = [x * p + y * q for p, q in zip(ri, rj)]

    def mix_cols(i, j, s, t, x, y):
        """col i <- s*col i + t*col j, col j <- x*col i + y*col j."""
        for m in (a, v):
            for r in m:
                p, q = r[i], r[j]
                r[i], r[j] = s * p + t * q, x * p + y * q

    def clear(t, entry, mix):
        """Zero entry(i) for i > t (the column below the pivot or the row
        right of it) with mix_rows or mix_cols. True if the pivot changed."""
        changed = False
        for i in range(t + 1, n):
            p, x = a[t][t], entry(i)
            if x % p == 0:
                if x:
                    mix(t, i, 1, 0, -(x // p), 1)
            else:
                g, s, r = _xgcd(p, x)
                mix(t, i, s, r, -(x // g), p // g)
                changed = True
        return changed

    for t in range(n):
        # a smallest nonzero entry of the trailing block becomes the pivot
        best = None
        for i in range(t, n):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _x, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)

        while True:
            # clearing the column can refill the row and vice versa, but
            # only by shrinking the pivot, so this ends
            while clear(t, lambda i: a[i][t], mix_rows) | clear(
                t, lambda j: a[t][j], mix_cols
            ):
                pass
            # the pivot must divide the whole trailing block; adding the
            # row of an entry it does not divide puts that entry in row t
            culprit = next(
                (
                    i
                    for i in range(t + 1, n)
                    if any(a[i][j] % a[t][t] for j in range(t + 1, n))
                ),
                None,
            )
            if culprit is None:
                break
            mix_rows(t, culprit, 1, 1, 0, 1)

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    return SnfResult(IntMat(u), IntMat(a), IntMat(v))


def torsion_solutions(W: IntMat) -> list:
    """All theta in (Q/Z)^n with W @ theta = 0 mod 1, as integer vectors k
    with theta = k / D, D = |det W|, each entry in [0, D); sorted, which is
    the lexicographic order of the thetas.

    Diagonalize U W Vt = D; with psi = Vt^{-1} theta the system is
    D psi = 0 mod 1, so psi_j runs over m/d_j and theta = Vt psi mod 1.
    Over the common denominator D each column j with d_j > 1 is the step
    Vt[:, j] * (D / d_j) mod D, and the solutions are the sums of multiples
    of the steps. There are exactly |det W| of them. They are built one
    coordinate at a time, as flat lists over the same combinations of
    multiples, and zipped into tuples once.
    """
    if not W.is_square():
        raise IntLinAlgError("torsion solver needs a square matrix")
    snf = smith_normal_form(W)
    diag = snf.diag
    if any(d == 0 for d in diag):
        raise IntLinAlgError("singular matrix: det W = 0")
    D = math.prod(diag)
    cols = [[0] for _ in range(W.rows)]
    for j, d in enumerate(diag):
        if d == 1:
            continue
        for col, row in zip(cols, snf.Vt.entries):
            s = row[j] * (D // d) % D
            multiples = range(0, d * s, s) if s else (0,) * d
            col[:] = [(x + y) % D for x in col for y in multiples]
    return sorted(zip(*cols))
