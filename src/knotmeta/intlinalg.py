"""Exact integer matrix algebra on one lattice kernel. A fraction-free
Gauss-Jordan pass on [W | I] gives det W and adj W; Hermite bases mod
D = |det W|, whose entries stay in [0, D) (Domich, Kannan and Trotter,
Math. Oper. Res. 12, 1987), give the torsion solutions of W*theta = 0
over Q/Z and the invariant factors of W.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple


class IntLinAlgError(ValueError):
    pass


class LatticeIndexError(ArithmeticError):
    """Hermite pivots of the torsion lattice that give `points` points, not
    |det W| = D: a bug in the basis, never bad input."""

    def __init__(self, points: int, D: int):
        super().__init__(f"Hermite pivots give {points} points, expected |det W| = {D}")
        self.points, self.D = points, D


def _entry(x) -> int:
    if type(x) is bool:
        raise IntLinAlgError(f"matrix entry {x} is a boolean, not an integer")
    return operator.index(x)


class IntMat(NamedTuple("IntMat", [("entries", tuple)])):
    """Immutable integer matrix, row-major: a tuple of equal-length row
    tuples. Entries must be integers (int or any type with __index__);
    booleans, floats, strs and Fractions are refused, never truncated."""

    __slots__ = ()

    def __new__(cls, entries):
        rows = tuple(tuple(map(_entry, row)) for row in entries)
        if not rows or not rows[0]:
            raise IntLinAlgError("matrix must be nonempty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise IntLinAlgError("ragged rows in matrix")
        return tuple.__new__(cls, (rows,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "IntMat":
        return IntMat(list(zip(*self.entries)))

    def _entrywise(self, other, op, what):
        if self.rows != other.rows or self.cols != other.cols:
            raise IntLinAlgError(f"shape mismatch in {what}")
        pairs = zip(self.entries, other.entries)
        return IntMat(list(map(op, ra, rb)) for ra, rb in pairs)

    def __add__(self, other):
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other):
        return self._entrywise(other, operator.sub, "subtraction")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise IntLinAlgError("shape mismatch in product")
        bt = list(zip(*other.entries))
        return IntMat(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    # products are @; an int factor raises, rather than repeating the tuple
    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __mul__

    def is_square(self) -> bool:
        return self.rows == self.cols

    def tolists(self):
        return [list(r) for r in self.entries]

    def __repr__(self):
        return f"IntMat({self.tolists()})"


def _gauss_jordan(a: list, n: int) -> int:
    """det M for the rows `a` = [M | B], M the first n columns, by one
    fraction-free (Bareiss) Gauss-Jordan pass in place, 0 if M is singular;
    B ends as +-adj(M) B. Every division is exact. Columns <= k go stale."""
    sign = prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv, tail = a[k][k], a[k][k + 1 :]
        for i, ri in enumerate(a):
            if i != k:
                f = ri[k]
                ri[k + 1 :] = [(piv * x - f * y) // prev for x, y in zip(ri[k + 1 :], tail)]
        prev = piv
    return sign * prev


def det(M: IntMat) -> int:
    """Exact determinant."""
    if not M.is_square():
        raise IntLinAlgError("determinant of a non-square matrix")
    return _gauss_jordan(M.tolists(), M.rows)


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with s*a + t*b = g = gcd(a, b); (b, 0, 1) if b divides a."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _hermite_mod(gens, D: int) -> list:
    """The reduced Hermite basis b_0, ..., b_{n-1} of the lattice spanned by
    the vectors `gens` and D*Z^n: b_i is 0 before coordinate i, its pivot
    h_i = b_i[i] divides D, and b_j[i] lies in [0, h_i) for j < i. Each
    generator folds into the pivot vector b_i by a unimodular extended-gcd
    step that leaves it 0 at i, and one that the pivot divides leaves b_i
    as it is. Other entries are taken mod D, as D*e_j is in the lattice."""
    gens = [[x % D for x in g] for g in gens]
    basis = []
    for i in range(len(gens[0])):
        b = [D * (j == i) for j in range(len(gens[0]))]
        for g in gens:
            x, p = g[i], b[i]
            if x:
                h, t, s = _xgcd(x, p)
                u, w = p // h, x // h
                pairs = list(zip(b, g))
                b = [(s * y + t * z) % D for y, z in pairs]
                g[:] = [(u * z - w * y) % D for y, z in pairs]
                b[i] = h
        basis.append(b)
    for j, bj in enumerate(basis):
        for b in basis[:j]:
            q = b[j] // bj[j]
            if q:
                b[j:] = [(y - q * z) % D for y, z in zip(b[j:], bj[j:])]
    return basis


def smith_normal_form(W: IntMat) -> tuple:
    """The invariant factors d_1 | ... | d_n of a nonsingular W: Z^n / W Z^n
    is the sum of the Z/d_i. W Z^n holds D*Z^n. Hermite bases mod D of it
    and of the transpose's lattice alternate until diagonal (Kannan and
    Bachem, SIAM J. Comput. 8, 1979): the first pivot with a row not clean
    shrinks to a proper divisor at each turn, and a clean one stays clean.
    gcd/lcm steps then order the diagonal."""
    D = abs(det(W))
    if not D:
        raise IntLinAlgError("singular matrix: det W = 0")
    basis = _hermite_mod(list(zip(*W.entries)), D)
    while any(any(b[i + 1 :]) for i, b in enumerate(basis)):
        basis = _hermite_mod(list(zip(*basis)), D)
    f = [b[i] for i, b in enumerate(basis)]
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            g = math.gcd(f[i], f[j])
            f[i], f[j] = g, f[i] * f[j] // g
    return tuple(f)


def torsion_solutions(W: IntMat) -> list:
    """All theta in (Q/Z)^n with W @ theta = 0 mod 1, as integer vectors k
    with theta = k / D, D = |det W|, each entry in [0, D), in lex order,
    which is the order of the thetas. The k form the lattice adj(W) Z^n,
    which holds D*Z^n, so its Hermite basis mod D has prod D/h_i = D points
    in [0, D)^n; that is checked first. Given the coordinates before it,
    coordinate i runs upward over one residue class mod h_i, so the loops
    list the points in lex order. They run one coordinate at a time, as
    flat lists over all points so far, zipped once."""
    if not W.is_square():
        raise IntLinAlgError("torsion solver needs a square matrix")
    n = W.rows
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(W.entries)]
    D = abs(_gauss_jordan(a, n))
    if not D:
        raise IntLinAlgError("singular matrix: det W = 0")
    basis = _hermite_mod(list(zip(*(row[n:] for row in a))), D)
    points = math.prod(D // b[i] for i, b in enumerate(basis))
    if points != D:
        raise LatticeIndexError(points, D)
    cols = [[0] for _ in basis]
    for i, b in enumerate(basis):
        count = D // b[i]
        if count > 1:
            qs = [x // b[i] for x in cols[i]]
            for j, y in enumerate(b):
                if y:
                    cols[j] = [
                        z % D
                        for x, q in zip(cols[j], qs)
                        for z in range(x - q * y, x + (count - q) * y, y)
                    ]
                else:
                    cols[j] = [x for x in cols[j] for _ in range(count)]
    return list(zip(*cols))
