"""Census of irreducible metabelian SL(2,C) characters of a knot group.

The count is (|Delta_K(-1)| - 1)/2; the classes are the nonzero solutions
of (V + V^T) theta = 0 over Q/Z, taken up to theta <-> -theta. Every
solution has denominator dividing D = |det(V + V^T)|, so classes are held,
verified and rendered (exactalg.ratio_str) as integer numerators over D; a
Fraction is built only when a library caller asks for `thetas`.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .exactalg import ratio_str
from .intlinalg import LatticeIndexError, torsion_solutions
from .knotdata import KnotDataError, SeifertKnot, determinant_of_knot


class MetabelianClass(NamedTuple("MetabelianClass", [("k", tuple), ("D", int)])):
    """A conjugacy class of irreducible metabelian representations,
    encoded by the canonical rotation vector theta = k / D of generator
    eigenvalues, each numerator in [0, D)."""

    __slots__ = ()

    def __new__(cls, k: tuple, D: int):
        if not (any(k) and 0 <= min(k) and max(k) < D):
            raise ValueError(
                "metabelian class needs numerators in [0, D), not all zero"
            )
        return tuple.__new__(cls, (k, D))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @property
    def thetas(self) -> tuple:
        from fractions import Fraction

        return tuple(Fraction(x, self.D) for x in self.k)

    @property
    def order(self) -> int:
        """The lcm of the thetas' denominators: the eigenvalues' order."""
        return self.D // math.gcd(self.D, *self.k)


class CensusError(RuntimeError):
    """The enumeration disagrees with a count it must meet: a bug in the
    torsion solver or the class selection, never bad input. At the stage
    "class count" that is the census count (|det| - 1)/2; at "torsion
    lattice" it is |det W|, the points the Hermite pivots must give."""

    def __init__(self, knot: str, enumerated: int, expected: int, stage="class count"):
        detail = (
            f"enumerated {enumerated} metabelian classes, "
            f"expected (|det| - 1)/2 = {expected}"
            if stage == "class count"
            else f"{stage}: Hermite pivots give {enumerated} points, "
            f"expected |det W| = {expected}"
        )
        super().__init__(f"{knot}: {detail}")
        self.knot = knot
        self.enumerated = enumerated
        self.expected = expected
        self.stage = stage


def _census_size(d: int) -> int:
    if d % 2 == 0:
        raise KnotDataError(f"knot determinant {d} is even; invalid knot data")
    return (d - 1) // 2


def count_metabelian(K) -> int:
    """(det - 1)/2, the number of irreducible metabelian characters."""
    return _census_size(determinant_of_knot(K))


def _exact(thetas, knot: str = "") -> list:
    """The entries of a rotation vector, each with an integer numerator and
    denominator. Any other entry, such as a float or a str, raises
    ValueError naming its index; it is never coerced, and neither is a
    boolean."""
    thetas = list(thetas)
    for i, t in enumerate(thetas):
        n, d = getattr(t, "numerator", None), getattr(t, "denominator", None)
        if type(t) is bool or not (isinstance(n, int) and isinstance(d, int)):
            raise ValueError(
                f"{knot}rotation vector entry {i} is {t!r}, not an exact rational"
            )
    return thetas


def enumerate_metabelian(K: SeifertKnot) -> list:
    """All metabelian classes of K, lexicographically sorted.

    Always returns exactly (|det(V+V^T)| - 1)/2 classes, else raises
    CensusError. The torsion solutions come in lex order as integer
    vectors k over D = |det|, from a lattice whose Hermite pivots are
    checked to give D points. D is odd, so of k and -k mod D exactly the
    one whose first nonzero entry is <= D // 2 is the lexicographic
    minimum; that keeps the canonical member of each pair theta ~ -theta
    and drops theta = 0. Every k kept is nonzero with entries in [0, D),
    so the classes are built without MetabelianClass's checks.
    """
    D = determinant_of_knot(K)
    expected = _census_size(D)
    half = D // 2
    try:
        solutions = torsion_solutions(K.symmetrized())
    except LatticeIndexError as exc:
        raise CensusError(K.name, exc.points, exc.D, "torsion lattice") from exc
    new = tuple.__new__
    out = [
        new(MetabelianClass, (k, D))
        for k in solutions
        if next(filter(None, k), D) <= half
    ]
    if len(out) != expected:
        raise CensusError(K.name, len(out), expected)
    return out


# The meridian image mu -> [[0,1],[-1,0]], held as (a, b, c, d), does not
# depend on the class (b is fixed to 1, all choices of b being conjugate),
# so its trace is checked once, not rebuilt for every class.
_MERIDIAN = (0, 1, -1, 0)
_MERIDIAN_TRACE_ZERO = _MERIDIAN[0] + _MERIDIAN[3] == 0


class ClassReport(NamedTuple):
    knot: str
    k: tuple  # theta = k / D
    D: int
    relation_ok: bool
    irreducible_ok: bool
    meridian_trace_zero: bool
    failures: tuple = ()

    @property
    def thetas(self) -> tuple:
        from fractions import Fraction

        return tuple(Fraction(x, self.D) for x in self.k)

    @property
    def ok(self) -> bool:
        return self.relation_ok and self.irreducible_ok and self.meridian_trace_zero


def verify_class(K: SeifertKnot, c) -> ClassReport:
    """Certify a class: (a) W theta = 0 mod 1 row by row (the relation
    mu alpha_i mu^-1 = beta_i for monomial images), (b) theta != 0 so some
    generator trace differs from 2 (irreducibility), (c) trace of the
    meridian image is 0.

    The checks run on integers: with theta = k / D, row i holds iff
    sum_j W_ij k_j = 0 mod D. A MetabelianClass hands over its (k, D); a
    bare rotation tuple of ints and Fractions is first reduced mod 1 to
    (k, L), L the lcm of its denominators, so deliberately bad vectors
    (including zero) go through the same checks. A vector with an inexact
    entry (a float, a str) or whose length is not the size of W raises
    ValueError."""
    if isinstance(c, MetabelianClass):
        ks, D = c.k, c.D
    else:
        thetas = _exact(c, f"{K.name}: ")
        D = math.lcm(*(t.denominator for t in thetas))
        ks = tuple(t.numerator * (D // t.denominator) % D for t in thetas)
    W = K.W.entries
    if len(ks) != len(W):
        raise ValueError(
            f"{K.name}: rotation vector has {len(ks)} entries, W has {len(W)} rows"
        )
    failures = []
    for i, row in enumerate(W):
        s = sum(map(mul, row, ks))
        if s % D:
            failures.append(f"row {i}: W.theta = {ratio_str(s, D)} is not an integer")
    relation_ok = not failures

    irreducible_ok = any(x % D for x in ks)
    if not irreducible_ok:
        failures.append("theta = 0: abelian, not irreducible")

    meridian_trace_zero = _MERIDIAN_TRACE_ZERO
    if not meridian_trace_zero:
        failures.append("trace of meridian image is not 0")

    # in field order, without the generated __new__ and its keyword binding
    return tuple.__new__(
        ClassReport,
        (
            K.name,
            ks,
            D,
            relation_ok,
            irreducible_ok,
            meridian_trace_zero,
            tuple(failures),
        ),
    )
