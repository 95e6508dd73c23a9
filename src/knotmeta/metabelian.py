"""Census of irreducible metabelian SL(2,C) characters of a knot group.

The count is (|Delta_K(-1)| - 1)/2; the classes are the nonzero solutions
of (V + V^T) theta = 0 over Q/Z, taken up to theta <-> -theta. Every
solution has denominator dividing D = |det(V + V^T)|, so enumeration and
verification run on integer numerators over D; Fractions are built only
for the classes returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import Mat2
from .intlinalg import torsion_solutions
from .knotdata import KnotDataError, SeifertKnot, determinant_of_knot


@dataclass(frozen=True)
class MetabelianClass:
    """A conjugacy class of irreducible metabelian representations,
    encoded by the canonical rotation vector of generator eigenvalues."""

    thetas: tuple
    order: int  # lcm of denominators: the common order of the eigenvalues

    def __post_init__(self):
        if all(t == 0 for t in self.thetas):
            raise ValueError("metabelian class cannot be the trivial vector")


class CensusError(RuntimeError):
    """The enumeration disagrees with the census count (|det| - 1)/2: a bug
    in the torsion solver or the class selection, never bad input."""

    def __init__(self, knot: str, enumerated: int, expected: int):
        super().__init__(
            f"{knot}: enumerated {enumerated} metabelian classes, "
            f"expected (|det| - 1)/2 = {expected}"
        )
        self.knot = knot
        self.enumerated = enumerated
        self.expected = expected


def _census_size(d: int) -> int:
    if d % 2 == 0:
        raise KnotDataError(f"knot determinant {d} is even; invalid knot data")
    return (d - 1) // 2


def count_metabelian(K) -> int:
    """(det - 1)/2, the number of irreducible metabelian characters."""
    return _census_size(determinant_of_knot(K))


def canonical_rotation(thetas) -> tuple:
    """Lexicographic minimum of {theta, -theta mod 1}."""
    thetas = tuple(Fraction(t) % 1 for t in thetas)
    neg = tuple((-t) % 1 for t in thetas)
    return min(thetas, neg)


def enumerate_metabelian(K: SeifertKnot) -> list:
    """All metabelian classes of K, lexicographically sorted.

    Always returns exactly (|det(V+V^T)| - 1)/2 classes, else raises
    CensusError. The torsion solutions come as integer vectors k over
    D = |det|; D is odd, so k < -k mod D keeps exactly the canonical member
    of each pair theta ~ -theta and drops theta = 0.
    """
    D = determinant_of_knot(K)
    expected = _census_size(D)
    out = []
    for k in torsion_solutions(K.symmetrized()):
        if k < tuple(-x % D for x in k):
            out.append(
                MetabelianClass(
                    thetas=tuple(Fraction(x, D) for x in k),
                    order=D // math.gcd(D, *k),
                )
            )
    if len(out) != expected:
        raise CensusError(K.name, len(out), expected)
    return out


# The meridian image mu -> [[0,1],[-1,0]] does not depend on the class (b is
# fixed to 1, all choices of b being conjugate), so its trace is checked
# once, not rebuilt for every class.
_MERIDIAN_TRACE_ZERO = Mat2(0, 1, -1, 0).trace() == 0


@dataclass(frozen=True)
class ClassReport:
    knot: str
    thetas: tuple
    relation_ok: bool
    irreducible_ok: bool
    meridian_trace_zero: bool
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return self.relation_ok and self.irreducible_ok and self.meridian_trace_zero

    def to_dict(self) -> dict:
        return {
            "knot": self.knot,
            "thetas": [str(t) for t in self.thetas],
            "relation_ok": self.relation_ok,
            "irreducible_ok": self.irreducible_ok,
            "meridian_trace_zero": self.meridian_trace_zero,
            "ok": self.ok,
            "failures": list(self.failures),
        }


def verify_class(K: SeifertKnot, c) -> ClassReport:
    """Certify a class: (a) W theta = 0 mod 1 row by row (the relation
    mu alpha_i mu^-1 = beta_i for monomial images), (b) theta != 0 so some
    generator trace differs from 2 (irreducibility), (c) trace of the
    meridian image is 0.

    The checks run on integers: with L the lcm of the denominators and
    theta = k / L, row i holds iff sum_j W_ij k_j = 0 mod L.

    Accepts a MetabelianClass or a bare rotation tuple, so deliberately
    bad vectors (including zero) can be fed through the same checks."""
    if isinstance(c, MetabelianClass):
        thetas = c.thetas
    else:
        thetas = tuple(Fraction(t) % 1 for t in c)
    L = math.lcm(*(t.denominator for t in thetas))
    ks = [t.numerator * (L // t.denominator) for t in thetas]
    failures = []
    relation_ok = True
    for i, row in enumerate(K.symmetrized().entries):
        s = sum(w * k for w, k in zip(row, ks))
        if s % L:
            relation_ok = False
            failures.append(
                f"row {i}: W.theta = {Fraction(s, L)} is not an integer"
            )

    irreducible_ok = any(k % L for k in ks)
    if not irreducible_ok:
        failures.append("theta = 0: abelian, not irreducible")

    meridian_trace_zero = _MERIDIAN_TRACE_ZERO
    if not meridian_trace_zero:
        failures.append("trace of meridian image is not 0")

    return ClassReport(
        knot=K.name,
        thetas=thetas,
        relation_ok=relation_ok,
        irreducible_ok=irreducible_ok,
        meridian_trace_zero=meridian_trace_zero,
        failures=tuple(failures),
    )
