"""A-polynomial analyzer: exact evaluation at m = sqrt(-1), Newton-polygon
vertical-edge test, the 2-bridge degree bound, and the irreducible
non-metabelian criteria.

A-polynomials are ingested as data (abelian factor l-1 already removed);
nothing here computes them from a character variety. A root omega in Q(i)
of A(sqrt(-1), l) and the trace omega + omega^{-1} are held as integer
triples (a, b, d) for (a + b*i)/d and rendered with exactalg.ratio_str.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .exactalg import (
    _coprime_certified,
    _iadd,
    _ishift,
    _isub,
    _trim,
    poly_derivative,
    poly_gcd,
    poly_str,
    ratio_str,
)
from .knotdata import TwoBridge, json_typed


class APolyError(ValueError):
    pass


def _integer(name: str, x) -> int:
    """x as an int; a boolean is refused, never read as 0 or 1."""
    if type(x) is bool:
        raise APolyError(f"{name}: boolean {x} where an integer is expected")
    return operator.index(x)


def _poly_in_l(pairs) -> tuple:
    """Integer polynomial in l from nonempty (l-exponent, coefficient)
    pairs."""
    out = [0] * (max(e for e, _c in pairs) + 1)
    for e, c in pairs:
        out[e] += c
    return _trim(out)


class APoly(NamedTuple):
    """Integer bivariate polynomial in (m, l), sparse on exponent pairs.

    Invariants enforced at construction: nonzero, only even m-exponents,
    not divisible by l-1, sign normalized so the lexicographically first
    term has a positive coefficient.
    """

    name: str
    terms: tuple  # sorted ((m_exp, l_exp), coeff)
    pq: tuple | None = None       # two-bridge tag (p, q), if known
    small_flag: bool | None = None  # user-asserted smallness of the knot

    @classmethod
    def from_terms(cls, name, terms, pq=None, small_flag=None) -> "APoly":
        """Build from a dict {(m_exp, l_exp): coeff} or an iterable of
        ((m_exp, l_exp), coeff) pairs, each exponent pair at most once."""
        if small_flag is not None and type(small_flag) is not bool:
            raise APolyError(
                f"{name}: small flag must be True, False or None, got {small_flag!r}"
            )
        clean, seen = {}, set()
        for (me, le), c in terms.items() if isinstance(terms, dict) else terms:
            me, le, c = _integer(name, me), _integer(name, le), _integer(name, c)
            if (me, le) in seen:
                raise APolyError(f"{name}: duplicate exponent pair {(me, le)}")
            seen.add((me, le))
            if c == 0:
                continue
            if me < 0 or le < 0:
                raise APolyError(f"{name}: negative exponent ({me}, {le})")
            if me % 2:
                raise APolyError(
                    f"{name}: odd m-exponent {me}; m must appear in even powers"
                )
            clean[(me, le)] = c
        if not clean:
            raise APolyError(f"{name}: zero polynomial")
        items = sorted(clean.items())
        if items[0][1] < 0:
            items = [(k, -c) for k, c in items]
        # l-1 divides A iff A(m, 1) vanishes identically
        by_m = {}
        for (me, _le), c in items:
            by_m[me] = by_m.get(me, 0) + c
        if all(v == 0 for v in by_m.values()):
            raise APolyError(
                f"{name}: divisible by l-1; the abelian factor must be removed"
            )
        if pq is not None:
            pq = tuple(_integer(name, x) for x in pq)
            if len(pq) != 2:
                raise APolyError(f"{name}: two-bridge tag must be (p, q), got {pq}")
            TwoBridge(name, *pq)  # KnotDataError unless S(p, q) is a knot
        return cls(name=name, terms=tuple(items), pq=pq, small_flag=small_flag)

    @classmethod
    def from_record(cls, obj: dict, name: str | None = None) -> "APoly":
        """Build from a JSON record; exponents, coefficients and the (p, q)
        tag must be JSON integers, and "small", if present, a JSON
        boolean. `name` is the loader's name for the record, by default
        its "name" field."""
        if name is None:
            name = obj["name"]
        terms = [
            (
                (json_typed(t["m"], "m-exponent"), json_typed(t["l"], "l-exponent")),
                json_typed(t["c"], "coefficient"),
            )
            for t in obj["terms"]
        ]
        pq = None
        if "p" in obj and "q" in obj:
            pq = (json_typed(obj["p"], "p"), json_typed(obj["q"], "q"))
        small = json_typed(obj["small"], "small", bool) if "small" in obj else None
        return cls.from_terms(name, terms, pq=pq, small_flag=small)

    def to_record(self) -> dict:
        rec = {
            "type": "apoly",
            "name": self.name,
            "terms": [{"m": me, "l": le, "c": c} for (me, le), c in self.terms],
        }
        if self.pq is not None:
            rec["p"], rec["q"] = self.pq
        if self.small_flag is not None:
            rec["small"] = self.small_flag
        return rec

    @property
    def deg_l(self) -> int:
        return max(le for (_me, le), _c in self.terms)

    def support(self) -> list:
        return [(me, le) for (me, le), _c in self.terms]


def eval_at_sqrt_minus_one(A: APoly) -> tuple:
    """A(sqrt(-1), l), exactly. Even m-powers make every coefficient a
    rational integer (i^{2k} = (-1)^k)."""
    return _poly_in_l([(le, (-1) ** (me // 2) * c) for (me, le), c in A.terms])


def vertical_edge_check(A: APoly) -> bool:
    """True iff the Newton polygon has a vertical edge. Vertical hull edges
    can only sit at the extreme m-coordinates, so it suffices to count
    distinct l-exponents in the leftmost and rightmost columns."""
    pts = A.support()
    m_min = min(me for me, _le in pts)
    m_max = max(me for me, _le in pts)
    left = {le for me, le in pts if me == m_min}
    right = {le for me, le in pts if me == m_max}
    return len(left) > 1 or len(right) > 1


class FactorProfile(NamedTuple):
    """eval = l^a (l-1)^b (l+1)^c * residual, extracted by exact division."""

    a: int
    b: int
    c: int
    residual: tuple
    is_zero: bool = False

    def reconstruct(self) -> tuple:
        if self.is_zero:
            return ()
        out = self.residual
        for _ in range(self.a):
            out = _ishift(out)
        for _ in range(self.b):
            out = _isub(_ishift(out), out)
        for _ in range(self.c):
            out = _iadd(_ishift(out), out)
        return out


def _divide_out(p: tuple, r: int):
    """Multiplicity of (l - r) in p, with the cofactor, by synthetic
    division over Z."""
    mult = 0
    while p:
        # Horner: the partial sums are the quotient's coefficients, top
        # first, and the last one is the remainder p(r)
        acc, quot = 0, []
        for c in reversed(p):
            acc = acc * r + c
            quot.append(acc)
        if quot.pop():
            break
        p = tuple(reversed(quot))
        mult += 1
    return mult, p


def factor_profile(A: APoly) -> FactorProfile:
    ev = eval_at_sqrt_minus_one(A)
    if not ev:
        return FactorProfile(a=0, b=0, c=0, residual=(), is_zero=True)
    a = next(k for k, x in enumerate(ev) if x)
    b, p = _divide_out(ev[a:], 1)
    c, p = _divide_out(p, -1)
    return FactorProfile(a=a, b=b, c=c, residual=p)


def _residual_roots(p: tuple):
    """Exact roots in Q(i) of an integer residual of degree <= 2, each as
    integers (a, b, d) with root (a + b*i)/d, d != 0; else None. A
    quadratic's roots lie in Q(i) iff |disc| is a square."""
    if len(p) == 2:
        c0, c1 = p
        return [(-c0, 0, c1)]
    if len(p) == 3:
        c0, c1, c2 = p
        disc = c1 * c1 - 4 * c2 * c0
        r = math.isqrt(abs(disc))
        if r * r != abs(disc):
            return None
        re, im = (r, 0) if disc >= 0 else (0, r)
        return [(s * re - c1, s * im, 2 * c2) for s in (1, -1)]
    return None


def _gauss_str(a: int, b: int, d: int) -> str:
    """Render (a + b*i)/d as "re", "im*i" or "re+im*i" (re-|im|*i), each
    part with the bytes of str(Fraction)."""
    if not b:
        return ratio_str(a, d)
    if not a:
        return f"{ratio_str(b, d)}*i"
    sign = "+" if (b > 0) == (d > 0) else "-"
    return f"{ratio_str(a, d)}{sign}{ratio_str(abs(b), abs(d))}*i"


class Finding(NamedTuple):
    kind: str   # "arcs", "trace-free-nonmetabelian", "inconclusive", "none"
    detail: str

    def to_dict(self) -> dict:
        return self._asdict()


def proposition_criteria(A: APoly) -> list:
    """Criteria for irreducible non-metabelian characters.

    Finding 1: A(sqrt(-1), l) identically zero (m^2+1 divides A) means
    arcs of irreducible non-metabelian characters exist in X(E_K).
    Finding 2: a factor l - omega with omega != 0, 1 plus asserted
    smallness yields an irreducible non-metabelian representation with
    trace(rho(mu)) = 0 and trace(rho(lambda)) = omega + omega^{-1}.
    """
    prof = factor_profile(A)
    if prof.is_zero:
        return [
            Finding(
                kind="arcs",
                detail="A(sqrt(-1),l) = 0: arcs of irreducible non-metabelian "
                "characters exist in X(E_K)",
            )
        ]
    findings = []
    omegas = []
    if prof.c > 0:
        omegas.append((-1, 0, 1))
    residual_desc = None
    if len(prof.residual) > 1:
        roots = _residual_roots(prof.residual)
        if roots is not None:
            omegas.extend(roots)
        else:
            residual_desc = (
                f"residual factor of degree {len(prof.residual) - 1}: "
                f"{poly_str(prof.residual, 'l')}"
            )
    has_other_factor = prof.c > 0 or len(prof.residual) > 1
    if has_other_factor:
        if A.small_flag:
            for a, b, d in omegas:
                # omega + omega^{-1}, with omega^{-1} = (a - b*i)*d/n
                n, dd = a * a + b * b, d * d
                trace = _gauss_str(a * (n + dd), b * (n - dd), d * n)
                findings.append(
                    Finding(
                        kind="trace-free-nonmetabelian",
                        detail=(
                            "irreducible non-metabelian representation with "
                            f"trace(rho(mu))=0 exists, omega = "
                            f"{_gauss_str(a, b, d)}, trace(rho(lambda)) = {trace}"
                        ),
                    )
                )
            if residual_desc:
                findings.append(
                    Finding(kind="trace-free-nonmetabelian", detail=residual_desc)
                )
        else:
            findings.append(
                Finding(
                    kind="inconclusive",
                    detail="factor other than l-1 or l present, but smallness "
                    "not asserted",
                )
            )
    if not findings:
        findings.append(Finding(kind="none", detail="no criterion fires"))
    return findings


class DegreeBoundReport(NamedTuple):
    knot: str
    applicable: bool
    deg_l: int
    bound: int | None = None
    slack: int | None = None
    pure_l_minus_1_power: bool | None = None
    k: int | None = None

    @property
    def ok(self) -> bool:
        if not self.applicable:
            return True
        return bool(self.pure_l_minus_1_power) and self.slack is not None and self.slack >= 0

    def to_dict(self) -> dict:
        return {**self._asdict(), "ok": self.ok}


def degree_bound_check(A: APoly) -> DegreeBoundReport:
    """For a two-bridge tagged polynomial: deg_l(A) <= (p-1)/2 and
    A(sqrt(-1), l) = +-(l-1)^k with k = deg_l(A). Without the tag, the
    bound does not apply and the report says so."""
    if A.pq is None:
        return DegreeBoundReport(knot=A.name, applicable=False, deg_l=A.deg_l)
    p, _q = A.pq
    bound = (p - 1) // 2
    prof = factor_profile(A)
    pure = (
        not prof.is_zero
        and prof.a == 0
        and prof.c == 0
        and len(prof.residual) == 1
    )
    slack = bound - A.deg_l
    report = DegreeBoundReport(
        knot=A.name,
        applicable=True,
        deg_l=A.deg_l,
        bound=bound,
        slack=slack,
        pure_l_minus_1_power=pure,
        k=None if prof.is_zero else prof.b,
    )
    if slack < 0:
        raise APolyError(
            f"{A.name}: deg_l = {A.deg_l} exceeds the 2-bridge bound {bound}; "
            "bad fixture"
        )
    return report


class ProbeReport(NamedTuple):
    knot: str
    k: int
    bound: int
    within_bound: bool
    note: str = "conjecture probe only, not an assertion"

    def to_dict(self) -> dict:
        return self._asdict()


def metabelian_multiplicity_probe(A: APoly, det: int) -> ProbeReport:
    """Probe the conjecture that the (l-1)-multiplicity of A(sqrt(-1),l)
    is at most (det-1)/2. Violations are reported, never raised; a det
    that is not a positive odd integer is an input error."""
    det = _integer(f"{A.name}: det", det)
    if det < 1:
        raise APolyError(f"{A.name}: knot determinant must be positive, got {det}")
    if det % 2 == 0:
        raise APolyError(f"{A.name}: knot determinant must be odd, got {det}")
    prof = factor_profile(A)
    k = 0 if prof.is_zero else prof.b
    bound = (det - 1) // 2
    return ProbeReport(knot=A.name, k=k, bound=bound, within_bound=k <= bound)


def squarefree_in_l_warning(A: APoly) -> str | None:
    """Heuristic normal-form check: gcd test in l at m = 3. A repeated
    factor suggests the fixture is not in A-polynomial normal form. The
    modular certificate settles the usual coprime case; otherwise the
    exact gcd over Q decides."""
    by_l = {}
    for (me, le), c in A.terms:
        by_l[le] = by_l.get(le, 0) + c * (3 ** me)
    p = _poly_in_l(list(by_l.items()))
    if len(p) < 2:
        return None
    dp = poly_derivative(p)
    if _coprime_certified(p, dp):
        return None
    g = poly_gcd(p, dp)
    if len(g) > 1:
        return (
            f"{A.name}: A(3, l) has a repeated factor (gcd degree {len(g) - 1}); "
            "fixture may not be in normal form"
        )
    return None


class AnalyzerReport(NamedTuple):
    name: str
    deg_l: int
    eval_at_i: tuple
    profile: FactorProfile
    has_vertical_edge: bool
    bound: DegreeBoundReport
    criteria: tuple
    probe: ProbeReport | None = None
    warning: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "deg_l": self.deg_l,
            "eval_at_i": poly_str(self.eval_at_i, "l"),
            "factor_profile": {
                "l_power": self.profile.a,
                "l_minus_1_power": self.profile.b,
                "l_plus_1_power": self.profile.c,
                "residual": poly_str(self.profile.residual, "l"),
                "identically_zero": self.profile.is_zero,
            },
            "has_vertical_edge": self.has_vertical_edge,
            "degree_bound": self.bound.to_dict(),
            "criteria": [f.to_dict() for f in self.criteria],
            "probe": self.probe.to_dict() if self.probe else None,
            "warning": self.warning,
        }


def analyze(A: APoly, det: int | None = None) -> AnalyzerReport:
    prof = factor_profile(A)
    report = AnalyzerReport(
        name=A.name,
        deg_l=A.deg_l,
        eval_at_i=eval_at_sqrt_minus_one(A),
        profile=prof,
        has_vertical_edge=vertical_edge_check(A),
        bound=degree_bound_check(A),
        criteria=tuple(proposition_criteria(A)),
        probe=metabelian_multiplicity_probe(A, det) if det is not None else None,
        warning=squarefree_in_l_warning(A),
    )
    return report
