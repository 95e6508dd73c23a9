"""Riley apparatus for 2-bridge knots S(p,q): word holonomy over
Z[s^{+-1}][u] (s^2 = t), the Riley polynomial, its t = -1 section, and
exact verification of the relator and longitude identities mod phi.

At t = -1 every generator image is i times an involutive integer matrix:

    rho(x1) = i*N1,  N1 = [[1,-1],[0,-1]],
    rho(x2) = i*N2,  N2 = [[1,0],[-u,-1]],   N1^2 = N2^2 = id,

so rho(w) = i^k * P, where k counts letters (x_g -> 1, x_g^-1 -> 3, mod 4)
and P is the product of w's freely reduced word in <N1, N2> = Z/2 * Z/2.
A reduced word alternates, so its first generator and its length fix P;
each such P is built once and memoized. The relator of every S(p, +-q)
reduces to (x1, p - 1) and the longitude to the empty word, so a sweep
builds one relator matrix per p and none for the longitude. The power form
(rho(x1) rho(x2))^{(p-1)/2} is memoized per p and the squarefree
certificate per phi; every per-knot check still runs for each knot. All
t = -1 computation runs on the integer coefficient tuples of exactalg's
kernel. The Laurent route (word_holonomy + eval_s_to_i) is kept as the
independent cross-check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .exactalg import (
    LB_ONE,
    LB_S,
    LB_S_INV,
    LB_U,
    LB_ZERO,
    LaurentBiPoly,
    Mat2,
    _content_normalize,
    _gcd_degree_mod,
    _iadd,
    _ineg,
    _iprem,
    _iquo_exact,
    _irem_monic,
    _ishift,
    _isub,
    _primitive,
    _sign_at,
    laurent_pseudo_rem_u,
    poly_derivative,
    poly_gcd,
    poly_str,
)
from .knotdata import GroupWord, TwoBridge, longitude_word, relator_word
from .metabelian import count_metabelian


class RileyError(RuntimeError):
    """An identity the theory guarantees failed: bad input or a bug."""


# ---------------------------------------------------------------------------
# Laurent-ring holonomy (the general-t route)

_X1 = Mat2(LB_S, LB_S_INV, LB_ZERO, LB_S_INV)
_X2 = Mat2(LB_S, LB_ZERO, -(LB_S * LB_U), LB_S_INV)
# adjugate inverses (determinants are 1)
_X1_INV = Mat2(LB_S_INV, -LB_S_INV, LB_ZERO, LB_S)
_X2_INV = Mat2(LB_S_INV, LB_ZERO, LB_S * LB_U, LB_S)


_IMAGES = {(1, 1): _X1, (2, 1): _X2, (1, -1): _X1_INV, (2, -1): _X2_INV}


def word_holonomy(w: GroupWord) -> Mat2:
    """Exact product of generator images over Z[s^{+-1}][u]."""
    acc = Mat2.identity(LB_ONE, LB_ZERO)
    for letter in w.letters:
        acc = acc * _IMAGES[letter]
    return acc


def riley_polynomial(K: TwoBridge) -> LaurentBiPoly:
    """phi(t,u) = w11 + (1 - t) w12 from the relator holonomy. Lives in
    Z[t^{+-1}][u]: only even s-exponents may appear."""
    rho_w = word_holonomy(relator_word(K))
    phi = rho_w.a + (LB_ONE - LB_S * LB_S) * rho_w.b
    if not phi.s_exponents_all_even():
        raise RileyError(
            f"{K.name}: Riley polynomial has odd s-exponents; invariant breach"
        )
    return phi


# ---------------------------------------------------------------------------
# The squarefree certificate

# gcd(phi, phi') is reduced mod this word-size prime, 2^31 - 1.
_CERT_PRIME = 2_147_483_647


@lru_cache(maxsize=None)
def _is_squarefree(phi: tuple) -> bool:
    """Squarefreeness over Q of a monic integer polynomial, memoized per
    phi.

    A repeated factor of a monic phi is, by Gauss's lemma, a monic integer
    polynomial and survives reduction mod any prime, so a trivial
    gcd(phi, phi') mod _CERT_PRIME proves phi squarefree. Any other result
    is only a hint; the exact gcd over Q then decides."""
    assert phi and phi[-1] == 1
    dphi = poly_derivative(phi)
    if _gcd_degree_mod(phi, dphi, _CERT_PRIME) == 0:
        return True
    return len(poly_gcd(phi, dphi)) == 1


# ---------------------------------------------------------------------------
# Holonomy at t = -1 over the integer kernel

_IZERO = ()
_IONE = (1,)


def _holonomy_at_i(w: GroupWord):
    """rho(w) at t = -1 as (k, P): a unit i^k and a 2x2 integer-polynomial
    matrix, rho(w) = i^k * P.

    The letters are walked with integers only: k mod 4, and the freely
    reduced word in <N1, N2>, held as its length n and last generator
    (an equal adjacent pair cancels, N_g^2 = id)."""
    k = n = last = 0
    for g, e in w.letters:
        k += 1 if e == 1 else 3
        if n and g == last:
            n -= 1
            last = 3 - g
        else:
            n += 1
            last = g
    # the reduced word alternates, so its last letter and length fix its first
    first = (last if n % 2 else 3 - last) if n else 1
    return k % 4, _alternating_at_i(first, n)


@lru_cache(maxsize=None)
def _alternating_at_i(g: int, n: int):
    """The product N_g N_g' N_g ... of n alternating factors, starting at
    N_g, as an integer-polynomial matrix (A, B, C, D)."""
    A, B, C, D = _IONE, _IZERO, _IZERO, _IONE
    for j in range(n):
        if (g + j) % 2 == 1:
            # right-multiply by N1 = [[1,-1],[0,-1]]
            A, B = A, _ineg(_iadd(A, B))
            C, D = C, _ineg(_iadd(C, D))
        else:
            # right-multiply by N2 = [[1,0],[-u,-1]]
            A, B = _isub(A, _ishift(B)), _ineg(B)
            C, D = _isub(C, _ishift(D)), _ineg(D)
    return A, B, C, D


@lru_cache(maxsize=None)
def _power_x1x2_at_i(n: int):
    """((rho(x1) rho(x2)) at t=-1)^n = [[-1-u,-1],[-u,-1]]^n, folded with
    shift/add steps only; memoized per n."""
    A, B, C, D = _IONE, _IZERO, _IZERO, _IONE
    for _ in range(n):
        # right-multiply by M = [[-1-u,-1],[-u,-1]]
        A, B = _isub(_ineg(A), _ishift(_iadd(A, B))), _ineg(_iadd(A, B))
        C, D = _isub(_ineg(C), _ishift(_iadd(C, D))), _ineg(_iadd(C, D))
    return A, B, C, D


def _scaled_eq(k: int, P: tuple, Q: tuple) -> bool:
    """i^k * P == Q for integer matrices, k even."""
    sign = 1 if k % 4 == 0 else -1
    return all(
        (p if sign == 1 else _ineg(p)) == q for p, q in zip(P, Q)
    )


# ---------------------------------------------------------------------------
# The t = -1 section

class RileySection(NamedTuple):
    p: int
    q: int
    phi: tuple       # phi(-1,u), content-free, positive leading coefficient
    w11: tuple       # w11(-1,u)
    w12: tuple       # w12(-1,u)
    roots_count: int  # = degree of phi, with multiplicity
    squarefree: bool
    # the relator holonomy: rho(w) at t = -1 is i^k times this integer
    # matrix (A, B, C, D), k even
    relator: tuple


def section_at_minus_one(K: TwoBridge) -> RileySection:
    """Specialize the Riley apparatus at t = -1 and check every structural
    claim: degrees (p-1)/2 and (p-3)/2, the product identity
    rho(w) = (rho(x1) rho(x2))^{(p-1)/2}, unit leading coefficient, and
    squarefreeness of phi(-1,u)."""
    p = K.p
    half = (p - 1) // 2
    k, relator = _holonomy_at_i(relator_word(K))
    if k % 2 != 0:
        raise RileyError(f"{K.name}: relator holonomy carries an odd power of i")
    sign = 1 if k == 0 else -1

    power = _power_x1x2_at_i(half)
    if not _scaled_eq(k, relator, power):
        raise RileyError(
            f"{K.name}: letter-product holonomy differs from the "
            f"(rho(x1)rho(x2))^{half} power form at t = -1"
        )

    w11 = tuple(sign * x for x in relator[0])
    w12 = tuple(sign * x for x in relator[1])
    if len(w11) - 1 != half:
        raise RileyError(
            f"{K.name}: deg w11(-1,u) = {len(w11) - 1}, expected {half}"
        )
    if len(w12) - 1 != half - 1:
        raise RileyError(
            f"{K.name}: deg w12(-1,u) = {len(w12) - 1}, expected {half - 1}"
        )

    phi_raw = _iadd(w11, _iadd(w12, w12))
    if not phi_raw or abs(phi_raw[-1]) != 1:
        raise RileyError(f"{K.name}: phi(-1,u) leading coefficient is not a unit")
    if len(phi_raw) - 1 != half:
        raise RileyError(
            f"{K.name}: deg phi(-1,u) = {len(phi_raw) - 1}, expected {half}"
        )
    phi = _content_normalize(phi_raw)

    squarefree = _is_squarefree(phi)
    if not squarefree:
        # would contradict the distinctness of the (p-1)/2 solutions
        raise RileyError(
            f"{K.name}: phi(-1,u) = {poly_str(phi)} is not squarefree"
        )

    return RileySection(
        p=K.p,
        q=K.q,
        phi=phi,
        w11=w11,
        w12=w12,
        roots_count=len(phi) - 1,
        squarefree=squarefree,
        relator=relator,
    )


def _section_for(K: TwoBridge, section: RileySection | None) -> RileySection:
    """The given section of K, or a freshly computed one."""
    if section is None:
        return section_at_minus_one(K)
    if (section.p, section.q) != (K.p, K.q):
        raise ValueError(
            f"section of S({section.p},{section.q}) passed for {K.name}"
        )
    return section


# ---------------------------------------------------------------------------
# Verification in the residue ring Z[u]/(phi(-1,u))

class RelatorReport(NamedTuple):
    knot: str
    ok: bool
    # the four entries of rho(w)rho(x1) - rho(x2)rho(w) mod phi: integer
    # tuples at t = -1, LaurentBiPoly pseudo-remainders at general t
    residues: tuple

    def to_dict(self) -> dict:
        return {
            "knot": self.knot,
            "ok": self.ok,
            "residues": [
                poly_str(r) if isinstance(r, tuple) else str(r)
                for r in self.residues
            ],
        }


def verify_relator_mod_phi(
    K: TwoBridge, section: RileySection | None = None
) -> RelatorReport:
    """Check rho(w) rho(x1) = rho(x2) rho(w) entry-wise in the residue
    ring mod phi(-1,u), on the relator holonomy the section has built.
    `section` is K's section if already computed."""
    section = _section_for(K, section)
    A, B, C, D = section.relator
    # rho(w)rho(x1) - rho(x2)rho(w) = i^{k+1} (P N1 - N2 P)
    lhs = (
        A,
        _ineg(_iadd(A, B)),
        C,
        _ineg(_iadd(C, D)),
    )
    rhs = (
        A,
        B,
        _isub(_ineg(_ishift(A)), C),
        _isub(_ineg(_ishift(B)), D),
    )
    residues = tuple(
        _irem_monic(_isub(l, r), section.phi) for l, r in zip(lhs, rhs)
    )
    return RelatorReport(knot=K.name, ok=not any(residues), residues=residues)


class LongitudeReport(NamedTuple):
    knot: str
    result: str  # "id", "-id", or "neither"
    trace_is_two: bool

    @property
    def ok(self) -> bool:
        return self.result == "id"


def verify_longitude_mod_phi(
    K: TwoBridge, section: RileySection | None = None
) -> LongitudeReport:
    """Evaluate the longitude holonomy at t = -1 in the residue ring and
    report whether it is +id (the expected value, giving trace 2), -id,
    or neither. `section` is K's section if already computed."""
    phi = _section_for(K, section).phi
    k, (A, B, C, D) = _holonomy_at_i(longitude_word(K))
    if k % 2 != 0:
        return LongitudeReport(knot=K.name, result="neither", trace_is_two=False)
    sign = 1 if k == 0 else -1
    a, b, c, d = (
        _irem_monic(tuple(sign * x for x in e), phi) for e in (A, B, C, D)
    )
    if b == () and c == ():
        if a == (1,) and d == (1,):
            result = "id"
        elif a == (-1,) and d == (-1,):
            result = "-id"
        else:
            result = "neither"
    else:
        result = "neither"
    trace = _irem_monic(_isub(_iadd(a, d), (2,)), phi)
    return LongitudeReport(knot=K.name, result=result, trace_is_two=trace == ())


class CrossCheckReport(NamedTuple):
    knot: str
    riley_root_count: int
    half_p_minus_one: int
    metabelian_count: int

    @property
    def ok(self) -> bool:
        return (
            self.riley_root_count
            == self.half_p_minus_one
            == self.metabelian_count
        )

    def to_dict(self) -> dict:
        return {
            "knot": self.knot,
            "riley_root_count": self.riley_root_count,
            "half_p_minus_one": self.half_p_minus_one,
            "metabelian_count": self.metabelian_count,
            "ok": self.ok,
        }


def cross_check_counts(
    K: TwoBridge, section: RileySection | None = None
) -> CrossCheckReport:
    """Distinct roots of phi(-1,u) vs (p-1)/2 vs the metabelian census.
    `section` is K's section if already computed."""
    section = _section_for(K, section)
    # squarefree, so distinct roots = degree
    return CrossCheckReport(
        knot=K.name,
        riley_root_count=section.roots_count,
        half_p_minus_one=(K.p - 1) // 2,
        metabelian_count=count_metabelian(K),
    )


# ---------------------------------------------------------------------------
# Display-only root isolation (Sturm isolation, dyadic refinement; exact
# until final rendering)

def _sturm_chain(f: tuple) -> list:
    """Sturm sequence f, f', -rem(f, f'), ... of an integer polynomial. Each
    member is a positive integer multiple of the classical one, so its sign
    at every point is the same."""
    chain = [f, _primitive(poly_derivative(f))]
    while chain[-1]:
        chain.append(_ineg(_primitive(_iprem(chain[-2], chain[-1]))))
    chain.pop()
    return chain


def _sign_changes(chain, n: int, m: int) -> int:
    signs = [s for s in (_sign_at(f, n, m) for f in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def approx_real_roots(phi: tuple, bits: int = 50):
    """Approximate real roots of an integer polynomial, for display only.
    Returns (floats, complex_pair_count).

    phi is divided by its positive content. With B/D the root bound 1 + max|c|/|lead|, every point is an integer
    numerator over D * 2^k, and every sign is an integer Horner evaluation.
    Sturm counts isolate the distinct roots (bisecting [-B/D, B/D] and
    nudging midpoints off exact roots); each isolating interval (lo, hi] is
    then halved `bits` times by the sign of phi's squarefree part alone, a
    zero at the midpoint going to hi. Only the final midpoint becomes a
    float."""
    if len(phi) < 2:
        return [], 0
    f = _primitive(phi)
    D = abs(f[-1])
    B = D + max(abs(c) for c in f)
    chain = _sturm_chain(f)
    # the squarefree part changes sign at every distinct root, and only there
    sqf = f if len(chain[-1]) == 1 else _iquo_exact(f, chain[-1])

    # a point (n, k) is n / (D * 2^k)
    def changes(x):
        return _sign_changes(chain, x[0], D << x[1])

    def sign(x):
        return _sign_at(sqf, x[0], D << x[1])

    def midpoint(x, y):
        k = max(x[1], y[1])
        return ((x[0] << (k - x[1])) + (y[0] << (k - y[1])), k + 1)

    roots = []
    left, right = (-B, 0), (B, 0)
    stack = [(left, changes(left), right, changes(right))]
    while stack:
        a, va, b, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            k = max(a[1], b[1])
            lo, hi = a[0] << (k - a[1]), b[0] << (k - b[1])
            m = D << k
            # a is +-B/D or a nudged midpoint, and lo only moves to
            # midpoints that are not roots, so lo_sign is never 0
            lo_sign = _sign_at(sqf, lo, m)
            for _ in range(bits):
                lo, hi, m = 2 * lo, 2 * hi, 2 * m
                mid = (lo + hi) >> 1
                s = _sign_at(sqf, mid, m)
                if s == 0 or s != lo_sign:
                    hi = mid
                else:
                    lo = mid
            roots.append((lo + hi) / (2 * m))
            continue
        mid = midpoint(a, b)
        # nudge off an exact root of phi
        while sign(mid) == 0:
            mid = midpoint(a, mid)
        vm = changes(mid)
        stack.extend([(a, va, mid, vm), (mid, vm, b, vb)])
    roots.sort()
    complex_pairs = (len(f) - 1 - len(roots)) // 2
    return roots, complex_pairs


def verify_relator_general_t(K: TwoBridge) -> RelatorReport:
    """The relator identity over Z[s^{+-1}][u] modulo phi(t,u), via
    pseudo-remainders in u. Exact but costly; off the default path."""
    phi = riley_polynomial(K)
    rho_w = word_holonomy(relator_word(K))
    diff = rho_w * _X1 - _X2 * rho_w
    residues = tuple(laurent_pseudo_rem_u(e, phi) for e in diff.entries())
    return RelatorReport(knot=K.name, ok=not any(residues), residues=residues)
