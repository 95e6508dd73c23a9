"""Riley apparatus for 2-bridge knots S(p,q): word holonomy over Z[t][u],
the Riley polynomial, its t = -1 section, and exact verification of the
relator and longitude identities mod phi.

With s^2 = t, s*rho(x1) = [[t,1],[0,1]] and s*rho(x2) = [[t,0],[-tu,1]]
and their adjugates are integer matrices, so rho(w) = s^-len(w) * M_w with
M_w over Z[t][u], and the general-t check never needs s. At t = -1 every
generator image is i times an involutive integer matrix:

    rho(x1) = i*N1,  N1 = [[1,-1],[0,-1]],
    rho(x2) = i*N2,  N2 = [[1,0],[-u,-1]],   N1^2 = N2^2 = id,

so rho(w) = i^k * P, where k counts letters (x_g -> 1, x_g^-1 -> 3, mod 4)
and P is the product of w's freely reduced word in <N1, N2> = Z/2 * Z/2.
A reduced word alternates, so its first generator and its length fix P;
each such P is built once and memoized. The relator of every S(p, +-q)
reduces to (x1, p - 1) and the longitude to the empty word, and the power
form (rho(x1) rho(x2))^{(p-1)/2} is that relator product times
(-1)^{(p-1)/2}, so a sweep builds one matrix per p and none for the
longitude. M_w at t = -1 is the independent cross-check of the reduced
route. On both routes a 2x2 matrix is the tuple (a, b, c, d), folded row
by row with shift/add steps on exactalg's integer tuples.

Run for each knot: building its relator and longitude words from its own
epsilon sequence, walking each word, checking that its relator walk gives
the memoized product with the power form's unit, and the reports named
for it. Run once per distinct value and memoized: the power form's first
row and phi(-1,u) with their degree, unit and squarefree checks (per p),
the relator residues (per relator matrix and phi) and the longitude
verdict (per k, P and phi). A knot whose walk gives another matrix misses
the memo and gets its own verdict.

A RileySection carries its knot, and the three t = -1 checks (relator,
longitude, count cross-check) take the section as their one input, so
each knot's section is computed once and no check can meet another
knot's section.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .exactalg import (
    _badd,
    _bmul_t,
    _bmul_u,
    _bprem,
    _bsub,
    _content_normalize,
    _coprime_certified,
    _iadd,
    _ineg,
    _iprem,
    _iquo_exact,
    _ishift,
    _isub,
    _primitive,
    _sign_at,
    _value_and_slope,
    poly_derivative,
    poly_gcd,
    poly_str,
)
from .knotdata import GroupWord, TwoBridge, longitude_word, relator_word
from .metabelian import count_metabelian


class RileyError(RuntimeError):
    """An identity the theory guarantees failed: bad input or a bug."""


# ---------------------------------------------------------------------------
# Holonomy over Z[t][u] (the general-t route)

def _times_letter(X: tuple, Y: tuple, g: int, e: int) -> tuple:
    """The matrix row (X, Y) times s*rho(x_g^e), over Z[t][u]."""
    if g == 1:
        if e == 1:
            # [[t,1],[0,1]]
            return _bmul_t(X), _badd(X, Y)
        # [[1,-1],[0,t]]
        return X, _bsub(_bmul_t(Y), X)
    if e == 1:
        # [[t,0],[-tu,1]]
        return _bmul_t(_bsub(X, _bmul_u(Y))), Y
    # [[1,0],[tu,t]]
    return _badd(X, _bmul_t(_bmul_u(Y))), _bmul_t(Y)


def word_holonomy(w: GroupWord) -> tuple:
    """M_w = s^len(w) * rho(w) over Z[t][u], as the matrix (A, B, C, D):
    the product of the integer matrices s*rho(x_g^e), letter by letter."""
    A, B, C, D = ((1,),), (), (), ((1,),)
    for g, e in w.letters:
        A, B = _times_letter(A, B, g, e)
        C, D = _times_letter(C, D, g, e)
    return A, B, C, D


def _relator_holonomy(K: TwoBridge) -> tuple:
    """(M_w, Phi) for the relator word w of K, Phi = M11 + (1 - t) M12;
    phi = s^-len(w) * Phi lies in Z[t^{+-1}][u] only for even len(w)."""
    w = relator_word(K)
    if len(w) % 2:
        raise RileyError(f"{K.name}: relator word has odd length {len(w)}")
    A, B, C, D = M = word_holonomy(w)
    return M, _bsub(_badd(A, B), _bmul_t(B))


def riley_polynomial(K: TwoBridge) -> tuple:
    """Phi(t,u) = t^((p-1)/2) * phi(t,u) = M11 + (1 - t) M12 over Z[t][u],
    from the relator holonomy."""
    return _relator_holonomy(K)[1]


# ---------------------------------------------------------------------------
# The squarefree certificate

def _is_squarefree(phi: tuple) -> bool:
    """Squarefreeness over Q of a monic integer polynomial: the modular
    certificate, else the exact gcd over Q."""
    assert phi and phi[-1] == 1
    dphi = poly_derivative(phi)
    return _coprime_certified(phi, dphi) or len(poly_gcd(phi, dphi)) == 1


# ---------------------------------------------------------------------------
# Holonomy at t = -1 over the integer kernel

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
    A, B, C, D = (1,), (), (), (1,)
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


# ---------------------------------------------------------------------------
# The t = -1 section

class RileySection(NamedTuple):
    knot: TwoBridge
    phi: tuple       # phi(-1,u), content-free, positive leading coefficient
    w11: tuple       # w11(-1,u)
    w12: tuple       # w12(-1,u)
    roots_count: int  # = degree of phi, with multiplicity
    squarefree: bool
    # the relator holonomy: rho(w) at t = -1 is i^k times this integer
    # matrix (A, B, C, D), k even
    relator: tuple


@lru_cache(maxsize=None)
def _power_section(half: int):
    """(w11, w12, phi): the first row of the power form
    (rho(x1) rho(x2))^half at t = -1 and phi(-1,u) from it, after the
    degree, unit and squarefree checks; memoized per half.

    rho(x1) rho(x2) = i^2 N1 N2, so the power form is (-1)^half times the
    memoized alternating product of 2*half factors from N1, the matrix the
    relator walk of every S(p, +-q) returns. lru_cache keeps no exception,
    so a failure is raised again, without a knot's name, for each knot."""
    w11, w12, _c, _d = _alternating_at_i(1, 2 * half)
    if half % 2:
        w11, w12 = _ineg(w11), _ineg(w12)
    if len(w11) - 1 != half:
        raise RileyError(f"deg w11(-1,u) = {len(w11) - 1}, expected {half}")
    if len(w12) - 1 != half - 1:
        raise RileyError(f"deg w12(-1,u) = {len(w12) - 1}, expected {half - 1}")
    phi_raw = _iadd(w11, _iadd(w12, w12))
    if not phi_raw or abs(phi_raw[-1]) != 1:
        raise RileyError("phi(-1,u) leading coefficient is not a unit")
    if len(phi_raw) - 1 != half:
        raise RileyError(f"deg phi(-1,u) = {len(phi_raw) - 1}, expected {half}")
    phi = _content_normalize(phi_raw)
    if not _is_squarefree(phi):
        # would contradict the distinctness of the (p-1)/2 solutions
        raise RileyError(f"phi(-1,u) = {poly_str(phi)} is not squarefree")
    return w11, w12, phi


def section_at_minus_one(K: TwoBridge) -> RileySection:
    """Specialize the Riley apparatus at t = -1 and check every structural
    claim: degrees (p-1)/2 and (p-3)/2, unit leading coefficient and
    squarefreeness of phi(-1,u) (once per p), and, for this knot, the
    product identity rho(w) = (rho(x1) rho(x2))^{(p-1)/2}."""
    half = (K.p - 1) // 2
    k, relator = _holonomy_at_i(relator_word(K))
    if k % 2 != 0:
        raise RileyError(f"{K.name}: relator holonomy carries an odd power of i")
    try:
        w11, w12, phi = _power_section(half)
    except RileyError as exc:
        raise RileyError(f"{K.name}: {exc}") from None

    # i^k * relator must be the power form (-1)^half * N1 N2 ... N2: the
    # memoized product itself, with k = 2*half mod 4
    if k != (2 * half) % 4 or relator != _alternating_at_i(1, 2 * half):
        raise RileyError(
            f"{K.name}: letter-product holonomy differs from the "
            f"(rho(x1)rho(x2))^{half} power form at t = -1"
        )
    return RileySection(
        knot=K,
        phi=phi,
        w11=w11,
        w12=w12,
        roots_count=len(phi) - 1,
        squarefree=True,
        relator=relator,
    )


# ---------------------------------------------------------------------------
# Verification in the residue ring Z[u]/(phi(-1,u))

class RelatorReport(NamedTuple):
    knot: str
    ok: bool
    # the four entries of rho(w)rho(x1) - rho(x2)rho(w) mod phi: integer
    # tuples at t = -1, Z[t][u] pseudo-remainders at general t
    residues: tuple

    def to_dict(self) -> dict:
        return {
            "knot": self.knot,
            "ok": self.ok,
            "residues": [poly_str(r) for r in self.residues],
        }


def verify_relator_mod_phi(section: RileySection) -> RelatorReport:
    """Check rho(w) rho(x1) = rho(x2) rho(w) entry-wise in the residue
    ring mod phi(-1,u), on the relator holonomy the section has built."""
    residues = _relator_residues(section.relator, section.phi)
    return RelatorReport(
        knot=section.knot.name, ok=not any(residues), residues=residues
    )


@lru_cache(maxsize=None)
def _relator_residues(relator: tuple, phi: tuple) -> tuple:
    """The four entries of P N1 - N2 P mod phi, P = relator: a pure
    function of both, memoized per (relator, phi). phi is monic, so
    _iprem gives the exact remainders."""
    A, B, C, D = relator
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
    return tuple(_iprem(_isub(l, r), phi) for l, r in zip(lhs, rhs))


class LongitudeReport(NamedTuple):
    knot: str
    result: str  # "id", "-id", or "neither"
    trace_is_two: bool

    @property
    def ok(self) -> bool:
        return self.result == "id"


def verify_longitude_mod_phi(section: RileySection) -> LongitudeReport:
    """Evaluate the longitude holonomy at t = -1 in the residue ring and
    report whether it is +id (the expected value, giving trace 2), -id,
    or neither."""
    K = section.knot
    k, P = _holonomy_at_i(longitude_word(K))
    result, trace_is_two = _longitude_verdict(k, P, section.phi)
    return LongitudeReport(knot=K.name, result=result, trace_is_two=trace_is_two)


@lru_cache(maxsize=None)
def _longitude_verdict(k: int, P: tuple, phi: tuple) -> tuple:
    """(result, trace_is_two) for the holonomy i^k * P mod phi: a pure
    function of the three, memoized per (k, P, phi)."""
    if k % 2 != 0:
        return "neither", False
    sign = 1 if k == 0 else -1
    a, b, c, d = (_iprem(tuple(sign * x for x in e), phi) for e in P)
    result = "neither"
    if not b and not c and a == d and a in ((1,), (-1,)):
        result = "id" if a == (1,) else "-id"
    return result, _iprem(_isub(_iadd(a, d), (2,)), phi) == ()


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
        return {**self._asdict(), "ok": self.ok}


def cross_check_counts(section: RileySection) -> CrossCheckReport:
    """Distinct roots of phi(-1,u) vs (p-1)/2 vs the metabelian census."""
    K = section.knot
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


def _grid_cell(sqf: tuple, lo: int, hi: int, m: int, bits: int):
    """The cell (L_j, L_j + w] that holds the one root of sqf in
    (lo, hi]/m, on the grid L_i = (lo << bits) + i*w over M = m << bits
    with w = hi - lo, as (L_j, L_j + w, M): the cell that `bits` halvings
    of (lo, hi] end in, where a root on a midpoint closes the left half.

    sqf changes sign at that root and nowhere else in (lo, hi], and the
    caller passes it oriented positive at lo, so an exact sign at any
    point y of the interval says whether the root lies beyond y: it does
    exactly when sqf(y) > 0. The loop keeps a bracket a < b of grid
    indices, the root beyond L_a and not beyond L_b, and stops at
    b = a + 1. Its probes are Newton steps at points Y/2^E, 2^-E under
    half a cell. A positive probe moves a to the grid index at or below
    it; any other sign moves b to the index at or above it. A zero step
    crosses the root by one unit. A probe outside the bracket, a zero
    slope, or a step longer than one unit and more than half the step
    before it give way to the bracket's middle (the rtsafe safeguard,
    Numerical Recipes section 9.4); a probe already made gives way to the
    exact sign of the middle grid point. Every move rests on an exact
    sign, so the cell is the halving's."""
    w, M, base = hi - lo, m << bits, lo << bits
    E = (2 * M // w).bit_length()  # 2^-E < w / 2M
    W, B = w << E, base << E
    a, b = 0, 1 << bits
    # every step inside (lo, hi] is under W, so the first passes the guard
    probed, Y, last = set(), None, 2 * W
    while b - a > 1:
        if Y is None or not a * W < Y * M - B < b * W:
            Y = ((2 * base + (a + b) * w) << E) // (2 * M)
        if Y in probed:
            j = (a + b) >> 1
            if _sign_at(sqf, base + j * w, M) > 0:
                a = j
            else:
                b = j
            Y = None
            continue
        probed.add(Y)
        F, G = _value_and_slope(sqf, Y, 1 << E)
        j, r = divmod(Y * M - B, W)
        if F > 0:
            a, cross = j, -1
        else:
            b, cross = j + (r > 0), 1
        step = (F // G or cross) if G else None
        if step is None or abs(step) > 1 and 2 * abs(step) > abs(last):
            Y = None
        else:
            Y -= step
        last = step or last
    return base + a * w, base + b * w, M


# every isolating interval is cut into 2^_GRID_BITS display cells
_GRID_BITS = 50


def approx_real_roots(phi: tuple):
    """Approximate real roots of an integer polynomial, for display only.
    Returns (floats, complex_pair_count).

    phi is divided by its positive content. With B/D the root bound
    1 + max|c|/|lead|, every point is an integer numerator over D * 2^k,
    and every sign is an integer Horner evaluation. Sturm counts isolate
    the distinct roots (bisecting [-B/D, B/D] and nudging midpoints off
    exact roots). Each isolating interval (lo, hi] is cut into a grid of
    2^_GRID_BITS cells, and _grid_cell finds the cell holding the root with
    one bracket of exact signs of phi's squarefree part: the cell that
    _GRID_BITS halvings would give. Only the cell's midpoint becomes a
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
    # each interval carries sqf's sign at its left end, never a root: at
    # -B/D, below every root, the sign of sqf's lead times (-1)^deg
    left_sign = (-1) ** (len(sqf) - 1) * (1 if sqf[-1] > 0 else -1)
    oriented = {1: sqf, -1: _ineg(sqf)}  # sqf times each sign
    stack = [(left, changes(left), left_sign, right, changes(right))]
    while stack:
        a, va, sa, b, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            k = max(a[1], b[1])
            lo, hi, m = _grid_cell(
                oriented[sa], a[0] << (k - a[1]), b[0] << (k - b[1]), D << k,
                _GRID_BITS,
            )
            roots.append((lo + hi) / (2 * m))
            continue
        mid = midpoint(a, b)
        # nudge off an exact root of phi
        while not (sm := sign(mid)):
            mid = midpoint(a, mid)
        vm = changes(mid)
        stack.extend([(a, va, sa, mid, vm), (mid, vm, sm, b, vb)])
    roots.sort()
    complex_pairs = (len(f) - 1 - len(roots)) // 2
    return roots, complex_pairs


def verify_relator_general_t(K: TwoBridge) -> RelatorReport:
    """The relator identity rho(w) rho(x1) = rho(x2) rho(w) modulo
    phi(t,u). With s cleared it reads M_w s*rho(x1) = s*rho(x2) M_w over
    Z[t][u], and each entry of the difference must leave a zero
    pseudo-remainder in u by Phi; the relator holonomy is built once."""
    (A, B, C, D), phi = _relator_holonomy(K)
    # M_w times s*rho(x1) = [[t,1],[0,1]]
    lhs = (*_times_letter(A, B, 1, 1), *_times_letter(C, D, 1, 1))
    # s*rho(x2) = [[t,0],[-tu,1]] times M_w
    tuA, tuB = _bmul_t(_bmul_u(A)), _bmul_t(_bmul_u(B))
    rhs = (_bmul_t(A), _bmul_t(B), _bsub(C, tuA), _bsub(D, tuB))
    residues = tuple(_bprem(_bsub(l, r), phi) for l, r in zip(lhs, rhs))
    return RelatorReport(knot=K.name, ok=not any(residues), residues=residues)
