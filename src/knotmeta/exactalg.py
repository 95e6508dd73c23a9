"""Exact arithmetic kernel: dense univariate polynomials over Z and the
sparse bivariate Laurent ring Z[s^{+-1}][u].

A polynomial over Z is a tuple of int coefficients, constant term first,
with no trailing zeros; () is the zero polynomial. Every univariate
computation in the package (phi(-1,u), its residues and roots, and
A(sqrt(-1), l)) runs on these tuples.

An element of Z[s^{+-1}][u] is a LaurentBiPoly record holding its dict of
terms; a 2x2 matrix over either ring is the plain tuple (a, b, c, d).
Everything here is immutable and pure; no floating point anywhere.
"""

from __future__ import annotations

import math
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Integer polynomial kernel

def _trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _iadd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, x in enumerate(b):
        out[k] += x
    return _trim(out)


def _ineg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _ishift(a: tuple) -> tuple:
    """Multiply by the variable."""
    return (0,) + a if a else ()


def _isub(a: tuple, b: tuple) -> tuple:
    return _iadd(a, _ineg(b))


def poly_derivative(a: tuple) -> tuple:
    return tuple(k * x for k, x in enumerate(a))[1:]


def _irem_monic(a: tuple, phi: tuple) -> tuple:
    """Remainder of a by a monic integer polynomial phi; stays over Z."""
    assert phi and phi[-1] == 1
    d = len(phi) - 1
    rem = list(a)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if not c:
            continue
        for j in range(d + 1):
            rem[k - d + j] -= c * phi[j]
    return _trim(rem[: d])


def _iprem(a: tuple, b: tuple) -> tuple:
    """A positive integer multiple of the remainder of a by b over Q: each
    elimination step scales by |lc(b)|, never by a negative number, so the
    result has the sign of the true remainder at every point."""
    d = len(b) - 1
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    rem = list(a)
    while len(rem) > d:
        c = rem.pop() * sign
        if c:
            s = len(rem) - d
            rem = [scale * x for x in rem]
            for j in range(d):
                rem[s + j] -= c * b[j]
    return _trim(rem)


def _iquo_exact(a: tuple, b: tuple) -> tuple:
    """a / b for a primitive b that divides a over Q; the quotient is then
    integral (Gauss's lemma)."""
    d = len(b) - 1
    rem = list(a)
    quot = [0] * (len(a) - d)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + d] // b[-1]
        for j in range(d + 1):
            rem[k + j] -= c * b[j]
    assert not any(rem), "inexact integer polynomial division"
    return tuple(quot)


def _primitive(a: tuple) -> tuple:
    """a divided by its positive content; every sign is kept."""
    g = math.gcd(*a)
    return tuple(x // g for x in a) if g > 1 else a


def _content_normalize(a: tuple) -> tuple:
    """Divide out the integer content and make the leading coefficient
    positive."""
    a = _primitive(a)
    return _ineg(a) if a and a[-1] < 0 else a


def _sign_at(f: tuple, n: int, m: int) -> int:
    """Sign of f(n/m) for m > 0, from the homogeneous Horner form
    m^deg(f) * f(n/m) = sum f_j n^j m^(deg(f) - j)."""
    acc = f[-1]
    m_pow = 1
    for c in f[-2::-1]:
        m_pow *= m
        acc = acc * n + c * m_pow
    return (acc > 0) - (acc < 0)


def _value_and_slope(f: tuple, n: int, m: int) -> tuple:
    """(m^deg(f) * f(n/m), m^(deg(f) - 1) * f'(n/m)) for m > 0, by one
    homogeneous Horner pass carrying its derivative in n."""
    acc, dacc = f[-1], 0
    m_pow = 1
    for c in f[-2::-1]:
        m_pow *= m
        dacc = dacc * n + acc
        acc = acc * n + c * m_pow
    return acc, dacc


# gcd certificates reduce mod this word-size prime, 2^31 - 1.
_CERT_PRIME = 2_147_483_647


def _gcd_degree_mod(a: tuple, b: tuple, P: int) -> int:
    """Degree of gcd(a, b) over Z/P by the Euclidean algorithm (-1 for
    gcd(0, 0))."""
    a = _trim([x % P for x in a])
    b = _trim([x % P for x in b])
    while b:
        inv = pow(b[-1], -1, P)
        d = len(b) - 1
        rem = list(a)
        while len(rem) > d:
            c = rem.pop() * inv % P
            if c:
                s = len(rem) - d
                for j in range(d):
                    rem[s + j] = (rem[s + j] - c * b[j]) % P
        a, b = b, _trim(rem)
    return len(a) - 1


def _coprime_certified(a: tuple, b: tuple) -> bool:
    """True only if gcd(a, b) over Q is 1: _CERT_PRIME does not divide
    lc(a) and gcd(a, b) mod _CERT_PRIME is a constant.

    A common factor of a and b over Q is, up to a rational multiple, a
    primitive integer g dividing both over Z (Gauss's lemma), so lc(g)
    divides lc(a) and g keeps its degree mod the prime. False is only a
    hint; the exact gcd then decides."""
    return a[-1] % _CERT_PRIME != 0 and _gcd_degree_mod(a, b, _CERT_PRIME) == 0


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """gcd over Q of two integer polynomials, content-free with a positive
    leading coefficient, by the primitive pseudo-remainder sequence."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_iprem(a, b))
    return _content_normalize(a)


def poly_str(a: tuple) -> str:
    """Render as "(c_n)*u^n + ... + (c_1)*u + (c_0)", zero terms omitted."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            parts.append(f"({c})")
        elif k == 1:
            parts.append(f"({c})*u")
        else:
            parts.append(f"({c})*u^{k}")
    return " + ".join(parts)


def ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms over a positive denominator, with the bytes
    of str(Fraction(num, den)): "n/d", or "n" when d = 1."""
    if not den:
        raise ZeroDivisionError(f"ratio {num}/0")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    return f"{num}/{den}" if den != 1 else str(num)


class LaurentBiPoly(NamedTuple("LaurentBiPoly", [("terms", dict)])):
    """Sparse element of Z[s^{+-1}][u]: map (s-exponent, u-exponent) -> int.

    The half variable s satisfies s^2 = t; u-exponents are nonnegative,
    s-exponents may be negative. Zero coefficients are never stored, so
    equal polynomials hold equal dicts; no dict is changed once built.
    """

    __slots__ = ()

    def __new__(cls, terms=None):
        clean = {}
        if terms:
            for (se, ue), c in terms.items():
                if not isinstance(c, int):
                    raise TypeError("LaurentBiPoly coefficients must be int")
                if ue < 0:
                    raise ValueError("u-exponents must be nonnegative")
                if c:
                    clean[(se, ue)] = c
        return tuple.__new__(cls, (clean,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return LaurentBiPoly(out)

    def __neg__(self):
        return LaurentBiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentBiPoly):
            return NotImplemented
        out = {}
        for (s1, u1), c1 in self.terms.items():
            for (s2, u2), c2 in other.terms.items():
                k = (s1 + s2, u1 + u2)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                else:
                    del out[k]
        return LaurentBiPoly(out)

    # an int factor raises, rather than repeating the tuple
    __rmul__ = __mul__

    def s_exponents_all_even(self) -> bool:
        return all(se % 2 == 0 for (se, _u) in self.terms)

    def u_degree(self) -> int:
        """Degree in u, -1 for zero (as len(a) - 1 on tuples)."""
        return max((ue for (_s, ue) in self.terms), default=-1)

    def u_coefficient(self, ue: int) -> "LaurentBiPoly":
        """The coefficient of u^ue, as a Laurent polynomial in s alone."""
        return LaurentBiPoly(
            {(se, 0): c for (se, u), c in self.terms.items() if u == ue}
        )

    def eval_s_to_i(self) -> tuple:
        """Substitute s -> sqrt(-1) exactly, yielding an integer polynomial
        in u; s^se = (-1)^(se/2), so every s-exponent must be even."""
        if not self.s_exponents_all_even():
            raise ValueError("odd s-exponent: the value at s = i is not real")
        out = [0] * (self.u_degree() + 1)
        for (se, ue), c in self.terms.items():
            out[ue] += c if se % 4 == 0 else -c
        return _trim(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (se, ue), c in sorted(self.terms.items()):
            piece = str(c)
            if se:
                piece += f"*s^{se}"
            if ue:
                piece += f"*u^{ue}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentBiPoly({self})"


LB_ZERO = LaurentBiPoly()
LB_ONE = LaurentBiPoly({(0, 0): 1})
LB_S = LaurentBiPoly({(1, 0): 1})
LB_S_INV = LaurentBiPoly({(-1, 0): 1})
LB_U = LaurentBiPoly({(0, 1): 1})


def laurent_pseudo_rem_u(p: LaurentBiPoly, phi: LaurentBiPoly) -> LaurentBiPoly:
    """Pseudo-remainder of p by phi, viewed as polynomials in u.

    Each step multiplies the running remainder by the u-leading coefficient
    of phi, so over the integral domain Z[s^{+-1}] the result is zero exactly
    when phi divides p in (fraction field)[u].
    """
    if not phi:
        raise ZeroDivisionError("pseudo-remainder by zero")
    d = phi.u_degree()
    lc = phi.u_coefficient(d)
    r = p
    while r.u_degree() >= d:
        rd = r.u_degree()
        rlc = r.u_coefficient(rd)
        shift = LaurentBiPoly({(0, rd - d): 1})
        r = lc * r - rlc * shift * phi
    return r

