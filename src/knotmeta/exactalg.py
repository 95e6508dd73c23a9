"""Exact arithmetic kernel: dense univariate polynomials over Z, the sparse
bivariate Laurent ring Z[s^{+-1}][u], and generic 2x2 matrices.

A polynomial over Z is a tuple of int coefficients, constant term first,
with no trailing zeros; () is the zero polynomial. Every univariate
computation in the package (phi(-1,u), its residues and roots, and
A(sqrt(-1), l)) runs on these tuples.

Everything here is immutable and pure; no floating point anywhere.
"""

from __future__ import annotations

import math


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


class LaurentBiPoly:
    """Sparse element of Z[s^{+-1}][u]: map (s-exponent, u-exponent) -> int.

    The half variable s satisfies s^2 = t; u-exponents are nonnegative,
    s-exponents may be negative. Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (se, ue), c in terms.items():
                if not isinstance(c, int):
                    raise TypeError("LaurentBiPoly coefficients must be int")
                if ue < 0:
                    raise ValueError("u-exponents must be nonnegative")
                if c:
                    clean[(se, ue)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("LaurentBiPoly is immutable")

    @classmethod
    def const(cls, c: int) -> "LaurentBiPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, c: int, s_exp: int, u_exp: int = 0) -> "LaurentBiPoly":
        return cls({(s_exp, u_exp): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentBiPoly.const(other)
        if not isinstance(other, LaurentBiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentBiPoly.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return LaurentBiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentBiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentBiPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentBiPoly.const(other)
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

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (se, ue), c in self.sorted_terms():
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
LB_ONE = LaurentBiPoly.const(1)
LB_S = LaurentBiPoly.monomial(1, 1)
LB_S_INV = LaurentBiPoly.monomial(1, -1)
LB_U = LaurentBiPoly({(0, 1): 1})


def laurent_pseudo_rem_u(p: LaurentBiPoly, phi: LaurentBiPoly) -> LaurentBiPoly:
    """Pseudo-remainder of p by phi, viewed as polynomials in u.

    Each step multiplies the running remainder by the u-leading coefficient
    of phi, so over the integral domain Z[s^{+-1}] the result is zero exactly
    when phi divides p in (fraction field)[u].
    """
    if phi.is_zero():
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


class Mat2:
    """2x2 matrix over any commutative ring: LaurentBiPoly, int or Fraction
    entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls, one, zero) -> "Mat2":
        return cls(one, zero, zero, one)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __sub__(self, other):
        return Mat2(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"
