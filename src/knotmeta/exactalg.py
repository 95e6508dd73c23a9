"""Exact arithmetic kernel: dense polynomials over Z, and over Z[t] in u.

A polynomial over Z is a tuple of int coefficients, constant term first,
with no trailing zeros; () is the zero polynomial. Every univariate
computation in the package (phi(-1,u), its residues and roots, and
A(sqrt(-1), l)) runs on these tuples.

An element of Z[t][u] nests them once: a tuple, indexed by u-degree, of
Z[t] tuples, with no trailing (). Everything here is immutable and pure;
no floating point anywhere.
"""

from __future__ import annotations

import math
import operator


# ---------------------------------------------------------------------------
# Integer polynomial kernel

def _trim(c: list) -> tuple:
    """Drop trailing zeros: 0 over Z, () over Z[t][u]."""
    while c and not c[-1]:
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
    return tuple(map(operator.neg, a))


def _ishift(a: tuple) -> tuple:
    """Multiply by the variable."""
    return (0,) + a if a else ()


def _isub(a: tuple, b: tuple) -> tuple:
    return _iadd(a, _ineg(b))


def poly_derivative(a: tuple) -> tuple:
    return tuple(k * x for k, x in enumerate(a))[1:]


def _iprem(a: tuple, b: tuple) -> tuple:
    """A positive integer multiple of the remainder of a by b over Q: each
    elimination step scales by |lc(b)|, never by a negative number, so the
    result has the sign of the true remainder at every point. For a monic
    b it is the remainder itself, over Z."""
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


def poly_str(a: tuple, var: str = "u") -> str:
    """Render as "(c_n)*u^n + ... + (c_1)*u + (c_0)", zero terms omitted;
    a coefficient in Z[t] renders the same way in t."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if isinstance(c, tuple):
            c = poly_str(c, "t")
        if k == 0:
            parts.append(f"({c})")
        elif k == 1:
            parts.append(f"({c})*{var}")
        else:
            parts.append(f"({c})*{var}^{k}")
    return " + ".join(parts)


def ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms over a positive denominator, with the bytes
    of str(Fraction(num, den)): "n/d", or "n" when d = 1."""
    if not den:
        raise ZeroDivisionError(f"ratio {num}/0")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    return f"{num}/{den}" if den != 1 else str(num)


# ---------------------------------------------------------------------------
# Z[t][u]: a tuple of Z[t] coefficient tuples indexed by u-degree, with no
# trailing (); the general-t Riley check runs here.

def _imul(a: tuple, b: tuple) -> tuple:
    """The product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _badd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, x in enumerate(b):
        out[k] = _iadd(out[k], x)
    return _trim(out)


def _bsub(a: tuple, b: tuple) -> tuple:
    return _badd(a, tuple(map(_ineg, b)))


def _bmul_t(a: tuple) -> tuple:
    return tuple(map(_ishift, a))


def _bmul_u(a: tuple) -> tuple:
    return ((),) + a if a else ()


def _bprem(a: tuple, b: tuple) -> tuple:
    """The pseudo-remainder of a by b in u over Z[t], as sympy's prem:
    lc(b)^(deg a - deg b + 1) * a mod b, or a if deg a < deg b. Z[t] is
    an integral domain, so it is zero exactly when b divides a over
    Q(t)."""
    if not b:
        raise ZeroDivisionError("pseudo-remainder by zero")
    d = len(b) - 1
    lc = b[-1]
    rem = list(a)
    # each step clears the coefficient of u^(k + d)
    for k in range(len(a) - 1 - d, -1, -1):
        c = rem.pop()
        rem = [_imul(lc, x) for x in rem]
        for j in range(d):
            rem[k + j] = _isub(rem[k + j], _imul(c, b[j]))
    return _trim(rem)
