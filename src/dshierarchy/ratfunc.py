"""Exact univariate rational functions of x over Q.

Ring operations, integer powers (negative ones too), d/dx and exact equality,
for formal-in-time solutions.  A value is a numerator over a denominator, each
a tuple of ``int`` coefficients in ascending powers of x, in one normal form:
coprime, integer content 1, positive leading denominator coefficient; zero is
``((), (1,))``.  The form is unique, so equality and hashing compare tuples.
The gcd is a primitive-part Euclid over Z (W. S. Brown, J. ACM 18, 1971), so
by Gauss's lemma both parts divide by it exactly.  The constructor clears the
denominators of ``Fraction`` inputs with one ``lcm``; the ``num``/``den`` views
give ``Fraction`` coefficients over a monic denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .diffalg import _power

Poly = tuple[int, ...]


def _trim(p: list[int]) -> Poly:
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


def _pmul(a: Poly, b: Poly) -> Poly:
    """Product; over Z the leading coefficients never cancel."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _pdx(a: Poly) -> Poly:
    return tuple(i * a[i] for i in range(1, len(a)))


def _primitive(a: Poly) -> Poly:
    c = gcd(*a)
    return a if c == 1 else tuple(x // c for x in a)


def _prem(a: Poly, b: Poly) -> Poly:
    """Primitive part of a pseudo-remainder of a by b, for deg a >= deg b."""
    r = list(a)
    lb, nb = b[-1], len(b)
    while len(r) >= nb:
        g = gcd(r[-1], lb)
        m, c = lb // g, r[-1] // g
        if m != 1:
            r = [x * m for x in r]
        s = len(r) - nb
        for i, y in enumerate(b):
            r[s + i] -= c * y
        r.pop()                      # its coefficient is now zero
        while r and not r[-1]:
            r.pop()
    return _primitive(tuple(r)) if r else ()


def _pgcd(a: Poly, b: Poly) -> Poly:
    """gcd of two nonzero polynomials, primitive, up to sign."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        a, b = b, _prem(a, b)
    return a if not b else (1,)


def _pquo(a: Poly, g: Poly) -> Poly:
    """a / g for a primitive g that divides a; by Gauss's lemma it is integral."""
    r = list(a)
    lg, ng = g[-1], len(g)
    q = [0] * (len(a) - ng + 1)
    for s in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[s + ng - 1], lg)
        assert not rem, "inexact polynomial division"
        q[s] = c
        if c:
            for i, y in enumerate(g):
                r[s + i] -= c * y
    assert not any(r), "inexact polynomial division"
    return tuple(q)


def _new(n: Poly, d: Poly) -> RatFunc:
    """The value n/d, with gcd(n, d) = 1 already: divide out content and sign."""
    if not n:
        return _ZERO
    c = gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    out = object.__new__(RatFunc)
    out._n, out._d = n, d
    return out


def _reduced(n: Poly, d: Poly) -> RatFunc:
    """The value n/d in normal form, for d != 0."""
    if len(n) > 1 and len(d) > 1:
        g = _pgcd(n, d)
        if len(g) > 1:
            n, d = _pquo(n, g), _pquo(d, g)
    return _new(n, d)


class RatFunc:
    """num/den in the normal form of the module docstring."""

    __slots__ = ("_n", "_d")

    def __init__(self, num: Sequence, den: Sequence = (1,)):
        num = [Fraction(x) for x in num]
        den = [Fraction(x) for x in den]
        scale = lcm(*(c.denominator for c in num + den))
        n = _trim([c.numerator * (scale // c.denominator) for c in num])
        d = _trim([c.numerator * (scale // c.denominator) for c in den])
        if not d:
            raise ZeroDivisionError("zero denominator")
        out = _reduced(n, d)
        self._n, self._d = out._n, out._d

    @property
    def num(self) -> tuple[Fraction, ...]:
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._n)

    @property
    def den(self) -> tuple[Fraction, ...]:
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._d)

    @classmethod
    def const(cls, c) -> "RatFunc":
        c = Fraction(c)
        return _new((c.numerator,), (c.denominator,)) if c else _ZERO

    @classmethod
    def x(cls) -> "RatFunc":
        return _new((0, 1), (1,))

    def is_zero(self) -> bool:
        return not self._n

    def has_pole_at_zero(self) -> bool:
        return not self._d[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __add__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        g = _pgcd(d1, d2)
        e1, e2 = (_pquo(d1, g), _pquo(d2, g)) if len(g) > 1 else (d1, d2)
        # over the lcm d1 * e2 = d2 * e1
        return _reduced(_padd(_pmul(n1, e2), _pmul(n2, e1)), _pmul(d1, e2))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        out = object.__new__(RatFunc)
        out._n, out._d = tuple(-c for c in self._n), self._d
        return out

    def __sub__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return _ZERO
            return _new(tuple(x * c.numerator for x in self._n),
                        tuple(x * c.denominator for x in self._d))
        return _reduced(_pmul(self._n, other._n), _pmul(self._d, other._d))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatFunc":
        base = self
        if n < 0:
            if not self._n:
                raise ZeroDivisionError("zero to a negative power")
            base, n = _new(self._d, self._n), -n
        return _power(_ONE, base, n)

    def dx(self) -> "RatFunc":
        n, d = self._n, self._d
        num = _padd(_pmul(_pdx(n), d), tuple(-c for c in _pmul(n, _pdx(d))))
        return _reduced(num, _pmul(d, d))

    def __repr__(self) -> str:
        def fmt(p: tuple[Fraction, ...]) -> str:
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if not c:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*x" if c != 1 else "x")
                else:
                    parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
            return " + ".join(parts)

        if len(self._d) == 1:
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


_ZERO = object.__new__(RatFunc)
_ZERO._n, _ZERO._d = (), (1,)
_ONE = _new((1,), (1,))
