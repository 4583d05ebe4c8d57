"""Exact univariate rational functions of x over Q.

Ring operations, integer powers (negative ones too), d/dx and exact equality,
for formal-in-time solutions.  A value is a numerator over a denominator, each
a tuple of ``int`` coefficients in ascending powers of x, in one normal form:
coprime, integer content 1, positive leading denominator coefficient; zero is
``((), (1,))``.  The form is unique, so equality and hashing compare tuples.
The gcd is a primitive-part Euclid over Z (W. S. Brown, J. ACM 18, 1971), so
by Gauss's lemma both parts divide by it exactly.  The constructor clears the
denominators of ``Fraction`` inputs with one ``lcm``; the ``num``/``den`` views
give ``Fraction`` coefficients over a monic denominator, and ``texts`` gives
the same coefficients as the strings ``repr`` prints, built with no
``Fraction``.

Sums and products of two values in normal form use Henrici's gcds (P. Henrici,
J. ACM 3, 1956), which are smaller than the gcd of the whole result:

- ``n1/d + n2/d`` divides by ``gcd(n1 + n2, d)``;
- otherwise, with ``g = gcd(d1, d2)``, ``d1 = g e1`` and ``d2 = g e2``, the sum
  is ``t / (g e1 e2)`` with ``t = n1 e2 + n2 e1``.  ``t`` is coprime to ``e1``
  and ``e2``, so it divides by ``gcd(t, g)`` only, and by nothing when ``g`` is
  a constant;
- ``(n1/d1)(n2/d2)`` divides by the cross gcds ``gcd(n1, d2)`` and
  ``gcd(n2, d1)``, since ``n1`` is coprime to ``d1`` and ``n2`` to ``d2``;
- ``(n/d)' = t / (g e^2)`` with ``g = gcd(d, d')``, ``d = g e``, ``d' = g h``
  and ``t = n' e - n h``, in lowest terms with no further gcd: a factor of
  multiplicity m in d has multiplicity m - 1 in ``d'`` and in ``g``
  (characteristic 0), so it divides ``e`` once and ``h`` not at all, and
  ``t`` is coprime to ``e``, whose factors are all those of ``g``.

``RatFunc.dot`` sums many products at once: it adds the raw numerators of the
products that share a denominator tuple, with no gcd, and reduces once per
distinct denominator.  Every result is brought to the one normal form above, so
the route taken never shows in a value, its hash or its printed text.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .diffalg import _power, fraction_text

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


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b divided by their gcd; a zero or constant a or b is left as it is."""
    if len(a) > 1 and len(b) > 1:
        g = _pgcd(a, b)
        if len(g) > 1:
            return _pquo(a, g), _pquo(b, g)
    return a, b


def _reduced(n: Poly, d: Poly) -> RatFunc:
    """The value n/d in normal form, for d != 0."""
    return _new(*_cancel(n, d))


def _poly_text(coeffs: Sequence[str]) -> str:
    """``c0 + c1*x + c2*x^2 ...`` from coefficient strings; zeros are left out."""
    if not coeffs:
        return "0"
    out = []
    for i, c in enumerate(coeffs):
        if c == "0":
            continue
        if i == 0:
            out.append(c)
        elif c == "1":
            out.append("x" if i == 1 else f"x^{i}")
        else:
            out.append(f"{c}*x" if i == 1 else f"{c}*x^{i}")
    return " + ".join(out)


def rational_text(num: Sequence[str], den: Sequence[str]) -> str:
    """``repr`` of a RatFunc, from the coefficient strings of ``texts()``."""
    if len(den) == 1:
        return _poly_text(num)
    return f"({_poly_text(num)})/({_poly_text(den)})"


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

    def texts(self) -> tuple[list[str], list[str]]:
        """The coefficients of ``num`` and ``den`` as ``str(Fraction)`` prints them."""
        lead = self._d[-1]
        out = []
        for poly in (self._n, self._d):
            strs = []
            for c in poly:
                g = gcd(c, lead)
                strs.append(fraction_text(c // g, lead // g))
            out.append(strs)
        return out[0], out[1]

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
        if not n1:
            return other
        if not n2:
            return self
        if d1 == d2:
            return _reduced(_padd(n1, n2), d1)
        g = _pgcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else (1,)
        if len(g) == 1:
            return _new(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
        e1, e2 = _pquo(d1, g), _pquo(d2, g)
        t, g = _cancel(_padd(_pmul(n1, e2), _pmul(n2, e1)), g)
        return _new(t, _pmul(_pmul(g, e1), e2))

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
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not n1 or not n2:
            return _ZERO
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return _new(_pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable[tuple["RatFunc", "RatFunc | int"]]) -> "RatFunc":
        """The sum of a * b over the pairs, one reduction per distinct denominator.

        b is a RatFunc or an int.  The numerators of the products that share a
        denominator tuple are added unreduced; each such sum is then reduced
        once, and the sums are added.
        """
        by_den: dict[Poly, Poly] = {}
        for a, b in pairs:
            if type(b) is int:
                n, d = (tuple(x * b for x in a._n) if b else ()), a._d
            else:
                n, d = _pmul(a._n, b._n), _pmul(a._d, b._d)
            if n:
                got = by_den.get(d)
                by_den[d] = n if got is None else _padd(got, n)
        out = _ZERO
        for d, n in by_den.items():
            if n:
                out = out + _reduced(n, d)
        return out

    def __pow__(self, n: int) -> "RatFunc":
        base = self
        if n < 0:
            if not self._n:
                raise ZeroDivisionError("zero to a negative power")
            base, n = _new(self._d, self._n), -n
        return _power(_ONE, base, n)

    def dx(self) -> "RatFunc":
        n, d = self._n, self._d
        if len(d) == 1:
            return _new(_pdx(n), d)
        dd = _pdx(d)
        g = _pgcd(d, dd)
        e, h = (_pquo(d, g), _pquo(dd, g)) if len(g) > 1 else (d, dd)
        t = _padd(_pmul(_pdx(n), e), tuple(-c for c in _pmul(n, h)))
        return _new(t, _pmul(_pmul(g, e), e))

    def __repr__(self) -> str:
        return rational_text(*self.texts())


_ZERO = object.__new__(RatFunc)
_ZERO._n, _ZERO._d = (), (1,)
_ONE = _new((1,), (1,))
