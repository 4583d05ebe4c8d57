"""Exact Laurent polynomials in y = 1 - x over Q: the values of ``dshier solve``.

The generalized BGW initial data u_a(x, 0) = C_a (1 - x)^{-(m'_a + 1)} lie in
Q[y, 1/y], and so does every value along the solution: the ring is closed
under sums, products and d/dx y^k = -k y^{k-1}.  A value is a dict from each
exponent k of y to an ``int`` numerator, over one positive ``int``
denominator, normalized as ``DiffPoly`` is: no zero numerator, numerators and
denominator coprime as integers, zero is ``{}`` over 1.  The form is unique,
so equality and hashing compare the parts, and no polynomial gcd is ever
needed.  Only a monomial c y^k is a unit, so only a monomial has a negative
power.  No value has a pole at the expansion point x = 0, where y = 1.

``texts`` prints a value as a fraction in powers of x in lowest terms: the
numerator over the monic denominator (x - 1)^{-e}, where e < 0 is the lowest
exponent, or over 1 when e >= 0.  That fraction is already reduced, since the
numerator at x = 1 is a multiple of the nonzero coefficient of y^e.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence

from .diffalg import _lift, _power, fraction_text


def _normal(num: dict[int, int], den: int) -> "RatFunc":
    """num/den in normal form: zero numerators dropped, one gcd pass."""
    num = {k: c for k, c in num.items() if c}
    if not num:
        return _ZERO
    g = gcd(den, *num.values())
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    out = object.__new__(RatFunc)
    out._num, out._den = num, den
    return out


def _poly_text(coeffs: Sequence[str]) -> str:
    """``c0 + c1*x + c2*x^2 ...`` from coefficient strings; zeros are left out."""
    out = []
    for i, c in enumerate(coeffs):
        if c != "0":
            power = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            out.append(c if not power else power if c == "1" else f"{c}*{power}")
    return " + ".join(out) or "0"


def rational_text(num: Sequence[str], den: Sequence[str]) -> str:
    """``repr`` of a RatFunc, from the coefficient strings of ``texts()``."""
    if len(den) == 1:
        return _poly_text(num)
    return f"({_poly_text(num)})/({_poly_text(den)})"


class RatFunc:
    """sum_k c_k (1 - x)^k in the normal form of the module docstring."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        """The value sum_k terms[k] (1 - x)^k, for rational coefficients."""
        terms = {k: Fraction(c) for k, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in terms.values()))
        out = _normal({k: c.numerator * (den // c.denominator)
                       for k, c in terms.items()}, den)
        self._num, self._den = out._num, out._den

    @classmethod
    def const(cls, c) -> "RatFunc":
        c = Fraction(c)
        return _normal({0: c.numerator}, c.denominator)

    @classmethod
    def x(cls) -> "RatFunc":
        return _normal({0: 1, 1: -1}, 1)

    def is_zero(self) -> bool:
        return not self._num

    def texts(self) -> tuple[list[str], list[str]]:
        """The coefficients of the fraction of the module docstring, as ``str(Fraction)``."""
        num, den = self._num, self._den
        if not num:
            return [], ["1"]
        n = max(0, -min(num))   # value = (-1)^n sum_k c_k y^(k+n) / (den (x - 1)^n)
        sign = -1 if n & 1 else 1
        strs = []
        for i in range(max(num) + n + 1):
            # y^j = (1 - x)^j has x^i coefficient (-1)^i C(j, i)
            c = sum(v * comb(k + n, i) for k, v in num.items())
            c = -sign * c if i & 1 else sign * c
            g = gcd(c, den)
            strs.append(fraction_text(c // g, den // g))
        return strs, [str(comb(n, i) * (-1) ** (n - i)) for i in range(n + 1)]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __add__(self, other) -> "RatFunc":
        return RatFunc.dot(((self, 1), (other, 1)))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _normal({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        return RatFunc.dot(((self, other),))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable[tuple]) -> "RatFunc":
        """The sum of a * b over the pairs, normalized once.

        a and b are RatFunc values or rationals.  Every term product goes into
        one numerator dict over one running denominator, as in ``DiffPoly.dot``.
        """
        acc: dict[int, int] = {}
        get = acc.get
        den = 1
        for a, b in pairs:
            if type(a) is not RatFunc:
                a = RatFunc.const(a)
            if type(b) is not RatFunc:
                b = RatFunc.const(b)
            d = a._den * b._den
            den = _lift(acc, den, d)
            f = den // d
            b_items = b._num.items()
            for k1, c1 in a._num.items():
                c1 *= f
                for k2, c2 in b_items:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        return _normal(acc, den)

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int) or n >= 0:
            return _power(_ONE, self, n)
        if len(self._num) != 1:
            raise ValueError(f"({self!r}) ** {n}: only a monomial c (1 - x)^k "
                             f"has a negative power")
        (k, c), = self._num.items()
        num, den = self._den ** -n, c ** -n
        return _normal({k * n: num if den > 0 else -num}, abs(den))

    def dx(self) -> "RatFunc":
        return _normal({k - 1: -k * c for k, c in self._num.items()}, self._den)

    def __repr__(self) -> str:
        return rational_text(*self.texts())


_ZERO = object.__new__(RatFunc)
_ZERO._num, _ZERO._den = {}, 1
_ONE = RatFunc.const(1)
