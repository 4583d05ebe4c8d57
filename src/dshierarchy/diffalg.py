"""Exact arithmetic in rings of differential polynomials.

A jet variable ``u_{a,m}`` stands for the m-th x-derivative of the a-th
dependent variable (``a`` is 1-based, ``m >= 0``).  A :class:`DiffPoly` is a
sparse polynomial in jet variables with rational coefficients.  The total
derivative sends ``u_{a,m}`` to ``u_{a,m+1}`` and extends by the Leibniz rule,
so the pair (ring, total derivative) is a differential algebra.

Storage: a polynomial is one ``int`` denominator over a map from monomials to
``int`` numerators, in normal form after every operation (the denominator is
positive, its gcd with all the numerators is 1, no numerator is zero).  A
monomial is one packed ``int``: each jet variable owns a fixed field of
``_BITS`` bits, assigned on first use, that holds its exponent, so a monomial
product is one integer addition (Monagan & Pearce, CASC 2007).  The top bit of
every field is a guard; an exponent that would reach it raises
:class:`ExponentOverflowError` instead of carrying into the next field.  The
``terms`` view and ``sorted_terms`` present the same polynomial with
canonical tuple monomials and ``fractions.Fraction`` coefficients.

Truncated series in a formal parameter ``eps`` over this ring are provided by
:class:`EpsSeries`; a series is *graded* when its eps^q coefficient is
homogeneous of differential degree q (``deg u_{a,m} = m``), which is the
storage format for elements of the degree completion of the ring.

Derivations commuting with the jet operator ("evolutionary vector fields")
are determined by their characteristic, the tuple of values on the
generators ``u_{a,0}``; :class:`Derivation` is the one such type, over
``EpsSeries`` or plain ``DiffPoly`` characteristics, with one commutator
(every hierarchy flow is one).  The jet operator is the one
thing that tells the differential ring from the difference ring: a
:class:`JetMap` computes ``d^m`` of its images, and ``discrete.ShiftJetMap``
computes the shift ``S^m`` instead.  Derivations and Miura pairs take their
jets from a jet map, so both rings share them.  Every ring homomorphism
fixed by the images of the jets (a Miura map, the gauge rewrite, the
embedding of the difference ring, evaluation along a solution) is
``DiffPoly.substitute`` over a jet map, which memoises the image of each
monomial.

The monomial container allows negative orders so that the difference ring
(shift orders in Z) can reuse it; the operations that only make sense
differentially (total derivative, degree, the jets of a ``JetMap``) reject
negative orders.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm
from operator import mul, or_
from typing import Callable, Iterable, Sequence

JetVar = tuple[int, int]  # (alpha, order)
Monomial = tuple[tuple[JetVar, int], ...]  # sorted by variable, exponents > 0

_BITS = 16                              # width of one packed exponent field
_FIELD_MASK = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1   # the top bit of a field is its guard

# The packed layout, shared by every polynomial and grown on first use.  It is
# append-only, and no value depends on the order in which fields were assigned:
# equality compares packed ints of one layout, and presentation decodes them.
_FIELD: dict[JetVar, int] = {}          # jet variable -> field index
_VARS: list[JetVar] = []                # field index -> jet variable
_UNIT: list[int] = []                   # field index -> packed monomial of the variable
_GUARD = 0                              # the guard bits of every assigned field
_STEP: dict[int, int] = {}              # field of u_{a,m} -> packed u_{a,m+1} - u_{a,m}
_ORDER_MASK: dict[int, int] = {}        # order m -> the fields of every u_{a,m}, all bits set


class DegreeUndefinedError(ValueError):
    """Raised when asking for the degree of the zero polynomial."""


class ArityMismatchError(ValueError):
    """Raised when a value uses variables outside the declared arity."""


class ExponentOverflowError(OverflowError):
    """Raised when an exponent would exceed MAX_EXPONENT (its packed field)."""


class NotTotalDerivativeError(ValueError):
    """Raised by ``DiffPoly.dx_inverse`` on a polynomial that is no total derivative."""


def jet(alpha: int, order: int = 0) -> JetVar:
    """Jet variable u_{alpha,order}; alpha is 1-based, order >= 0."""
    if alpha < 1:
        raise ValueError(f"component index must be >= 1, got {alpha}")
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    return (alpha, order)


def shift_var(alpha: int, order: int) -> JetVar:
    """Difference-ring variable u_{alpha,order} with order in Z."""
    if alpha < 1:
        raise ValueError(f"component index must be >= 1, got {alpha}")
    return (alpha, order)


def _unit(v: JetVar) -> int:
    """The packed monomial of the variable v; assigns its field on first use."""
    f = _FIELD.get(v)
    if f is None:
        global _GUARD
        f = len(_VARS)
        _FIELD[v] = f
        _VARS.append(v)
        _UNIT.append(1 << (f * _BITS))
        _GUARD |= 1 << (f * _BITS + _BITS - 1)
        _ORDER_MASK[v[1]] = _ORDER_MASK.get(v[1], 0) | (_FIELD_MASK << (f * _BITS))
    return _UNIT[f]


def _factors(m: int) -> list[tuple[int, int]]:
    """(field index, exponent) of each variable of a packed monomial."""
    out = []
    while m:
        f = ((m & -m).bit_length() - 1) // _BITS
        e = (m >> (f * _BITS)) & _FIELD_MASK
        out.append((f, e))
        m -= e << (f * _BITS)
    return out


def _dx_step(f: int) -> int:
    """The packed u_{a,m+1} - u_{a,m} for field f of u_{a,m}, kept in _STEP."""
    alpha, order = _VARS[f]
    if order < 0:
        raise ValueError("total derivative needs orders >= 0")
    step = _STEP[f] = _unit((alpha, order + 1)) - _UNIT[f]
    return step


def _monomial(m: int) -> Monomial:
    return tuple(sorted((_VARS[f], e) for f, e in _factors(m)))


def _degree(m: int) -> int:
    return sum(_VARS[f][1] * e for f, e in _factors(m))


def _overflow(m: int) -> ExponentOverflowError:
    """The error for a monomial sum whose guard bits are set."""
    f = ((m & _GUARD).bit_length() - 1) // _BITS
    return ExponentOverflowError(
        f"exponent of u_{_VARS[f]} would exceed MAX_EXPONENT = {MAX_EXPONENT}")


def _pack(mono) -> int:
    exps: dict[JetVar, int] = {}
    for v, e in mono:
        exps[v] = exps.get(v, 0) + e
    m = 0
    for v, e in exps.items():
        if e < 0:
            raise ValueError(f"negative exponent {e} of u_{v}")
        if e > MAX_EXPONENT:
            raise ExponentOverflowError(
                f"exponent {e} of u_{v} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        m += e * _unit(v)
    return m


def fraction_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for p/q in lowest terms with q > 0."""
    return str(p) if q == 1 else f"{p}/{q}"


def _new(num: dict[int, int], den: int) -> "DiffPoly":
    """A DiffPoly from parts already in normal form."""
    p = object.__new__(DiffPoly)
    p._num = num
    p._den = den
    return p


def _normal(num: dict[int, int], den: int) -> "DiffPoly":
    """num/den in normal form: zero numerators dropped, one gcd pass."""
    if 0 in num.values():
        num = {m: c for m, c in num.items() if c}
    if not num:
        return _new(num, 1)
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    return _new(num, den)


def _lift(acc: dict[int, int], den: int, d: int) -> int:
    """Rescale acc/den, in place, to a denominator divisible by d; returns it."""
    if den % d:
        new = lcm(den, d)
        f = new // den
        for m in acc:
            acc[m] *= f
        den = new
    return den


def _add_into(acc: dict[int, int], den: int, p: "DiffPoly", k: int = 1) -> int:
    """acc/den += k*p, in place over numerators; returns the new denominator."""
    d = p._den
    den = _lift(acc, den, d)
    k *= den // d
    get = acc.get
    for m, c in p._num.items():
        acc[m] = get(m, 0) + c * k
    return den


def _check_guard(a: dict[int, int], b: dict[int, int]) -> None:
    """Raise ExponentOverflowError if some monomial product of a and b overflows."""
    if (reduce(or_, a) + reduce(or_, b)) & _GUARD:
        # some field may overflow: find a product that does
        for m1 in a:
            for m2 in b:
                if (m1 + m2) & _GUARD:
                    raise _overflow(m1 + m2)


def _power(one, base, n: int):
    """base ** n, from the unit ``one`` by repeated squaring."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    while n:
        if n & 1:
            one = one * base
        base = base * base if n > 1 else base
        n >>= 1
    return one


class _TermsView(Mapping):
    """Read-only view of a DiffPoly: tuple monomial -> Fraction coefficient."""

    __slots__ = ("_p",)

    def __init__(self, p: "DiffPoly"):
        self._p = p

    def __len__(self) -> int:
        return len(self._p._num)

    def __iter__(self):
        return (_monomial(m) for m in self._p._num)

    def items(self) -> list[tuple[Monomial, Fraction]]:
        den = self._p._den
        return [(_monomial(m), Fraction(c, den)) for m, c in self._p._num.items()]

    def __getitem__(self, mono) -> Fraction:
        c = self._p._num.get(_pack(mono))
        if c is None:
            raise KeyError(mono)
        return Fraction(c, self._p._den)


class DiffPoly:
    """Sparse differential polynomial: int numerators over one int denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        coeffs: dict[int, Fraction] = {}
        for mono, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                m = _pack(mono)
                coeffs[m] = coeffs.get(m, 0) + c
        den = lcm(*(c.denominator for c in coeffs.values()))
        p = _normal({m: c.numerator * (den // c.denominator)
                     for m, c in coeffs.items()}, den)
        self._num, self._den = p._num, p._den

    @classmethod
    def zero(cls) -> "DiffPoly":
        return _new({}, 1)

    @classmethod
    def const(cls, c) -> "DiffPoly":
        c = Fraction(c)
        return _new({0: c.numerator}, c.denominator) if c else _new({}, 1)

    @classmethod
    def var(cls, alpha: int, order: int = 0) -> "DiffPoly":
        return _new({_unit(jet(alpha, order)): 1}, 1)

    @classmethod
    def dvar(cls, alpha: int, order: int) -> "DiffPoly":
        """Difference-ring generator with order allowed in Z."""
        return _new({_unit(shift_var(alpha, order)): 1}, 1)

    @property
    def terms(self) -> _TermsView:
        """The terms as a read-only map: tuple monomial -> Fraction."""
        return _TermsView(self)

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return all(m == 0 for m in self._num)

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __reduce__(self):
        # packed monomials mean something only in this process's layout
        return (DiffPoly, (dict(self.terms.items()),))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = DiffPoly.const(other)
        a, b = self._num, other._num
        if not a:
            return other
        if not b:
            return self
        da, db = self._den, other._den
        if len(a) < len(b):
            a, b, da, db = b, a, db, da
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = a.copy() if fa == 1 else {m: c * fa for m, c in a.items()}
        get = out.get
        for m, c in b.items():
            out[m] = get(m, 0) + c * fb
        return _normal(out, da * fa)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return _new({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "DiffPoly":
        return self + (-other if isinstance(other, DiffPoly) else DiffPoly.const(-Fraction(other)))

    def __rsub__(self, other) -> "DiffPoly":
        return (-self) + other

    def _scale(self, n: int, d: int) -> "DiffPoly":
        """self * n/d for a reduced fraction with d > 0."""
        num = self._num
        if not n or not num:
            return _new({}, 1)
        g = gcd(self._den, n)
        den, n = self._den // g, n // g
        if d != 1:
            g = gcd(d, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                d //= g
        return _new({m: c * n for m, c in num.items()}, den * d)

    def __mul__(self, other) -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _new({}, 1)
        if len(a) > len(b):
            a, b = b, a
        _check_guard(a, b)
        out: dict[int, int] = {}
        get = out.get
        b_items = b.items()
        for m1, c1 in a.items():
            for m2, c2 in b_items:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return _normal(out, self._den * other._den)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable[tuple["DiffPoly", "DiffPoly"]]) -> "DiffPoly":
        """The sum of a * b over the pairs, normalized once.

        Every term product goes into one numerator dict over one running
        denominator, so the sum costs one gcd pass instead of two per pair.
        Each pair is checked for exponent overflow as in ``__mul__``; the
        operands are not mutated.
        """
        acc: dict[int, int] = {}
        get = acc.get
        den = 1
        for x, y in pairs:
            a, b = x._num, y._num
            if not a or not b:
                continue
            if len(a) > len(b):
                a, b = b, a
            _check_guard(a, b)
            d = x._den * y._den
            den = _lift(acc, den, d)
            k = den // d
            b_items = b.items()
            for m1, c1 in a.items():
                c1 *= k
                for m2, c2 in b_items:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
        return _normal(acc, den)

    def __pow__(self, n: int) -> "DiffPoly":
        return _power(DiffPoly.const(1), self, n)

    # -- calculus ------------------------------------------------------------
    def partial(self, v: JetVar) -> "DiffPoly":
        """Partial derivative with respect to a single jet variable."""
        f = _FIELD.get(v)
        if f is None:
            return _new({}, 1)
        shift, unit = f * _BITS, _UNIT[f]
        out = {}
        for m, c in self._num.items():
            e = (m >> shift) & _FIELD_MASK
            if e:
                out[m - unit] = c * e
        return _normal(out, self._den)

    def dx(self) -> "DiffPoly":
        """Total derivative: u_{a,m} -> u_{a,m+1}, extended by Leibniz."""
        out: dict[int, int] = {}
        get, step = out.get, _STEP.get
        for m, c in self._num.items():
            rest = m
            while rest:  # the factors of m, as in _factors
                f = ((rest & -rest).bit_length() - 1) // _BITS
                e = (rest >> (f * _BITS)) & _FIELD_MASK
                rest -= e << (f * _BITS)
                new = m + (step(f) or _dx_step(f))
                if new & _GUARD:
                    raise _overflow(new)
                out[new] = get(new, 0) + c * e
        return _normal(out, self._den)

    def dx_inverse(self) -> "DiffPoly":
        """The c with no constant term and c.dx() == self.

        Works down from the top jet order M, one component a at a time.  The
        terms with u_{a,M} must be u_{a,M} f with f free of order-M jets; the
        antiderivative g of f in u_{a,M-1} has the same terms in g.dx(), so
        c += g and remainder -= g.dx() clear u_{a,M}.  For an exact remainder
        what is left of c is then free of u_{a,M-1}, so no later step brings
        u_{a,M} back, and after the last component no order-M jet is left.
        A top jet that is not linear, an order-M jet left over, or a nonzero
        remainder of order 0 means that no c exists: NotTotalDerivativeError.

        The remainder is updated in place over numerators.  The part of
        order M is taken out of it by one mask test per term, and every term
        of g.dx() either has an order-M jet or is of order M - 1.
        """
        rest, rest_den = dict(self._num), self._den
        live = reduce(or_, rest, 0)
        if any(live & mask for order, mask in _ORDER_MASK.items() if order < 0):
            raise ValueError("total derivative needs orders >= 0")
        out: dict[int, int] = {}
        out_den = 1
        top = max((order for order, mask in _ORDER_MASK.items() if live & mask), default=0)
        for order in range(top, 0, -1):
            mask = _ORDER_MASK.get(order, 0)
            part, den = {m: rest.pop(m) for m in [m for m in rest if m & mask]}, rest_den
            buckets: dict[int, set[int]] = {}   # packed u_{a,M} -> its terms
            for m, c in part.items():
                if not c:
                    continue
                t = m & mask
                if t & (t - 1) or (t.bit_length() - 1) % _BITS:
                    raise NotTotalDerivativeError(
                        f"a term of order {order} is not linear in the top jets: "
                        f"{_new({m: c}, den)!r}")
                buckets.setdefault(t, set()).add(m)
            for unit in sorted(buckets, key=lambda t: _VARS[(t.bit_length() - 1) // _BITS]):
                low = _unit((_VARS[(unit.bit_length() - 1) // _BITS][0], order - 1))
                shift = low.bit_length() - 1
                terms, step = [], 1
                for m in buckets.pop(unit):
                    c = part[m]
                    if c:
                        k = ((m >> shift) & _FIELD_MASK) + 1
                        new = m - unit + low
                        if new & _GUARD:
                            raise _overflow(new)
                        terms.append((new, c, k))
                        step = lcm(step, k)
                g = _new({new: c * (step // k) for new, c, k in terms}, den * step)
                out_den = _add_into(out, out_den, g)
                dg = g.dx()
                mask, d = _ORDER_MASK[order], dg._den
                den, rest_den = _lift(part, den, d), _lift(rest, rest_den, d)
                k_top, k_low = den // d, rest_den // d
                for m, c in dg._num.items():
                    t = m & mask
                    if t:
                        part[m] = part.get(m, 0) - c * k_top
                        if t in buckets:
                            buckets[t].add(m)
                    else:
                        rest[m] = rest.get(m, 0) - c * k_low
            if any(part.values()):
                raise NotTotalDerivativeError(
                    f"jets of order {order} are left after their parts were integrated")
        if any(rest.values()):
            raise NotTotalDerivativeError(
                f"{_normal(rest, rest_den)!r} is of order 0 and not zero")
        return _normal(out, out_den)

    # -- grading ---------------------------------------------------------
    def degrees(self) -> frozenset[int]:
        """Set of differential degrees of the monomials (deg u_{a,m} = m)."""
        return frozenset(_degree(m) for m in self._num)

    def degree(self):
        """Common degree if homogeneous, else the frozenset of degrees.

        Raises :class:`DegreeUndefinedError` on the zero polynomial.
        """
        degs = self.degrees()
        if not degs:
            raise DegreeUndefinedError("degree undefined for the zero polynomial")
        if len(degs) == 1:
            return next(iter(degs))
        return degs

    def degree_decomposition(self) -> dict[int, "DiffPoly"]:
        buckets: dict[int, dict[int, int]] = {}
        for m, c in self._num.items():
            buckets.setdefault(_degree(m), {})[m] = c
        return {d: _normal(t, self._den) for d, t in buckets.items()}

    # -- structure queries -----------------------------------------------
    def variables(self) -> set[JetVar]:
        return {_VARS[f] for f, _ in _factors(reduce(or_, self._num, 0))}

    def max_alpha(self) -> int:
        return max((v[0] for v in self.variables()), default=0)

    def max_order(self) -> int:
        return max((v[1] for v in self.variables()), default=0)

    # -- substitution ------------------------------------------------------
    def substitute(self, jets: "JetMap"):
        """The ring homomorphism u_{a,m} -> jets(a, m), applied to self.

        ``jets`` is a :class:`JetMap` whose images are DiffPoly, EpsSeries or
        ``ratfunc.RatFunc`` values (Laurent polynomials in 1 - x); the result
        lies in the ring of the images, constants included (a zero or constant
        polynomial maps to a multiple of ``jets.unit``).  Each term is one
        lookup in the map's memo of monomial images, so every monomial image
        is computed once per map.  DiffPoly images, and each eps power of
        EpsSeries images, are summed in place over numerators and normalized
        once.  Images of any other ring are summed by that ring's ``dot`` over
        (image, int numerator) pairs and divided by the common denominator
        once; ``RatFunc.dot`` sums them as ``DiffPoly.dot`` does, with one gcd
        pass.
        """
        if not self._num:
            return jets.unit * 0
        image = jets.monomial
        acc: dict[int, int] = {}
        den = 1
        series = None           # EpsSeries images: [numerators, denominator] per eps power
        rest = []               # other images: (image, numerator) pairs for one dot
        for m, c in self._num.items():
            term = image(m)
            kind = type(term)
            if kind is DiffPoly:
                den = _add_into(acc, den, term, c)
            elif kind is EpsSeries:
                if series is None:
                    order = term.order
                    series = [[{}, 1] for _ in range(order + 1)]
                elif term.order != order:
                    raise ValueError(f"eps truncation mismatch: {order} vs {term.order}")
                for part, comp in zip(series, term.components):
                    if comp._num:
                        part[1] = _add_into(part[0], part[1], comp, c)
            else:
                rest.append((term, c))
        out = _normal(acc, den * self._den)
        if series is not None:
            sums = EpsSeries([_normal(num, d * self._den) for num, d in series], order)
            out = sums + out if out else sums
        if not rest:
            return out
        rest = type(rest[0][0]).dot(rest) * Fraction(1, self._den)
        return rest + out if out else rest

    # -- presentation ------------------------------------------------------
    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(mono, Fraction(p, q)) for mono, p, q in self.sorted_parts()]

    def sorted_parts(self) -> list[tuple[Monomial, int, int]]:
        """The terms as (monomial, p, q), p/q in lowest terms with q > 0, sorted by monomial.

        The order and the values of ``sorted_terms``, without a Fraction per term.
        """
        den = self._den
        out = []
        for m, c in self._num.items():
            g = gcd(c, den)
            out.append((_monomial(m), c // g, den // g))
        out.sort()  # the monomials differ, so only they are compared
        return out

    def __repr__(self) -> str:
        from .render import render_poly
        return render_poly(self)


class EpsSeries:
    """Polynomial in eps over DiffPoly, truncated at eps^K.

    Arithmetic is exact modulo eps^{K+1}; products never read beyond the
    truncation order.  A series is *graded* when component q is homogeneous
    of differential degree q, in which case it represents an element of the
    degree completion.
    """

    __slots__ = ("components", "order")

    def __init__(self, components: Sequence[DiffPoly], order: int | None = None):
        comps = list(components)
        if order is None:
            order = len(comps) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(comps) < order + 1:
            comps.extend(DiffPoly.zero() for _ in range(order + 1 - len(comps)))
        elif len(comps) > order + 1:
            comps = comps[: order + 1]
        self.components = tuple(comps)
        self.order = order

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, order: int) -> "EpsSeries":
        return cls([DiffPoly.zero()] * (order + 1), order)

    @classmethod
    def const(cls, c, order: int) -> "EpsSeries":
        comps = [DiffPoly.const(c)] + [DiffPoly.zero()] * order
        return cls(comps, order)

    @classmethod
    def of_poly(cls, p: DiffPoly, order: int, eps_power: int = 0) -> "EpsSeries":
        comps = [DiffPoly.zero()] * (order + 1)
        if eps_power <= order:
            comps[eps_power] = p
        return cls(comps, order)

    @classmethod
    def var(cls, alpha: int, order_trunc: int, jet_order: int = 0) -> "EpsSeries":
        return cls.of_poly(DiffPoly.var(alpha, jet_order), order_trunc)

    @classmethod
    def regrade(cls, p: DiffPoly, order: int, shift: int = 0) -> "EpsSeries":
        """Place the degree-d part of p at eps^{d+shift}.

        With shift=0 a polynomial becomes a graded series (the canonical
        embedding of the plain ring into its completion).  shift=-1 is used
        for flow characteristics, whose dispersionless part sits at eps^0.
        Parts that would land at negative eps powers must vanish.
        """
        comps = [DiffPoly.zero()] * (order + 1)
        for d, part in p.degree_decomposition().items():
            q = d + shift
            if q < 0:
                raise ValueError(
                    f"degree-{d} part would need eps^{q}; regrade shift {shift} invalid")
            if q <= order:
                comps[q] = comps[q] + part
        return cls(comps, order)

    # -- access ---------------------------------------------------------------
    def component(self, q: int) -> DiffPoly:
        if q < 0 or q > self.order:
            return DiffPoly.zero()
        return self.components[q]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpsSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.components, other.components))

    def __hash__(self):
        return hash((self.order, tuple(hash(c) for c in self.components)))

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other) -> "EpsSeries":
        if isinstance(other, EpsSeries):
            if other.order != self.order:
                raise ValueError(
                    f"eps truncation mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, DiffPoly):
            return EpsSeries.of_poly(other, self.order)
        if isinstance(other, (int, Fraction)):
            return EpsSeries.const(other, self.order)
        raise TypeError(f"cannot coerce {type(other)!r}")

    def __add__(self, other) -> "EpsSeries":
        o = self._coerce(other)
        return EpsSeries([a + b for a, b in zip(self.components, o.components)], self.order)

    __radd__ = __add__

    def __neg__(self) -> "EpsSeries":
        return EpsSeries([-a for a in self.components], self.order)

    def __sub__(self, other) -> "EpsSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "EpsSeries":
        return (-self) + other

    def __mul__(self, other) -> "EpsSeries":
        if isinstance(other, (int, Fraction, DiffPoly)):
            return EpsSeries([c * other for c in self.components], self.order)
        a, b = self.components, self._coerce(other).components
        return EpsSeries([DiffPoly.dot((a[i], b[q - i]) for i in range(q + 1))
                          for q in range(self.order + 1)], self.order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EpsSeries":
        return _power(EpsSeries.const(1, self.order), self, n)

    # -- calculus ------------------------------------------------------------
    def dx(self) -> "EpsSeries":
        return EpsSeries([c.dx() for c in self.components], self.order)

    def partial(self, v: JetVar) -> "EpsSeries":
        return EpsSeries([c.partial(v) for c in self.components], self.order)

    def substitute(self, jets: "JetMap") -> "EpsSeries":
        """Apply ``DiffPoly.substitute`` to each component, keeping its eps power."""
        out = EpsSeries.zero(self.order)
        for q, comp in enumerate(self.components):
            if comp.is_zero():
                continue
            img = comp.substitute(jets)
            if isinstance(img, DiffPoly):
                img = EpsSeries.of_poly(img, self.order)
            out = out + EpsSeries([DiffPoly.zero()] * q + list(img.components), self.order)
        return out

    def variables(self) -> set[JetVar]:
        out: set[JetVar] = set()
        for c in self.components:
            out |= c.variables()
        return out

    def max_order(self) -> int:
        return max((c.max_order() for c in self.components), default=0)

    def exp_dx(self) -> "EpsSeries":
        """Apply e^{eps d} = sum_j eps^j d^j / j! (d = total derivative).

        Each d^j(c_i) is the total derivative of d^{j-1}(c_i).  Component q
        sums K!/j! d^j(c_{q-j}) in place over numerators and is divided by K!
        and normalized once.
        """
        order = self.order
        top = factorial(order)
        sums = [[{}, 1] for _ in range(order + 1)]
        for i, c in enumerate(self.components):
            fact = 1
            for j in range(order + 1 - i):
                if j:
                    c = c.dx()
                    fact *= j
                if not c:
                    break
                part = sums[i + j]
                part[1] = _add_into(part[0], part[1], c, top // fact)
        return EpsSeries([_normal(num, den * top) for num, den in sums], order)

    def __repr__(self) -> str:
        from .render import render_series
        return render_series(self)


class JetMap:
    """The jets (alpha, m) -> d^m(images[alpha-1]) and the monomials in them, each computed once.

    Images may be DiffPoly, EpsSeries or RatFunc values; the ring of RatFunc
    values, Laurent polynomials in 1 - x, is closed under d/dx.  A map is
    handed to ``substitute`` as the images of a ring homomorphism; it raises
    ArityMismatchError for a component beyond ``len(images)``.  Each jet comes
    from one call of ``step``, the only place that knows the jet operator; a
    subclass with another step gives the jets of another ring (or of every
    component, if its step never reads ``images``).  Jets and monomial images
    are memoised for as long as the map lives and never mutated.
    """

    __slots__ = ("images", "_jets", "_monomials")

    def __init__(self, images: Sequence):
        self.images = tuple(images)
        self._jets: dict[JetVar, object] = {}
        self._monomials: dict[int, object] = {}  # packed monomial -> image

    def __call__(self, alpha: int, m: int):
        got = self._jets.get((alpha, m))
        if got is None:
            got = self._jets[(alpha, m)] = self.step(alpha, m)
        return got

    def image(self, alpha: int):
        """images[alpha-1]; ArityMismatchError for a component beyond them."""
        if not 0 < alpha <= len(self.images):
            raise ArityMismatchError(
                f"component {alpha} outside arity {len(self.images)}")
        return self.images[alpha - 1]

    def step(self, alpha: int, m: int):
        """d^m(images[alpha-1]), the total derivative of the jet of order m - 1."""
        if m < 0:
            raise ValueError(
                f"jet of component {alpha} at order {m}: d^m needs m >= 0")
        return self.image(alpha) if m == 0 else self(alpha, m - 1).dx()

    def monomial(self, m: int):
        """The image of the packed monomial m (``unit`` for m = 0).

        A monomial in several variables is the product of its factors'
        powers, and each power is a single-variable monomial of the same memo.
        """
        got = self._monomials.get(m)
        if got is None:
            factors = _factors(m)
            if not factors:
                got = self.unit
            elif len(factors) == 1:
                f, e = factors[0]
                jet = self(*_VARS[f])
                got = jet if e == 1 else jet ** e
            else:
                monomial = self.monomial
                got = reduce(mul, (monomial(e << (f * _BITS)) for f, e in factors))
            self._monomials[m] = got
        return got

    @property
    def unit(self):
        """The one of the ring the images lie in (of DiffPoly with no images)."""
        return self.images[0] ** 0 if self.images else DiffPoly.const(1)


def apply_poly_derivation(jets: JetMap, p: DiffPoly) -> DiffPoly:
    """Apply the evolutionary derivation with characteristic ``jets.images``.

    D(p) = sum_{a,m} J^m(W_a) * dp/du_{a,m}, with J^m the jet operator of
    ``jets``.  Raises ArityMismatchError when p involves a component beyond
    the arity of the characteristic.
    """
    return DiffPoly.dot((jets(*v), p.partial(v)) for v in sorted(p.variables()))


class Derivation:
    """Admissible derivation, stored by its characteristic tuple.

    The characteristic W_a = D(u_a) determines the action on every jet
    variable through D(u_{a,m}) = J^m(W_a), where J^m is the jet operator of
    ``kind`` (``JetMap``: d^m; ``DifferenceRing.jet_map``: the shift S^m), so
    every such derivation commutes with it.  W is a tuple of ``EpsSeries`` of
    one truncation order, or of ``DiffPoly`` (the plain ring, ``order`` None).
    Each nonzero eps power of W gets one jet map (the plain ring exactly one),
    applied by ``apply_poly_derivation``.
    """

    __slots__ = ("chars", "order", "arity", "kind", "_jets")

    def __init__(self, chars: Sequence[EpsSeries] | Sequence[DiffPoly],
                 kind: Callable[[Sequence[DiffPoly]], JetMap] = JetMap):
        chars = tuple(chars)
        if not chars:
            raise ValueError("derivation needs at least one component")
        order = getattr(chars[0], "order", None)
        for c in chars:
            if getattr(c, "order", None) != order:
                raise ValueError("characteristic components disagree on eps order")
        self.chars = chars
        self.order = order
        self.arity = len(chars)
        self.kind = kind
        if order is None:
            self._jets = [(0, kind(chars))]
        else:
            self._jets = [(q, kind(part)) for q, part in
                          enumerate(zip(*(c.components for c in chars))) if any(part)]

    @classmethod
    def from_polys(cls, polys: Sequence[DiffPoly], order: int = 0,
                   kind: Callable[[Sequence[DiffPoly]], JetMap] = JetMap) -> "Derivation":
        return cls([EpsSeries.of_poly(p, order) for p in polys], kind)

    def __call__(self, p: DiffPoly | EpsSeries) -> DiffPoly | EpsSeries:
        if isinstance(p, DiffPoly):
            if self.order is None:
                return apply_poly_derivation(self._jets[0][1], p)
            p = EpsSeries.of_poly(p, self.order)
        if p.order != self.order:
            raise ValueError("eps truncation mismatch between derivation and argument")
        comps = [DiffPoly.zero()] * (self.order + 1)
        for i, part in enumerate(p.components):
            if part:
                for q, jets in self._jets:
                    if i + q <= self.order:
                        comps[i + q] = comps[i + q] + apply_poly_derivation(jets, part)
        return EpsSeries(comps, self.order)

    def commutator(self, other: "Derivation") -> "Derivation":
        if self.arity != other.arity:
            raise ArityMismatchError("derivations have different arities")
        if self.order != other.order:
            raise ValueError("derivations have different eps truncations")
        chars = [self(w2) - other(w1) for w1, w2 in zip(self.chars, other.chars)]
        return Derivation(chars, self.kind)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.chars)

    def is_minus_d(self) -> bool:
        """True when the characteristics are exactly -u_{a,1}: the derivation is -d."""
        return self.chars == tuple(-DiffPoly.var(a, 1) for a in range(1, self.arity + 1))

    def graded(self, eps_order: int) -> "Derivation":
        """Of plain characteristics: the degree-d part of each at eps^{d-1}.

        The one place that grades a flow; its ``chars`` are the graded
        characteristics that ``derive`` prints.
        """
        return Derivation([EpsSeries.regrade(w, eps_order, shift=-1) for w in self.chars],
                          self.kind)

    def __repr__(self) -> str:
        return f"Derivation(arity={self.arity}, eps_order={self.order})"
