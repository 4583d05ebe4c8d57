"""Exact arithmetic in rings of differential polynomials.

A jet variable ``u_{a,m}`` stands for the m-th x-derivative of the a-th
dependent variable (``a`` is 1-based, ``m >= 0``).  A :class:`DiffPoly` is a
sparse polynomial in jet variables with rational coefficients, stored as a
map from canonical monomials to ``fractions.Fraction``.  The total derivative
sends ``u_{a,m}`` to ``u_{a,m+1}`` and extends by the Leibniz rule, so the
pair (ring, total derivative) is a differential algebra.

Truncated series in a formal parameter ``eps`` over this ring are provided by
:class:`EpsSeries`; a series is *graded* when its eps^q coefficient is
homogeneous of differential degree q (``deg u_{a,m} = m``), which is the
storage format for elements of the degree completion of the ring.

Derivations commuting with the total derivative ("evolutionary vector
fields") are determined by their characteristic, the tuple of values on the
generators ``u_{a,0}``; see :class:`Derivation`.

The monomial container intentionally allows negative orders so that the
difference-polynomial ring (shift orders in Z) can reuse it; the operations
that only make sense differentially (total derivative, degree) reject
negative orders.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

Coeff = Fraction
JetVar = tuple[int, int]  # (alpha, order)
Monomial = tuple[tuple[JetVar, int], ...]  # sorted by variable, exponents > 0

_ZERO = Fraction(0)
_ONE = Fraction(1)
_EMPTY: Monomial = ()


class DegreeUndefinedError(ValueError):
    """Raised when asking for the degree of the zero polynomial."""


class ArityMismatchError(ValueError):
    """Raised when a value uses variables outside the declared arity."""


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


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


class DiffPoly:
    """Sparse differential polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        if terms is None:
            self.terms = {}
        else:
            clean: dict[Monomial, Coeff] = {}
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[tuple(sorted(mono))] = c
            self.terms = clean

    # -- fast internal constructor: assumes canonical input -----------------
    @classmethod
    def _raw(cls, terms: dict[Monomial, Coeff]) -> "DiffPoly":
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c) -> "DiffPoly":
        c = Fraction(c)
        return cls._raw({_EMPTY: c} if c else {})

    @classmethod
    def var(cls, alpha: int, order: int = 0) -> "DiffPoly":
        return cls._raw({((jet(alpha, order), 1),): _ONE})

    @classmethod
    def dvar(cls, alpha: int, order: int) -> "DiffPoly":
        """Difference-ring generator with order allowed in Z."""
        return cls._raw({((shift_var(alpha, order), 1),): _ONE})

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == _EMPTY for m in self.terms)

    def constant_term(self) -> Coeff:
        return self.terms.get(_EMPTY, _ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "DiffPoly":
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return DiffPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "DiffPoly":
        return self + (-other if isinstance(other, DiffPoly) else DiffPoly.const(-Fraction(other)))

    def __rsub__(self, other) -> "DiffPoly":
        return (-self) + other

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return DiffPoly.zero()
            return DiffPoly._raw({m: cc * c for m, cc in self.terms.items()})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return DiffPoly.zero()
        out: dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_monomials(m1, m2)
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return DiffPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = DiffPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ------------------------------------------------------------
    def partial(self, v: JetVar) -> "DiffPoly":
        """Partial derivative with respect to a single jet variable."""
        out: dict[Monomial, Coeff] = {}
        for mono, c in self.terms.items():
            for idx, (w, e) in enumerate(mono):
                if w == v:
                    if e == 1:
                        new = mono[:idx] + mono[idx + 1:]
                    else:
                        new = mono[:idx] + ((w, e - 1),) + mono[idx + 1:]
                    s = out.get(new, _ZERO) + c * e
                    if s:
                        out[new] = s
                    else:
                        out.pop(new, None)
                    break
        return DiffPoly._raw(out)

    def dx(self) -> "DiffPoly":
        """Total derivative: u_{a,m} -> u_{a,m+1}, extended by Leibniz."""
        out: dict[Monomial, Coeff] = {}
        for mono, c in self.terms.items():
            for idx, ((alpha, order), e) in enumerate(mono):
                if order < 0:
                    raise ValueError("total derivative needs orders >= 0")
                bumped = (alpha, order + 1)
                rest = list(mono)
                if e == 1:
                    del rest[idx]
                else:
                    rest[idx] = ((alpha, order), e - 1)
                new = _mul_monomials(tuple(rest), ((bumped, 1),))
                s = out.get(new, _ZERO) + c * e
                if s:
                    out[new] = s
                else:
                    out.pop(new, None)
        return DiffPoly._raw(out)

    def dx_n(self, n: int) -> "DiffPoly":
        p = self
        for _ in range(n):
            p = p.dx()
        return p

    # -- grading ---------------------------------------------------------
    def degrees(self) -> frozenset[int]:
        """Set of differential degrees of the monomials (deg u_{a,m} = m)."""
        return frozenset(sum(order * e for ((_, order), e) in m) for m in self.terms)

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

    def degree_component(self, d: int) -> "DiffPoly":
        out = {
            m: c
            for m, c in self.terms.items()
            if sum(order * e for ((_, order), e) in m) == d
        }
        return DiffPoly._raw(out)

    def degree_decomposition(self) -> dict[int, "DiffPoly"]:
        buckets: dict[int, dict[Monomial, Coeff]] = {}
        for m, c in self.terms.items():
            d = sum(order * e for ((_, order), e) in m)
            buckets.setdefault(d, {})[m] = c
        return {d: DiffPoly._raw(t) for d, t in buckets.items()}

    # -- structure queries -----------------------------------------------
    def variables(self) -> set[JetVar]:
        out: set[JetVar] = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def max_alpha(self) -> int:
        return max((v[0] for m in self.terms for v, _ in m), default=0)

    def max_order(self) -> int:
        return max((v[1] for m in self.terms for v, _ in m), default=0)

    def check_arity(self, ell: int) -> "DiffPoly":
        if self.max_alpha() > ell:
            raise ArityMismatchError(
                f"polynomial uses component {self.max_alpha()} > arity {ell}")
        return self

    # -- substitution ------------------------------------------------------
    def substitute(self, image: Callable[[int, int], "DiffPoly | EpsSeries"]):
        """Ring homomorphism determined by jet-variable images.

        ``image(alpha, order)`` must return a DiffPoly or an EpsSeries; the
        result type follows the images.  Images and their powers are cached,
        and plain-polynomial results are accumulated in place.
        """
        img_cache: dict[JetVar, object] = {}
        pow_cache: dict[tuple[JetVar, int], object] = {}

        def power(v: JetVar, e: int):
            got = pow_cache.get((v, e))
            if got is None:
                img = img_cache.get(v)
                if img is None:
                    img = image(v[0], v[1])
                    img_cache[v] = img
                got = img ** e
                pow_cache[(v, e)] = got
            return got

        acc: dict[Monomial, Coeff] | None = {}
        series_result = None
        for mono, c in self.terms.items():
            term = None
            for v, e in mono:
                factor = power(v, e)
                term = factor if term is None else term * factor
            if term is None:
                term = DiffPoly.const(c)
            else:
                term = term * c
            if isinstance(term, DiffPoly) and acc is not None:
                for m, cc in term.terms.items():
                    s = acc.get(m)
                    if s is None:
                        acc[m] = cc
                    else:
                        s = s + cc
                        if s:
                            acc[m] = s
                        else:
                            del acc[m]
            else:
                # an image was an EpsSeries; fall back to series accumulation
                if acc:
                    carried = DiffPoly._raw(acc)
                    term = term + carried
                acc = None
                series_result = term if series_result is None else series_result + term
        if series_result is not None:
            return series_result
        return DiffPoly._raw(acc if acc else {})

    # -- presentation ------------------------------------------------------
    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __repr__(self) -> str:
        from .render import render_poly
        return render_poly(self)


# module-level operation names -------------------------------------------

def total_derivative(p):
    """Total derivative of a DiffPoly or EpsSeries (componentwise)."""
    return p.dx()


def partial_derivative(p: DiffPoly, v: JetVar) -> DiffPoly:
    return p.partial(v)


def degree(p: DiffPoly):
    return p.degree()


def apply_derivation(d: "Derivation", p) -> "EpsSeries":
    return d(p)


def commutator(d1: "Derivation", d2: "Derivation") -> "Derivation":
    return d1.commutator(d2)


def is_zero(p) -> bool:
    return p.is_zero()


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

    def truncate(self, order: int) -> "EpsSeries":
        return EpsSeries(self.components[: order + 1], order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def is_graded(self) -> bool:
        """True when component q is homogeneous of degree q (or zero)."""
        for q, c in enumerate(self.components):
            if not c.is_zero() and c.degrees() != frozenset({q}):
                return False
        return True

    def require_graded(self) -> "EpsSeries":
        if not self.is_graded():
            raise ValueError("series is not degree-graded")
        return self

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
            if isinstance(other, DiffPoly):
                return EpsSeries([c * other for c in self.components], self.order)
            return EpsSeries([c * other for c in self.components], self.order)
        o = self._coerce(other)
        comps = [DiffPoly.zero() for _ in range(self.order + 1)]
        for i, a in enumerate(self.components):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = o.components[j]
                if b.is_zero():
                    continue
                comps[i + j] = comps[i + j] + a * b
        return EpsSeries(comps, self.order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EpsSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = EpsSeries.const(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ------------------------------------------------------------
    def dx(self) -> "EpsSeries":
        return EpsSeries([c.dx() for c in self.components], self.order)

    def dx_n(self, n: int) -> "EpsSeries":
        s = self
        for _ in range(n):
            s = s.dx()
        return s

    def partial(self, v: JetVar) -> "EpsSeries":
        return EpsSeries([c.partial(v) for c in self.components], self.order)

    def substitute(self, image: Callable[[int, int], "EpsSeries"]) -> "EpsSeries":
        out = EpsSeries.zero(self.order)
        for q, comp in enumerate(self.components):
            if comp.is_zero():
                continue
            img = comp.substitute(image)
            if isinstance(img, DiffPoly):
                img = EpsSeries.of_poly(img, self.order)
            shifted = [DiffPoly.zero()] * (self.order + 1)
            for j in range(self.order + 1 - q):
                shifted[j + q] = img.components[j]
            out = out + EpsSeries(shifted, self.order)
        return out

    def variables(self) -> set[JetVar]:
        out: set[JetVar] = set()
        for c in self.components:
            out |= c.variables()
        return out

    def max_order(self) -> int:
        return max((c.max_order() for c in self.components), default=0)

    def exp_dx(self) -> "EpsSeries":
        """Apply e^{eps d} = sum_j eps^j d^j / j! (d = total derivative)."""
        comps = [DiffPoly.zero() for _ in range(self.order + 1)]
        fact = 1
        for j in range(self.order + 1):
            if j > 0:
                fact *= j
            inv = Fraction(1, fact)
            for i in range(self.order + 1 - j):
                c = self.components[i]
                if c.is_zero():
                    continue
                comps[i + j] = comps[i + j] + c.dx_n(j) * inv
        return EpsSeries(comps, self.order)

    def __repr__(self) -> str:
        from .render import render_series
        return render_series(self)


class JetMap:
    """The jet images (alpha, m) -> d^m(images[alpha-1]), each computed once.

    Images may be DiffPoly or EpsSeries values.  The map is a callable, so it
    can be handed to ``substitute`` as the images of a ring homomorphism; it
    raises ArityMismatchError for a component beyond ``len(images)``.
    """

    __slots__ = ("images", "_jets")

    def __init__(self, images: Sequence):
        self.images = tuple(images)
        self._jets: dict[JetVar, object] = {}

    def __call__(self, alpha: int, m: int):
        got = self._jets.get((alpha, m))
        if got is None:
            if not 0 < alpha <= len(self.images):
                raise ArityMismatchError(
                    f"component {alpha} outside arity {len(self.images)}")
            got = self.images[alpha - 1] if m == 0 else self(alpha, m - 1).dx()
            self._jets[(alpha, m)] = got
        return got


def apply_poly_derivation(jets: JetMap, p: DiffPoly) -> DiffPoly:
    """Apply the evolutionary derivation with characteristic ``jets.images``.

    D(p) = sum_{a,m} d^m(W_a) * dp/du_{a,m}.  Raises ArityMismatchError when
    p involves a component beyond the arity of the characteristic.
    """
    acc: dict[Monomial, Coeff] = {}
    for (alpha, order) in sorted(p.variables()):
        if order < 0:
            raise ValueError("evolutionary derivations need orders >= 0")
        term = jets(alpha, order) * p.partial((alpha, order))
        for m, cc in term.terms.items():
            s = acc.get(m)
            if s is None:
                acc[m] = cc
            else:
                s = s + cc
                if s:
                    acc[m] = s
                else:
                    del acc[m]
    return DiffPoly._raw(acc)


class Derivation:
    """Admissible derivation, stored by its characteristic tuple.

    The characteristic W_a = D(u_a) determines the action on every jet
    variable through D(u_{a,m}) = d^m(W_a); by construction every such
    derivation commutes with the total derivative.
    """

    __slots__ = ("chars", "order", "arity", "char_dx")

    def __init__(self, chars: Sequence[EpsSeries]):
        chars = tuple(chars)
        if not chars:
            raise ValueError("derivation needs at least one component")
        order = chars[0].order
        for c in chars:
            if c.order != order:
                raise ValueError("characteristic components disagree on eps order")
        self.chars = chars
        self.order = order
        self.arity = len(chars)
        self.char_dx = JetMap(chars)

    @classmethod
    def from_polys(cls, polys: Sequence[DiffPoly], order: int = 0) -> "Derivation":
        return cls([EpsSeries.of_poly(p, order) for p in polys])

    @classmethod
    def d_x(cls, arity: int, order: int = 0) -> "Derivation":
        """The total derivative as a derivation (characteristic u_{a,1})."""
        return cls([EpsSeries.var(a, order, 1) for a in range(1, arity + 1)])

    def __call__(self, p: DiffPoly | EpsSeries) -> EpsSeries:
        if isinstance(p, DiffPoly):
            p = EpsSeries.of_poly(p, self.order)
        if p.order != self.order:
            raise ValueError("eps truncation mismatch between derivation and argument")
        out = EpsSeries.zero(self.order)
        for (alpha, m) in sorted(p.variables()):
            out = out + self.char_dx(alpha, m) * p.partial((alpha, m))
        return out

    def commutator(self, other: "Derivation") -> "Derivation":
        if self.arity != other.arity:
            raise ArityMismatchError("derivations have different arities")
        if self.order != other.order:
            raise ValueError("derivations have different eps truncations")
        chars = [self(w2) - other(w1) for w1, w2 in zip(self.chars, other.chars)]
        return Derivation(chars)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.chars)

    def __repr__(self) -> str:
        return f"Derivation(arity={self.arity}, eps_order={self.order})"
