"""Difference polynomial rings, their shift jet map, and the differential embedding.

A difference ring has generators u_{a,m} with the shift index m ranging over
a bounded window of integers and the shift automorphism S(u_{a,m}) =
u_{a,m+1}.  Its jet operator is S^m where the differential ring has d^m, and
that is all that differs: ``ShiftJetMap`` computes the jets S^m(W_a), and
``ring.jet_map`` is the jet map kind handed to the shared engine.  An
admissible derivation, D(u_{a,m}) = S^m(W_a), is a ``diffalg.Derivation``
over it, and a discrete Miura tuple is a ``miura.MiuraTuple`` over it,
inverted order by order in eps by ``miura.invert_miura``.

The ring embeds into the eps-completion of the differential ring by

    u_{a,m}  ->  sum_j (eps m)^j / j!  u_{a,j}   (truncated at eps^K),

under which S becomes e^{eps d}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .diffalg import ArityMismatchError, DiffPoly, EpsSeries, JetMap
from .miura import MiuraPair, MiuraTuple, invert_miura


class ShiftWindowError(ValueError):
    pass


class DifferenceRing:
    """Difference polynomials in u_{a,m} with m in a bounded window."""

    def __init__(self, arity: int, window: tuple[int, int] = (-8, 8)):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if window[0] > 0 or window[1] < 0:
            raise ValueError("window must contain shift index 0")
        self.arity = arity
        self.window = (int(window[0]), int(window[1]))

    def var(self, alpha: int, m: int = 0) -> DiffPoly:
        self._check(alpha, m)
        return DiffPoly.dvar(alpha, m)

    def _check(self, alpha: int, m: int):
        if not (1 <= alpha <= self.arity):
            raise ArityMismatchError(f"component {alpha} outside arity {self.arity}")
        if not (self.window[0] <= m <= self.window[1]):
            raise ShiftWindowError(
                f"shift index {m} outside window {self.window}")

    def check_member(self, p: DiffPoly) -> DiffPoly:
        for (alpha, m) in p.variables():
            self._check(alpha, m)
        return p

    def jet_map(self, images: Sequence) -> "ShiftJetMap":
        """The shift jet map over ``images``: the jet map kind of this ring."""
        return ShiftJetMap(self, images)

    # -- the shift automorphism ------------------------------------------------
    def shift(self, p: DiffPoly | EpsSeries, steps: int = 1):
        """S^steps; raises ShiftWindowError when a variable leaves the window."""
        if isinstance(p, EpsSeries):
            return EpsSeries([self.shift(c, steps) for c in p.components], p.order)
        lo, hi = self.window

        def image(alpha: int, m: int) -> DiffPoly:
            mm = m + steps
            if not (lo <= mm <= hi):
                raise ShiftWindowError(
                    f"shift by {steps} pushes u_({alpha},{m}) outside {self.window}")
            return DiffPoly.dvar(alpha, mm)

        return p.substitute(image)


class ShiftJetMap(JetMap):
    """The jets (alpha, m) -> S^m(images[alpha-1]) of a difference ring, m in Z.

    Raises ShiftWindowError when a shifted image leaves the ring's window.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: DifferenceRing, images: Sequence):
        super().__init__(images)
        self.ring = ring

    def step(self, alpha: int, m: int):
        return self.ring.shift(self.images[alpha - 1], m)


def invert_discrete_miura(ring: DifferenceRing,
                          values: Sequence[EpsSeries]) -> MiuraPair:
    """Invert a discrete Miura tuple whose eps^0 part lies in ``ring``."""
    for v in values:
        ring.check_member(v.component(0))
    return invert_miura(MiuraTuple(values, ring.jet_map))


def embed_differential(p: DiffPoly | EpsSeries, eps_order: int) -> EpsSeries:
    """Embed a difference polynomial into the differential eps-completion.

    u_{a,m} -> sum_{j<=K} (eps m)^j / j! u_{a,j}; an algebra homomorphism
    sending the shift to e^{eps d} modulo eps^{K+1}.
    """
    if isinstance(p, DiffPoly):
        p = EpsSeries.of_poly(p, eps_order)
    if p.order != eps_order:
        p = p.truncate(eps_order) if p.order > eps_order else \
            EpsSeries(list(p.components), eps_order)

    cache: dict[tuple[int, int], EpsSeries] = {}

    def image(alpha: int, m: int) -> EpsSeries:
        key = (alpha, m)
        got = cache.get(key)
        if got is None:
            comps = []
            fact = 1
            for j in range(eps_order + 1):
                if j > 0:
                    fact *= j
                comps.append(DiffPoly.var(alpha, j) * Fraction(m ** j, fact))
            got = EpsSeries(comps, eps_order)
            cache[key] = got
        return got

    return p.substitute(image)
