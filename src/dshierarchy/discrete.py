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

under which S becomes e^{eps d}.  The shift S^k and the embedding are both
``DiffPoly.substitute`` over a jet map of every component, kept for the life
of the ring (one per k) and of the process (one per eps order), so each jet
image and each monomial image is computed once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
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
        self._shifts: dict[int, _ShiftBy] = {}

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
        jets = self._shifts.get(steps)
        if jets is None:
            jets = self._shifts[steps] = _ShiftBy(self, steps)
        return p.substitute(jets)


class _ShiftBy(JetMap):
    """u_{a,m} -> u_{a,m+steps} within the window of a ring: the jets of S^steps."""

    __slots__ = ("window", "steps")

    def __init__(self, ring: DifferenceRing, steps: int):
        super().__init__(())
        self.window, self.steps = ring.window, steps

    def step(self, alpha: int, m: int) -> DiffPoly:
        if not self.window[0] <= m + self.steps <= self.window[1]:
            raise ShiftWindowError(
                f"shift by {self.steps} pushes u_({alpha},{m}) outside {self.window}")
        return DiffPoly.dvar(alpha, m + self.steps)


class ShiftJetMap(JetMap):
    """The jets (alpha, m) -> S^m(images[alpha-1]) of a difference ring, m in Z.

    Raises ShiftWindowError when a shifted image leaves the ring's window.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: DifferenceRing, images: Sequence):
        super().__init__(images)
        self.ring = ring

    def step(self, alpha: int, m: int):
        return self.ring.shift(self.image(alpha), m)


def invert_discrete_miura(ring: DifferenceRing,
                          values: Sequence[EpsSeries]) -> MiuraPair:
    """Invert a discrete Miura tuple whose eps^0 part lies in ``ring``."""
    for v in values:
        ring.check_member(v.component(0))
    return invert_miura(MiuraTuple(values, ring.jet_map))


class _Embedding(JetMap):
    """u_{a,m} -> sum_{j<=K} (eps m)^j / j! u_{a,j}, m in Z: the jets of the embedding."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        super().__init__(())
        self.order = order

    def step(self, alpha: int, m: int) -> EpsSeries:
        return EpsSeries([DiffPoly.var(alpha, j) * Fraction(m ** j, factorial(j))
                          for j in range(self.order + 1)], self.order)

    @property
    def unit(self) -> EpsSeries:
        return EpsSeries.const(1, self.order)


@cache
def _embedding(eps_order: int) -> _Embedding:
    """The embedding's jet map, one per eps order for the process."""
    return _Embedding(eps_order)


def embed_differential(p: DiffPoly | EpsSeries, eps_order: int) -> EpsSeries:
    """Embed a difference polynomial into the differential eps-completion.

    u_{a,m} -> sum_{j<=K} (eps m)^j / j! u_{a,j}; an algebra homomorphism
    sending the shift to e^{eps d} modulo eps^{K+1}.  The images of the jets
    and of the monomials are computed once per process, in the jet map of the
    embedding.
    """
    if isinstance(p, EpsSeries) and p.order != eps_order:
        p = EpsSeries(p.components, eps_order)
    return p.substitute(_embedding(eps_order))
