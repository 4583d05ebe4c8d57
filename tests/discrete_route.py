"""The separate difference-ring route to derivations and Miura inverses, as a reference.

The program applies a difference derivation as a ``Derivation`` over the
shift jet map and inverts a discrete Miura tuple with ``invert_miura`` over
the same jet map, so the differential and the difference ring share one
derivation and one inversion.  This module keeps a route of its own for the
difference ring: a derivation that shifts its characteristic directly,
D(u_{a,m}) = S^m(W_a), a Miura pair that substitutes shifted images, and a
stagewise inversion that rebuilds the pair for every (stage, component).
Both routes must agree exactly; the tests assert that they do.  The linear
inverse subtracts the constant of the leading part at every shift, since
S^m(c) = c; subtracting it at shift 0 only, as the total derivative would
allow, leaves the inversion unclosed once the tail holds a shifted variable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from dshierarchy.diffalg import ArityMismatchError, DiffPoly, EpsSeries
from dshierarchy.discrete import DifferenceRing
from dshierarchy.linalg import LinearSolver
from dshierarchy.miura import LeadingMapError
from jet_images import FunctionJets


class DiscreteDerivation:
    """Admissible derivation of a difference ring: D(u_{a,m}) = S^m(W_a)."""

    def __init__(self, ring: DifferenceRing, chars: Sequence[DiffPoly],
                 eps_order: int = 0):
        if len(chars) != ring.arity:
            raise ArityMismatchError("characteristic length != ring arity")
        self.ring = ring
        self.order = eps_order
        self.chars = tuple(
            c if isinstance(c, EpsSeries) else EpsSeries.of_poly(c, eps_order)
            for c in chars)
        self._cache: dict[tuple[int, int], EpsSeries] = {}

    def _char_shift(self, alpha: int, m: int) -> EpsSeries:
        key = (alpha, m)
        got = self._cache.get(key)
        if got is None:
            got = self.ring.shift(self.chars[alpha - 1], m)
            self._cache[key] = got
        return got

    def __call__(self, p: DiffPoly | EpsSeries) -> EpsSeries:
        if isinstance(p, DiffPoly):
            p = EpsSeries.of_poly(p, self.order)
        out = EpsSeries.zero(self.order)
        for (alpha, m) in sorted(p.variables()):
            out = out + self._char_shift(alpha, m) * p.partial((alpha, m))
        return out

    def commutator(self, other: "DiscreteDerivation") -> "DiscreteDerivation":
        chars = [self(w2) - other(w1) for w1, w2 in zip(self.chars, other.chars)]
        return DiscreteDerivation(self.ring, chars, self.order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.chars)


class DiscreteMiuraPair:
    """Discrete Miura tuple with its stagewise inverse (both eps-truncated)."""

    def __init__(self, ring_u: DifferenceRing, ring_v: DifferenceRing,
                 forward: Sequence[EpsSeries], inverse: Sequence[EpsSeries]):
        self.ring_u = ring_u
        self.ring_v = ring_v
        self.forward = tuple(forward)
        self.inverse = tuple(inverse)
        self.arity = len(self.forward)
        self.order = self.forward[0].order

    def phi(self, p: DiffPoly | EpsSeries) -> EpsSeries:
        """v-ring -> u-ring, commuting with the shift."""
        return self._subst(p, self.forward, self.ring_u)

    def psi(self, p: DiffPoly | EpsSeries) -> EpsSeries:
        return self._subst(p, self.inverse, self.ring_v)

    def _subst(self, p, images, ring_target) -> EpsSeries:
        if isinstance(p, DiffPoly):
            p = EpsSeries.of_poly(p, self.order)
        return p.substitute(FunctionJets(
            lambda alpha, m: ring_target.shift(images[alpha - 1], m)))

    def induce(self, d: DiscreteDerivation) -> DiscreteDerivation:
        """Transport a derivation on the u-ring to the v-ring."""
        chars = [self.psi(d(v)) for v in self.forward]
        return DiscreteDerivation(self.ring_v, chars, self.order)


def invert_discrete_miura(ring_u: DifferenceRing,
                          values: Sequence[EpsSeries]) -> DiscreteMiuraPair:
    """Stagewise inversion; the eps^0 part must be affine-linear and unshifted."""
    ell = len(values)
    order = values[0].order
    ring_v = DifferenceRing(ell, ring_u.window)
    lin = [[Fraction(0)] * ell for _ in range(ell)]
    const = [Fraction(0)] * ell
    for i, v in enumerate(values):
        ring_u.check_member(v.component(0))
        for mono, c in v.component(0).terms.items():
            if not mono:
                const[i] = c
            elif len(mono) == 1 and mono[0][1] == 1 and mono[0][0][1] == 0:
                lin[i][mono[0][0][0] - 1] = c
            else:
                raise LeadingMapError(
                    "leading part of the discrete tuple is not affine-linear "
                    "in the unshifted generators")
    solver = LinearSolver(lin)
    if solver.rank != ell:
        raise LeadingMapError("degenerate leading slice")
    ainv = [solver.solve([Fraction(int(i == j)) for i in range(ell)])
            for j in range(ell)]

    def lin_inverse_image(beta: int, m: int) -> DiffPoly:
        # u_{beta,m} -> S^m(sum_g A^{-1}[beta][g] (v_g - c_g)); S^m(c) = c
        out = DiffPoly.zero()
        for g in range(ell):
            coef = ainv[g][beta - 1]
            if not coef:
                continue
            out = out + DiffPoly.dvar(g + 1, m) * coef
            if const[g]:
                out = out - DiffPoly.const(const[g] * coef)
        return out

    inverse = [EpsSeries.zero(order) for _ in range(ell)]
    for stage in range(order + 1):
        for alpha in range(ell):
            pair = DiscreteMiuraPair(ring_u, ring_v, values, inverse)
            residual = pair.phi(inverse[alpha]) - EpsSeries.of_poly(
                DiffPoly.dvar(alpha + 1, 0), order)
            corr = residual.component(stage)
            if corr.is_zero():
                continue
            corr_v = corr.substitute(FunctionJets(lin_inverse_image))
            inverse[alpha] = inverse[alpha] - EpsSeries.of_poly(corr_v, order, stage)
    pair = DiscreteMiuraPair(ring_u, ring_v, values, inverse)
    for alpha in range(1, ell + 1):
        target = EpsSeries.of_poly(DiffPoly.dvar(alpha, 0), order)
        if not (pair.phi(pair.inverse[alpha - 1]) - target).is_zero():
            raise RuntimeError("discrete inversion failed to close")
    return pair
