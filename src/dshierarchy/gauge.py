"""Unipotent gauge action, canonical form, and gauge invariants.

The gauge group acts on L = d + Lambda + q by conjugation with exponentials
of nilpotent-valued elements S:

    e^{ad S} L = d + Lambda + Q,   Q Borel-valued,

with the convention [S, d] = -d(S).  The canonical form is the unique pair
(S_can, Q_can) with Q_can valued in the gauge subspace V; it is found degree
by degree through the splitting b = V (+) [e, n], which is immediate in the
ordered Borel frame [V-basis | [e, p_j]-basis] that the loop realization
holds.  That recursion is ``LoopRealization.v_valued``, which also solves for
the n-valued compensator of each hierarchy flow, so flows never import this
module.  An n-valued element sum_j c_j p_j over the nilpotent basis is built
by ``LoopRealization.combination``, the one constructor from basis
coordinates.

The gauge homomorphism f sends each generator q_i to the corresponding
entry of Q computed with fresh indeterminates S_1..S_{dim n}; an element is
a gauge invariant when f fixes it.  The canonical coordinates u_1..u_ell
generate the ring of gauge invariants (Drinfeld-Sokolov), and f is a
differential ring map, so a polynomial in the u-jets is certified invariant
once f fixes each jet d^m u_a(q) it uses; ``CanonicalForm.jets`` holds those
jets in the q-ring.  Gauge invariants rewrite as differential polynomials in
the u-jets by the substitution that sends the V-components of q to the
u-generators and the complementary components to zero; the rewrite is
certified by substituting the canonical coordinate expressions back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial

from .diffalg import DiffPoly, JetMap
from .kacmoody import LoopElement
from .resolvent import LaxOperator


class NotGaugeInvariantError(ValueError):
    pass


_MAX_NILPOTENCY = 64


def ad_exp_series(u: LoopElement, x: LoopElement, shift: int = 0) -> LoopElement:
    """sum_{m >= 0} (ad u)^m (x) / (m + shift)! for shift 0 or 1.

    shift 0 gives e^{ad u}(x); shift 1 gives phi(ad u)(x) with
    phi(z) = (e^z - 1)/z.  ad u must be nilpotent: the series must end
    within ``_MAX_NILPOTENCY`` terms.
    """
    out = x
    term = x
    for m in count(1):
        term = u.bracket(term)
        if term.is_zero():
            return out
        if m > _MAX_NILPOTENCY:
            raise RuntimeError(
                "ad u failed to nilpotate; u is not strictly triangular")
        out = out + term.scale(Fraction(1, factorial(m + shift)))


def _gauge_q(lax: LaxOperator, s: LoopElement) -> LoopElement:
    conj = ad_exp_series(s, lax.lam_plus_q)
    correction = ad_exp_series(s, s.dx(), shift=1)
    return conj - correction - lax.real.cyclic


class CanonicalForm:
    """The unique (S_can, Q_can) with Q_can valued in the gauge subspace."""

    def __init__(self, lax: LaxOperator, s_can: LoopElement, q_can: LoopElement):
        self.lax = lax
        self.s_can = s_can
        self.q_can = q_can
        real = lax.real
        coords = real.borel_coords(q_can)
        if any(not c.is_zero() for c in coords[real.ell:]):
            raise ValueError("canonical form is not V-valued")
        self.u_exprs = list(coords[: real.ell])
        self.jets = JetMap(self.u_exprs)


def canonical_form(lax: LaxOperator) -> CanonicalForm:
    """Solve for (S_can, Q_can) degree by degree in the Borel frame."""
    s = lax.real.v_valued(lambda s: _gauge_q(lax, s))
    return CanonicalForm(lax, s, _gauge_q(lax, s))


class GaugeHomomorphism:
    """f: q_i -> Q_i(q, S) with S_1..S_{dim n} fresh differential generators."""

    def __init__(self, lax: LaxOperator):
        if lax.kind != "borel":
            raise ValueError("the gauge homomorphism acts on the Borel-variable ring")
        real = lax.real
        self.lax = lax
        self.n_q = lax.arity
        # S = sum_j S_j p_j, the S_j fresh generators after the q_i; f fixes them
        s_gens = [DiffPoly.var(self.n_q + j + 1)
                  for j in range(len(real.nilpotent_basis))]
        self.s_generic = real.combination(s_gens, real.nilpotent_basis)
        self.images = real.borel_coords(_gauge_q(lax, self.s_generic))
        self.jets = JetMap(list(self.images) + s_gens)

    def apply(self, w: DiffPoly) -> DiffPoly:
        return w.substitute(self.jets)

    def is_invariant(self, w: DiffPoly) -> bool:
        return self.apply(w) == w


def to_invariant_coordinates(cf: CanonicalForm, w: DiffPoly,
                             check: bool = True) -> DiffPoly:
    """Rewrite a gauge invariant as a polynomial in the u-jets.

    The rewrite substitutes the V-components of q by the u-generators and
    every other generator by zero; with ``check`` the result is certified
    by substituting the canonical coordinate expressions back into it.
    """
    ell = cf.lax.real.ell
    section = JetMap([DiffPoly.var(a) for a in range(1, ell + 1)]
                     + [DiffPoly.zero()] * (max(cf.lax.arity, w.max_alpha()) - ell))
    p = w.substitute(section)
    if check and p.substitute(cf.jets) != w:
        raise NotGaugeInvariantError("not a gauge invariant")
    return p
