"""Unipotent gauge action, canonical form, and gauge invariants.

The gauge group acts on L = d + Lambda + q by conjugation with exponentials
of nilpotent-valued elements S:

    e^{ad S} L = d + Lambda + Q,   Q Borel-valued,

with the convention [S, d] = -d(S).  The canonical form is the unique pair
(S_can, Q_can) with Q_can valued in the gauge subspace V; it is found degree
by degree through the splitting b = V (+) [e, n], which is immediate in the
ordered Borel frame [V-basis | [e, p_j]-basis].  The same recursion,
``GaugeFrame.v_valued``, solves for the n-valued compensator of each
hierarchy flow.

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
from .kacmoody import LoopElement, LoopRealization
from .linalg import InconsistentSystemError, LinearSolver
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


class GaugeFrame:
    """Nilpotent and Borel frames plus the DS-type splitting data."""

    def __init__(self, real: LoopRealization):
        self.real = real
        self.ell = len(real.v_basis)
        self.dim_n = len(real.nilpotent_basis)
        self.dim_b = self.ell + self.dim_n
        cols = [list(v) for v in real.nilpotent_basis]
        rows = [[cols[c][r] for c in range(len(cols))] for r in range(real.alg.dim)]
        self._nilp_solver = LinearSolver(rows)
        # splitting validated at realization build; keep the ranks on record
        self.splitting_dims = (self.ell, self.dim_n, self.dim_b)

    def nilpotent_element(self, coeffs) -> LoopElement:
        real = self.real
        vec = [DiffPoly.zero()] * real.alg.dim
        for c, p in zip(coeffs, real.nilpotent_basis):
            if isinstance(c, (int, Fraction)):
                c = DiffPoly.const(c)
            for t, pc in enumerate(p):
                if pc:
                    vec[t] = vec[t] + c * pc
        return LoopElement(real, {0: tuple(vec)})

    def nilpotent_coords(self, x: LoopElement):
        if any(k != 0 for k in x.lambda_powers()):
            raise ValueError("element is not lambda-free")
        try:
            return self._nilp_solver.solve(list(x.vector_at(0)), zero=DiffPoly.zero())
        except InconsistentSystemError as exc:
            raise ValueError("element is not nilpotent-valued") from exc

    def v_valued(self, residual) -> LoopElement:
        """The n-valued x that makes residual(x) V-valued, degree by degree.

        ``residual`` must be triangular: the principal-degree -(k+1) part of x
        moves the degree -k slice of residual(x) by [x, e] and touches no
        higher slice.  So the [e, n] coordinates of slice -k, read in the
        Borel frame, give that part of x, for k = 0, 1, ... in turn.
        """
        real = self.real
        x = LoopElement.zero(real)
        for k in range(0, -min(real.pdeg) + 1):
            m = residual(x).pdeg_slice(-k)
            if not m.is_zero():
                coords = real.borel_coords(m.vector_at(0))
                x = x + self.nilpotent_element(coords[self.ell:])
        return x

    def generic_s(self, offset: int) -> LoopElement:
        """S = sum S_j p_j with S_j fresh generators starting at offset+1."""
        return self.nilpotent_element(
            [DiffPoly.var(offset + j + 1) for j in range(self.dim_n)])


def _gauge_q(lax: LaxOperator, s: LoopElement) -> LoopElement:
    conj = ad_exp_series(s, lax.lam_plus_q)
    correction = ad_exp_series(s, s.dx(), shift=1)
    return conj - correction - lax.real.cyclic


class CanonicalForm:
    """The unique (S_can, Q_can) with Q_can valued in the gauge subspace."""

    def __init__(self, lax: LaxOperator, frame: GaugeFrame,
                 s_can: LoopElement, q_can: LoopElement):
        self.lax = lax
        self.frame = frame
        self.s_can = s_can
        self.q_can = q_can
        real = lax.real
        coords = real.borel_coords(q_can.vector_at(0))
        if any(not c.is_zero() for c in coords[frame.ell:]):
            raise ValueError("canonical form is not V-valued")
        self.u_exprs = list(coords[: frame.ell])
        self.jets = JetMap(self.u_exprs)
        self.s_coeffs = frame.nilpotent_coords(s_can)

    def residual(self) -> LoopElement:
        return _gauge_q(self.lax, self.s_can) - self.q_can


def canonical_form(lax: LaxOperator, frame: GaugeFrame | None = None) -> CanonicalForm:
    """Solve for (S_can, Q_can) degree by degree in the Borel frame."""
    if frame is None:
        frame = GaugeFrame(lax.real)
    s = frame.v_valued(lambda s: _gauge_q(lax, s))
    q_can = _gauge_q(lax, s)
    cf = CanonicalForm(lax, frame, s, q_can)
    if not cf.residual().is_zero():
        raise RuntimeError("canonical form recursion left a nonzero residual")
    return cf


class GaugeHomomorphism:
    """f: q_i -> Q_i(q, S) with S_1..S_{dim n} fresh differential generators."""

    def __init__(self, lax: LaxOperator, frame: GaugeFrame | None = None):
        real = lax.real
        if frame is None:
            frame = GaugeFrame(real)
        if lax.kind != "borel":
            raise ValueError("the gauge homomorphism acts on the Borel-variable ring")
        self.lax = lax
        self.frame = frame
        self.n_q = lax.arity
        s = frame.generic_s(self.n_q)
        self.s_generic = s
        q_full = _gauge_q(lax, s)
        self.images = real.borel_coords(q_full.vector_at(0))
        # the S-generators are fixed by f
        self.jets = JetMap(list(self.images) + [
            DiffPoly.var(self.n_q + j + 1) for j in range(frame.dim_n)])

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
    ell = cf.frame.ell
    section = JetMap([DiffPoly.var(a) for a in range(1, ell + 1)]
                     + [DiffPoly.zero()] * (max(cf.lax.arity, w.max_alpha()) - ell))
    p = w.substitute(section)
    if check and p.substitute(cf.jets) != w:
        raise NotGaugeInvariantError("not a gauge invariant")
    return p
