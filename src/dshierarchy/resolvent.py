"""Basic resolvents of a Lax operator, each solved alone, one degree at a time.

The Lax operator is L = d + Lambda + q with q a Borel-valued lambda^0
element whose entries are the generators of a differential polynomial ring.
Two coordinate choices are supported: ``borel`` (one generator per Borel
basis vector, the pre-gauge-fixing operator) and ``canonical`` (one generator
per gauge-subspace vector, the operator already in canonical form; resolvents
of this operator carry the gauge-invariant coordinates directly).

The basic resolvent R_a is the unique solution of [L, R_a] = 0 whose top
slice is Lambda_{m_a} and whose lower slices vanish at the vacuum q = 0
(where L = d + Lambda and R_a = Lambda_{m_a}).  It is solved as in
Drinfeld-Sokolov ("Lie algebras and equations of Korteweg-de Vries type",
1985): alone, one degree at a time, with no dressing and no other resolvent.
Write H = ker ad Lambda (the Heisenberg subalgebra, at most one element H_d
per degree d) and pi_H for the projection along im ad Lambda.  The form makes
the two orthogonal and H is abelian, so pi_H [x, h] = 0 for every h in H.
Throughout, [X, d] = -d(X), q_e is the slice of q at degree e <= 0, and R_d
is slice d of R_a.  Each step solves R_d from the slices above it:

1. one bracket sum: B = d(R_{d+1}) + sum_e [q_e, R_{d+1-e}], degree d + 1;
2. one preimage solve, [Lambda, y_d] = -B with y_d in im ad Lambda
   (``LoopRealization.splitter``); y_d is the rest of R_d, and a -B with a
   Heisenberg part has no preimage;
3. where H_d exists, R_d = y_d + h_d H_d with h_d = d^{-1}(c_d), the exact
   inverse with no constant term (``DiffPoly.dx_inverse``), where c_d is
   the H coefficient of -sum_e [q_e, R_{d-e}] with R_d read as y_d.

Why.  Degree d + 1 of [L, R_a] = 0 is d(R_{d+1}) + [Lambda, R_d] +
sum_e [q_e, R_{d+1-e}] = 0, and [Lambda, R_d] = [Lambda, y_d]: step 2.  Its
projection onto H drops [Lambda, .], and at degree d it is d(h_d) H_d +
pi_H sum_e [q_e, R_{d-e}] = 0, where pi_H d(y_d) = 0 and the part h_d H_d
of R_d drops out of [q_0, R_d]: d(h_d) = c_d.  At the vacuum every lower
slice vanishes, so h_d has no constant term and is the inverse of c_d.  A
c_d that is no total derivative raises a RuntimeError naming R_{m_a} and the
degree; so does an inconsistent solve in step 2, a nonzero H part of -B,
which the inverse makes zero.

c_d needs no bracket sum at degree d.  With G = lambda^s Lambda_m the
Heisenberg element at degree -d (``LoopRealization.heisenberg_index`` gives m
and s), ([x, y] | z) = (x | [y, z]) and
([Lambda, y] | G) = -(y | [Lambda, G]) = 0 give

    c_d (H_d | G) = (-sum_e [q_e, R_{d-e}] | G) = sum_e (R_{d-e} | [q_e, G]),

and (H_d | G) = h, the Coxeter number (the normalization checked at load).
So c_d is the sum of the pairings (``LoopElement.pair``) of the slices with
the elements [q_e, Lambda_m] / h, kept per exponent m.  Both factors are
homogeneous and the form pairs opposite principal degrees only, so each
pairing lands at the one power lambda^{-s}.  The same G makes y_d
unique in step 2: the preimage solve has the row (y_d | G) = 0.  So the H
part of a slice is read by the invariant form alone.

The tests keep the earlier route as a reference: the resolvents of the
defining representation as powers, P_k = lambda^{-s} R_a = R_1^k for
m_a = s n + k, fixed by one matrix entry per degree (``tests/power_route.py``),
and the dressing route (``tests/dressing_route.py``).  The defining
properties of each R_a ([L, R_a] = 0, leading term, pairing normalization)
are verified as exact residuals through the computed depth; ``verify``
reads each R_a at the depth of the tau-structure table
(``DSHierarchy.table_resolvents``), so they cover every slice the table's
pairings read, down to its floor.  Every reader takes R_a from one view, a
``Resolvent``, whose slices are joined once into ``element``.  The action of
L on a loop element is written once, ``LaxOperator.bracket_with``, which the
commutator residual and the flows' compensator (``DSHierarchy._compensate``)
read; the pairing residual is ``LoopElement.pair`` from its floor power, and
q is built by ``LoopRealization.combination``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .diffalg import DiffPoly, NotTotalDerivativeError
from .kacmoody import LoopElement, LoopRealization
from .linalg import InconsistentSystemError

_ZERO_P = DiffPoly.zero()


class DepthError(ValueError):
    """Requested data lies below the computed principal depth."""


class LaxOperator:
    """d + Lambda + q over a chosen generator set ('borel' or 'canonical')."""

    def __init__(self, real: LoopRealization, kind: str = "borel"):
        if kind not in ("borel", "canonical"):
            raise ValueError("kind must be 'borel' or 'canonical'")
        self.real = real
        self.kind = kind
        vectors = real.borel_vectors() if kind == "borel" else real.v_basis
        self.arity = len(vectors)
        self.q = real.combination([DiffPoly.var(i) for i in range(1, self.arity + 1)], vectors)
        self.lam_plus_q = real.cyclic + self.q
        self._q_slices = sorted(self.q.pdeg_slices().items(), reverse=True)
        # _r[a][D]: the solved slices of R_a, from Lambda_{m_a} down
        self._r = {a: {m: real.heisenberg_element(m)} for a, m in enumerate(real.exponents, 1)}
        self._duals: dict[int, list[tuple[int, LoopElement]]] = {}

    # L acts as d + ad(Lambda + q) on loop elements.
    def bracket_with(self, x: LoopElement) -> LoopElement:
        """[L, x] = d(x) + [Lambda + q, x]."""
        return x.dx() + self.lam_plus_q.bracket(x)

    def dressing(self, depth: int, a: int | None = None) -> None:
        """Extend R_a (every basic resolvent if a is None) down to degree m_a - depth."""
        real = self.real
        for a in (range(1, real.n + 1) if a is None else (a,)):
            r, m = self._r[a], real.exponents[a - 1]
            for d in range(min(r) - 1, m - depth - 1, -1):
                y = self._im_part(a, d)
                h_d = real.heisenberg_at(d)
                if h_d is not None:
                    h = self._heisenberg_inverse(a, d, y)
                    if h:
                        y = y + h_d.scale(h)
                r[d] = y

    def _im_part(self, a: int, degree: int) -> LoopElement:
        """The im(ad Lambda) part of slice ``degree`` of R_a, from [L, R_a] = 0 one degree up."""
        r, top = self._r[a], self.real.exponents[a - 1]
        # [Lambda, y] = -(d r_{degree+1} + [q, R_a]) at degree + 1
        rhs = r[degree + 1].dx()
        for e, q_e in self._q_slices:
            if degree + 1 - e > top:
                break
            rhs = rhs + q_e.bracket(r[degree + 1 - e])
        try:
            return self.real.splitter(degree + 1).preimage(-rhs)
        except InconsistentSystemError:
            raise RuntimeError(f"[L, R_{top}] = 0 has a Heisenberg part at principal "
                               f"degree {degree + 1}") from None

    def _heisenberg_inverse(self, a: int, d: int, y: LoopElement) -> DiffPoly:
        """h_d = d^{-1} sum_e (R_{d-e} | [q_e, G]) / h, with R_d read as y (module docstring)."""
        real = self.real
        m, s = real.heisenberg_index(-d)     # G = lambda^s Lambda_m
        r, top = self._r[a], real.exponents[a - 1]
        c = _ZERO_P
        for e, z in self._dual(m):
            x = y if e == 0 else r.get(d - e)
            if x is not None:
                c = c + x.pair(z).get(-s, _ZERO_P)
        try:
            return c.dx_inverse()
        except NotTotalDerivativeError as exc:
            raise RuntimeError(f"[L, R_{top}] = 0: the Heisenberg part at principal degree "
                               f"{d} is no total derivative ({exc})") from None

    def _dual(self, m: int) -> list[tuple[int, LoopElement]]:
        """[(e, [q_e, Lambda_m] / h)] for every slice q_e of q, kept per exponent m."""
        got = self._duals.get(m)
        if got is None:
            base, inv_h = self.real.heisenberg_element(m), Fraction(1, self.real.h)
            got = self._duals[m] = [(e, q_e.bracket(base).scale(inv_h)) for e, q_e in self._q_slices]
        return got

    def resolvent(self, a: int, depth: int) -> "Resolvent":
        """Basic resolvent for the a-th exponent (1-based), to given depth."""
        if not (1 <= a <= self.real.n):
            raise ValueError(f"exponent index {a} out of range 1..{self.real.n}")
        self.dressing(depth, a=a)
        return Resolvent(self, a, depth)


class Resolvent:
    """Basic resolvent R_{m_a}, read per principal degree down to a depth."""

    def __init__(self, lax: LaxOperator, a: int, depth: int):
        self.lax = lax
        self.real = lax.real
        self.a = a
        self.m_a = lax.real.exponents[a - 1]
        self.depth = depth

    def slice(self, d: int) -> LoopElement:
        if d > self.m_a or d < self.m_a - self.depth:
            raise DepthError(
                f"resolvent slice {d} outside [m_a - depth, m_a] = "
                f"[{self.m_a - self.depth}, {self.m_a}]")
        return self.lax._r[self.a][d]

    @cached_property
    def element(self) -> LoopElement:
        """The slices solved to this depth, as the union of their disjoint coefficient maps.

        Its lambda^k vector is complete for k >= ``min_complete_power()``; below
        that it holds only the parts of principal degree >= m_a - depth (see
        ``DSHierarchy.table_resolvents``).
        """
        coeffs = {}
        for j in range(self.depth + 1):
            coeffs.update(self.slice(self.m_a - j).coeffs)
        return LoopElement(self.real, coeffs)

    def min_complete_power(self) -> int:
        """Smallest lambda power whose coefficient is complete at this depth."""
        # smallest k with k*deg_lambda - max pdeg >= m_a - depth
        return -((self.depth - self.m_a - max(self.real.pdeg)) // self.real.deg_lambda)

    def shifted_plus(self, k: int) -> LoopElement:
        """(lambda^{k N} R)_+ in the standard gradation, for k >= 0."""
        if k < 0:
            raise ValueError("k must be >= 0")
        real = self.real
        shift = k * real.twist_order
        need = -shift
        if need < self.min_complete_power():
            raise DepthError(
                f"(lambda^{shift} R)_+ needs lambda^{need} complete; "
                f"increase depth beyond {self.depth}")
        return LoopElement(real, {(p + shift, i): c for (p, i), c in self.element.coeffs.items()
                                  if p >= need})

    # -- defining-property residuals ------------------------------------------
    def commutator_residual_slices(self) -> dict[int, LoopElement]:
        """Slices of [L, R] at degrees above the truncation floor (all must vanish)."""
        res = self.lax.bracket_with(self.element)
        out = {}
        for d, sl in res.pdeg_slices().items():
            if d >= self.m_a - self.depth + 1 and not sl.is_zero():
                out[d] = sl
        return out

    def leading_is_heisenberg(self) -> bool:
        return self.slice(self.m_a) == self.real.heisenberg_element(self.m_a)

    def pairing_residual(self, other: "Resolvent") -> dict[int, DiffPoly]:
        """(R_a|R_b) minus its normalization, on all complete lambda powers."""
        real = self.real
        # lambda^c is complete once every contributing slice pair is stored:
        # c*deg_lambda - m_b >= m_a - depth  (and symmetrically).
        need = self.m_a + other.m_a - min(self.depth, other.depth)
        lo = -((-need) // real.deg_lambda)
        out = self.element.pair(other.element, lo)
        target = (self.m_a + other.m_a) // real.deg_lambda
        if self.a + other.a == real.n + 1 and target >= lo:
            out[target] = out.get(target, _ZERO_P) - real.h
        return {k: v for k, v in out.items() if not v.is_zero()}


def flow_depth(real: LoopRealization, a: int, k: int) -> int:
    """Principal depth of R_a needed so that (lambda^{kN} R_a)_+ is exact."""
    m_a = real.exponents[a - 1]
    return m_a + k * real.twist_order * real.deg_lambda + max(real.pdeg)
