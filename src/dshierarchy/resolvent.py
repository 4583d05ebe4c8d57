"""Dressing operator and basic resolvents of a Lax operator.

The Lax operator is L = d + Lambda + q with q a Borel-valued lambda^0
element whose entries are the generators of a differential polynomial ring.
Two coordinate choices are supported: ``borel`` (one generator per Borel
basis vector, the pre-gauge-fixing operator) and ``canonical`` (one generator
per gauge-subspace vector, the operator already in canonical form; resolvents
of this operator carry the gauge-invariant coordinates directly).

The dressing U is the unique im(ad Lambda)-valued series of negative
principal degrees with

    e^{ad U} (d + Lambda + q) = d + Lambda + H,      H in H^{<0},

solved degree by degree through the Heisenberg splitting; throughout,
``[X, d] = -d(X)`` (conjugation of the operator by the exponential).  Basic
resolvents are R_a = e^{-ad U}(Lambda_{m_a}); their defining properties
([L, R_a] = 0, leading term, pairing normalization) are verified as exact
residuals through the computed depth.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial

from .diffalg import DiffPoly
from .kacmoody import LoopElement, LoopRealization


class DepthError(ValueError):
    """Requested data lies below the computed principal depth."""


class LaxOperator:
    """d + Lambda + q over a chosen generator set ('borel' or 'canonical')."""

    def __init__(self, real: LoopRealization, kind: str = "borel"):
        if kind not in ("borel", "canonical"):
            raise ValueError("kind must be 'borel' or 'canonical'")
        self.real = real
        self.kind = kind
        if kind == "borel":
            vectors = real.borel_vectors()
        else:
            vectors = [tuple(v) for v in real.v_basis]
        self.arity = len(vectors)
        dim = real.alg.dim
        vec = [DiffPoly.zero()] * dim
        for i, bv in enumerate(vectors):
            g = DiffPoly.var(i + 1)
            for t, c in enumerate(bv):
                if c:
                    vec[t] = vec[t] + g * c
        self.q = LoopElement(real, {0: tuple(vec)})
        self.lam_plus_q = real.cyclic + self.q
        self._dressing: _DressingState | None = None
        self._resolvents: dict[int, _ResolventState] = {}

    # L acts as d + ad(Lambda + q) on loop elements.
    def bracket_with(self, x: LoopElement) -> LoopElement:
        """[L, x] = d(x) + [Lambda + q, x]."""
        return x.dx() + self.lam_plus_q.bracket(x)

    def dressing(self, depth: int) -> "Dressing":
        if self._dressing is None:
            self._dressing = _DressingState(self)
        self._dressing.extend(depth)
        return Dressing(self, self._dressing, depth)

    def resolvent(self, a: int, depth: int) -> "Resolvent":
        """Basic resolvent for the a-th exponent (1-based), to given depth."""
        if not (1 <= a <= self.real.n):
            raise ValueError(f"exponent index {a} out of range 1..{self.real.n}")
        self.dressing(depth)
        st = self._resolvents.get(a)
        if st is None:
            st = _ResolventState(self, a)
            self._resolvents[a] = st
        st.extend(depth)
        return Resolvent(self, a, st, depth)


class _DressingState:
    """Incremental degree-by-degree solution of the dressing equation."""

    def __init__(self, lax: LaxOperator):
        self.lax = lax
        real = lax.real
        self.U: dict[int, LoopElement] = {}
        self.H: dict[int, LoopElement] = {}
        self.H_coeff: dict[int, DiffPoly] = {}
        # P[m][d] = ((ad U)^m (Lambda + q))_{(d)};  T[m][d] = ((ad U)^m dU)_{(d)}
        self._P: dict[tuple[int, int], LoopElement] = {}
        self._T: dict[tuple[int, int], LoopElement] = {}
        for d, sl in lax.lam_plus_q.pdeg_slices().items():
            self._P[(0, d)] = sl
        self.next_degree = 0  # next step solves U^(next_degree - 1)

    def _P_at(self, m: int, d: int) -> LoopElement:
        got = self._P.get((m, d))
        if got is None:
            got = LoopElement.zero(self.lax.real)
            for e, u in self.U.items():
                prev = self._P.get((m - 1, d - e))
                if prev is not None and not prev.is_zero():
                    got = got + u.bracket(prev)
            self._P[(m, d)] = got
        return got

    def _T_at(self, m: int, d: int) -> LoopElement:
        got = self._T.get((m, d))
        if got is None:
            got = LoopElement.zero(self.lax.real)
            if m == 0:
                u = self.U.get(d)
                if u is not None:
                    got = u.dx()
            else:
                for e, u in self.U.items():
                    prev = self._T.get((m - 1, d - e))
                    if prev is None and d - e <= -1:
                        prev = self._T_at(m - 1, d - e)
                    if prev is not None and not prev.is_zero():
                        got = got + u.bracket(prev)
            self._T[(m, d)] = got
        return got

    def extend(self, depth: int):
        real = self.lax.real
        lam = real.cyclic
        while self.next_degree > -depth:
            d = self.next_degree
            known = LoopElement.zero(real)
            fact = 1
            for m in range(0, 2 - d):  # (ad U)^m drops degree by at least m
                if m > 0:
                    fact *= m
                if m == 0:
                    p_md = self._P.get((0, d))
                else:
                    p_md = self._P_at(m, d)
                if p_md is not None and not p_md.is_zero():
                    known = known + p_md.scale(Fraction(1, fact))
                t_md = self._T_at(m, d)
                if not t_md.is_zero():
                    known = known - t_md.scale(Fraction(1, fact * (m + 1)))
            h_coeff, h_part, y = real.split_with_preimage(d, known)
            if d == 0 and not h_part.is_zero():
                raise ValueError("unexpected Heisenberg component at degree 0")
            if not y.is_zero():
                self.U[d - 1] = y
            self.H[d] = h_part
            self.H_coeff[d] = h_coeff
            # finalize P[1][d] with the newly determined slice
            p1 = self._P.get((1, d), LoopElement.zero(real))
            if not y.is_zero():
                p1 = p1 + y.bracket(lam)
            self._P[(1, d)] = p1
            self.next_degree -= 1


class Dressing:
    """View of the dressing pair (U, H) through a given depth.

    U is im(ad Lambda)-valued with slices at principal degrees -1..-depth;
    H is Heisenberg-valued with slices at degrees -1..-(depth-1).
    """

    def __init__(self, lax: LaxOperator, state: _DressingState, depth: int):
        self.lax = lax
        self.depth = depth
        self._state = state

    def u_slice(self, d: int) -> LoopElement:
        if d < -self.depth or d > -1:
            raise DepthError(f"dressing slice {d} outside computed depth {self.depth}")
        return self._state.U.get(d, LoopElement.zero(self.lax.real))

    def h_slice(self, d: int) -> LoopElement:
        if d < -(self.depth - 1) or d > -1:
            raise DepthError(f"H slice {d} outside computed depth {self.depth}")
        return self._state.H.get(d, LoopElement.zero(self.lax.real))

    def u_slices(self) -> dict[int, LoopElement]:
        return {d: u for d, u in self._state.U.items() if d >= -self.depth}

    def h_element(self) -> LoopElement:
        out = LoopElement.zero(self.lax.real)
        for d in range(-1, -self.depth, -1):
            out = out + self._state.H.get(d, LoopElement.zero(self.lax.real))
        return out

    def u_element(self) -> LoopElement:
        out = LoopElement.zero(self.lax.real)
        for d, u in self.u_slices().items():
            out = out + u
        return out

    def residual_slices(self) -> dict[int, LoopElement]:
        """Nonzero slices of e^{ad U} L - d - Lambda - H above the floor.

        Recomputed directly from the one-shot exponential, independently of
        the incremental bookkeeping used to solve for U and H.
        """
        real = self.lax.real
        u = self.u_element()
        floor = -(self.depth - 1)
        total = ad_exp_series(u, self.lax.lam_plus_q, floor=floor)
        du_series = ad_exp_series(u, u.dx(), shift=1, floor=floor)
        total = total - du_series
        target = real.cyclic + self.h_element()
        diff = total - target
        out = {}
        for d, sl in diff.pdeg_slices().items():
            if d >= -(self.depth - 1) and not sl.is_zero():
                out[d] = sl
        return out


_MAX_NILPOTENCY = 64


def ad_exp_series(u: LoopElement, x: LoopElement, shift: int = 0,
                  floor: int | None = None) -> LoopElement:
    """sum_{m >= 0} (ad u)^m (x) / (m + shift)! for shift 0 or 1.

    shift 0 gives e^{ad u}(x); shift 1 gives phi(ad u)(x) with
    phi(z) = (e^z - 1)/z.  With ``floor`` every term is truncated below that
    principal degree, so the series ends for any u of negative degree;
    without it, ad u must be nilpotent and the series must end within
    ``_MAX_NILPOTENCY`` terms.
    """
    out = x
    term = x
    for m in count(1):
        term = u.bracket(term)
        if floor is not None:
            term = _truncate_floor(term, floor)
        if term.is_zero():
            return out
        if floor is None and m > _MAX_NILPOTENCY:
            raise RuntimeError(
                "ad u failed to nilpotate; u is not strictly triangular")
        out = out + term.scale(Fraction(1, factorial(m + shift)))


def _truncate_floor(x: LoopElement, floor: int) -> LoopElement:
    slices = x.pdeg_slices()
    out = LoopElement.zero(x.real)
    for d, sl in slices.items():
        if d >= floor:
            out = out + sl
    return out


class _ResolventState:
    def __init__(self, lax: LaxOperator, a: int):
        self.lax = lax
        self.a = a
        self.m_a = lax.real.exponents[a - 1]
        self.lam_a = lax.real.heisenberg_element(self.m_a)
        self._B: dict[tuple[int, int], LoopElement] = {}
        for d, sl in self.lam_a.pdeg_slices().items():
            self._B[(0, d)] = sl
        self.slices: dict[int, LoopElement] = {}
        self.depth_done = -1

    def _B_at(self, m: int, d: int) -> LoopElement:
        got = self._B.get((m, d))
        if got is None:
            got = LoopElement.zero(self.lax.real)
            st = self.lax._dressing
            for e, u in st.U.items():
                prev = self._B.get((m - 1, d - e))
                if prev is None and m - 1 > 0 and d - e <= self.m_a - (m - 1):
                    prev = self._B_at(m - 1, d - e)
                if prev is not None and not prev.is_zero():
                    got = got + u.bracket(prev)
            self._B[(m, d)] = got
        return got

    def extend(self, depth: int):
        real = self.lax.real
        for j in range(self.depth_done + 1, depth + 1):
            d = self.m_a - j
            out = self._B.get((0, d), LoopElement.zero(real))
            m = 1
            while m <= j:
                term = self._B_at(m, d)
                if not term.is_zero():
                    out = out + term.scale(Fraction((-1) ** m, factorial(m)))
                m += 1
            self.slices[d] = out
        self.depth_done = max(self.depth_done, depth)


class Resolvent:
    """Basic resolvent R_{m_a}, stored per principal degree down to a depth."""

    def __init__(self, lax: LaxOperator, a: int, state: _ResolventState, depth: int):
        self.lax = lax
        self.real = lax.real
        self.a = a
        self.m_a = state.m_a
        self.depth = depth
        self._state = state

    def slice(self, d: int) -> LoopElement:
        if d > self.m_a or d < self.m_a - self.depth:
            raise DepthError(
                f"resolvent slice {d} outside [m_a - depth, m_a] = "
                f"[{self.m_a - self.depth}, {self.m_a}]")
        return self._state.slices.get(d, LoopElement.zero(self.real))

    def element(self) -> LoopElement:
        out = LoopElement.zero(self.real)
        for j in range(0, self.depth + 1):
            out = out + self.slice(self.m_a - j)
        return out

    def min_complete_power(self) -> int:
        """Smallest lambda power whose coefficient is complete at this depth."""
        real = self.real
        maxp = max(real.pdeg)
        k = self.m_a - self.depth + maxp
        # smallest k0 with k0*deg_lambda - maxp >= m_a - depth
        q, rem = divmod(k, real.deg_lambda)
        return q + (1 if rem else 0)

    def coefficient(self, k: int) -> tuple[DiffPoly, ...]:
        """Full coefficient vector of lambda^k; raises if below complete depth."""
        if k < self.min_complete_power():
            raise DepthError(
                f"lambda^{k} coefficient of R_{self.m_a} needs depth > {self.depth}")
        dim = self.real.alg.dim
        out = [DiffPoly.zero()] * dim
        for sl in self._state.slices.values():
            vec = sl.coeffs.get(k)
            if vec:
                out = [a + b for a, b in zip(out, vec)]
        return tuple(out)

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
        out: dict[int, tuple[DiffPoly, ...]] = {}
        for sl in self._state.slices.values():
            for kk, vec in sl.coeffs.items():
                t = kk + shift
                if t >= 0:
                    if t in out:
                        out[t] = tuple(a + b for a, b in zip(out[t], vec))
                    else:
                        out[t] = vec
        return LoopElement(real, out)

    # -- defining-property residuals ------------------------------------------
    def commutator_residual_slices(self) -> dict[int, LoopElement]:
        """Slices of [L, R] at degrees above the truncation floor (all must vanish)."""
        res = self.lax.bracket_with(self.element())
        out = {}
        for d, sl in res.pdeg_slices().items():
            if d >= self.m_a - self.depth + 1 and not sl.is_zero():
                out[d] = sl
        return out

    def leading_is_heisenberg(self) -> bool:
        return self.slice(self.m_a) == self._state.lam_a

    def pairing_residual(self, other: "Resolvent") -> dict[int, DiffPoly]:
        """(R_a|R_b) minus its normalization, on all complete lambda powers."""
        real = self.real
        target_power = (self.m_a + other.m_a) // real.deg_lambda
        is_dual = (self.a + other.a) == real.n + 1
        # lambda^c is complete once every contributing slice pair is stored:
        # c*deg_lambda - m_b >= m_a - depth  (and symmetrically).
        need = self.m_a + other.m_a - min(self.depth, other.depth)
        lo = -((-need) // real.deg_lambda)
        pairing = self.element().pair(other.element())
        out = {}
        for kpow, val in pairing.items():
            if kpow < lo:
                continue
            want = DiffPoly.const(real.h) if (is_dual and kpow == target_power) \
                else DiffPoly.zero()
            diff = val - want
            if not diff.is_zero():
                out[kpow] = diff
        if is_dual and target_power >= lo and target_power not in pairing:
            out[target_power] = DiffPoly.const(-real.h)
        return out


def flow_depth(real: LoopRealization, a: int, k: int) -> int:
    """Principal depth of R_a needed so that (lambda^{kN} R_a)_+ is exact."""
    m_a = real.exponents[a - 1]
    return m_a + k * real.twist_order * real.deg_lambda + max(real.pdeg)


def omega_depth(real: LoopRealization, max_a: int, max_k: int) -> int:
    """Depth making every (a,k1;b,k2) pairing with indices below the bounds exact."""
    maxp = max(real.pdeg)
    need = 0
    n_tw = real.twist_order
    for a in range(1, max_a + 1):
        m_a = real.exponents[a - 1]
        base = real.heisenberg_element(m_a)
        pmax = max(base.lambda_powers())
        for b in range(1, max_a + 1):
            m_b = real.exponents[b - 1]
            q_min = -pmax - 2 * max_k * n_tw
            need = max(need, m_b - (q_min * real.deg_lambda - maxp))
            p_min = 1 - max_k * n_tw
            if p_min < 0:
                need = max(need, m_a - (p_min * real.deg_lambda - maxp))
    return need
