"""The dressing route to the basic resolvents, as a reference.

The program solves every resolvent alone, one degree at a time.  This
module computes them the classical way: first the dressing U, the unique
im(ad Lambda)-valued series of negative principal degrees with

    e^{ad U} (d + Lambda + q) = d + Lambda + H,      H in H^{<0},

solved degree by degree through the H-column reference split
(``reference_ops.split_with_preimage``), then
R_a = e^{-ad U}(Lambda_{m_a}).  Both routes must agree slice for slice; the
tests assert that they do.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from reference_ops import split_with_preimage

from dshierarchy.kacmoody import LoopElement
from dshierarchy.resolvent import LaxOperator


class Dressing:
    """The dressing pair (U, H) of a Lax operator through a given depth.

    U is im(ad Lambda)-valued with slices at principal degrees -1..-depth;
    H is Heisenberg-valued with slices at degrees -1..-(depth-1), and
    ``H_coeff[d]`` is the coefficient of the Heisenberg basis element in H_d.
    """

    def __init__(self, lax: LaxOperator, depth: int):
        self.lax = lax
        self.depth = depth
        real = lax.real
        self.U: dict[int, LoopElement] = {}
        self.H: dict[int, LoopElement] = {}
        self.H_coeff: dict = {}
        # P[m][d] = ((ad U)^m (Lambda + q))_{(d)};  T[m][d] = ((ad U)^m dU)_{(d)}
        self._P = {(0, d): sl for d, sl in lax.lam_plus_q.pdeg_slices().items()}
        self._T: dict[tuple[int, int], LoopElement] = {}
        for d in range(0, -depth, -1):
            known = LoopElement.zero(real)
            fact = 1
            for m in range(0, 2 - d):  # (ad U)^m drops degree by at least m
                fact *= max(m, 1)
                p_md = self._P.get((0, d)) if m == 0 else self._P_at(m, d)
                if p_md is not None and not p_md.is_zero():
                    known = known + p_md.scale(Fraction(1, fact))
                t_md = self._T_at(m, d)
                if not t_md.is_zero():
                    known = known - t_md.scale(Fraction(1, fact * (m + 1)))
            h_coeff, h_part, y = split_with_preimage(real, d, known)
            if d == 0 and not h_part.is_zero():
                raise ValueError("unexpected Heisenberg component at degree 0")
            if not y.is_zero():
                self.U[d - 1] = y
            self.H[d] = h_part
            self.H_coeff[d] = h_coeff
            # finalize P[1][d] with the newly determined slice
            p1 = self._P.get((1, d), LoopElement.zero(real))
            if not y.is_zero():
                p1 = p1 + y.bracket(real.cyclic)
            self._P[(1, d)] = p1

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

    def u_slice(self, d: int) -> LoopElement:
        return self.U.get(d, LoopElement.zero(self.lax.real))

    def u_element(self) -> LoopElement:
        out = LoopElement.zero(self.lax.real)
        for u in self.U.values():
            out = out + u
        return out

    def h_element(self) -> LoopElement:
        out = LoopElement.zero(self.lax.real)
        for d in range(-1, -self.depth, -1):
            out = out + self.H[d]
        return out

    def residual_slices(self) -> dict[int, LoopElement]:
        """Nonzero slices of e^{ad U} L - d - Lambda - H above the floor.

        Recomputed from the one-shot exponential truncated below the floor,
        independently of the incremental bookkeeping used to solve for U and H.
        """
        u = self.u_element()
        floor = -(self.depth - 1)
        total = _ad_exp_above(u, self.lax.lam_plus_q, 0, floor) \
            - _ad_exp_above(u, u.dx(), 1, floor)
        diff = total - self.lax.real.cyclic - self.h_element()
        return {d: sl for d, sl in diff.pdeg_slices().items()
                if d >= floor and not sl.is_zero()}


def _above(x: LoopElement, floor: int) -> LoopElement:
    out = LoopElement.zero(x.real)
    for d, sl in x.pdeg_slices().items():
        if d >= floor:
            out = out + sl
    return out


def _ad_exp_above(u: LoopElement, x: LoopElement, shift: int,
                  floor: int) -> LoopElement:
    """sum_m (ad u)^m (x) / (m + shift)!, every term cut below ``floor``."""
    out, term, m = x, x, 0
    while True:
        m += 1
        term = _above(u.bracket(term), floor)
        if term.is_zero():
            return out
        out = out + term.scale(Fraction(1, factorial(m + shift)))


def resolvent_slices(lax: LaxOperator, a: int, depth: int) -> dict[int, LoopElement]:
    """Slices m_a .. m_a - depth of R_a = e^{-ad U}(Lambda_{m_a}).

    B[m][d] = ((ad U)^m Lambda_{m_a})_{(d)}, and the slice at degree d is
    sum_m (-1)^m B[m][d] / m!.
    """
    dr = Dressing(lax, depth)
    real = lax.real
    m_a = real.exponents[a - 1]
    B = {(0, d): sl for d, sl in real.heisenberg_element(m_a).pdeg_slices().items()}

    def b_at(m: int, d: int) -> LoopElement:
        got = B.get((m, d))
        if got is None:
            got = LoopElement.zero(real)
            for e, u in dr.U.items():
                prev = B.get((m - 1, d - e))
                if prev is None and m - 1 > 0 and d - e <= m_a - (m - 1):
                    prev = b_at(m - 1, d - e)
                if prev is not None and not prev.is_zero():
                    got = got + u.bracket(prev)
            B[(m, d)] = got
        return got

    out = {}
    for j in range(depth + 1):
        d = m_a - j
        sl = B.get((0, d), LoopElement.zero(real))
        for m in range(1, j + 1):
            term = b_at(m, d)
            if not term.is_zero():
                sl = sl + term.scale(Fraction((-1) ** m, factorial(m)))
        out[d] = sl
    return out
