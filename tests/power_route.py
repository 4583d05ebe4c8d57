"""The power route to the basic resolvents, as a reference.

The program fixes the Heisenberg part of each slice of R_a by an exact
d^{-1} (``LaxOperator.dressing``).  This module fixes it the earlier way,
through the powers of R_1 in the defining representation (matrix size n).
There e^{-ad U} is conjugation, Lambda^n = lambda Id and every Heisenberg
element is a power Lambda^D = lambda^{D div n} Lambda^{D mod n}
(``matrixform.check_cyclic``, which also asks that every k in 1, ..., n - 1
be m_a mod n for exactly one exponent).  So with m_a = s n + k,

    P_k := lambda^{-s} R_a = R_1^k  for 1 <= k < n,   and   R_1^n = lambda Id.

Every R_a is solved one offset j below its top at a time, all together.

- [L, R_a] = 0 at degree m_a - j + 1 gives the im(ad Lambda) part of slice
  m_a - j (``_im_part``, through the H-column reference split
  ``reference_ops.split_with_preimage``).
- The rest of that slice of P_k is a multiple of Lambda^D, D = k - j, fixed
  or certified by one entry of P_1 P_{k-1} at a key where Lambda^D is
  nonzero, summed as one ``matrix_entry`` over the stored matrix forms.  The
  case k = n is the identity R_1^n = lambda Id.
- The slice of P_1 at this offset enters every such entry.  Its Heisenberg
  part c H_{1-j} = c Lambda^{1-j} adds c k Lambda^D to slice D of P_1^k, so
  the entries are first taken with c = 0: P_k gets a raw coefficient z_k,
  the entry for k = n fixes c, and the coefficient of P_k is z_k + c k.

One entry is enough: Y = P_k - R_1^k commutes with L through the degrees
solved, so its top nonzero slice commutes with the cyclic Lambda and is
c Lambda^D; induction down the degrees and up k covers every power.
"""

from __future__ import annotations

from fractions import Fraction

from matrixform import identity, matrix_entry, matrix_form, matrix_product
from reference_ops import split_with_preimage, to_dense

from dshierarchy.diffalg import DiffPoly
from dshierarchy.resolvent import LaxOperator

_ZERO_P = DiffPoly.zero()


class PowerRoute:
    """The slices ``_r[a][degree]`` of every R_a of ``lax``, solved through the powers of R_1."""

    def __init__(self, lax: LaxOperator):
        real = self.real = lax.real
        self._q_slices = lax.q.pdeg_slices()
        n = real.alg.size
        lam = matrix_form(real.alg, to_dense(real.cyclic))
        self._lam_powers = [identity(n)]
        for _ in range(n - 1):
            self._lam_powers.append(matrix_product([(self._lam_powers[-1], lam)]))
        # _mat[k][D] is slice D of P_k as a matrix form
        self._r = {a: {m: real.heisenberg_element(m)} for a, m in enumerate(real.exponents, 1)}
        self._a_of = {m % n: a for a, m in enumerate(real.exponents, 1)}
        self._mat = {k: {k: self._lam_powers[k]} for k in range(1, n)}

    def dressing(self, depth: int) -> None:
        """Extend every basic resolvent R_a down to degree m_a - depth."""
        real = self.real
        n = real.alg.size
        for j in range(2 - min(self._r[1]), depth + 1):
            lam = {k: _lam_power(self._lam_powers, k - j) for k in range(1, n + 1)}
            # slice k - j of each P_k, k < n, first with c = 0 in R_1.  im[k] is
            # its im(ad Lambda) part as a matrix form; the raw slice
            # im[k] + z[k] Lambda^{k-j} enters the entry for k + 1 through
            # Lambda im[k] + z[k] Lambda^{k+1-j}
            ys, im, z = {}, {}, {1: _ZERO_P}
            for k in range(1, n + 1):
                key, v = next(iter(lam[k].items()))
                if k > 1:
                    entry = self._entry(k, j, im, key) + z[k - 1] * v
                if k == n:  # P_n = lambda Id has no slice below the top
                    break
                a = self._a_of[k]
                s = real.exponents[a - 1] // n
                ys[k] = self._im_part(a, s * n + k - j)
                im[k] = {(p - s, i, l): c for (p, i, l), c in
                         matrix_form(real.alg, to_dense(ys[k])).items()}
                if k > 1:
                    z[k] = (entry - im[k].get(key, _ZERO_P)) * (1 / v)
            # R_1^n = lambda Id at degree n - j fixes c, or certifies the slice
            c = _ZERO_P if real.heisenberg_at(1 - j) is None else \
                _heisenberg_coefficient(entry, v, n)
            if entry + c * (n * v):
                raise RuntimeError(
                    f"R_1^{n} = lambda Id fails at principal degree {n - j}")
            for k in range(1, n):
                a = self._a_of[k]
                m = real.exponents[a - 1]
                x, h = z[k] + c * k, real.heisenberg_at(m - j)
                if h is not None:
                    ys[k] = ys[k] + h.scale(x)
                elif x:
                    target = f"lambda^-{m // n} R_{m}" if m // n else f"R_{m}"
                    raise RuntimeError(
                        f"R_1^{k} = {target} fails at principal degree {k - j}")
                self._r[a][m - j] = ys[k]
                form = im[k]
                if x:
                    for key, v in lam[k].items():
                        form[key] = form.get(key, _ZERO_P) + x * v
                self._mat[k][k - j] = {key: v for key, v in form.items() if v}

    def _entry(self, k: int, j: int, new: dict, key: tuple) -> DiffPoly:
        """Entry ``key`` of slice k - j of P_1 P_{k-1}, with ``new`` for the slices at offset j."""
        mat = self._mat
        return matrix_entry([(new[1] if e == 1 - j else mat[1][e],
                              new[k - 1] if e == 1 else mat[k - 1][k - j - e])
                             for e in range(1 - j, 2)], key)

    def _im_part(self, a: int, degree: int):
        """The im(ad Lambda) part of slice ``degree`` of R_a, from [L, R_a] = 0 one degree up."""
        r, top = self._r[a], self.real.exponents[a - 1]
        rhs = r[degree + 1].dx()
        for e, q_e in self._q_slices.items():
            if degree + 1 - e <= top:
                rhs = rhs + q_e.bracket(r[degree + 1 - e])
        _, h_part, y = split_with_preimage(self.real, degree + 1, -rhs)
        if not h_part.is_zero():
            raise RuntimeError(
                f"[L, R_{top}] = 0 has a Heisenberg part at principal degree {degree + 1}")
        return y


def _lam_power(lam_powers: list[dict], degree: int) -> dict:
    """Lambda^degree = lambda^{degree div n} Lambda^{degree mod n}, as {key: constant}.

    From the powers Lambda^0 .. Lambda^{n-1}; the first key is the one whose
    entry fixes or certifies a slice of degree ``degree``.
    """
    s, k = divmod(degree, len(lam_powers))
    return {(p + s, i, j): v.constant_term() for (p, i, j), v in lam_powers[k].items() if v}


def _heisenberg_coefficient(entry: DiffPoly, v: Fraction, n: int) -> DiffPoly:
    """c with entry + c n v = 0."""
    return entry * (Fraction(-1, n) / v)
