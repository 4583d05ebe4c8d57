"""Basic resolvents of a Lax operator, from one recursion in the defining representation.

The Lax operator is L = d + Lambda + q with q a Borel-valued lambda^0
element whose entries are the generators of a differential polynomial ring.
Two coordinate choices are supported: ``borel`` (one generator per Borel
basis vector, the pre-gauge-fixing operator) and ``canonical`` (one generator
per gauge-subspace vector, the operator already in canonical form; resolvents
of this operator carry the gauge-invariant coordinates directly).

The basic resolvents are R_a = e^{-ad U}(Lambda_{m_a}) for the dressing U of
L.  In the defining representation (matrix size n) e^{-ad U} is conjugation
by e^{-U}, Lambda^n = lambda Id and every Heisenberg element is a power
Lambda^D = lambda^{D div n} Lambda^{D mod n} (all checked when the
realization is loaded).  So with m_a = s n + k one expects

    P_k := lambda^{-s} R_a = R_1^k  for 1 <= k < n,   and   R_1^n = lambda Id.

The recursion below assumes neither: it certifies both.  The load checks
the premise that every k in 1, ..., n - 1 is m_a mod n for exactly one
exponent m_a, so that each power R_1^k, k < n, has its own basic resolvent
(``matrixform.check_cyclic``).  Write P_n := lambda Id.

No U is needed (the matrix-resolvent approach of Bertola-Dubrovin-Yang,
"Simple Lie algebras and topological ODEs", IMRN 2018).  Each R_a starts
at Lambda_{m_a}.  Its slices are solved one offset j = 1, 2, ... below the
top at a time, every R_a at the same offset together.  Throughout,
``[X, d] = -d(X)``.

- [L, R_a] = 0 at degree m_a - j + 1 gives the im(ad Lambda) part y_a of
  slice m_a - j, from slices already solved.  A Heisenberg part on the
  right-hand side raises a RuntimeError naming R_{m_a} and the degree.
- The rest of that slice of P_k is a multiple of Lambda^D, D = k - j: a
  Heisenberg element if there is one at degree m_a - j, else zero.  It is
  fixed, or certified, by one entry of P_1 P_{k-1} at a key where Lambda^D
  is nonzero, summed as one ``matrixform.matrix_entry`` over the stored
  matrix forms.  The case k = n is the identity R_1^n = lambda Id.
- The slice of P_1 at this offset enters every such entry.  Its Heisenberg
  part c H_{1-j} = c Lambda^{1-j} adds c k Lambda^{k-1} H_{1-j} = c k
  Lambda^D to slice D of P_1^k, so the entries are first taken with c = 0.
  Each P_k, k < n, gets a raw Lambda^D coefficient z_k; the entry for
  k = n fixes c, or certifies the slice when there is no H_{1-j}; then
  the Lambda^D coefficient of P_k is z_k + c k.  Where R_a has no
  Heisenberg element at degree m_a - j, that coefficient must be zero, and
  a nonzero one raises a RuntimeError naming k and the degree.

Why one entry is enough.  Let R = P_1 as solved so far, take 2 <= k <= n
with P_{k-1} = R^{k-1}, and let Y = P_k - R^k.

- Y commutes with L through the degrees solved: P_k by construction, R^k
  because R does.
- If Y vanishes above degree D, the degree D + 1 slice of [L, Y] is
  [Lambda, Y_D], so Y_D commutes with Lambda.
- Lambda^n = lambda Id and t^n - lambda is irreducible, so Lambda is cyclic:
  its centralizer is spanned by Lambda^0, ..., Lambda^{n-1} over the
  rational functions of lambda.  As lambda^i Lambda^l has degree n i + l,
  Y_D = c Lambda^D with c free of lambda, twisted or not, and Y_D = 0
  exactly when its entry at one key where Lambda^D is nonzero is zero.
- The top slices agree (Y_k = 0), so induction down covers every degree,
  and induction on k covers every power.

So R^n = lambda Id, which makes R the resolvent R_1, and R_1^k = P_k is
traceless for k < n: that is proved, not assumed.  The tests rebuild every
slice of every power R_1^k, k <= n, by convolution as a reference.

The defining properties of each R_a ([L, R_a] = 0, leading term, pairing
normalization) are verified as exact residuals through the computed depth.
"""

from __future__ import annotations

from fractions import Fraction

from .diffalg import DiffPoly
from .kacmoody import LoopElement, LoopRealization, TableShape
from .matrixform import identity, matrix_entry, matrix_form, matrix_product

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
        self._q_slices = self.q.pdeg_slices()
        n = real.alg.size
        lam = matrix_form(real.alg, real.cyclic.coeffs)
        self._lam_powers = [identity(n)]
        for _ in range(n - 1):
            self._lam_powers.append(matrix_product([(self._lam_powers[-1], lam)]))
        # _r[a][degree]: the slices of R_a; P_k = lambda^{-s} R_a for the one
        # exponent m_a = s n + k, and _mat[k][D] is slice D of P_k as a matrix form
        self._r = {a: {m: real.heisenberg_element(m)} for a, m in enumerate(real.exponents, 1)}
        self._a_of = {m % n: a for a, m in enumerate(real.exponents, 1)}
        self._mat = {k: {k: self._lam_powers[k]} for k in range(1, n)}

    # L acts as d + ad(Lambda + q) on loop elements.
    def bracket_with(self, x: LoopElement) -> LoopElement:
        """[L, x] = d(x) + [Lambda + q, x]."""
        return x.dx() + self.lam_plus_q.bracket(x)

    def dressing(self, depth: int) -> None:
        """Extend every basic resolvent R_a down to degree m_a - depth."""
        real = self.real
        n = real.alg.size
        for j in range(2 - min(self._r[1]), depth + 1):
            lam = {k: _lam_power(self._lam_powers, k - j) for k in range(1, n + 1)}
            # slice k - j of each P_k, k < n, first with c = 0 in R_1 (module
            # docstring).  im[k] is its im(ad Lambda) part as a matrix form;
            # the raw slice im[k] + z[k] Lambda^{k-j} enters the entry for
            # k + 1 through Lambda im[k] + z[k] Lambda^{k+1-j}
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
                         matrix_form(real.alg, ys[k].coeffs).items()}
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

    def _im_part(self, a: int, degree: int) -> LoopElement:
        """The im(ad Lambda) part of slice ``degree`` of R_a, from [L, R_a] = 0 one degree up."""
        r, top = self._r[a], self.real.exponents[a - 1]
        # [Lambda, y] = -(d r_{degree+1} + [q, R_a]) at degree + 1
        rhs = r[degree + 1].dx()
        for e, q_e in self._q_slices.items():
            if degree + 1 - e <= top:
                rhs = rhs + q_e.bracket(r[degree + 1 - e])
        _, h_part, y = self.real.split_with_preimage(degree + 1, -rhs)
        if not h_part.is_zero():
            raise RuntimeError(
                f"[L, R_{top}] = 0 has a Heisenberg part at principal degree {degree + 1}")
        return y

    def resolvent(self, a: int, depth: int) -> "Resolvent":
        """Basic resolvent for the a-th exponent (1-based), to given depth."""
        if not (1 <= a <= self.real.n):
            raise ValueError(f"exponent index {a} out of range 1..{self.real.n}")
        self.dressing(depth)
        return Resolvent(self, a, depth)


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


class Resolvent:
    """Basic resolvent R_{m_a}, read per principal degree down to a depth."""

    def __init__(self, lax: LaxOperator, a: int, depth: int):
        self.lax = lax
        self.real = lax.real
        self.a = a
        self.m_a = lax.real.exponents[a - 1]
        self.depth = depth
        self._coefficients: dict[int, tuple[DiffPoly, ...]] = {}

    def slice(self, d: int) -> LoopElement:
        if d > self.m_a or d < self.m_a - self.depth:
            raise DepthError(
                f"resolvent slice {d} outside [m_a - depth, m_a] = "
                f"[{self.m_a - self.depth}, {self.m_a}]")
        return self.lax._r[self.a][d]

    def _slices(self) -> list[LoopElement]:
        return [self.slice(self.m_a - j) for j in range(self.depth + 1)]

    def element(self) -> LoopElement:
        out = LoopElement.zero(self.real)
        for sl in self._slices():
            out = out + sl
        return out

    def min_complete_power(self) -> int:
        """Smallest lambda power whose coefficient is complete at this depth."""
        real = self.real
        maxp = max(real.pdeg)
        k = self.m_a - self.depth + maxp
        # smallest k0 with k0*deg_lambda - maxp >= m_a - depth
        q, rem = divmod(k, real.deg_lambda)
        return q + (1 if rem else 0)

    def computed_coefficient(self, k: int) -> tuple[DiffPoly, ...]:
        """The lambda^k vector summed over the slices computed to this depth.

        Complete for k >= ``min_complete_power()``; below that it holds only the
        parts of principal degree >= m_a - depth (see ``DSHierarchy.omega_table``).
        """
        got = self._coefficients.get(k)
        if got is None:
            out = [_ZERO_P] * self.real.alg.dim
            for sl in self._slices():
                vec = sl.coeffs.get(k)
                if vec:
                    out = [a + b for a, b in zip(out, vec)]
            got = self._coefficients[k] = tuple(out)
        return got

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
        for sl in self._slices():
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
        return self.slice(self.m_a) == self.real.heisenberg_element(self.m_a)

    def pairing_residual(self, other: "Resolvent") -> dict[int, DiffPoly]:
        """(R_a|R_b) minus its normalization, on all complete lambda powers."""
        real = self.real
        # lambda^c is complete once every contributing slice pair is stored:
        # c*deg_lambda - m_b >= m_a - depth  (and symmetrically).
        need = self.m_a + other.m_a - min(self.depth, other.depth)
        lo = -((-need) // real.deg_lambda)
        out: dict[int, DiffPoly] = {}
        theirs = other.element().coeffs.items()
        for k1, v1 in self.element().coeffs.items():
            for k2, v2 in theirs:
                if k1 + k2 >= lo:
                    out[k1 + k2] = out.get(k1 + k2, _ZERO_P) + real.alg.pair_vec(v1, v2)
        target = (self.m_a + other.m_a) // real.deg_lambda
        if self.a + other.a == real.n + 1 and target >= lo:
            out[target] = out.get(target, _ZERO_P) - real.h
        return {k: v for k, v in out.items() if not v.is_zero()}


def flow_depth(real: LoopRealization | TableShape, a: int, k: int) -> int:
    """Principal depth of R_a needed so that (lambda^{kN} R_a)_+ is exact."""
    m_a = real.exponents[a - 1]
    return m_a + k * real.twist_order * real.deg_lambda + max(real.pdeg)


def omega_depth(real: LoopRealization | TableShape, max_a: int, max_k: int) -> int:
    """Depth making complete every lambda vector an (a,k1;b,k2) pairing reads; sizes the window."""
    maxp = max(real.pdeg)
    need = 0
    n_tw = real.twist_order
    for a in range(1, max_a + 1):
        m_a = real.exponents[a - 1]
        pmax = real.heisenberg_top[m_a]
        for b in range(1, max_a + 1):
            m_b = real.exponents[b - 1]
            q_min = -pmax - 2 * max_k * n_tw
            need = max(need, m_b - (q_min * real.deg_lambda - maxp))
            p_min = 1 - max_k * n_tw
            if p_min < 0:
                need = max(need, m_a - (p_min * real.deg_lambda - maxp))
    return need
