"""Basic resolvents of a Lax operator, from one recursion in the defining representation.

The Lax operator is L = d + Lambda + q with q a Borel-valued lambda^0
element whose entries are the generators of a differential polynomial ring.
Two coordinate choices are supported: ``borel`` (one generator per Borel
basis vector, the pre-gauge-fixing operator) and ``canonical`` (one generator
per gauge-subspace vector, the operator already in canonical form; resolvents
of this operator carry the gauge-invariant coordinates directly).

The basic resolvents are R_a = e^{-ad U}(Lambda_{m_a}) for the dressing U of
L.  In the defining representation (matrix size n) e^{-ad U} is conjugation
by e^{-U}, Lambda^n = lambda Id and Lambda_m = lambda^{m div n}
(Lambda^{m mod n})_0 with (.)_0 the traceless part (all checked when the
realization is loaded), so every resolvent is read off a power of R_1:

    R_a = lambda^{m_a div n} (R_1^{m_a mod n})_0.

R_1 = Lambda + sum_{d <= 0} r_d itself needs no U (the matrix-resolvent
approach of Bertola-Dubrovin-Yang, "Simple Lie algebras and topological
ODEs", IMRN 2018).  Its slices are solved for d = 0, -1, ... in turn:
[L, R_1] = 0 at degree d + 1 gives the im(ad Lambda) part y of r_d, and
R_1^n = lambda Id at degree D = n - 1 + d gives its Heisenberg part c H_d,
which enters that slice as c n Lambda^{n-1} H_d (the im(ad Lambda) part
drops out, since Lambda^n is central).  Throughout, ``[X, d] = -d(X)``.  The
powers R_1^k, k < n, are kept as matrix forms slice by slice: slice
k - 1 + d of R_1^k is the convolution sum_e (R_1)_e (R_1^{k-1})_{k-1+d-e},
computed as one sum of products (``matrixform.matrix_product``) that
normalizes each entry once.  [L, R_1] = 0 must hold exactly at every degree.

R_1^n itself is never formed: R_1^n = lambda Id is certified by one entry
per degree (``matrixform.matrix_entry``).  Let X = R_1^n - lambda Id.

- [X, R_1] = 0 exactly, as X is a power of R_1 less a central element.
- If X vanishes above degree D, the degree D + 1 slice of [X, R_1] is
  [X_D, Lambda], so X_D commutes with Lambda.
- Lambda^n = lambda Id and t^n - lambda is irreducible, so Lambda is cyclic:
  its centralizer is spanned by Lambda^0, ..., Lambda^{n-1} over the
  rational functions of lambda.  As lambda^j Lambda^k has degree n j + k,
  X_D = c Lambda^D with c free of lambda, twisted or not, and X_D = 0
  exactly when its entry at one key where Lambda^D is nonzero is zero.
- X_n = 0 is checked at load (``matrixform.check_cyclic``), so induction
  down covers every degree.

At a Heisenberg degree H_d = lambda^s Lambda^k (tr Lambda^k = 0 for n not
dividing k), so g = Lambda^{n-1} H_d is proportional to Lambda^D and the
entry at the first nonzero key of g fixes c and certifies X_D; elsewhere the
key is the first nonzero one of Lambda^D (``_identity_key``).  The entry is
checked after c is applied; a nonzero entry raises a RuntimeError naming
the degree.  The tests rebuild every slice of R_1^n as a reference.

The defining properties of each R_a ([L, R_a] = 0, leading term, pairing
normalization) are verified as exact residuals through the computed depth.
"""

from __future__ import annotations

from fractions import Fraction

from .diffalg import DiffPoly
from .kacmoody import LoopElement, LoopRealization, TableShape
from .matrixform import identity, matrix_entry, matrix_form, matrix_product, traceless_coeffs

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
        # R_1 = Lambda + sum r[d]; power[k][j] is the degree-j slice of R_1^k
        # as a matrix form, for 1 <= k < n
        self._r: dict[int, LoopElement] = {1: real.cyclic}
        self._power = {k: {k: self._lam_powers[k]} for k in range(1, n)}
        self._slices: dict[tuple[int, int], LoopElement] = {}

    # L acts as d + ad(Lambda + q) on loop elements.
    def bracket_with(self, x: LoopElement) -> LoopElement:
        """[L, x] = d(x) + [Lambda + q, x]."""
        return x.dx() + self.lam_plus_q.bracket(x)

    def dressing(self, depth: int) -> None:
        """Extend R_1, the dressed Lambda, and its powers R_1^k, k < n, down to degree 1 - depth."""
        real = self.real
        n = real.alg.size
        r, power = self._r, self._power
        for d in range(min(r) - 1, -depth, -1):
            # [L, R_1] = 0 at degree d + 1: [Lambda, y] = -(d r_{d+1} + [q, R_1])
            rhs = r[d + 1].dx()
            for e, q_e in self._q_slices.items():
                if d + 1 - e <= 1:
                    rhs = rhs + q_e.bracket(r[d + 1 - e])
            _, h_part, y = real.split_with_preimage(d + 1, -rhs)
            if not h_part.is_zero():
                raise RuntimeError(
                    f"[L, R_1] = 0 has a Heisenberg part at principal degree {d + 1}")
            # slice k - 1 + d of R_1^k, k < n, with r_d = y so far
            new = {1: matrix_form(real.alg, y.coeffs)}
            for k in range(2, n):
                new[k] = matrix_product(self._power_terms(new, k, d))
            # R_1^n = lambda Id at degree top, by one entry (module docstring)
            top = n - 1 + d
            terms = self._power_terms(new, n, d)
            h = real.heisenberg_at(d)
            if h is None:
                entry = matrix_entry(terms, _identity_key(self._lam_powers, top))
            else:
                hm = matrix_form(real.alg, h.coeffs)
                g = [matrix_product([(lp, hm)]) for lp in self._lam_powers]
                key = _identity_key(self._lam_powers, top, g[n - 1])
                part = {key: matrix_entry(terms, key)}
                c = _heisenberg_coefficient(part, g[n - 1], n)
                y = y + h.scale(c)
                for k in range(1, n):
                    for gkey, v in g[k - 1].items():
                        new[k][gkey] = new[k].get(gkey, _ZERO_P) + c * (k * v.constant_term())
                entry = part[key] + c * (n * g[n - 1][key].constant_term())
            if entry:
                raise RuntimeError(
                    f"R_1^{n} = lambda Id fails at principal degree {top}")
            r[d] = y
            for k in range(1, n):
                power[k][k - 1 + d] = {key: v for key, v in new[k].items() if v}

    def _power_terms(self, new: dict, k: int, d: int) -> list:
        """The pairs (R_1)_e, (R_1^{k-1})_{k-1+d-e} summing to slice k - 1 + d of R_1^k.

        ``new`` holds the slices of degree d of R_1 and k - 2 + d of R_1^{k-1}.
        """
        power = self._power
        return [(new[1] if e == d else power[1][e],
                 new[k - 1] if e == 1 else power[k - 1][k - 1 + d - e])
                for e in range(d, 2)]

    def resolvent(self, a: int, depth: int) -> "Resolvent":
        """Basic resolvent for the a-th exponent (1-based), to given depth."""
        if not (1 <= a <= self.real.n):
            raise ValueError(f"exponent index {a} out of range 1..{self.real.n}")
        self.dressing(depth)
        return Resolvent(self, a, depth)

    def _resolvent_slice(self, a: int, d: int) -> LoopElement:
        """Slice d of R_a = lambda^{m_a div n} (R_1^{m_a mod n})_0."""
        got = self._slices.get((a, d))
        if got is None:
            n = self.real.alg.size
            s, k = divmod(self.real.exponents[a - 1], n)
            got = LoopElement(self.real, traceless_coeffs(
                self.real.alg, self._power[k].get(d - s * n, {}), s))
            self._slices[(a, d)] = got
        return got


def _identity_key(lam_powers: list[dict], degree: int, g: dict | None = None) -> tuple[int, int, int]:
    """The key of the entry that certifies slice ``degree`` of R_1^n = lambda Id.

    The first nonzero key of g = Lambda^{n-1} H_d when given, else of
    Lambda^degree, from the powers Lambda^0 .. Lambda^{n-1}.
    """
    if g is None:
        s, k = divmod(degree, len(lam_powers))
        g = {(p + s, i, j): v for (p, i, j), v in lam_powers[k].items()}
    return next(key for key, v in g.items() if v)


def _heisenberg_coefficient(top: dict, g: dict, n: int) -> DiffPoly:
    """c with top + c n g = 0 at the first nonzero entry of the constant form g."""
    key, v = next((key, v) for key, v in g.items() if v)
    return top.get(key, _ZERO_P) * (Fraction(-1, n) / v.constant_term())


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
        return self.lax._resolvent_slice(self.a, d)

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

    def coefficient(self, k: int) -> tuple[DiffPoly, ...]:
        """Full coefficient vector of lambda^k; raises if below complete depth."""
        if k < self.min_complete_power():
            raise DepthError(
                f"lambda^{k} coefficient of R_{self.m_a} needs depth > {self.depth}")
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
    """Depth making every (a,k1;b,k2) pairing with indices below the bounds exact."""
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
