"""Operations that only the tests use, kept out of the package.

Every ``dshier`` run is a fresh process, and without a bytecode cache it
compiles the package's sources, so a helper that no subcommand calls still
costs each run its compile time.  These are the projections, splittings,
transports and readers that the tests state their identities with; each one
uses only the package's public attributes (and ``gauge._gauge_q``, the gauge
action the canonical form is solved for).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence
from weakref import WeakKeyDictionary

from dshierarchy.diffalg import ArityMismatchError, Derivation, DiffPoly, EpsSeries
from dshierarchy.gauge import CanonicalForm, _gauge_q
from dshierarchy.kacmoody import LoopElement, LoopRealization
from dshierarchy.linalg import InconsistentSystemError, integral
from dshierarchy.miura import MiuraPair
from dshierarchy.ratfunc import RatFunc
from dshierarchy.resolvent import DepthError, LaxOperator, Resolvent
from dshierarchy.serialize import series_to_obj
from dshierarchy.solution import FormalSolution


# -- diffalg -------------------------------------------------------------------

def d_x(arity: int, order: int = 0) -> Derivation:
    """The total derivative as a derivation (characteristic u_{a,1})."""
    return Derivation([EpsSeries.var(a, order, 1) for a in range(1, arity + 1)])


def is_graded(s: EpsSeries) -> bool:
    """True when component q is homogeneous of degree q (or zero)."""
    for q, c in enumerate(s.components):
        if not c.is_zero() and c.degrees() != frozenset({q}):
            return False
    return True


def eps_product_fold(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    """a * b as a fold: each product a_i b_j added on its own at eps^(i+j)."""
    comps = [DiffPoly.zero()] * (a.order + 1)
    for i, x in enumerate(a.components):
        for j, y in enumerate(b.components[: a.order + 1 - i]):
            comps[i + j] = comps[i + j] + x * y
    return EpsSeries(comps, a.order)


def exp_dx_sum(s: EpsSeries) -> EpsSeries:
    """sum_j eps^j d^j(s) / j!, each term d^j(c_i) / j! added on its own."""
    comps = [DiffPoly.zero()] * (s.order + 1)
    for i, c in enumerate(s.components):
        jet = c
        for j in range(s.order + 1 - i):
            comps[i + j] = comps[i + j] + jet * Fraction(1, factorial(j))
            jet = jet.dx()
    return EpsSeries(comps, s.order)


# -- linalg --------------------------------------------------------------------

class DenseLinearSolver:
    """A x = b by a row reduction of the dense [A | I], the route ``LinearSolver`` replaced.

    ``rows`` are dense rows of A, ``solve`` takes the dense b and returns the
    dense x, free variables zero, with ``zero`` the ring zero of b.  ``_rows``
    holds the nonzero entries of each row of the transformation T, R = T A in
    reduced row echelon form, in the form ``LinearSolver._rows`` has.
    """

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        a = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(a)
        self.ncols = len(a[0]) if a else 0
        t = [[Fraction(int(i == j)) for j in range(self.nrows)] for i in range(self.nrows)]
        r = [row[:] for row in a]
        pivots: list[tuple[int, int]] = []
        row = 0
        for col in range(self.ncols):
            sel = next((i for i in range(row, self.nrows) if r[i][col]), None)
            if sel is None:
                continue
            r[row], r[sel] = r[sel], r[row]
            t[row], t[sel] = t[sel], t[row]
            inv = 1 / r[row][col]
            r[row] = [x * inv for x in r[row]]
            t[row] = [x * inv for x in t[row]]
            for i in range(self.nrows):
                if i != row and r[i][col]:
                    f = r[i][col]
                    r[i] = [x - f * y for x, y in zip(r[i], r[row])]
                    t[i] = [x - f * y for x, y in zip(t[i], t[row])]
            pivots.append((row, col))
            row += 1
        self.transform = t
        self._rows = [tuple((j, integral(x)) for j, x in enumerate(tr) if x) for tr in t]
        self.pivots = pivots
        self.rank = len(pivots)

    def solve(self, b: Sequence, zero=Fraction(0)) -> list:
        if len(b) != self.nrows:
            raise ValueError(f"rhs length {len(b)} != {self.nrows}")
        c = []
        for row in self.transform:
            acc = zero
            for j, coef in enumerate(row):
                acc = acc + b[j] * coef
            c.append(acc)
        if any(ci != zero for ci in c[self.rank:]):
            raise InconsistentSystemError("reference residual nonzero")
        x = [zero] * self.ncols
        for row, col in self.pivots:
            x[col] = c[row]
        return x


# -- kacmoody ------------------------------------------------------------------

def pi_lambda(laurent: Mapping[int, object], twist_order: int) -> dict[int, object]:
    """Keep powers k with k < 0 and k = -1 (mod N); drop the rest."""
    return {k: v for k, v in laurent.items()
            if k < 0 and (k + 1) % twist_order == 0}


def pi_multi(laurent: Mapping[tuple, object], twist_order: int,
             variables: Sequence[int] | None = None) -> dict[tuple, object]:
    """Composition of pi projections acting per variable on a multi-Laurent map.

    Keys are tuples of powers (one per spectral variable); ``variables``
    selects the positions to project (all by default).  The single-variable
    projections commute, so the order of composition is immaterial.
    """
    out = dict(laurent)
    nvars = len(next(iter(laurent))) if laurent else 0
    for pos in (range(nvars) if variables is None else variables):
        out = {k: v for k, v in out.items()
               if k[pos] < 0 and (k[pos] + 1) % twist_order == 0}
    return out


# The dense form of a loop element, {k: the lambda^k coefficient vector over
# the algebra basis}, and the operations on it that the sparse
# ``LoopElement`` replaced; they are the reference the sparse ones are
# compared with.

def to_dense(x: LoopElement) -> dict[int, tuple[DiffPoly, ...]]:
    """{k: lambda^k coefficient vector} for the lambda powers of x."""
    out: dict[int, list[DiffPoly]] = {}
    for (k, i), c in x.coeffs.items():
        out.setdefault(k, [DiffPoly.zero()] * x.real.alg.dim)[i] = c
    return {k: tuple(v) for k, v in out.items()}


def vector_at(x: LoopElement, k: int = 0) -> tuple[DiffPoly, ...]:
    """The lambda^k coefficient of x as a dense vector over the algebra basis."""
    return to_dense(x).get(k, (DiffPoly.zero(),) * x.real.alg.dim)


def from_dense(real: LoopRealization, dense: Mapping[int, Sequence[DiffPoly]]) -> LoopElement:
    """The loop element with lambda^k coefficient vector dense[k]; zero entries are dropped."""
    return LoopElement(real, {(k, i): c for k, vec in dense.items() for i, c in enumerate(vec)})


def _dense_clean(dense: Mapping[int, Sequence]) -> dict[int, tuple]:
    return {k: tuple(v) for k, v in dense.items() if any(v)}


def bracket_vec(alg, x: Sequence, y: Sequence, zero=DiffPoly.zero()) -> list:
    """[x, y] for dense coefficient vectors with entries in any commutative ring."""
    out = [zero] * alg.dim
    for (i, j), entries in alg.bracket_table.items():
        if x[i] and y[j]:
            prod = x[i] * y[j]
            for k, c in entries:
                out[k] = out[k] + prod * c
    return out


def dense_add(a: Mapping, b: Mapping) -> dict[int, tuple]:
    out = {k: list(v) for k, v in a.items()}
    for k, vec in b.items():
        out[k] = [x + y for x, y in zip(out[k], vec)] if k in out else list(vec)
    return _dense_clean(out)


def dense_scale(a: Mapping, c) -> dict[int, tuple]:
    return _dense_clean({k: [x * c for x in v] for k, v in a.items()})


def dense_bracket(real: LoopRealization, a: Mapping, b: Mapping) -> dict[int, tuple]:
    out: dict[int, list] = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            br = bracket_vec(real.alg, v1, v2)
            k = k1 + k2
            out[k] = [x + y for x, y in zip(out[k], br)] if k in out else br
    return _dense_clean(out)


def dense_pair(real: LoopRealization, a: Mapping, b: Mapping,
               lo: int | None = None) -> dict[int, DiffPoly]:
    """The loop pairing over every pair of lambda powers and of basis indices."""
    out: dict[int, DiffPoly] = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            if lo is None or k1 + k2 >= lo:
                val = sum((v1[i] * v2[j] * g for i, row in enumerate(real.alg.gram)
                           for j, g in enumerate(row) if g), DiffPoly.zero())
                out[k1 + k2] = out.get(k1 + k2, DiffPoly.zero()) + val
    return {k: v for k, v in out.items() if v}


def dense_pdeg_slices(real: LoopRealization, a: Mapping) -> dict[int, dict[int, tuple]]:
    out: dict[int, dict[int, list]] = {}
    for k, vec in a.items():
        for i, c in enumerate(vec):
            if c:
                d = k * real.deg_lambda + real.pdeg[i]
                out.setdefault(d, {}).setdefault(k, [DiffPoly.zero()] * real.alg.dim)[i] = c
    return {d: _dense_clean(m) for d, m in out.items()}


def dense_check_twist(real: LoopRealization, a: Mapping) -> bool:
    n = real.twist_order
    return all(real.twist_class[i] % n == k % n
               for k, vec in a.items() for i, c in enumerate(vec) if c)


def map_coeffs(x: LoopElement, fn) -> LoopElement:
    return LoopElement(x.real, {key: fn(c) for key, c in x.coeffs.items()})


def project_plus(x: LoopElement) -> LoopElement:
    """Keep lambda powers >= 0 (standard gradation projection)."""
    return from_dense(x.real, {k: v for k, v in to_dense(x).items() if k >= 0})


def project_minus(x: LoopElement) -> LoopElement:
    return from_dense(x.real, {k: v for k, v in to_dense(x).items() if k < 0})


class HColumnSplit:
    """x = c H_d + [Lambda, y] in slice d, with H_d as one column of the system.

    The reference for ``LoopRealization.splitter``: the columns are H_d and
    the brackets of Lambda with the slice basis at d - 1, each taken by
    ``LoopElement.bracket``.  ``split`` returns (c, c H_d, y) with y of degree
    d - 1; its Heisenberg part is not removed (``split_with_preimage`` does).
    """

    def __init__(self, real: LoopRealization, d: int):
        self.real, self.d = real, d
        self.h_elt = real.heisenberg_at(d)
        self.basis_prev = real.slice_basis(d - 1)
        self.index_d = {pair: i for i, pair in enumerate(real.slice_basis(d))}
        one, dim = DiffPoly.const(1), real.alg.dim
        images = [real.cyclic.bracket(from_dense(
            real, {k: [one if t == i else DiffPoly.zero() for t in range(dim)]}))
            for k, i in self.basis_prev]
        cols = [[c.constant_term() for c in self.coords(x)]
                for x in ([self.h_elt] if self.h_elt is not None else []) + images]
        self.solver = DenseLinearSolver([[col[r] for col in cols]
                                         for r in range(len(self.index_d))])

    def coords(self, elt: LoopElement) -> list[DiffPoly]:
        col = [DiffPoly.zero()] * len(self.index_d)
        for k, vec in to_dense(elt).items():
            for i, c in enumerate(vec):
                if c:
                    pos = self.index_d.get((k, i))
                    if pos is None:
                        raise ValueError(f"lambda^{k} {self.real.alg.labels[i]} is not of "
                                         f"principal degree {self.d}")
                    col[pos] = c
        return col

    def split(self, elt: LoopElement) -> tuple[DiffPoly, LoopElement, LoopElement]:
        real = self.real
        sol = self.solver.solve(self.coords(elt), zero=DiffPoly.zero())
        n_h = 0 if self.h_elt is None else 1
        h_coeff = sol[0] if n_h else DiffPoly.zero()
        y: dict[int, list[DiffPoly]] = {}
        for c, (k, i) in zip(sol[n_h:], self.basis_prev):
            if c:
                y.setdefault(k, [DiffPoly.zero()] * real.alg.dim)[i] = c
        h_part = self.h_elt.scale(h_coeff) if n_h else LoopElement.zero(real)
        return h_coeff, h_part, from_dense(real, y)


_H_COLUMN_SPLITS: WeakKeyDictionary = WeakKeyDictionary()


def h_column_split(real: LoopRealization, d: int) -> HColumnSplit:
    """The reference split of slice d of ``real``, built once per realization and degree."""
    per_degree = _H_COLUMN_SPLITS.setdefault(real, {})
    if d not in per_degree:
        per_degree[d] = HColumnSplit(real, d)
    return per_degree[d]


def split_with_preimage(real: LoopRealization, d: int,
                        sl: LoopElement) -> tuple[DiffPoly, LoopElement, LoopElement]:
    """(c, c H_d, y) with sl = c H_d + [Lambda, y] and y in im ad Lambda.

    The H part of the preimage is stripped by a second split, one degree lower.
    """
    h_coeff, h_part, y = h_column_split(real, d).split(sl)
    if not y.is_zero():
        y = y - h_column_split(real, d - 1).split(y)[1]
    return h_coeff, h_part, y


def heisenberg_split(real: LoopRealization,
                     x: LoopElement) -> tuple[LoopElement, LoopElement]:
    """x = h_part + im_part along H (+) im ad Lambda, per degree slice."""
    h_total = LoopElement.zero(real)
    for d, sl in x.pdeg_slices().items():
        h_total = h_total + h_column_split(real, d).split(sl)[1]
    return h_total, x - h_total


# -- resolvent -----------------------------------------------------------------

def coefficient(r: Resolvent, k: int) -> tuple[DiffPoly, ...]:
    """The full lambda^k vector of R; raises DepthError below its complete depth."""
    if k < r.min_complete_power():
        raise DepthError(f"lambda^{k} coefficient of R_{r.m_a} needs depth > {r.depth}")
    out = [DiffPoly.zero()] * r.real.alg.dim
    for j in range(r.depth + 1):
        vec = to_dense(r.slice(r.m_a - j)).get(k)
        if vec:
            out = [a + b for a, b in zip(out, vec)]
    return tuple(out)


def pairing_residual_loop(ra: Resolvent, rb: Resolvent) -> dict[int, DiffPoly]:
    """(R_a|R_b) minus its normalization on all complete lambda powers, by its own loop.

    The reference for ``Resolvent.pairing_residual``: every pair of lambda
    powers (k1, k2) of the two summed views with k1 + k2 >= lo is paired
    here over the dense Gram matrix and summed per power, with no call of
    ``LoopElement.pair``.
    """
    real = ra.real
    # lambda^c is complete once every contributing slice pair is stored:
    # c*deg_lambda - m_b >= m_a - depth  (and symmetrically).
    need = ra.m_a + rb.m_a - min(ra.depth, rb.depth)
    lo = -((-need) // real.deg_lambda)
    gram = real.alg.gram
    out: dict[int, DiffPoly] = {}
    theirs = to_dense(rb.element).items()
    for k1, v1 in to_dense(ra.element).items():
        for k2, v2 in theirs:
            if k1 + k2 >= lo:
                for i, row in enumerate(gram):
                    for j, g in enumerate(row):
                        if g and v1[i] and v2[j]:
                            out[k1 + k2] = out.get(k1 + k2, DiffPoly.zero()) + v1[i] * v2[j] * g
    target = (ra.m_a + rb.m_a) // real.deg_lambda
    if ra.a + rb.a == real.n + 1 and target >= lo:
        out[target] = out.get(target, DiffPoly.zero()) - real.h
    return {k: v for k, v in out.items() if not v.is_zero()}


def omega_depth(real: LoopRealization, max_a: int, max_k: int) -> int:
    """Depth making complete every lambda vector an (a,k1;b,k2) pairing reads."""
    maxp = max(real.pdeg)
    need = 0
    n_tw = real.twist_order
    for a in range(1, max_a + 1):
        m_a = real.exponents[a - 1]
        pmax = max(real.heisenberg_element(m_a).lambda_powers())
        for b in range(1, max_a + 1):
            m_b = real.exponents[b - 1]
            q_min = -pmax - 2 * max_k * n_tw
            need = max(need, m_b - (q_min * real.deg_lambda - maxp))
            p_min = 1 - max_k * n_tw
            if p_min < 0:
                need = max(need, m_a - (p_min * real.deg_lambda - maxp))
    return need


# -- gauge ---------------------------------------------------------------------

def nilpotent_coords(real: LoopRealization, x: LoopElement) -> list[DiffPoly]:
    """Coordinates of x in the nilpotent basis; raises unless x is n-valued."""
    if any(k != 0 for k in x.lambda_powers()):
        raise ValueError("element is not lambda-free")
    cols = [vector_at(p) for p in real.nilpotent_basis]
    rows = [[col[r].constant_term() for col in cols] for r in range(real.alg.dim)]
    try:
        return DenseLinearSolver(rows).solve(list(vector_at(x)), zero=DiffPoly.zero())
    except InconsistentSystemError as exc:
        raise ValueError("element is not nilpotent-valued") from exc


def gauge_transform(lax: LaxOperator, s: LoopElement) -> LoopElement:
    """Q with e^{ad S}(d + Lambda + q) = d + Lambda + Q; S must be n-valued."""
    nilpotent_coords(lax.real, s)  # raises when S is not in n
    return _gauge_q(lax, s)


def lax_can(cf: CanonicalForm) -> LoopElement:
    """Lambda + Q_can, the canonical-form Lax operator without d."""
    return cf.lax.real.cyclic + cf.q_can


# -- hierarchy: the direct verify routes ---------------------------------------

class Recording(Derivation):
    """A flow that appends (its label, p) to ``seen`` for every p it is applied to."""

    def __init__(self, label, flow: Derivation, seen: list):
        super().__init__(flow.chars, flow.kind)
        self.label, self.seen = label, seen

    def __call__(self, p):
        self.seen.append((self.label, p))
        return super().__call__(p)


def tau_symmetry_direct(flows: Mapping, omega: Mapping, triples=None) -> list[dict]:
    """``verify_tau_symmetry`` with every triple computed directly.

    ``omega`` maps label pairs to entries, as the certificate reads it.
    """
    if triples is None:
        labels = [l for l in sorted({i for i, _ in omega}) if l in flows]
        triples = [(i, j, k) for i in labels for j in labels for k in labels]
    # D_i(p) memoised on (i, p): Omega is symmetric, so most values recur,
    # and a corrupted entry never shares a key with its transpose
    applied: dict = {}

    def apply(label, p: DiffPoly) -> DiffPoly:
        got = applied.get((label, p))
        if got is None:
            got = applied[(label, p)] = flows[label](p)
        return got

    out = []
    for (i, j, k) in triples:
        lhs = apply(i, omega[j, k])
        rhs = apply(k, omega[i, j])
        out.append({
            "check": "tau_symmetry",
            "triple": [list(i), list(j), list(k)],
            "residual_zero": (lhs - rhs).is_zero(),
        })
    return out


def evolve(chars: Sequence[DiffPoly], p: DiffPoly) -> DiffPoly:
    """sum_{a,m} d^m(chars[a-1]) dp/du_{a,m}, each jet by m calls of ``dx``, no jet map."""
    out = DiffPoly.zero()
    for a, m in sorted(p.variables()):
        jet = chars[a - 1]
        for _ in range(m):
            jet = jet.dx()
        out = out + jet * p.partial((a, m))
    return out


def integrability_per_component(flows: Mapping) -> list[dict]:
    """``verify_integrability`` as a loop over components, stopping at the first nonzero."""
    out = []
    items = list(flows.items())
    for i, (li, fi) in enumerate(items):
        for lj, fj in items[i:]:
            resid_zero = True
            for alpha in range(1, len(fi.chars) + 1):
                lhs = evolve(fi.chars, fj.chars[alpha - 1])
                rhs = evolve(fj.chars, fi.chars[alpha - 1])
                if not (lhs - rhs).is_zero():
                    resid_zero = False
                    break
            out.append({
                "check": "flow_commutator",
                "pair": [list(li), list(lj)],
                "residual_zero": resid_zero,
            })
    return out


def gauge_invariance_per_jet(hierarchy, omega) -> list[dict]:
    """``verify_gauge_invariance`` with f applied to every u-jet the table uses."""
    hom = hierarchy.gauge_homomorphism()
    jets = hierarchy.canform.jets
    used: set = set()
    for val in omega.values():
        used |= val.variables()
    fixed = {v: hom.is_invariant(jets(*v)) for v in sorted(used)}
    return [{
        "check": "omega_gauge_invariance",
        "pair": [list(i), list(j)],
        "residual_zero": all(fixed[v] for v in val.variables()),
    } for (i, j), val in sorted(omega.items())]


# -- miura ---------------------------------------------------------------------

def induce_derivation(pair: MiuraPair, d: Derivation) -> Derivation:
    """Transport an admissible derivation to the v-jet ring through the pair."""
    if d.arity != pair.arity:
        raise ArityMismatchError("derivation arity does not match the pair")
    if d.order != pair.order:
        raise ValueError("eps truncation mismatch between derivation and pair")
    chars = [pair.psi(d(v)) for v in pair.forward.values]
    return Derivation(chars, pair.forward.kind)


def reconstruct_flows_by_dx(omega_rows: Mapping, pair: MiuraPair,
                            d_one: Derivation) -> dict:
    """``reconstruct_flows`` by the chain rule for each (alpha, beta, m), d^m by repeated ``dx``."""
    ell = pair.arity
    out = {}
    for j, row in omega_rows.items():
        drow = [d_one(entry) for entry in row]
        chars = []
        for alpha in range(ell):
            u_alpha = pair.inverse[alpha]
            acc = EpsSeries.zero(pair.order)
            for beta in range(1, ell + 1):
                jet = drow[beta - 1]
                for m in range(0, u_alpha.max_order() + 1):
                    part = u_alpha.partial((beta, m))
                    if not part.is_zero():
                        acc = acc + pair.phi(part) * jet
                    jet = jet.dx()
            chars.append(acc)
        out[j] = tuple(chars)
    return out


# -- solution and ratfunc ------------------------------------------------------

def at_t_zero(sol: FormalSolution, alpha: int) -> tuple[RatFunc, ...]:
    return sol.coeffs[(alpha, tuple([0] * len(sol.labels)))]


def eval_at_zero(r: RatFunc) -> Fraction:
    """r at x = 0, from its printed fraction in powers of x; 1 - x = 1 there, so no pole."""
    num, den = r.texts()
    return Fraction(num[0]) / Fraction(den[0]) if num else Fraction(0)


# -- serialize: reading the JSON forms back ------------------------------------

def poly_from_obj(obj: dict) -> DiffPoly:
    terms = {}
    for t in obj["terms"]:
        mono = tuple(((int(a), int(m)), int(e)) for a, m, e in t["monomial"])
        terms[mono] = Fraction(t["coeff"])
    return DiffPoly(terms)


def series_from_obj(objs: list[dict], order: int) -> EpsSeries:
    comps = [DiffPoly.zero() for _ in range(order + 1)]
    for obj in objs:
        q = int(obj["eps"])
        if q <= order:
            comps[q] = poly_from_obj(obj)
    return EpsSeries(comps, order)


def miura_pair_to_obj(pair: MiuraPair) -> dict:
    """Miura pair: forward tuple tagged side "u", inverse tagged side "v"."""
    out = {"arity": pair.arity, "eps_order": pair.order,
           "jet_depth": pair.jet_depth, "forward": [], "inverse": []}
    for alpha, val in enumerate(pair.forward.values, start=1):
        out["forward"].append({"component": alpha, "side": "u",
                               "series": series_to_obj(val)})
    for alpha, val in enumerate(pair.inverse, start=1):
        out["inverse"].append({"component": alpha, "side": "v",
                               "series": series_to_obj(val)})
    return out
