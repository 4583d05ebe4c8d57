"""Drinfeld-Sokolov flows, tau-structure table, and structural verification.

Flows and the tau-structure are both computed on the canonical-form operator
L_can = d + Lambda + q_u, whose generators are the canonical coordinates
u_1..u_ell.  The flow D_{a,k} acts by

    D_{a,k}(L_can) = [(lambda^{k N} R_{m_a})_+ + theta, L_can],

with R_{m_a} the basic resolvent of L_can and theta the unique n-valued
compensator that makes the right-hand side V-valued (Drinfeld-Sokolov);
theta is solved one principal degree at a time by ``GaugeFrame.v_valued``,
and the V-coordinates of the right-hand side are the characteristics,
already in the u-jets.  For D_{1,0} the recursion gives theta = q_u - b and
the right-hand side -d(q_u), so D_{1,0} = -d.  The tau-structure entries
Omega_{a,k1;b,k2} come from the expansion of the two-variable resolvent
pairing against 1/(lambda-mu)^2 in the region |mu| < |lambda|; the rational
counterterm that normalizes the diagonal never survives the projection to
negative powers of the congruence class -1 mod N, but its contribution is
subtracted literally.  The extraction reads

    Omega_{a,k1;b,k2} = sum_{p >= 1-k1 N} (p + k1 N) *
                        (R_a[p] | R_b[-p-(k1+k2)N])  -  counterterm coeff.

Resolvents are gauge covariant, so the Borel-variable operator followed by
the certified rewrite to the u-jets gives the same flows and entries; that
route is kept in the tests as a reference.

Verification helpers check flow commutativity, the tau-symmetry identities,
the gauge invariance of every table entry, the translation flow D_{1,0} = -d
(including the unique-solution recursion that proves it), and the
reconstruction of flows from tau-coordinates.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .diffalg import Derivation, DiffPoly, EpsSeries, JetMap, \
    apply_poly_derivation
from .gauge import CanonicalForm, GaugeFrame, GaugeHomomorphism, \
    canonical_form
from .kacmoody import LoopElement, LoopRealization, build_algebra
from .linalg import InconsistentSystemError
from .resolvent import DepthError, LaxOperator, flow_depth

FlowLabel = tuple[int, int]


def _check_label(real: LoopRealization, label: FlowLabel) -> FlowLabel:
    a, k = label
    if not (1 <= a <= real.n):
        raise ValueError(f"flow family index {a} out of range 1..{real.n}")
    if k < 0:
        raise ValueError("flow index k must be >= 0")
    return (a, k)


class Flow:
    """A hierarchy flow as an evolutionary derivation in the u-jets."""

    def __init__(self, label: FlowLabel, chars: tuple[DiffPoly, ...]):
        self.label = label
        self.chars = chars

    def derivation(self, eps_order: int) -> Derivation:
        """Graded form: the degree-d part of each characteristic at eps^{d-1}."""
        return Derivation(
            [EpsSeries.regrade(w, eps_order, shift=-1) for w in self.chars])

    @cached_property
    def jets(self) -> JetMap:
        return JetMap(self.chars)

    def apply(self, p: DiffPoly) -> DiffPoly:
        return apply_poly_derivation(self.jets, p)


class OmegaTable:
    """Tau-structure entries indexed by pairs of flow labels, in u-jets."""

    def __init__(self, entries: dict[tuple[FlowLabel, FlowLabel], DiffPoly],
                 max_a: int, max_k: int, depth: int):
        self.entries = entries
        self.max_a = max_a
        self.max_k = max_k
        self.depth = depth

    def entry(self, i: FlowLabel, j: FlowLabel) -> DiffPoly:
        try:
            return self.entries[(i, j)]
        except KeyError:
            why = [f"a = {a} > max_a = {self.max_a}" for a, _ in (i, j) if a > self.max_a] + \
                [f"k = {k} > max_k = {self.max_k}" for _, k in (i, j) if k > self.max_k]
            raise DepthError(f"Omega entry {(i, j)} not computed: "
                             f"{', '.join(why) or 'no such label'}") from None

    def labels(self) -> list[FlowLabel]:
        return [(a, k) for a in range(1, self.max_a + 1)
                for k in range(0, self.max_k + 1)]

    def symmetry_report(self) -> list[dict]:
        out = []
        for i in self.labels():
            for j in self.labels():
                diff = self.entry(i, j) - self.entry(j, i)
                out.append({
                    "check": "omega_symmetry",
                    "pair": [list(i), list(j)],
                    "residual_zero": diff.is_zero(),
                })
        return out

    def has_nonconstant_entry(self) -> bool:
        return any(not v.dx().is_zero() for v in self.entries.values())


def _counterterm_coefficient(real: LoopRealization, a: int, b: int,
                             k1: int, k2: int) -> Fraction:
    """Coefficient of lambda^{-k1 N - 1} mu^{-k2 N - 1} of the counterterm.

    (delta_{a+b,n+1}/r) (m_a lambda^N + m_b mu^N) / (lambda - mu)^2 expanded
    with |mu| < |lambda|:  sum_{i>=1} i mu^{i-1} lambda^{-i-1} times each
    numerator monomial.  For k1, k2 >= 0 both pieces need a non-negative mu
    power and give zero; the subtraction is kept literal for uniformity.
    """
    if a + b != real.n + 1:
        return Fraction(0)
    n_tw = real.twist_order
    m_a = real.exponents[a - 1]
    m_b = real.exponents[b - 1]
    out = Fraction(0)
    # m_a lambda^N piece: lambda^{N-i-1} mu^{i-1}
    i = (k1 + 1) * n_tw
    if i >= 1 and i - 1 == -k2 * n_tw - 1:
        out += Fraction(m_a, real.r) * i
    # m_b mu^N piece: lambda^{-i-1} mu^{N+i-1}
    i = k1 * n_tw
    if i >= 1 and n_tw + i - 1 == -k2 * n_tw - 1:
        out += Fraction(m_b, real.r) * i
    return out


class DSHierarchy:
    """A Drinfeld-Sokolov hierarchy for one affine type and marked vertex.

    Builds the loop realization and the canonical-form Lax operator that
    flows and tau-structure tables are computed from (on demand, each
    resolvent solved to the depth its reader needs).  The Borel side, the
    Borel-variable operator ``lax_q`` and its canonical gauge data
    ``canform``, is built on first read: only the gauge-invariance check,
    ``gauge-fix`` and ``resolvent`` dumps read it, and building ``canform``
    runs its residual check.  ``omega_max_k`` is the default ``max_k`` of
    ``omega_table``.
    """

    def __init__(self, type_name: str, vertex: int = 0,
                 max_flow_k: int = 2, omega_max_k: int = 2):
        # max_flow_k sizes nothing: every flow solves its resolvent to its own
        # depth.  It is still accepted, as callers pass it.
        self.real = build_algebra(type_name, vertex)
        self.omega_max_k = omega_max_k
        self.lax_u = LaxOperator(self.real, "canonical")
        self.frame = GaugeFrame(self.real)
        self._hom: GaugeHomomorphism | None = None
        self._flows: dict[FlowLabel, Flow] = {}
        self._omega: dict[tuple, OmegaTable] = {}

    @cached_property
    def lax_q(self) -> LaxOperator:
        return LaxOperator(self.real, "borel")

    @cached_property
    def canform(self) -> CanonicalForm:
        return canonical_form(self.lax_q, self.frame)

    @property
    def ell(self) -> int:
        return self.real.ell

    def gauge_homomorphism(self) -> GaugeHomomorphism:
        if self._hom is None:
            self._hom = GaugeHomomorphism(self.lax_q, self.frame)
        return self._hom

    # -- flows -------------------------------------------------------------
    def flow(self, label: FlowLabel) -> Flow:
        """The flow D_{a,k} on the canonical coordinates, in u-jets."""
        label = _check_label(self.real, label)
        got = self._flows.get(label)
        if got is not None:
            return got
        a, k = label
        depth = flow_depth(self.real, a, k)
        x = self.lax_u.resolvent(a, depth).shifted_plus(k)
        flow = Flow(label, self._compensate(label, x)[2])
        self._flows[label] = flow
        return flow

    def flows(self, labels: Iterable[FlowLabel]) -> dict[FlowLabel, Flow]:
        return {tuple(l): self.flow(tuple(l)) for l in labels}

    def _compensate(self, label: FlowLabel, x: LoopElement):
        """(theta, psi, chars): psi = [x + theta, L_can] - d(x + theta) is V-valued.

        theta is the unique n-valued compensator and chars are the
        V-coordinates of psi.  psi must be a Borel-valued lambda^0 element; the
        error names the flow label and the identity when it is not.
        """
        lu = self.lax_u.lam_plus_q
        phi = x.bracket(lu) - x.dx()

        def residual(theta: LoopElement) -> LoopElement:
            return phi + theta.bracket(lu) - theta.dx()

        theta = self.frame.v_valued(residual)
        psi = residual(theta)
        where = f"flow {label}: [X + theta, L_can] - d(X + theta)"
        if any(p != 0 for p in psi.lambda_powers()):
            raise RuntimeError(
                f"{where} has lambda powers {psi.lambda_powers()}, not only 0")
        try:
            coords = self.real.borel_coords(psi.vector_at(0))
        except InconsistentSystemError as exc:
            raise RuntimeError(f"{where} is not Borel-valued") from exc
        if any(not c.is_zero() for c in coords[self.frame.ell:]):
            raise RuntimeError(f"{where} is not V-valued")
        return theta, psi, tuple(coords[: self.frame.ell])

    # -- the unique-solution recursion behind D_{1,0} = -d -------------------
    def d10_unique_solve(self) -> tuple[LoopElement, LoopElement]:
        """The (psi, theta) of the flow (1, 0): psi = -d(q_u), theta = q_u - b.

        Here q_u is the V-valued part of L_can, in the u-generators, and b is
        read off from (R_1^u)_+ = Lambda + b; the compensator recursion
        determines (psi, theta) uniquely, so D_{1,0} = -d.
        """
        real = self.real
        depth = flow_depth(real, 1, 0)
        plus = self.lax_u.resolvent(1, depth).shifted_plus(0)
        b_elt = plus - real.cyclic
        if any(p != 0 for p in b_elt.lambda_powers()):
            raise RuntimeError("(R_1^u)_+ - Lambda is not lambda-free")
        theta, psi, _ = self._compensate((1, 0), plus)
        q_u = self.lax_u.q
        if not (psi + q_u.dx()).is_zero():
            raise RuntimeError("unique solution psi differs from -d(q_u)")
        if not (theta - (q_u - b_elt)).is_zero():
            raise RuntimeError("unique solution theta differs from q_u - b")
        return psi, theta

    # -- tau-structure ---------------------------------------------------
    def omega_table(self, max_a: int | None = None,
                    max_k: int | None = None) -> OmegaTable:
        """Tau-structure table for labels (a, k), a <= max_a, k <= max_k.

        Read off the resolvents of the canonical-form operator, so the
        entries come out directly in u-jets.

        The resolvents are solved only as deep as the pairing reads them.
        Write N for the principal degree of lambda and sigma = (k1 + k2) n_tw.
        The form pairs x_i with x_j only if pdeg_i + pdeg_j = 0, by ad rho
        invariance, (pdeg_i + pdeg_j)(x_i|x_j) = 0 (checked at load).  So the
        lambda^p x_i part of R_a, at degree d = p N + pdeg_i, meets only the
        part of R_b at degree -sigma N - d, and R_b has no slice above m_b:
        R_a is read down to offset m_a + m_b + sigma N and no further, and
        R_b likewise.  Each lambda vector is the sum of the slices solved to
        that depth (``Resolvent.computed_coefficient``); the parts it misses
        pair with zero.  Over the table the depth is 2 m_max_a + 2 max_k n_tw N,
        below the depth that makes every vector complete.
        """
        real = self.real
        if max_a is None:
            max_a = real.n
        if max_k is None:
            max_k = self.omega_max_k
        key = (max_a, max_k)
        got = self._omega.get(key)
        if got is not None:
            return got
        n_tw = real.twist_order
        depth = 2 * max(real.exponents[:max_a]) + 2 * max_k * n_tw * real.deg_lambda
        resolvents = {a: self.lax_u.resolvent(a, depth)
                      for a in range(1, max_a + 1)}
        entries: dict[tuple[FlowLabel, FlowLabel], DiffPoly] = {}
        for a in range(1, max_a + 1):
            ra = resolvents[a]
            pmax_a = real.heisenberg_top[ra.m_a]
            for b in range(1, max_a + 1):
                rb = resolvents[b]
                pmax_b = real.heisenberg_top[rb.m_a]
                for k1 in range(0, max_k + 1):
                    for k2 in range(0, max_k + 1):
                        sigma = (k1 + k2) * n_tw
                        p_lo = max(1 - k1 * n_tw, -sigma - pmax_b)
                        val = real.alg.pair_sum(
                            (ra.computed_coefficient(p), rb.computed_coefficient(-p - sigma),
                             p + k1 * n_tw) for p in range(p_lo, pmax_a + 1) if p + k1 * n_tw)
                        ct = _counterterm_coefficient(real, a, b, k1, k2)
                        if ct:
                            val = val - DiffPoly.const(ct)
                        entries[((a, k1), (b, k2))] = val
        for (i, j), val in entries.items():
            if val != entries[(j, i)]:
                raise RuntimeError(
                    f"tau-structure symmetry broken at {(i, j)}; engine bug")
        table = OmegaTable(entries, max_a, max_k, depth)
        if not table.has_nonconstant_entry():
            raise RuntimeError(
                "tau-structure is degenerate: every entry is constant")
        self._omega[key] = table
        return table


# -- verification ------------------------------------------------------------

def verify_integrability(flows: Sequence[Flow]) -> list[dict]:
    """Pairwise commutators of flows; exact residuals in the plain ring."""
    out = []
    flows = list(flows)
    for i, fi in enumerate(flows):
        for fj in flows[i:]:
            resid_zero = True
            for alpha in range(1, len(fi.chars) + 1):
                lhs = fi.apply(fj.chars[alpha - 1])
                rhs = fj.apply(fi.chars[alpha - 1])
                if not (lhs - rhs).is_zero():
                    resid_zero = False
                    break
            out.append({
                "check": "flow_commutator",
                "pair": [list(fi.label), list(fj.label)],
                "residual_zero": resid_zero,
            })
    return out


def verify_tau_symmetry(flows: Mapping[FlowLabel, Flow], omega: OmegaTable,
                        triples: Iterable[tuple[FlowLabel, FlowLabel, FlowLabel]]
                        | None = None) -> list[dict]:
    """D_i(Omega_{j;k}) = D_k(Omega_{i;j}) for the requested label triples."""
    if triples is None:
        labels = [l for l in omega.labels() if l in flows]
        triples = [(i, j, k) for i in labels for j in labels for k in labels]
    # D_i(p) memoised on (i, p): Omega is symmetric, so most values recur,
    # and a corrupted entry never shares a key with its transpose
    applied: dict[tuple[FlowLabel, DiffPoly], DiffPoly] = {}

    def apply(label: FlowLabel, p: DiffPoly) -> DiffPoly:
        got = applied.get((label, p))
        if got is None:
            got = applied[(label, p)] = flows[label].apply(p)
        return got

    out = []
    for (i, j, k) in triples:
        lhs = apply(i, omega.entry(j, k))
        rhs = apply(k, omega.entry(i, j))
        out.append({
            "check": "tau_symmetry",
            "triple": [list(i), list(j), list(k)],
            "residual_zero": (lhs - rhs).is_zero(),
        })
    return out


def verify_gauge_invariance(hierarchy: DSHierarchy,
                            omega: OmegaTable) -> list[dict]:
    """f(Omega) = Omega in the extended (q, S) ring, entry by entry.

    Every entry is a polynomial in the u-jets, and f is a differential ring
    map, so an entry is fixed by f once every jet d^m u_a(q) it uses is.
    Each distinct jet of the table is certified once, in the q-ring, through
    the canonical coordinate expressions; an entry passes when all of its
    jets do.
    """
    hom = hierarchy.gauge_homomorphism()
    jets = hierarchy.canform.jets
    used: set = set()
    for val in omega.entries.values():
        used |= val.variables()
    fixed = {v: hom.is_invariant(jets(*v)) for v in sorted(used)}
    return [{
        "check": "omega_gauge_invariance",
        "pair": [list(i), list(j)],
        "residual_zero": all(fixed[v] for v in val.variables()),
    } for (i, j), val in sorted(omega.entries.items())]


def tau_coordinate_check(hierarchy: DSHierarchy, omega: OmegaTable,
                         eps_order: int = 2, jet_depth: int = 6,
                         check_labels: Sequence[FlowLabel] = ((1, 1),)) -> dict:
    """Tau-coordinates, Miura property, and flow reconstruction.

    Builds V = (Omega_{(a,0);(1,0)})_{a=1..ell} as graded series, checks the
    Miura property, inverts, and reconstructs the requested flows from the
    tau-structure rows, comparing against the directly computed flows
    truncated to the same eps order.
    """
    # imported here, its only reader: derive, omega and solve never compile it
    from .miura import MiuraTuple, check_miura, invert_miura, reconstruct_flows
    real = hierarchy.real
    ell = real.ell
    one = (1, 0)
    values = [EpsSeries.regrade(omega.entry((a, 0), one), eps_order, shift=0)
              for a in range(1, ell + 1)]
    tup = MiuraTuple(values)
    ok, det = check_miura(tup.values)
    report = {
        "check": "tau_coordinates",
        "miura_type": ok,
        "jacobian_det": repr(det),
    }
    if not ok:
        report["residual_zero"] = False
        report["error"] = "tau-coordinates degenerate"
        return report
    pair = invert_miura(tup, jet_depth=jet_depth)
    d_one_flow = hierarchy.flow(one)
    d_one = d_one_flow.derivation(eps_order)
    translation = Derivation.d_x(ell, eps_order)
    if not all((a + b).is_zero()
               for a, b in zip(d_one.chars, translation.chars)):
        report["residual_zero"] = False
        report["error"] = "distinguished flow is not -d"
        return report
    rows = {}
    for j in check_labels:
        rows[tuple(j)] = [
            EpsSeries.regrade(omega.entry(tuple(j), (b, 0)), eps_order, shift=0)
            for b in range(1, ell + 1)]
    recon = reconstruct_flows(rows, pair, d_one)
    matches = {}
    for j in check_labels:
        j = tuple(j)
        direct = hierarchy.flow(j).derivation(eps_order)
        ok_j = all((rc - dc).is_zero()
                   for rc, dc in zip(recon[j], direct.chars))
        matches[str(list(j))] = ok_j
    report["reconstruction_matches"] = matches
    report["residual_zero"] = all(matches.values())
    report["inverse_jet_depth"] = max(u.max_order() for u in pair.inverse)
    return report
