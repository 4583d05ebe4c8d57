"""Drinfeld-Sokolov flows, tau-structure table, and structural verification.

The pre-gauge flows act on the Borel-coordinate ring by

    D^pre_{a,k}(q) = [(lambda^{k N} R_{m_a})_+ , L],

which is Borel-valued at lambda^0; the reduced flows act on the gauge
invariants through the canonical form and are rewritten as evolutionary
derivations in the u-jets.  The tau-structure entries Omega_{a,k1;b,k2} come
from the expansion of the two-variable resolvent pairing against
1/(lambda-mu)^2 in the region |mu| < |lambda|; the rational counterterm that
normalizes the diagonal never survives the projection to negative powers of
the congruence class -1 mod N, but its contribution is subtracted literally.
The extraction reads

    Omega_{a,k1;b,k2} = sum_{p >= 1-k1 N} (p + k1 N) *
                        (R_a[p] | R_b[-p-(k1+k2)N])  -  counterterm coeff.

Entries can be computed in two ways that must agree: from the Borel-variable
Lax operator followed by the gauge-invariant rewrite, or directly from the
canonical-form Lax operator whose generators are the u-coordinates (the
rewrite substitution intertwines the two computations; resolvents are unique,
so the results coincide).  The deep tables use the canonical route.

Verification helpers check flow commutativity, the tau-symmetry identities,
the gauge invariance of every table entry, the translation flow D_{1,0} = -d
(including the unique-solution recursion that proves it), and the
reconstruction of flows from tau-coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .diffalg import Derivation, DiffPoly, EpsSeries, JetMap, \
    apply_poly_derivation
from .gauge import (CanonicalForm, GaugeFrame, GaugeHomomorphism,
                    _exp_ad_nilpotent, _phi_ad_nilpotent, canonical_form,
                    to_invariant_coordinates)
from .kacmoody import LoopElement, LoopRealization, build_algebra, \
    default_window_for_depth
from .miura import MiuraTuple, check_miura, invert_miura, \
    reconstruct_flows
from .resolvent import DepthError, LaxOperator, flow_depth, omega_depth

FlowLabel = tuple[int, int]


def _check_label(real: LoopRealization, label: FlowLabel) -> FlowLabel:
    a, k = label
    if not (1 <= a <= real.n):
        raise ValueError(f"flow family index {a} out of range 1..{real.n}")
    if k < 0:
        raise ValueError("flow index k must be >= 0")
    return (a, k)


@dataclass(frozen=True)
class Flow:
    """A hierarchy flow as an evolutionary derivation in the u-jets."""

    label: FlowLabel
    chars: tuple[DiffPoly, ...]

    def derivation(self, eps_order: int) -> Derivation:
        """Graded form: the degree-d part of each characteristic at eps^{d-1}."""
        return Derivation(
            [EpsSeries.regrade(w, eps_order, shift=-1) for w in self.chars])

    @cached_property
    def jets(self) -> JetMap:
        return JetMap(self.chars)

    def apply(self, p: DiffPoly) -> DiffPoly:
        return apply_poly_derivation(self.jets, p)


@dataclass
class OmegaTable:
    """Tau-structure entries indexed by pairs of flow labels, in u-jets."""

    entries: dict[tuple[FlowLabel, FlowLabel], DiffPoly]
    max_a: int
    max_k: int
    variables: str
    depth: int

    def entry(self, i: FlowLabel, j: FlowLabel) -> DiffPoly:
        try:
            return self.entries[(i, j)]
        except KeyError:
            raise DepthError(
                f"Omega entry {(i, j)} not computed; smallest uncovered pair "
                f"starts at k > {self.max_k}") from None

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

    Builds the loop realization, the Borel-variable and canonical-form Lax
    operators, and the canonical gauge data; computes flows and tau-structure
    tables on demand with depths sized from the requested index bounds.
    """

    def __init__(self, type_name: str, vertex: int = 0,
                 max_flow_k: int = 2, omega_max_k: int = 2):
        probe = build_algebra(type_name, vertex, depth_hint=6)
        depth = 4
        for a in range(1, probe.n + 1):
            depth = max(depth, flow_depth(probe, a, max_flow_k) + 2)
        depth = max(depth, omega_depth(probe, probe.n, omega_max_k) + 2)
        headroom = max_flow_k * probe.twist_order + 2
        window = default_window_for_depth(probe, depth, k_headroom=headroom)
        self.real = build_algebra(type_name, vertex, window=window)
        self.max_flow_k = max_flow_k
        self.omega_max_k = omega_max_k
        self.plan_depth = depth
        self.lax_q = LaxOperator(self.real, "borel")
        self.lax_u = LaxOperator(self.real, "canonical")
        self.frame = GaugeFrame(self.real)
        self.canform: CanonicalForm = canonical_form(self.lax_q, self.frame)
        self._hom: GaugeHomomorphism | None = None
        self._pre_flows: dict[FlowLabel, list[DiffPoly]] = {}
        self._flows: dict[FlowLabel, Flow] = {}
        self._omega: dict[tuple, OmegaTable] = {}

    @property
    def ell(self) -> int:
        return self.real.ell

    def gauge_homomorphism(self) -> GaugeHomomorphism:
        if self._hom is None:
            self._hom = GaugeHomomorphism(self.lax_q, self.frame)
        return self._hom

    # -- pre-gauge flows --------------------------------------------------
    def pre_flow_chars(self, label: FlowLabel) -> list[DiffPoly]:
        """Characteristic of D^pre_{a,k} on the Borel-coordinate generators."""
        label = _check_label(self.real, label)
        got = self._pre_flows.get(label)
        if got is not None:
            return got
        a, k = label
        depth = flow_depth(self.real, a, k) + 1
        r = self.lax_q.resolvent(a, depth)
        xp = r.shifted_plus(k)
        res = xp.bracket(self.lax_q.lam_plus_q) - xp.dx()
        if res.truncated:
            raise RuntimeError("window too small for the pre-flow bracket")
        if any(p != 0 for p in res.lambda_powers()):
            raise RuntimeError("pre-flow bracket left the lambda^0 slice")
        coords = self.real.borel_coords(res.vector_at(0))
        self._pre_flows[label] = coords
        return coords

    def pre_flow_derivation(self, label: FlowLabel, eps_order: int = 0) -> Derivation:
        return Derivation.from_polys(self.pre_flow_chars(label), eps_order)

    # -- reduced flows ------------------------------------------------------
    def flow(self, label: FlowLabel) -> Flow:
        """The reduced flow on the gauge invariants, in u-jet coordinates."""
        label = _check_label(self.real, label)
        got = self._flows.get(label)
        if got is not None:
            return got
        a, k = label
        depth = flow_depth(self.real, a, k) + 1
        r = self.lax_q.resolvent(a, depth)
        s_can = self.canform.s_can
        conj = _exp_ad_nilpotent(s_can, r.element())
        shifted = conj.lambda_shift(k * self.real.twist_order)
        xplus = shifted.project_plus()
        dpre = JetMap(self.pre_flow_chars(label))
        dpre_s = s_can.map_coeffs(lambda p: apply_poly_derivation(dpre, p))
        corr = _phi_ad_nilpotent(s_can, dpre_s)
        x = xplus + corr
        lcan = self.real.cyclic + self.canform.q_can
        res = x.bracket(lcan) - x.dx()
        if res.truncated:
            raise RuntimeError("window too small for the flow bracket")
        if any(p != 0 for p in res.lambda_powers()):
            raise RuntimeError("flow bracket left the lambda^0 slice")
        coords = self.real.borel_coords(res.vector_at(0))
        if any(not c.is_zero() for c in coords[self.frame.ell:]):
            raise RuntimeError(
                "flow is not V-valued; gauge invariance broken upstream")
        chars = tuple(to_invariant_coordinates(self.canform, c)
                      for c in coords[: self.frame.ell])
        flow = Flow(label, chars)
        self._flows[label] = flow
        return flow

    def flows(self, labels: Iterable[FlowLabel]) -> dict[FlowLabel, Flow]:
        return {tuple(l): self.flow(tuple(l)) for l in labels}

    # -- the unique-solution recursion behind D_{1,0} = -d -------------------
    def d10_unique_solve(self) -> tuple[LoopElement, LoopElement]:
        """Solve psi = [Lambda + b + theta, L_can] for V-valued psi, n-valued theta.

        b is read off from (e^{ad S_can} R_1)_+ = Lambda + b.  The recursion
        of increasing principal codegree determines (psi, theta) uniquely; the
        result is asserted to be (-d(Q_can), Q_can - b).
        """
        real = self.real
        depth = flow_depth(real, 1, 0) + 1
        r1 = self.lax_q.resolvent(1, depth)
        conj = _exp_ad_nilpotent(self.canform.s_can, r1.element())
        plus = conj.project_plus()
        b_elt = plus - real.cyclic
        if any(p != 0 for p in b_elt.lambda_powers()):
            raise RuntimeError("(e^{ad S} R_1)_+ - Lambda is not lambda-free")
        real.borel_coords(b_elt.vector_at(0))  # must be Borel-valued
        q_can = self.canform.q_can
        lam_tail = LoopElement(real, {1: real.cyclic.vector_at(1)})
        if not lam_tail.bracket(q_can - b_elt).is_zero():
            raise RuntimeError("Q_can - b does not commute with the lambda tail")
        e_elt = LoopElement(real, {0: real.poly_vector(real.e_nil)})
        phi = e_elt.bracket(q_can) - b_elt.dx() + b_elt.bracket(e_elt + q_can)
        max_depth = -min(real.pdeg)
        theta = LoopElement.zero(real)
        psi = LoopElement.zero(real)
        for k in range(0, max_depth + 1):
            rhs = phi.pdeg_slice(-k) - theta.pdeg_slice(-k).dx()
            for h in range(1, k + 1):
                rhs = rhs + theta.pdeg_slice(-h).bracket(q_can.pdeg_slice(h - k))
            if rhs.is_zero():
                continue
            coords = real.borel_coords(rhs.vector_at(0))
            psi = psi + LoopElement(real, {0: self._v_combo(coords[: self.frame.ell])})
            theta_new = self.frame.nilpotent_element(coords[self.frame.ell:])
            theta = theta + theta_new
        if not (psi - (-q_can.dx())).is_zero():
            raise RuntimeError("unique solution differs from -d(Q_can)")
        if not (theta - (q_can - b_elt)).is_zero():
            raise RuntimeError("unique solution differs from Q_can - b")
        return psi, theta

    def _v_combo(self, coeffs: Sequence[DiffPoly]):
        real = self.real
        vec = [DiffPoly.zero()] * real.alg.dim
        for c, v in zip(coeffs, real.v_basis):
            for t, vc in enumerate(v):
                if vc:
                    vec[t] = vec[t] + c * vc
        return tuple(vec)

    # -- tau-structure ---------------------------------------------------
    def omega_table(self, max_a: int | None = None, max_k: int | None = None,
                    variables: str = "u") -> OmegaTable:
        """Tau-structure table for labels (a, k), a <= max_a, k <= max_k.

        variables="u": resolvents of the canonical-form operator, entries
        directly in u-jets.  variables="q": resolvents of the Borel-variable
        operator, entries rewritten through the gauge invariants (certified);
        this is the slower reference route.
        """
        real = self.real
        if max_a is None:
            max_a = real.n
        if max_k is None:
            max_k = self.omega_max_k
        if variables not in ("u", "q"):
            raise ValueError("variables must be 'u' or 'q'")
        key = (max_a, max_k, variables)
        got = self._omega.get(key)
        if got is not None:
            return got
        lax = self.lax_u if variables == "u" else self.lax_q
        depth = omega_depth(real, max_a, max_k) + 1
        resolvents = {a: lax.resolvent(a, depth) for a in range(1, max_a + 1)}
        n_tw = real.twist_order
        entries: dict[tuple[FlowLabel, FlowLabel], DiffPoly] = {}
        for a in range(1, max_a + 1):
            ra = resolvents[a]
            pmax_a = max(real.heisenberg_element(ra.m_a).lambda_powers())
            for b in range(1, max_a + 1):
                rb = resolvents[b]
                pmax_b = max(real.heisenberg_element(rb.m_a).lambda_powers())
                for k1 in range(0, max_k + 1):
                    for k2 in range(0, max_k + 1):
                        sigma = (k1 + k2) * n_tw
                        val = DiffPoly.zero()
                        p_lo = max(1 - k1 * n_tw, -sigma - pmax_b)
                        for p in range(p_lo, pmax_a + 1):
                            weight = p + k1 * n_tw
                            if weight == 0:
                                continue
                            va = ra.coefficient(p)
                            vb = rb.coefficient(-p - sigma)
                            val = val + real.alg.pair_vec(va, vb) * weight
                        ct = _counterterm_coefficient(real, a, b, k1, k2)
                        if ct:
                            val = val - DiffPoly.const(ct)
                        if variables == "q":
                            val = to_invariant_coordinates(self.canform, val)
                        entries[((a, k1), (b, k2))] = val
        for (i, j), val in entries.items():
            if val != entries[(j, i)]:
                raise RuntimeError(
                    f"tau-structure symmetry broken at {(i, j)}; engine bug")
        table = OmegaTable(entries, max_a, max_k, "u", depth)
        if not table.has_nonconstant_entry():
            raise RuntimeError(
                "tau-structure is degenerate: every entry is constant")
        self._omega[key] = table
        return table

    def omega_entry_opposite_expansion(self, i: FlowLabel, j: FlowLabel,
                                       variables: str = "u") -> DiffPoly:
        """The (i, j) entry computed with 1/(lambda-mu)^2 expanded in lambda/mu.

        Used to confirm that the extracted coefficients do not depend on the
        expansion region; equals the standard entry whenever the symmetry
        identity holds.
        """
        (a, k1), (b, k2) = i, j
        real = self.real
        lax = self.lax_u if variables == "u" else self.lax_q
        n_tw = real.twist_order
        sigma = (k1 + k2) * n_tw
        pmax_a = max(real.heisenberg_element(real.exponents[a - 1]).lambda_powers())
        pmax_b = max(real.heisenberg_element(real.exponents[b - 1]).lambda_powers())
        depth = omega_depth(real, max(a, b), max(k1, k2)) + 1
        ra = lax.resolvent(a, depth)
        rb = lax.resolvent(b, depth)
        val = DiffPoly.zero()
        for p in range(-pmax_b - sigma, -k1 * n_tw):
            weight = -k1 * n_tw - p
            va = ra.coefficient(p)
            vb = rb.coefficient(-p - sigma)
            val = val + real.alg.pair_vec(va, vb) * weight
        ct = _counterterm_coefficient(real, a, b, k1, k2)
        if ct:
            val = val - DiffPoly.const(ct)
        if variables == "q":
            val = to_invariant_coordinates(self.canform, val)
        return val


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
    out = []
    for (i, j, k) in triples:
        lhs = flows[i].apply(omega.entry(j, k))
        rhs = flows[k].apply(omega.entry(i, j))
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
