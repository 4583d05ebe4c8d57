"""Drinfeld-Sokolov flows and tau-structure table.

Flows and the tau-structure are both computed on the canonical-form operator
L_can = d + Lambda + q_u, whose generators are the canonical coordinates
u_1..u_ell.  The flow D_{a,k} acts by

    D_{a,k}(L_can) = [(lambda^{k N} R_{m_a})_+ + theta, L_can],

with N the twist order, R_{m_a} the basic resolvent of L_can and theta the
unique n-valued compensator that makes the right-hand side V-valued
(Drinfeld-Sokolov);
theta is solved one principal degree at a time by
``LoopRealization.v_valued``, and the V-coordinates of the right-hand side
are the characteristics, already in the u-jets.  For D_{1,0} the recursion
gives theta = q_u - b and the right-hand side -d(q_u), so D_{1,0} = -d.
The tau-structure entry Omega_{a,k1;b,k2} is the coefficient of
lambda^{-k1 N-1} mu^{-k2 N-1} of the
two-variable resolvent pairing (R_a(lambda)|R_b(mu))/(lambda-mu)^2, expanded
in |mu| < |lambda|, minus a rational counterterm that normalizes the diagonal
(Bertola, Dubrovin and Yang 2016).  The counterterm has no such coefficient:
each of its two pieces needs a mu power >= 0, and the entry reads
mu^{-k2 N-1}.  So every entry is one weighted pairing sum,

    Omega_{a,k1;b,k2} = sum_{p >= 1-k1 N} (p + k1 N) *
                        (R_a[p] | R_b[-p-(k1+k2)N]).

With p' = p + k1 N this is the lambda^{-k2 N} coefficient of the loop pairing

    (lambda d/dlambda (lambda^{k1 N} R_a)_+ | R_b),

so one ``LoopElement.pair`` gives the entries for every k2.  Each R_a is
solved only as deep as the table reads it (``DSHierarchy.table_resolvents``).

Resolvents are gauge covariant, so the Borel-variable operator followed by
the certified rewrite to the u-jets gives the same flows and entries; that
route is kept in the tests as a reference.

A flow is a ``diffalg.Derivation`` over plain u-jet characteristics,
kept by its label.  The proofs that read only flows and the table live in
``certify``; ``verify_gauge_invariance`` stays here, as it needs the gauge
map, and its argument is in its docstring.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable

# perfbench/traced_job.py wraps these proofs under their hierarchy names
from .certify import tau_coordinate_check, verify_integrability, verify_tau_symmetry
from .diffalg import Derivation, DiffPoly
from .kacmoody import LoopElement, LoopRealization, build_algebra
from .linalg import InconsistentSystemError
from .resolvent import DepthError, LaxOperator, Resolvent, flow_depth

if TYPE_CHECKING:  # at run time, only the members that use gauge import it
    from .gauge import CanonicalForm, GaugeHomomorphism

FlowLabel = tuple[int, int]


def _check_label(real: LoopRealization, label: FlowLabel) -> FlowLabel:
    a, k = label
    if not (1 <= a <= real.n):
        raise ValueError(f"flow family index {a} out of range 1..{real.n}")
    if k < 0:
        raise ValueError("flow index k must be >= 0")
    return (a, k)


class OmegaTable:
    """Tau-structure entries indexed by pairs of flow labels, in u-jets."""

    def __init__(self, entries: dict[tuple[FlowLabel, FlowLabel], DiffPoly],
                 max_a: int, max_k: int):
        self.entries = entries
        self.max_a = max_a
        self.max_k = max_k

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

    def has_nonconstant_entry(self) -> bool:
        return any(not v.dx().is_zero() for v in self.entries.values())


class DSHierarchy:
    """A Drinfeld-Sokolov hierarchy for one affine type and marked vertex.

    Builds the loop realization and the canonical-form Lax operator that
    flows and tau-structure tables are computed from (on demand, each
    resolvent solved to the depth its reader needs).  The Borel side, the
    Borel-variable operator ``lax_q`` and its canonical gauge data
    ``canform``, is built on first read: only the gauge-invariance check,
    ``gauge-fix`` and ``resolvent`` dumps read it.  Only the Borel side
    imports ``gauge``; flows solve their compensator in the realization's
    Borel frame (``LoopRealization.v_valued``), so ``derive``, ``omega``,
    ``resolvent`` and ``solve`` never compile it.
    ``omega_max_k`` is the default ``max_k`` of ``omega_table``.
    """

    def __init__(self, type_name: str, vertex: int = 0,
                 max_flow_k: int = 2, omega_max_k: int = 2):
        # max_flow_k sizes nothing: every flow solves its resolvent to its own
        # depth.  It is still accepted, as callers pass it.
        self.real = build_algebra(type_name, vertex)
        self.omega_max_k = omega_max_k
        self.lax_u = LaxOperator(self.real, "canonical")
        self._hom: GaugeHomomorphism | None = None
        self._flows: dict[FlowLabel, Derivation] = {}
        self._omega: dict[tuple, OmegaTable] = {}

    @cached_property
    def lax_q(self) -> LaxOperator:
        return LaxOperator(self.real, "borel")

    @cached_property
    def canform(self) -> CanonicalForm:
        from .gauge import canonical_form
        return canonical_form(self.lax_q)

    @property
    def ell(self) -> int:
        return self.real.ell

    def gauge_homomorphism(self) -> GaugeHomomorphism:
        if self._hom is None:
            from .gauge import GaugeHomomorphism
            self._hom = GaugeHomomorphism(self.lax_q)
        return self._hom

    # -- flows -------------------------------------------------------------
    def flow(self, label: FlowLabel) -> Derivation:
        """The flow D_{a,k} on the canonical coordinates, in u-jets."""
        label = _check_label(self.real, label)
        got = self._flows.get(label)
        if got is not None:
            return got
        a, k = label
        depth = flow_depth(self.real, a, k)
        x = self.lax_u.resolvent(a, depth).shifted_plus(k)
        flow = Derivation(self._compensate(label, x)[2])
        self._flows[label] = flow
        return flow

    def flows(self, labels: Iterable[FlowLabel]) -> dict[FlowLabel, Derivation]:
        return {tuple(l): self.flow(tuple(l)) for l in labels}

    def _compensate(self, label: FlowLabel, x: LoopElement):
        """(theta, psi, chars): psi = [x + theta, L_can] is V-valued.

        psi = [x + theta, Lambda + q_u] - d(x + theta), read as
        -``LaxOperator.bracket_with``(x + theta), the one action of L_can.
        theta is the unique n-valued compensator and chars are the
        V-coordinates of psi.  psi must be a Borel-valued lambda^0 element; the
        error names the flow label and the identity when it is not.
        """
        act = self.lax_u.bracket_with
        phi = -act(x)

        def residual(theta: LoopElement) -> LoopElement:
            return phi - act(theta)

        theta = self.real.v_valued(residual)
        psi = residual(theta)
        where = f"flow {label}: [X + theta, L_can] - d(X + theta)"
        if any(p != 0 for p in psi.lambda_powers()):
            raise RuntimeError(
                f"{where} has lambda powers {psi.lambda_powers()}, not only 0")
        try:
            coords = self.real.borel_coords(psi)
        except InconsistentSystemError as exc:
            raise RuntimeError(f"{where} is not Borel-valued") from exc
        if any(not c.is_zero() for c in coords[self.ell:]):
            raise RuntimeError(f"{where} is not V-valued")
        return theta, psi, tuple(coords[: self.ell])

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
    def table_resolvents(self, max_a: int, max_k: int) -> dict[int, Resolvent]:
        """{a: R_a} for a <= max_a, each solved to depth m_a + F, as deep as ``omega_table`` reads.

        Write N for the principal degree of lambda and sigma = (k1 + k2) n_tw.
        The form pairs x_i with x_j only if pdeg_i + pdeg_j = 0, by ad rho
        invariance, (pdeg_i + pdeg_j)(x_i|x_j) = 0.  So the lambda^p x_i part
        of R_a, at degree d = p N + pdeg_i, meets only the part of R_b at
        degree -sigma N - d, and R_b has no slice above m_b: R_a is read down
        to degree -(m_b + sigma N) and no further.  Over the table that is one
        floor for every resolvent, degree -F with F = m_max_a + 2 max_k n_tw N.
        Below the floor ``Resolvent.element`` misses parts of its lambda
        vectors, and they pair with zero.  New views on every call, as
        ``omega`` drops the slices once the table is read.
        """
        real = self.real
        floor = max(real.exponents[:max_a]) + 2 * max_k * real.twist_order * real.deg_lambda
        return {a: self.lax_u.resolvent(a, m + floor)
                for a, m in enumerate(real.exponents[:max_a], 1)}

    def omega_table(self, max_a: int | None = None,
                    max_k: int | None = None) -> OmegaTable:
        """Tau-structure table for labels (a, k), a in 1..max_a, k in 0..max_k.

        Read off the resolvents of ``table_resolvents`` for the canonical-form
        operator, so the entries come out directly in u-jets.  Each entry is
        the weighted pairing sum of the module docstring and nothing else:
        the counterterm's two pieces need a mu power >= 0, and the entry
        reads mu^{-k2 n_tw - 1}.  Entry (a, k1; b, k2) is the lambda^{-k2 n_tw}
        coefficient of (lambda d/dlambda (lambda^{k1 n_tw} R_a)_+ | R_b): the
        weighted element keeps the powers p + k1 n_tw >= 1 of R_a, re-keyed
        and scaled by p + k1 n_tw, and one ``LoopElement.pair`` from
        lambda^{-max_k n_tw} up gives the row k2 = 0..max_k.  Not
        ``Resolvent.shifted_plus``: it needs lambda^0 complete, and the
        weight kills that power.
        """
        real = self.real
        if max_a is None:
            max_a = real.n
        if max_k is None:
            max_k = self.omega_max_k
        if not (1 <= max_a <= real.n):
            raise ValueError(f"max_a {max_a} out of range 1..{real.n}")
        if max_k < 0:
            raise ValueError("max_k must be >= 0")
        key = (max_a, max_k)
        got = self._omega.get(key)
        if got is not None:
            return got
        n_tw = real.twist_order
        resolvents = self.table_resolvents(max_a, max_k)
        entries: dict[tuple[FlowLabel, FlowLabel], DiffPoly] = {}
        for a, ra in resolvents.items():
            for k1 in range(max_k + 1):
                shift = k1 * n_tw
                w = LoopElement(real, {(p + shift, i): c * (p + shift)
                                       for (p, i), c in ra.element.coeffs.items()
                                       if p + shift >= 1})
                for b, rb in resolvents.items():
                    row = w.pair(rb.element, -max_k * n_tw)
                    for k2 in range(max_k + 1):
                        entries[((a, k1), (b, k2))] = row.get(-k2 * n_tw, DiffPoly.zero())
        for (i, j), val in entries.items():
            if val != entries[(j, i)]:
                raise RuntimeError(
                    f"tau-structure symmetry broken at {(i, j)}; engine bug")
        table = OmegaTable(entries, max_a, max_k)
        if not table.has_nonconstant_entry():
            raise RuntimeError(
                "tau-structure is degenerate: every entry is constant")
        self._omega[key] = table
        return table


# -- gauge invariance of the table ---------------------------------------------

def verify_gauge_invariance(hierarchy: DSHierarchy,
                            omega: OmegaTable) -> list[dict]:
    """f(Omega) = Omega in the extended (q, S) ring, entry by entry.

    Every entry is a polynomial in the u-jets, and f is a differential ring
    map, so an entry is fixed by f once every jet d^m u_a(q) it uses is.
    f is substitution over a jet map, so it commutes with d, and
    f(d^m u_a) - d^m u_a = d^m(f(u_a) - u_a).  The kernel of d^m, m >= 1, is
    the constants.  So jet (a, m) is fixed iff f(u_a) = u_a, or m >= 1 and
    f(u_a) - u_a is a nonzero constant.  Each generator the table uses is
    decided once, in the q-ring, through its canonical coordinate
    expression, and f(u_a) - u_a is formed only for a generator f does not
    fix; an entry passes when all of its jets do.  The tests keep the
    per-jet route as the reference.
    """
    hom = hierarchy.gauge_homomorphism()
    jets = hierarchy.canform.jets
    used: set = set()
    for val in omega.entries.values():
        used |= val.variables()
    moved = {}  # a -> f(u_a) - u_a, for each generator f does not fix
    for a in sorted({a for a, _ in used}):
        if not hom.is_invariant(jets(a, 0)):
            moved[a] = hom.apply(jets(a, 0)) - jets(a, 0)
    fixed = {(a, m): a not in moved or (m >= 1 and moved[a].is_constant())
             for a, m in used}
    return [{
        "check": "omega_gauge_invariance",
        "pair": [list(i), list(j)],
        "residual_zero": all(fixed[v] for v in val.variables()),
    } for (i, j), val in sorted(omega.entries.items())]
