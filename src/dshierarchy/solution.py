"""Formal-in-time solutions and two-point values of the tau-structure.

A solution is a Taylor series in the flow times with coefficients that are
exact Laurent polynomials in 1 - x (``ratfunc.RatFunc``), layered by powers
of eps.  Every coefficient along it is read one way, ``FormalSolution.taylor``:
for a graded series p, d^I p / dt^I at t = 0 is D^I p, the flow of the first
label of I applied to D^{I - e_first} p, then evaluated at the initial data by
one ``DiffPoly.substitute`` over the solution's one ``JetMap(initial)`` per
eps power.  This serves the coefficients of u, the two-point values Omega_{i;j}
along the solution and both sides of the flow equations.

Why D^I at t = 0 is exact at |I| <= T and eps^q, q <= K: along a solution
d/dt_j p(u) = D_j p(u), and the flows commute exactly (verified before
integrating), so their graded pieces commute degree by degree and every order
of application gives one D^I p.  Products and d_x never lower a t-degree, so
the coefficients of p(u) at |I| <= T read only the coefficients of u at
|I| <= T, which are computed; the graded flows never lower an eps power, and
the truncation at eps^K is an ideal, so the eps^q parts read only parts that
are kept.  Nothing is truncated that a kept coefficient needs.

The flows act by their graded form, ``Derivation.graded``, the one place that
places a flow's degree-d part at eps^(d-1).  The gBGW initial data read the
exponents of the gauge subspace from ``LoopRealization.v_degrees``, stored when
the realization checks that subspace.

The cross-derivative compatibility of the values against the distinguished
flow is the exactness condition for a log of a tau-function to exist.
``two_point_functions`` evaluates each distinct entry once: Omega is
symmetric, so an entry and its transpose share one value, which no reader
mutates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .certify import verify_integrability
from .diffalg import Derivation, DiffPoly, EpsSeries, JetMap
from .hierarchy import FlowLabel, OmegaTable
from .ratfunc import RatFunc

TIndex = tuple[int, ...]


class NonCommutingFlowsError(ValueError):
    pass


def _multinomial_factor(exps: TIndex) -> Fraction:
    f = 1
    for e in exps:
        for i in range(2, e + 1):
            f *= i
    return Fraction(1, f)


def _raised(exps: TIndex, j: int) -> TIndex:
    """The multi-index exps + e_j."""
    return exps[:j] + (exps[j] + 1,) + exps[j + 1:]


class FormalSolution:
    """Taylor-in-time solution with Laurent-in-(1 - x) coefficients, per eps power.

    ``coeffs[(alpha, I)]`` is d^I u_alpha / dt^I at t = 0 for |I| <= T, one
    RatFunc per eps power through eps^K; the Taylor coefficient of t^I is
    that over I!.
    """

    def __init__(self, flows: Mapping[FlowLabel, Derivation], initial: Sequence[RatFunc],
                 T: int, K: int):
        self.labels = tuple(flows)
        self.T = T
        self.K = K
        self.initial = tuple(initial)
        self.derivations = [f.graded(K) for f in flows.values()]
        self.jets = JetMap(self.initial)   # the one jet map at t = 0
        self.coeffs = {(alpha, exps): per_eps
                       for alpha in range(1, len(self.initial) + 1)
                       for exps, per_eps in self.taylor(EpsSeries.var(alpha, K), T).items()}

    def taylor(self, p: EpsSeries, T: int) -> dict[TIndex, tuple[RatFunc, ...]]:
        """{I: d^I p / dt^I at t = 0, per eps power} along the solution, for |I| <= T.

        D^I p is the flow of the first label of I applied to D^{I - e_first} p,
        then read at t = 0 by one substitution of the initial jets per eps
        power.  T < 0 gives no index.
        """
        if T < 0:
            return {}
        derivs = self.derivations
        zero = (0,) * len(derivs)
        polys = {zero: p}
        layer = [zero]   # the indices of one total t-degree
        for _ in range(T):
            grown = []
            for exps in layer:
                # exps + e_j has first label j for every j up to exps' own first
                top = next((i for i, e in enumerate(exps) if e), len(exps) - 1)
                for j in range(top + 1):
                    cand = _raised(exps, j)
                    polys[cand] = derivs[j](polys[exps])
                    grown.append(cand)
            layer = grown
        jets = self.jets
        return {exps: tuple(c.substitute(jets) for c in s.components)
                for exps, s in polys.items()}


def integrate_formal(flows: Mapping[FlowLabel, Derivation], initial: Sequence[RatFunc],
                     t_degree: int, eps_order: int) -> FormalSolution:
    """Iterated-flow Taylor solution with the given initial data at t = 0.

    Flows must commute, which is checked.  The initial data are Laurent
    polynomials in 1 - x (``ratfunc.RatFunc``), so they are regular at the
    expansion point x = 0 by construction.  The coefficients are
    ``FormalSolution.taylor`` of each u_alpha.
    """
    ell = len(initial)
    for f in flows.values():
        if len(f.chars) != ell:
            raise ValueError("flow arity does not match the initial data")
    if not all(r["residual_zero"] for r in verify_integrability(flows)):
        raise NonCommutingFlowsError("flows do not commute; refusing to integrate")
    return FormalSolution(flows, initial, t_degree, eps_order)


def two_point_functions(sol: FormalSolution, omega: OmegaTable,
                        one: FlowLabel = (1, 0)) -> dict:
    """Two-point values along the solution plus the compatibility report.

    ``values[(i, j)]`` maps (I, q) to the nonzero coefficient of t^I eps^q in
    Omega_{i;j}(u(t)), the entry regraded at shift 0.  The report checks, for
    |I| <= T-1, that D^{I+e_i} Omega_{one;j} equals D^{I+e_j} Omega_{one;i}
    at t = 0: d_{t_i} of the value of Omega_{one;j} equals d_{t_j} of the
    value of Omega_{one;i}, the closedness needed for the second
    log-derivatives to integrate to a tau-function.
    """
    if one not in sol.labels:
        raise ValueError(f"two-point functions need the flow {one} among the "
                         f"solution's flows, got {list(sol.labels)}")
    # memoised on the entry: Omega is symmetric, so (i, j) and (j, i) share one
    # value, and a corrupted entry never shares its transpose's
    evaluated: dict[DiffPoly, tuple[dict, dict]] = {}
    derivatives: dict[tuple[FlowLabel, FlowLabel], dict] = {}
    values: dict[tuple[FlowLabel, FlowLabel], dict] = {}
    for i in sol.labels:
        for j in sol.labels:
            entry = omega.entry(i, j)
            got = evaluated.get(entry)
            if got is None:
                taylor = sol.taylor(EpsSeries.regrade(entry, sol.K), sol.T)
                scaled = {}
                for exps, per_eps in taylor.items():
                    norm = _multinomial_factor(exps)
                    scaled.update(((exps, q), v * norm)
                                  for q, v in enumerate(per_eps) if not v.is_zero())
                got = evaluated[entry] = (taylor, scaled)
            derivatives[(i, j)], values[(i, j)] = got
    lower = [exps for exps in derivatives[(one, one)] if sum(exps) < sol.T]
    report = []
    for a, i in enumerate(sol.labels):
        for b, j in enumerate(sol.labels):
            lhs, rhs = derivatives[(one, j)], derivatives[(one, i)]
            report.append({
                "check": "two_point_cross_derivative",
                "pair": [list(i), list(j)],
                "residual_zero": all(lhs[_raised(exps, a)] == rhs[_raised(exps, b)]
                                     for exps in lower),
            })
    return {"values": values, "cross_derivatives": report}


def flow_equation_report(sol: FormalSolution,
                         flows: Mapping[FlowLabel, Derivation]) -> list[dict]:
    """d u / d t_j equals the flow characteristic along the solution (to T-1).

    For |I| <= T-1 the coefficient D^{I+e_j} u_alpha is compared with D^I of
    the graded characteristic of flow j, both at t = 0.
    """
    out = []
    for b, j in enumerate(sol.labels):
        chars = flows[j].graded(sol.K).chars
        for alpha in range(1, len(sol.initial) + 1):
            rhs = sol.taylor(chars[alpha - 1], sol.T - 1)
            out.append({
                "check": "flow_equation",
                "label": list(j),
                "component": alpha,
                "residual_zero": all(sol.coeffs[(alpha, _raised(exps, b))] == v
                                     for exps, v in rhs.items()),
            })
    return out


def gbgw_initial(real, constants: Sequence[Fraction]) -> list[RatFunc]:
    """Generalized BGW initial data: u_a(x, 0) = C_a / (1 - x)^{m'_a + 1}.

    m'_a is minus the principal degree of the a-th gauge-subspace vector,
    which the loop realization stores when it checks them (``v_degrees``).
    """
    if len(constants) != real.ell:
        raise ValueError(f"need {real.ell} constants, got {len(constants)}")
    return [RatFunc({d - 1: c}) for d, c in zip(real.v_degrees, constants)]
