"""Formal-in-time solutions and two-point values of the tau-structure.

A solution is a Taylor series in the flow times with coefficients that are
exact rational functions of x, layered by powers of eps.  The Taylor
coefficient at a time multi-index I is the iterated flow derivative of the
initial data, taken in one order: the flows commute exactly, which is
verified before integrating, so the order of application does not matter.

Evaluating a tau-structure entry along a solution gives its two-point value.
Both evaluations are ``DiffPoly.substitute`` over a jet map: the Taylor
coefficients over ``JetMap(initial)`` (jets in ``RatFunc``), the values over
``FormalSolution.jets``, the x-derivatives of the running series (``TSeries``),
which every evaluation along one solution shares.  The cross-derivative
compatibility of the values against the distinguished flow is the exactness
condition for a log of a tau-function to exist.

A product of two series collects the term products of each output coefficient
and sums them with one ``RatFunc.dot``, so each coefficient is reduced once
per distinct denominator rather than once per term.  ``two_point_functions``
evaluates each distinct entry once: Omega is symmetric, so an entry and its
transpose share one value, which no reader mutates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Mapping, Sequence

from .diffalg import DiffPoly, EpsSeries, JetMap, _power
from .hierarchy import Flow, FlowLabel, OmegaTable, verify_integrability
from .ratfunc import RatFunc

TIndex = tuple[int, ...]


class PoleAtExpansionPointError(ValueError):
    pass


class NonCommutingFlowsError(ValueError):
    pass


def _multinomial_factor(exps: TIndex) -> Fraction:
    f = 1
    for e in exps:
        for i in range(2, e + 1):
            f *= i
    return Fraction(1, f)


class TSeries:
    """Series in the flow times and eps, truncated at total t-degree T, eps^K."""

    __slots__ = ("nlabels", "T", "K", "data")

    def __init__(self, nlabels: int, T: int, K: int,
                 data: Mapping[tuple[TIndex, int], RatFunc] | None = None):
        self.nlabels = nlabels
        self.T = T
        self.K = K
        clean: dict[tuple[TIndex, int], RatFunc] = {}
        if data:
            for (exps, q), v in data.items():
                if sum(exps) <= T and q <= K and not v.is_zero():
                    clean[(tuple(exps), q)] = v
        self.data = clean

    @classmethod
    def const(cls, nlabels: int, T: int, K: int, value: RatFunc) -> "TSeries":
        zero_exp = tuple([0] * nlabels)
        return cls(nlabels, T, K, {(zero_exp, 0): value})

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return (self.nlabels, self.T, self.K) == (other.nlabels, other.T, other.K) \
            and self.data == other.data

    def __add__(self, other: "TSeries") -> "TSeries":
        out = dict(self.data)
        for key, v in other.data.items():
            got = out.get(key)
            s = v if got is None else got + v
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return TSeries(self.nlabels, self.T, self.K, out)

    def __neg__(self) -> "TSeries":
        return TSeries(self.nlabels, self.T, self.K,
                       {k: -v for k, v in self.data.items()})

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, (int, Fraction, RatFunc)):
            return TSeries(self.nlabels, self.T, self.K,
                           {k: v * other for k, v in self.data.items()})
        T, K = self.T, self.K
        right = [(e2, sum(e2), q2, v2) for (e2, q2), v2 in other.data.items()]
        pairs: dict[tuple[TIndex, int], list] = {}
        for (e1, q1), v1 in self.data.items():
            t1 = sum(e1)
            for e2, t2, q2, v2 in right:
                if q1 + q2 <= K and t1 + t2 <= T:
                    key = (tuple(map(add, e1, e2)), q1 + q2)
                    pairs.setdefault(key, []).append((v1, v2))
        return TSeries(self.nlabels, self.T, self.K,
                       {key: RatFunc.dot(p) for key, p in pairs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TSeries":
        return _power(TSeries.const(self.nlabels, self.T, self.K, RatFunc.const(1)),
                      self, n)

    def eps_shift(self, q: int) -> "TSeries":
        return TSeries(self.nlabels, self.T, self.K,
                       {(e, qq + q): v for (e, qq), v in self.data.items()})

    def dx(self) -> "TSeries":
        return TSeries(self.nlabels, self.T, self.K,
                       {k: v.dx() for k, v in self.data.items()})

    def dt(self, j: int) -> "TSeries":
        """Derivative in the j-th time (0-based label position)."""
        out: dict[tuple[TIndex, int], RatFunc] = {}
        for (exps, q), v in self.data.items():
            e = exps[j]
            if e == 0:
                continue
            new = list(exps)
            new[j] = e - 1
            out[(tuple(new), q)] = v * e
        return TSeries(self.nlabels, self.T, self.K, out)

    def truncate_t(self, T: int) -> "TSeries":
        return TSeries(self.nlabels, T, self.K,
                       {k: v for k, v in self.data.items() if sum(k[0]) <= T})

    def coefficient(self, exps: TIndex, q: int) -> RatFunc:
        return self.data.get((tuple(exps), q), RatFunc.const(0))


class FormalSolution:
    """Taylor-in-time solution with rational-in-x coefficients, per eps power."""

    def __init__(self, labels: tuple[FlowLabel, ...], T: int, K: int,
                 initial: tuple[RatFunc, ...],
                 coeffs: dict[tuple[int, TIndex], tuple[RatFunc, ...]]):
        self.labels = labels
        self.T = T
        self.K = K
        self.initial = initial
        self.coeffs = coeffs  # (alpha, I) -> per-eps

    def series(self, alpha: int) -> TSeries:
        data: dict[tuple[TIndex, int], RatFunc] = {}
        for (a, exps), per_eps in self.coeffs.items():
            if a != alpha:
                continue
            norm = _multinomial_factor(exps)
            for q, v in enumerate(per_eps):
                if not v.is_zero():
                    data[(exps, q)] = v * norm
        return TSeries(len(self.labels), self.T, self.K, data)

    def truncate_t(self, T: int) -> "FormalSolution":
        """The same solution at t-degree T <= self.T, with jets of its own."""
        return FormalSolution(self.labels, T, self.K, self.initial,
                              {key: v for key, v in self.coeffs.items() if sum(key[1]) <= T})

    @cached_property
    def jets(self) -> JetMap:
        """The jets d^m u_alpha along the solution, shared by every evaluation."""
        return JetMap([self.series(a) for a in range(1, len(self.initial) + 1)])


def integrate_formal(flows: Sequence[Flow], initial: Sequence[RatFunc],
                     t_degree: int, eps_order: int) -> FormalSolution:
    """Iterated-flow Taylor solution with the given initial data at t = 0.

    Flows must commute and initial data must be regular at the expansion
    point x = 0; both are checked.  Each Taylor coefficient is computed in
    one order: the flow of the first label in I applied to the coefficient
    one below.  The flows commute exactly (``verify_integrability``), so
    their graded pieces commute degree by degree, and the eps-truncation is
    an ideal, so every order gives the same truncated coefficient.
    """
    flows = list(flows)
    labels = tuple(f.label for f in flows)
    ell = len(initial)
    for f in flows:
        if len(f.chars) != ell:
            raise ValueError("flow arity does not match the initial data")
    if not all(r["residual_zero"] for r in verify_integrability(flows)):
        raise NonCommutingFlowsError("flows do not commute; refusing to integrate")
    for f0 in initial:
        if f0.has_pole_at_zero():
            raise PoleAtExpansionPointError(
                "initial data has a pole at the expansion point x = 0")

    derivs = [f.derivation(eps_order) for f in flows]
    nflows = len(flows)
    zero_idx = tuple([0] * nflows)

    polys: dict[tuple[int, TIndex], EpsSeries] = {}
    for alpha in range(1, ell + 1):
        polys[(alpha, zero_idx)] = EpsSeries.var(alpha, eps_order)
    layer = [zero_idx]   # the indices of one total t-degree, in order
    for _ in range(t_degree):
        new = []
        for exps in layer:
            for j in range(nflows):
                cand = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
                if (1, cand) in polys:
                    continue
                first = next(i for i, e in enumerate(cand) if e)
                prev = cand[:first] + (cand[first] - 1,) + cand[first + 1:]
                for alpha in range(1, ell + 1):
                    polys[(alpha, cand)] = derivs[first](polys[(alpha, prev)])
                new.append(cand)
        layer = new

    jets = JetMap(initial)
    coeffs = {key: tuple(c.substitute(jets) for c in s.components)
              for key, s in polys.items()}
    return FormalSolution(labels, t_degree, eps_order, tuple(initial), coeffs)


def _evaluate_graded(p: DiffPoly, sol: FormalSolution, shift: int) -> TSeries:
    """Evaluate p along the solution, its degree-d part placed at eps^(d+shift)."""
    out = TSeries(len(sol.labels), sol.T, sol.K)
    for q, comp in enumerate(EpsSeries.regrade(p, sol.K, shift=shift).components):
        if comp:
            out = out + comp.substitute(sol.jets).eps_shift(q)
    return out


def evaluate_on_solution(entry: DiffPoly, sol: FormalSolution) -> TSeries:
    """Two-point value: evaluate a graded entry along the solution."""
    return _evaluate_graded(entry, sol, 0)


def evaluate_flow_char(char: DiffPoly, sol: FormalSolution) -> TSeries:
    """Evaluate a flow characteristic (graded with dispersionless at eps^0)."""
    return _evaluate_graded(char, sol, -1)


def two_point_functions(sol: FormalSolution, omega: OmegaTable,
                        one: FlowLabel = (1, 0)) -> dict:
    """Two-point values along the solution plus the compatibility report.

    Checks, through t-degree T-1, that d_{t_i} of the value of
    Omega_{one; j} equals d_{t_j} of the value of Omega_{one; i}: the
    closedness needed for the second log-derivatives to integrate to a
    tau-function.  Also re-checks the flow equations on the coefficients.
    """
    if one not in sol.labels:
        raise ValueError(f"two-point functions need the flow {one} among the "
                         f"solution's flows, got {list(sol.labels)}")
    # evaluations memoised on the entry: Omega is symmetric, so (i, j) and
    # (j, i) share one value, and a corrupted entry never shares its transpose's
    evaluated: dict[DiffPoly, TSeries] = {}
    values: dict[tuple[FlowLabel, FlowLabel], TSeries] = {}
    for i in sol.labels:
        for j in sol.labels:
            entry = omega.entry(i, j)
            got = evaluated.get(entry)
            if got is None:
                got = evaluated[entry] = evaluate_on_solution(entry, sol)
            values[(i, j)] = got
    report = []
    tcut = sol.T - 1
    for a, i in enumerate(sol.labels):
        for b, j in enumerate(sol.labels):
            lhs = values[(one, j)].dt(a).truncate_t(tcut)
            rhs = values[(one, i)].dt(b).truncate_t(tcut)
            report.append({
                "check": "two_point_cross_derivative",
                "pair": [list(i), list(j)],
                "residual_zero": (lhs - rhs).is_zero(),
            })
    return {"values": values, "cross_derivatives": report}


def flow_equation_report(sol: FormalSolution, flows: Sequence[Flow]) -> list[dict]:
    """d u / d t_j equals the flow characteristic along the solution (to T-1).

    Both sides are compared at t-degree T-1, so the characteristics are
    evaluated on the solution truncated there: t-degrees add under products
    and d_x keeps them, so the parts of degree <= T-1 are exact.
    """
    by_label = {f.label: f for f in flows}
    out = []
    tcut = sol.T - 1
    low = sol.truncate_t(tcut)
    for b, j in enumerate(sol.labels):
        f = by_label[j]
        for alpha in range(1, len(sol.initial) + 1):
            lhs = sol.jets(alpha, 0).dt(b).truncate_t(tcut)
            rhs = evaluate_flow_char(f.chars[alpha - 1], low)
            out.append({
                "check": "flow_equation",
                "label": list(j),
                "component": alpha,
                "residual_zero": (lhs - rhs).is_zero(),
            })
    return out


def gbgw_initial(real, constants: Sequence[Fraction]) -> list[RatFunc]:
    """Generalized BGW initial data: u_a(x, 0) = C_a / (1 - x)^{m'_a + 1}."""
    from .kacmoody import LoopElement
    out = []
    if len(constants) != real.ell:
        raise ValueError(f"need {real.ell} constants, got {len(constants)}")
    one_minus_x = 1 - RatFunc.x()
    for alpha, v in enumerate(real.v_basis):
        elt = LoopElement.from_vector(real, 0, real.poly_vector(v))
        m_a = -elt.principal_degree()
        out.append(Fraction(constants[alpha]) * one_minus_x ** -(m_a + 1))
    return out
