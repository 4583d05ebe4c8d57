"""The series route along a formal solution, as a reference.

The program reads every Taylor coefficient along a solution as D^I at t = 0
(``FormalSolution.taylor``).  This module computes the same objects by series
arithmetic instead: each u_alpha becomes a truncated series in the flow times
and eps (``TSeries``), and a graded polynomial is evaluated on those series
through ``DiffPoly.substitute`` over a ``JetMap`` of them.  Derivatives in the
times are read off the series.  Both routes must agree exactly; the tests
assert that they do.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Mapping

from dshierarchy.diffalg import DiffPoly, EpsSeries, JetMap, _power
from dshierarchy.ratfunc import RatFunc

TIndex = tuple[int, ...]


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
        return cls(nlabels, T, K, {((0,) * nlabels, 0): value})

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
        return TSeries(self.nlabels, self.T, self.K, {k: -v for k, v in self.data.items()})

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

    @staticmethod
    def dot(pairs) -> "TSeries":
        """The sum of a * b over the pairs (the sum ``DiffPoly.substitute`` asks for)."""
        out = None
        for a, b in pairs:
            out = a * b if out is None else out + a * b
        return out

    def __pow__(self, n: int) -> "TSeries":
        return _power(TSeries.const(self.nlabels, self.T, self.K, RatFunc.const(1)), self, n)

    def eps_shift(self, q: int) -> "TSeries":
        return TSeries(self.nlabels, self.T, self.K,
                       {(e, qq + q): v for (e, qq), v in self.data.items()})

    def dx(self) -> "TSeries":
        return TSeries(self.nlabels, self.T, self.K, {k: v.dx() for k, v in self.data.items()})

    def dt(self, j: int) -> "TSeries":
        """Derivative in the j-th time (0-based label position)."""
        out: dict[tuple[TIndex, int], RatFunc] = {}
        for (exps, q), v in self.data.items():
            e = exps[j]
            if e:
                out[(exps[:j] + (e - 1,) + exps[j + 1:], q)] = v * e
        return TSeries(self.nlabels, self.T, self.K, out)

    def truncate_t(self, T: int) -> "TSeries":
        return TSeries(self.nlabels, T, self.K,
                       {k: v for k, v in self.data.items() if sum(k[0]) <= T})

    def coefficient(self, exps: TIndex, q: int) -> RatFunc:
        return self.data.get((tuple(exps), q), RatFunc.const(0))


def series(sol, alpha: int) -> TSeries:
    """u_alpha along the solution: sum over I of coeffs[(alpha, I)] t^I / I!."""
    data = {}
    for (a, exps), per_eps in sol.coeffs.items():
        if a == alpha:
            norm = Fraction(1, prod(factorial(e) for e in exps))
            data.update(((exps, q), v * norm) for q, v in enumerate(per_eps))
    return TSeries(len(sol.labels), sol.T, sol.K, data)


def solution_jets(sol) -> JetMap:
    """The jets d^m u_alpha along the solution, as series."""
    return JetMap([series(sol, a) for a in range(1, len(sol.initial) + 1)])


def evaluate_graded(p: DiffPoly, sol, jets: JetMap, shift: int) -> TSeries:
    """p along the solution, its degree-d part placed at eps^(d + shift)."""
    out = TSeries(len(sol.labels), sol.T, sol.K)
    for q, comp in enumerate(EpsSeries.regrade(p, sol.K, shift=shift).components):
        if comp:
            out = out + comp.substitute(jets).eps_shift(q)
    return out


def two_point(sol, omega, one=(1, 0)):
    """Every entry evaluated on its own, and the cross-derivative report on those values.

    The values are the ``data`` of the series, the form ``two_point_functions``
    returns.
    """
    jets = solution_jets(sol)
    values = {(i, j): evaluate_graded(omega[i, j], sol, jets, 0)
              for i in sol.labels for j in sol.labels}
    report = []
    for a, i in enumerate(sol.labels):
        for b, j in enumerate(sol.labels):
            lhs = values[(one, j)].dt(a).truncate_t(sol.T - 1)
            rhs = values[(one, i)].dt(b).truncate_t(sol.T - 1)
            report.append({"check": "two_point_cross_derivative",
                           "pair": [list(i), list(j)],
                           "residual_zero": (lhs - rhs).is_zero()})
    return {key: s.data for key, s in values.items()}, report


def flow_equation_report(sol, flows):
    """d u / d t_j against each characteristic evaluated at the full t-degree T, cut to T-1."""
    jets = solution_jets(sol)
    tcut = sol.T - 1
    out = []
    for b, j in enumerate(sol.labels):
        for alpha in range(1, len(sol.initial) + 1):
            lhs = jets(alpha, 0).dt(b).truncate_t(tcut)
            rhs = evaluate_graded(flows[j].chars[alpha - 1], sol, jets, -1)
            out.append({"check": "flow_equation", "label": list(j), "component": alpha,
                        "residual_zero": (lhs - rhs.truncate_t(tcut)).is_zero()})
    return out
