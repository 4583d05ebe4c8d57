import math
from fractions import Fraction

import pytest

from dshierarchy.diffalg import DiffPoly
from dshierarchy.hierarchy import Flow
from dshierarchy.ratfunc import RatFunc
from dshierarchy.solution import (NonCommutingFlowsError,
                                  PoleAtExpansionPointError, TSeries,
                                  evaluate_on_solution, flow_equation_report,
                                  gbgw_initial, integrate_formal,
                                  two_point_functions)

u = DiffPoly.var


def test_ratfunc_basics():
    x = RatFunc.x()
    one = RatFunc.const(1)
    q = RatFunc((1,), (1, -2, 1))          # 1/(1-x)^2
    assert q == (one - x) ** -2
    # d/dx 1/(1-x)^2 = 2/(1-x)^3
    assert q.dx() == RatFunc((2,), (1, -3, 3, -1))
    assert (q - q).is_zero()
    assert RatFunc((0,), (1,)).is_zero()
    # gcd reduction: (x^2-1)/(x-1) = x+1
    assert RatFunc((-1, 0, 1), (-1, 1)) == RatFunc((1, 1))


def test_gbgw_initial_data(sl2, sl3):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    assert init[0] == RatFunc((1,), (1, -2, 1))  # 1/(1-x)^2 for exponent 1
    init3 = gbgw_initial(sl3.real, [Fraction(2), Fraction(5)])
    assert init3[0] == RatFunc((2,), (1, -2, 1))
    assert init3[1] == RatFunc((5,), (1, -3, 3, -1))  # 5/(1-x)^3


def test_t_zero_echoes_initial(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    sol = integrate_formal([sl2.flow((1, 0))], init, t_degree=0, eps_order=1)
    assert sol.at_t_zero(1)[0] == init[0]


def test_translation_flow_taylor(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    sol = integrate_formal([sl2.flow((1, 0))], init, t_degree=3, eps_order=0)
    s = sol.series(1)
    d = init[0]
    for k in range(0, 4):
        assert s.coefficient((k,), 0) == d * Fraction((-1) ** k, math.factorial(k))
        d = d.dx()


def test_pole_at_expansion_point_rejected(sl2):
    bad = [RatFunc((1,), (0, 1))]  # 1/x
    with pytest.raises(PoleAtExpansionPointError):
        integrate_formal([sl2.flow((1, 0))], bad, 1, 0)


def test_noncommuting_flows_refused():
    f1 = Flow((1, 0), (u(1) ** 2,))
    f2 = Flow((1, 1), (u(1) ** 3,))
    with pytest.raises(NonCommutingFlowsError):
        integrate_formal([f1, f2], [RatFunc.const(1)], 2, 0)


def test_constant_solution_has_constant_two_point_values(sl2):
    init = [RatFunc.const(Fraction(3, 2))]
    flows = [sl2.flow((1, 0)), sl2.flow((1, 1))]
    sol = integrate_formal(flows, init, t_degree=2, eps_order=2)
    table = sl2.omega_table(1, 1)
    tp = two_point_functions(sol, table)
    for series in tp["values"].values():
        for (exps, q), val in series.data.items():
            if sum(exps) > 0:
                assert val.is_zero()


def test_gbgw_cross_derivatives_and_flow_equations(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    flows = [sl2.flow((1, 0)), sl2.flow((1, 1))]
    sol = integrate_formal(flows, init, t_degree=2, eps_order=2)
    table = sl2.omega_table(1, 1)
    tp = two_point_functions(sol, table)
    assert all(r["residual_zero"] for r in tp["cross_derivatives"])
    assert all(r["residual_zero"] for r in flow_equation_report(sol, flows))


def test_two_point_value_at_t_zero_matches_initial_evaluation(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    flows = [sl2.flow((1, 0)), sl2.flow((1, 1))]
    sol = integrate_formal(flows, init, t_degree=1, eps_order=1)
    table = sl2.omega_table(1, 1)
    val = evaluate_on_solution(table.entry((1, 0), (1, 0)), sol)
    # Omega_{1,0;1,0} = -u/2 evaluated at the initial data
    assert val.coefficient((0, 0), 0) == init[0] * Fraction(-1, 2)


def test_tseries_dt_and_truncation():
    s = TSeries(2, 2, 0, {((1, 1), 0): RatFunc.const(4)})
    dt0 = s.dt(0)
    assert dt0.coefficient((0, 1), 0) == RatFunc.const(4)
    assert s.truncate_t(1).is_zero()


def test_tseries_rejects_negative_powers():
    s = TSeries(1, 2, 0, {((1,), 0): RatFunc.const(2)})
    assert s ** 0 == TSeries.const(1, 2, 0, RatFunc.const(1))
    with pytest.raises(ValueError):
        s ** -1
