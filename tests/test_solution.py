import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import solution_route as ref
from dshierarchy.diffalg import Derivation, DiffPoly, EpsSeries, JetMap
from dshierarchy.hierarchy import OmegaTable
from dshierarchy.ratfunc import RatFunc
from dshierarchy.solution import (FormalSolution, NonCommutingFlowsError,
                                  flow_equation_report, gbgw_initial,
                                  integrate_formal, two_point_functions)
from jet_images import memoised_monomials, reference_substitute, snapshot
from reference_ops import at_t_zero
from solution_route import TSeries

u = DiffPoly.var


def test_ratfunc_basics():
    x = RatFunc.x()
    one = RatFunc.const(1)
    q = RatFunc({-2: 1})                   # 1/(1-x)^2
    assert q == (one - x) ** -2
    # d/dx 1/(1-x)^2 = 2/(1-x)^3
    assert q.dx() == RatFunc({-3: 2})
    assert (q - q).is_zero()
    assert RatFunc({0: 0}).is_zero()
    # (x^2-1)/(x-1) = x+1, printed in powers of x with no denominator
    assert (x * x - 1) * (x - 1) ** -1 == x + 1
    assert (x + 1).texts() == (["1", "1"], ["1"])


def test_gbgw_initial_data(sl2, sl3):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    assert init[0] == RatFunc({-2: 1})  # 1/(1-x)^2 for exponent 1
    init3 = gbgw_initial(sl3.real, [Fraction(2), Fraction(5)])
    assert init3[0] == RatFunc({-2: 2})
    assert init3[1] == RatFunc({-3: 5})  # 5/(1-x)^3


def test_t_zero_echoes_initial(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    sol = integrate_formal(sl2.flows([(1, 0)]), init, t_degree=0, eps_order=1)
    assert at_t_zero(sol, 1)[0] == init[0]


def test_translation_flow_taylor(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    sol = integrate_formal(sl2.flows([(1, 0)]), init, t_degree=3, eps_order=0)
    d = init[0]
    for k in range(0, 4):
        assert sol.coeffs[(1, (k,))] == (d * (-1) ** k,)
        assert ref.series(sol, 1).coefficient((k,), 0) == \
            d * Fraction((-1) ** k, math.factorial(k))
        d = d.dx()


def test_noncommuting_flows_refused():
    flows = {(1, 0): Derivation((u(1) ** 2,)), (1, 1): Derivation((u(1) ** 3,))}
    with pytest.raises(NonCommutingFlowsError):
        integrate_formal(flows, [RatFunc.const(1)], 2, 0)


def test_constant_solution_has_constant_two_point_values(sl2):
    init = [RatFunc.const(Fraction(3, 2))]
    flows = sl2.flows([(1, 0), (1, 1)])
    sol = integrate_formal(flows, init, t_degree=2, eps_order=2)
    table = sl2.omega_table(1, 1)
    tp = two_point_functions(sol, table)
    for series in tp["values"].values():
        for (exps, q), val in series.items():
            if sum(exps) > 0:
                assert val.is_zero()


def test_gbgw_cross_derivatives_and_flow_equations(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    flows = sl2.flows([(1, 0), (1, 1)])
    sol = integrate_formal(flows, init, t_degree=2, eps_order=2)
    table = sl2.omega_table(1, 1)
    tp = two_point_functions(sol, table)
    assert all(r["residual_zero"] for r in tp["cross_derivatives"])
    assert all(r["residual_zero"] for r in flow_equation_report(sol, flows))


def test_two_point_value_at_t_zero_matches_initial_evaluation(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    flows = sl2.flows([(1, 0), (1, 1)])
    sol = integrate_formal(flows, init, t_degree=1, eps_order=1)
    table = sl2.omega_table(1, 1)
    val = two_point_functions(sol, table)["values"][((1, 0), (1, 0))]
    # Omega_{1,0;1,0} = -u/2 evaluated at the initial data
    assert val[((0, 0), 0)] == init[0] * Fraction(-1, 2)


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


# -- DiffPoly.substitute into RatFunc and (the reference's) TSeries ------------

small = st.integers(-3, 3)
ratfuncs = st.dictionaries(st.integers(-3, 2), small, max_size=3).map(RatFunc)
tseries = st.dictionaries(st.tuples(st.tuples(st.integers(0, 2)), st.integers(0, 1)),
                          ratfuncs, max_size=3).map(lambda data: TSeries(1, 2, 1, data))
monomials = st.dictionaries(st.tuples(st.integers(1, 2), st.integers(0, 2)),
                            st.integers(1, 2), max_size=2).map(
    lambda exps: tuple(sorted(exps.items())))
polys = st.dictionaries(monomials, st.fractions(-4, 4, max_denominator=4),
                        max_size=3).map(DiffPoly)


def _assert_substitute_matches_reference(p, jets, one):
    for q in (p, DiffPoly.zero(), DiffPoly.const(Fraction(-3, 2)), p + 2):
        got = q.substitute(jets)
        assert type(got) is type(one)
        assert got == reference_substitute(q, jets, one)
        # a second pass reads the memoised monomial images of the same map
        assert q.substitute(jets) == got
    for mono, value in memoised_monomials(jets):
        assert value == reference_substitute(DiffPoly({mono: 1}), jets, one)


@given(polys, st.lists(ratfuncs, min_size=2, max_size=2))
def test_substitute_matches_reference_on_ratfunc_images(p, images):
    _assert_substitute_matches_reference(p, JetMap(images), RatFunc.const(1))


@given(polys, st.lists(tseries, min_size=2, max_size=2))
def test_substitute_matches_reference_on_tseries_images(p, images):
    one = TSeries.const(1, 2, 1, RatFunc.const(1))
    _assert_substitute_matches_reference(p, JetMap(images), one)


def test_evaluations_share_the_jets_of_the_solution(sl2):
    init = gbgw_initial(sl2.real, [Fraction(1)])
    flows = sl2.flows([(1, 0), (1, 1)])
    sol = integrate_formal(flows, init, t_degree=1, eps_order=1)
    jets = sol.jets
    assert jets.images == sol.initial
    two_point_functions(sol, sl2.omega_table(1, 1))
    flow_equation_report(sol, flows)
    assert sol.jets is jets and jets._monomials
    for mono, value in memoised_monomials(jets):
        assert value == reference_substitute(DiffPoly({mono: 1}), jets, RatFunc.const(1))


BENCH_SOLVE = ["solve", "--type", "a1_1", "--flows", "1:0,1:1,1:2", "--t-degree", "2",
               "--eps-order", "2", "--max-k", "1", "--bgw", "1"]


@pytest.fixture(scope="module")
def bench_solve(sl2):
    """The solution and the table of the benchmark's solve job (``BENCH_SOLVE``)."""
    flows = sl2.flows([(1, 0), (1, 1), (1, 2)])
    sol = integrate_formal(flows, gbgw_initial(sl2.real, [Fraction(1)]), 2, 2)
    return sol, sl2.omega_table(1, 2)


def _recorded_taylor(monkeypatch) -> list:
    """The (series, t-degree) of each ``FormalSolution.taylor`` call from now on."""
    calls = []
    plain = FormalSolution.taylor

    def recorded(sol, p, T):
        calls.append((p, T))
        return plain(sol, p, T)

    monkeypatch.setattr(FormalSolution, "taylor", recorded)
    return calls


def test_each_distinct_entry_is_evaluated_once(bench_solve, monkeypatch):
    sol, table = bench_solve
    calls = _recorded_taylor(monkeypatch)
    tp = two_point_functions(sol, table)
    values = tp["values"]
    assert len(values) == 9 and len(calls) == 6
    assert {T for _, T in calls} == {sol.T}
    for (i, j), value in values.items():
        assert values[(j, i)] is value
    monkeypatch.undo()
    assert (values, tp["cross_derivatives"]) == ref.two_point(sol, table)


def test_a_corrupted_entry_is_evaluated_apart_from_its_transpose(bench_solve, monkeypatch):
    sol, table = bench_solve
    i, j = (1, 0), (1, 2)
    entries = dict(table.entries)
    entries[(i, j)] = entries[(i, j)] + u(1)
    bad = OmegaTable(entries, table.max_a, table.max_k)
    calls = _recorded_taylor(monkeypatch)
    tp = two_point_functions(sol, bad)
    assert len(calls) == 7
    assert tp["values"][(i, j)] != tp["values"][(j, i)]
    monkeypatch.undo()
    values, report = ref.two_point(sol, bad)
    assert tp["values"] == values and tp["cross_derivatives"] == report
    assert not all(r["residual_zero"] for r in report)


def test_solve_output_leaves_the_shared_values_unchanged(monkeypatch, capsys):
    # Omega's transposed entries share one value; printing must not touch it
    from dshierarchy import cli
    from dshierarchy.commands import solve as command
    plain = command.two_point_functions
    kept = []

    def keep(sol, table):
        tp = plain(sol, table)
        kept.append((tp["values"], {key: dict(s) for key, s in tp["values"].items()}))
        return tp

    monkeypatch.setattr(command, "two_point_functions", keep)
    for fmt in ("json", "text"):
        assert cli.main(BENCH_SOLVE + ["--format", fmt]) == 0
    capsys.readouterr()
    assert len(kept) == 2
    for values, before in kept:
        assert values[((1, 0), (1, 2))] is values[((1, 2), (1, 0))]
        for key, series in values.items():
            assert series == before[key]
            assert all(series[k] is v for k, v in before[key].items())


@pytest.fixture(scope="module")
def deep_solve(sl2):
    """The solution of ``solve --type a1_1 --bgw 1/2 --t-degree 3 --eps-order 3``."""
    flows = sl2.flows([(1, 0), (1, 1), (1, 2)])
    return integrate_formal(flows, gbgw_initial(sl2.real, [Fraction(1, 2)]), 3, 3)


@pytest.mark.parametrize("case", ["bench_solve", "deep_solve"])
def test_flow_equations_are_read_at_t_degree_t_minus_1(case, request, sl2, monkeypatch):
    sol = request.getfixturevalue(case)
    sol = sol[0] if case == "bench_solve" else sol
    flows = sl2.flows(sol.labels)
    # a stand-in for flow (1, 1) whose characteristic is off by 2 u_x
    wrong = {l: Derivation((f.chars[0] + 2 * u(1, 1),)) if l == (1, 1) else f
             for l, f in flows.items()}
    degrees = []
    for stand_in, passes in ((flows, [True] * 3), (wrong, [True, False, True])):
        calls = _recorded_taylor(monkeypatch)
        got = flow_equation_report(sol, stand_in)
        monkeypatch.undo()
        degrees += [T for _, T in calls]
        assert got == ref.flow_equation_report(sol, stand_in)
        assert [r["residual_zero"] for r in got] == passes
    assert degrees == [sol.T - 1] * 6


def taylor_through_last_label(flows, initial, t_degree, eps_order) -> dict:
    """The Taylor coefficients of ``integrate_formal``, each through the flow of its last label."""
    derivs = [f.graded(eps_order) for f in flows.values()]
    jets = JetMap(initial)
    polys = {(0,) * len(flows): [EpsSeries.var(a, eps_order) for a in range(1, len(initial) + 1)]}
    for exps in sorted(itertools.product(range(t_degree + 1), repeat=len(flows)), key=sum):
        if 0 < sum(exps) <= t_degree:
            last = max(i for i, e in enumerate(exps) if e)
            prev = tuple(e - (i == last) for i, e in enumerate(exps))
            polys[exps] = [derivs[last](p) for p in polys[prev]]
    return {(a, exps): tuple(c.substitute(jets) for c in p.components)
            for exps, ps in polys.items() for a, p in enumerate(ps, 1)}


@pytest.mark.parametrize("case", ["bench_solve", "a2_1_solve"])
def test_every_taylor_coefficient_matches_the_last_label_order(case, request, sl2, sl3):
    if case == "bench_solve":
        sol, h = request.getfixturevalue(case)[0], sl2
    else:  # solve --type a2_1 --bgw 1,2 --t-degree 2
        h = sl3
        sol = integrate_formal(sl3.flows([(1, 0), (1, 1)]),
                               gbgw_initial(sl3.real, [Fraction(1), Fraction(2)]), 2, 4)
    flows = h.flows(sol.labels)
    ref = taylor_through_last_label(flows, sol.initial, sol.T, sol.K)
    assert sol.coeffs == ref
    assert any(sum(1 for e in exps if e) > 1 for _, exps in ref)   # mixed ones exist


BENCH_DISCRETE = ["discrete", "--eps-order", "4", "--t-degree", "2", "--samples", "100",
                  "--seed", "1"]


def test_no_memoised_monomial_image_is_mutated_by_a_run(monkeypatch, capsys):
    from dshierarchy import cli, discrete
    seen = {}
    plain = JetMap.monomial

    def recorded(jets, m):
        got = plain(jets, m)
        seen.setdefault(id(got), (got, snapshot(got)))
        return got

    monkeypatch.setattr(JetMap, "monomial", recorded)
    discrete._embedding.cache_clear()
    for argv in (BENCH_SOLVE, BENCH_DISCRETE):
        assert cli.main(argv) == 0
    capsys.readouterr()
    discrete._embedding.cache_clear()
    assert {type(value).__name__ for value, _ in seen.values()} == \
        {"DiffPoly", "EpsSeries", "RatFunc"}
    for value, before in seen.values():
        assert snapshot(value) == before


# -- every value and report against the series route (solution_route) ----------

SOLVES = {  # name -> (hierarchy fixture, flows, BGW constants, t-degree, eps order)
    "bench": ("sl2", ((1, 0), (1, 1), (1, 2)), (1,), 2, 2),
    "a1_1-bgw-1/2-T3-K3": ("sl2", ((1, 0), (1, 1), (1, 2)), (Fraction(1, 2),), 3, 3),
    "a2_1-three-flows": ("sl3", ((1, 0), (2, 0), (1, 1)), (1, -1), 2, 4),
    "a2_2-bgw-3": ("a22", ((1, 0), (1, 1)), (3,), 2, 4),
    "a1_1-T0": ("sl2", ((1, 0), (1, 1)), (1,), 0, 1),
    # at T = 1 each check reads |I| = 0 only, so a report cut one degree short shows
    "a1_1-T1": ("sl2", ((1, 0), (1, 1)), (1,), 1, 1),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_values_and_reports_match_the_series_route(name, request):
    fixture, labels, constants, T, K = SOLVES[name]
    h = request.getfixturevalue(fixture)
    flows = h.flows(labels)
    sol = integrate_formal(flows, gbgw_initial(h.real, constants), T, K)
    table = h.omega_table(h.real.n, max(k for _, k in labels))
    # stand-ins: an entry off by u_1 apart from its transpose, and flow (1, 1)
    # off by 2 u_x in its first component
    entries = dict(table.entries)
    entries[((1, 0), labels[-1])] = entries[((1, 0), labels[-1])] + u(1)
    corrupted = OmegaTable(entries, table.max_a, table.max_k)
    wrong = {l: Derivation((f.chars[0] + 2 * u(1, 1),) + f.chars[1:])
             if l == (1, 1) else f for l, f in flows.items()}
    for omega in (table, corrupted):
        tp = two_point_functions(sol, omega)
        assert (tp["values"], tp["cross_derivatives"]) == ref.two_point(sol, omega)
    for stand_in in (flows, wrong):
        assert flow_equation_report(sol, stand_in) == ref.flow_equation_report(sol, stand_in)
    if T > 0:  # both stand-ins show from t-degree 1 on
        assert not all(r["residual_zero"] for r in two_point_functions(sol, corrupted)
                       ["cross_derivatives"])
        assert not all(r["residual_zero"] for r in flow_equation_report(sol, wrong))
