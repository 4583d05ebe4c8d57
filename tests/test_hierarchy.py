from fractions import Fraction
from types import SimpleNamespace

import pytest

import borel_route
from jet_images import FunctionJets
from dshierarchy.diffalg import ArityMismatchError, Derivation, DiffPoly, EpsSeries, \
    JetMap, apply_poly_derivation
from dshierarchy.certify import (labels, tau_coordinate_check, verify_integrability,
                                 verify_symmetry, verify_tau_symmetry)
from dshierarchy.hierarchy import DSHierarchy, verify_gauge_invariance
from dshierarchy.kacmoody import LoopElement, LoopRealization
from dshierarchy.miura import invert_miura, MiuraTuple, reconstruct_flows
from dshierarchy.render import default_names, render_series
from dshierarchy.resolvent import DepthError, Resolvent, flow_depth
from reference_ops import (coefficient, from_dense, induce_derivation,
                           integrability_per_component, map_coeffs, nilpotent_coords,
                           omega_depth, pi_multi, reconstruct_flows_by_dx, tau_symmetry_direct,
                           vector_at)

u = DiffPoly.var


def _at_zero(p: DiffPoly) -> DiffPoly:
    return p.substitute(FunctionJets(lambda a, m: DiffPoly.zero()))


# -- pre-gauge flows (the Borel-variable reference route) -----------------

def test_pre_flow_vacuum_fixed_point(sl2):
    chars = borel_route.pre_flow_chars(sl2, (1, 0))
    assert all(_at_zero(c).is_zero() for c in chars)


def test_pre_flow_is_borel_valued(sl3):
    # construction validates the lambda^0 Borel property; smoke the surface
    chars = borel_route.pre_flow_chars(sl3, (1, 0))
    assert len(chars) == sl3.lax_q.arity


def test_pre_flow_commutes_with_gauge_homomorphism(sl2):
    # f(D^pre(q_i)) = D^pre(f(q_i)) with D^pre extended by D^pre(S_j) = 0
    hom = sl2.gauge_homomorphism()
    chars = borel_route.pre_flow_chars(sl2, (1, 1))
    ext = JetMap(list(chars) + [DiffPoly.zero()] * len(sl2.real.nilpotent_basis))
    for i in range(sl2.lax_q.arity):
        lhs = hom.apply(chars[i])
        rhs = apply_poly_derivation(ext, hom.images[i])
        assert lhs == rhs


# -- reduced flows -------------------------------------------------------

@pytest.mark.parametrize("name, max_k", [("sl2", 2), ("sl3", 1), ("a22", 1)])
def test_flows_match_borel_route(request, name, max_k):
    h = request.getfixturevalue(name)
    for a in range(1, h.real.n + 1):
        for k in range(max_k + 1):
            assert h.flow((a, k)).chars == borel_route.flow_chars(h, (a, k))


def test_flow_error_names_label_off_lambda_zero(monkeypatch):
    # negative control: X plus a lambda^1 element leaves the lambda^0 slice
    h = DSHierarchy("a1_1", max_flow_k=1, omega_max_k=1)
    plain = Resolvent.shifted_plus
    extra = from_dense(h.real, {1: vector_at(h.real.cyclic)})
    monkeypatch.setattr(Resolvent, "shifted_plus",
                        lambda r, k: plain(r, k) + extra)
    with pytest.raises(RuntimeError, match=r"flow \(1, 1\): .* lambda powers"):
        h.flow((1, 1))


def test_flow_error_names_label_off_v(monkeypatch):
    # negative control: without the compensator the flow is not V-valued
    h = DSHierarchy("a2_1", max_flow_k=1, omega_max_k=1)
    monkeypatch.setattr(LoopRealization, "v_valued",
                        lambda real, residual: LoopElement.zero(real))
    with pytest.raises(RuntimeError,
                       match=r"flow \(2, 1\): .* is not V-valued"):
        h.flow((2, 1))


def test_translation_flow_everywhere(sl2, sl3, a22):
    for h in (sl2, sl3, a22):
        f = h.flow((1, 0))
        assert list(f.chars) == [-u(alpha, 1) for alpha in range(1, h.ell + 1)]


def test_kdv_flow_regression(sl2):
    f = sl2.flow((1, 1))
    expect = Fraction(3, 2) * u(1) * u(1, 1) - Fraction(1, 4) * u(1, 3)
    assert f.chars[0] == expect
    # graded rendering puts the dispersive term at eps^2
    text = render_series(EpsSeries.regrade(f.chars[0], 4, -1),
                         default_names(1))
    assert text == "3/2*u*u_x - 1/4*eps^2*u_xxx"


def test_kdv5_flow_regression(sl2):
    f = sl2.flow((1, 2))
    expect = (Fraction(5, 8) * u(1) * u(1, 3)
              - Fraction(15, 8) * u(1) ** 2 * u(1, 1)
              + Fraction(5, 4) * u(1, 1) * u(1, 2)
              - Fraction(1, 16) * u(1, 5))
    assert f.chars[0] == expect


def test_boussinesq_flow_regression(sl3):
    f = sl3.flow((2, 0))
    assert f.chars[0] == -u(2, 1)
    assert f.chars[1] == (-Fraction(8, 3) * u(1) * u(1, 1)
                          + Fraction(1, 3) * u(1, 3))


def test_twisted_fifth_order_flow_regression(a22):
    f = a22.flow((2, 0))
    expect = (-Fraction(10, 9) * u(1) * u(1, 3)
              + Fraction(20, 9) * u(1) ** 2 * u(1, 1)
              - Fraction(25, 9) * u(1, 1) * u(1, 2)
              + Fraction(1, 9) * u(1, 5))
    assert f.chars[0] == expect


def test_translation_commutes_with_all_computed_flows(sl2):
    f10 = sl2.flow((1, 0))
    for label in [(1, 1), (1, 2)]:
        rep = verify_integrability({(1, 0): f10, label: sl2.flow(label)})
        assert all(r["residual_zero"] for r in rep)


@pytest.mark.parametrize("name", ["sl2", "sl3", "a22"])
def test_commutator_records_match_per_component_loop(request, name):
    h = request.getfixturevalue(name)
    flows = h.flows((a, k) for a in range(1, h.real.n + 1) for k in range(3))
    got = verify_integrability(flows)
    assert got == integrability_per_component(flows)
    assert len(got) == len(flows) * (len(flows) + 1) // 2
    assert all(r["residual_zero"] for r in got)


def test_commutator_record_fails_in_the_second_component_only():
    flows = {(1, 1): Derivation((u(1, 1), u(1))), (1, 2): Derivation((u(1, 1), u(2)))}
    comm = flows[(1, 1)].commutator(flows[(1, 2)])
    assert comm.chars[0].is_zero() and not comm.chars[1].is_zero()
    got = verify_integrability(flows)
    assert got == integrability_per_component(flows)
    assert [r["residual_zero"] for r in got] == [True, False, True]


def test_diagonal_commutators_are_not_computed(sl2):
    # [D, D] = 0 for every derivation, so the record of (i, i) holds unread
    class SelfRaising:
        def __init__(self, flow):
            self.flow = flow

        def commutator(self, other):
            if other is self:
                raise AssertionError("[D, D] computed")
            return self.flow.commutator(other.flow)

    flows = sl2.flows((1, k) for k in range(3))
    got = verify_integrability({l: SelfRaising(f) for l, f in flows.items()})
    assert got == integrability_per_component(flows)
    assert len(got) == 6 and all(r["residual_zero"] for r in got)


def test_flow_commutator_needs_equal_arities():
    with pytest.raises(ArityMismatchError):
        verify_integrability({(1, 0): Derivation((-u(1, 1),)),
                              (1, 1): Derivation((-u(1, 1), -u(2, 1)))})


def test_d10_unique_solve(sl2, sl3, a22):
    for h in (sl2, sl3, a22):
        psi, theta = h.d10_unique_solve()
        q_u = h.lax_u.q
        r1 = h.lax_u.resolvent(1, flow_depth(h.real, 1, 0) + 1)
        b = r1.shifted_plus(0) - h.real.cyclic
        assert b.lambda_powers() == [0]
        assert psi == -q_u.dx()
        assert theta == q_u - b
        nilpotent_coords(h.real, theta)  # raises unless theta is n-valued
        # q-side: substituting u(q) gives back -d(Q_can)
        jets = h.canform.jets
        assert map_coeffs(psi, lambda p: p.substitute(jets)) \
            == -h.canform.q_can.dx()
    # vacuum: psi vanishes at u = 0
    psi0 = map_coeffs(psi, _at_zero)
    assert psi0.is_zero()


def test_flow_label_validation(sl2):
    with pytest.raises(ValueError):
        sl2.flow((2, 0))
    with pytest.raises(ValueError):
        sl2.flow((1, -1))


# -- tau-structure -------------------------------------------------------

def test_omega_symmetry_and_nondegeneracy(sl2, sl3):
    for h, max_k in ((sl2, 2), (sl3, 1)):
        table = h.omega_table(h.real.n, max_k)
        assert all(r["residual_zero"] for r in verify_symmetry(table))
        assert any(not val.dx().is_zero() for val in table.values())


def test_omega_vacuum_entries_are_constants(sl2):
    table = sl2.omega_table(1, 2)
    for val in table.values():
        assert _at_zero(val).is_constant()


def test_omega_sl2_regressions(sl2):
    table = sl2.omega_table(1, 2)
    assert table[(1, 0), (1, 0)] == u(1) * Fraction(-1, 2)
    assert not table[(1, 0), (1, 0)].dx().is_zero()
    assert table[(1, 0), (1, 1)] == (Fraction(3, 8) * u(1) ** 2
                                           - Fraction(1, 8) * u(1, 2))


def test_omega_sl3_regressions(sl3):
    table = sl3.omega_table(2, 1)
    assert table[(1, 0), (1, 0)] == u(1) * Fraction(-2, 3)
    assert table[(2, 0), (1, 0)] == u(2) * Fraction(-2, 3)


def omega_entry_opposite_expansion(h: DSHierarchy, i, j) -> DiffPoly:
    """The (i, j) entry computed with 1/(lambda-mu)^2 expanded in lambda/mu.

    Equals the standard entry whenever the symmetry identity holds, so the
    extracted coefficients do not depend on the expansion region.
    """
    (a, k1), (b, k2) = i, j
    real = h.real
    n_tw = real.twist_order
    sigma = (k1 + k2) * n_tw
    pmax_b = max(real.heisenberg_element(real.exponents[b - 1]).lambda_powers())
    depth = omega_depth(real, max(a, b), max(k1, k2)) + 1
    ra = h.lax_u.resolvent(a, depth)
    rb = h.lax_u.resolvent(b, depth)
    val = DiffPoly.zero()
    for p in range(-pmax_b - sigma, -k1 * n_tw):
        weight = -k1 * n_tw - p
        val = val + real.alg.pair_vec(coefficient(ra, p), coefficient(rb, -p - sigma)) * weight
    return val


def test_omega_region_independence(sl2):
    for (i, j) in [((1, 0), (1, 1)), ((1, 1), (1, 1)), ((1, 0), (1, 0))]:
        table = sl2.omega_table(1, 2)
        assert omega_entry_opposite_expansion(sl2, i, j) == table[i, j]


def test_omega_matches_literal_double_laurent_projection(sl2):
    # Build the double expansion of (R(lambda)|R(mu))/(lambda-mu)^2 minus the
    # counterterm in |mu| < |lambda|, project with pi per variable, and read
    # the coefficients; they must reproduce the table.
    real = sl2.real
    max_k = 1
    table = sl2.omega_table(1, max_k)
    r = sl2.lax_u.resolvent(1, omega_depth(real, 1, max_k) + 1)
    pmax = 1
    imax = pmax + max_k * real.twist_order
    qlow = r.min_complete_power()
    grid: dict[tuple, DiffPoly] = {}
    for i in range(1, imax + 1):
        for p in range(qlow, pmax + 1):
            va = coefficient(r, p)
            for q in range(qlow, pmax + 1):
                vb = coefficient(r, q)
                val = real.alg.pair_vec(va, vb) * i
                if val.is_zero():
                    continue
                key = (p - i - 1, q + i - 1)
                grid[key] = grid.get(key, DiffPoly.zero()) + val
    # the counterterm (1/r)(m_1 lambda^N + m_1 mu^N)/(lambda-mu)^2 of the
    # diagonal a + b = n + 1: each piece has mu powers >= 0 only, so pi drops it
    n_tw = real.twist_order
    ct = [(n_tw - i - 1, i - 1, i) for i in range(1, imax + 1)] \
        + [(-i - 1, n_tw + i - 1, i) for i in range(1, imax + 1)]
    for p, q, i in ct:
        grid[(p, q)] = grid.get((p, q), DiffPoly.zero()) \
            - DiffPoly.const(Fraction(real.exponents[0] * i, real.r))
    projected = pi_multi(grid, real.twist_order)
    for k1 in range(0, max_k + 1):
        for k2 in range(0, max_k + 1):
            got = projected.get((-k1 - 1, -k2 - 1), DiffPoly.zero())
            assert got == table[(1, k1), (1, k2)]


def test_omega_q_route_matches_canonical_route(sl2):
    direct = sl2.omega_table(1, 1)
    assert direct == borel_route.omega_entries(sl2, 1, 1)


def test_omega_q_route_matches_canonical_route_sl3_k0(sl3):
    direct = sl3.omega_table(2, 0)
    assert direct == borel_route.omega_entries(sl3, 2, 0)


def test_omega_q_route_matches_canonical_route_twisted_k0(a22):
    direct = a22.omega_table(2, 0)
    assert direct == borel_route.omega_entries(a22, 2, 0)


@pytest.mark.parametrize("max_a, max_k, message", [
    (3, 1, r"max_a 3 out of range 1\.\.1"), (0, 1, r"max_a 0 out of range 1\.\.1"),
    (1, -1, r"max_k must be >= 0")], ids=["max_a-above-n", "max_a-zero", "max_k-negative"])
def test_omega_table_refuses_bad_bounds(max_a, max_k, message):
    with pytest.raises(ValueError, match=message):
        DSHierarchy("a1_1", max_flow_k=0, omega_max_k=1).omega_table(max_a, max_k)


def omega_entry_complete(h: DSHierarchy, i, j, depth: int) -> DiffPoly:
    """The (i, j) entry from complete lambda coefficients of resolvents at ``depth``."""
    (a, k1), (b, k2) = i, j
    real = h.real
    n_tw = real.twist_order
    sigma = (k1 + k2) * n_tw
    ra = h.lax_u.resolvent(a, depth)
    rb = h.lax_u.resolvent(b, depth)
    val = DiffPoly.zero()
    for p in range(1 - k1 * n_tw, max(real.heisenberg_element(ra.m_a).lambda_powers()) + 1):
        val = val + real.alg.pair_vec(coefficient(ra, p), coefficient(rb, -p - sigma)) * (p + k1 * n_tw)
    return val


@pytest.mark.parametrize("name, max_k", [("a1_1", k) for k in range(0, 5)]
                         + [("a2_1", 0), ("a2_1", 1), ("a2_1", 2),
                            ("a2_2", 0), ("a2_2", 1), ("a2_2", 2)])
def test_omega_table_matches_complete_coefficients(name, max_k):
    # the table reads its resolvents only to the pairing depth; the reference
    # reads complete coefficients at the depth that makes them all complete
    h = DSHierarchy(name, max_flow_k=0, omega_max_k=max_k)
    real = h.real
    for max_a in sorted({1, real.n}):
        table = h.omega_table(max_a, max_k)
        depth = omega_depth(real, max_a, max_k) + 1
        assert max(r.depth for r in h.table_resolvents(max_a, max_k).values()) < depth
        assert table == {(i, j): omega_entry_complete(h, i, j, depth)
                         for i in labels(table) for j in labels(table)}


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_omega_pairing_depth_is_sharp(name):
    # one R_a at a time one slice above the floor, the others at it: the table
    # changes an entry, or the engine finds it asymmetric
    exact = DSHierarchy(name, max_flow_k=0, omega_max_k=1).omega_table(None, 1)
    for shallow_a in sorted({a for a, _ in labels(exact)}):
        h = DSHierarchy(name, max_flow_k=0, omega_max_k=1)
        resolvent = h.lax_u.resolvent
        h.lax_u.resolvent = lambda a, depth: resolvent(a, depth - (a == shallow_a))
        try:
            shallow = h.omega_table(None, 1)
        except RuntimeError as exc:
            assert "tau-structure symmetry broken" in str(exc)
        else:
            assert any(shallow[key] != val for key, val in exact.items())


@pytest.mark.parametrize("name, max_a, max_k, depth", [
    ("a2_2", 2, 1, 22), ("a2_2", 1, 1, 14), ("a2_1", 2, 1, 10), ("a1_1", 1, 2, 10)])
def test_omega_table_dresses_to_the_pairing_depth(name, max_a, max_k, depth):
    h = DSHierarchy(name, max_flow_k=0, omega_max_k=max_k)
    h.omega_table(max_a, max_k)
    assert max(r.depth for r in h.table_resolvents(max_a, max_k).values()) == depth
    # every solved R_a ends at the deepest one's floor (-17 on a2_2 at max-a 2,
    # -8 on a2_1); each is solved alone, so the families left out stay at their top
    floor = h.real.exponents[max_a - 1] - depth
    for a, m in enumerate(h.real.exponents, 1):
        assert min(h.lax_u._r[a]) == (floor if a <= max_a else m)


@pytest.mark.parametrize("name", ["sl2", "sl3", "a22"])
def test_flow_depth_is_exact(request, name):
    h = request.getfixturevalue(name)
    real = h.real
    for a in range(1, real.n + 1):
        for k in range(2):
            depth = flow_depth(real, a, k)
            h.lax_u.resolvent(a, depth).shifted_plus(k)
            with pytest.raises(DepthError, match=r"needs lambda\^"):
                h.lax_u.resolvent(a, depth - 1).shifted_plus(k)


# -- verification reports -----------------------------------------------

def test_tau_symmetry_sl2(sl2):
    table = sl2.omega_table(1, 1)
    flows = sl2.flows([(1, 0), (1, 1)])
    rep = verify_tau_symmetry(flows, table, verify_integrability(flows))
    assert len(rep) == 8
    assert all(r["residual_zero"] for r in rep)


def test_tau_symmetry_trivial_triples(sl2):
    table = sl2.omega_table(1, 1)
    flows = sl2.flows([(1, 1)])
    rep = tau_symmetry_direct(flows, table, [((1, 1), (1, 1), (1, 1))])
    assert rep[0]["residual_zero"]


def test_gauge_invariance_of_omega(sl2):
    table = sl2.omega_table(1, 2)
    rep = verify_gauge_invariance(sl2, table)
    assert all(r["residual_zero"] for r in rep)


def test_gauge_invariance_weight_budget(a22):
    # the twisted table is checked in full: every entry, none skipped
    table = a22.omega_table(2, 1)
    rep = verify_gauge_invariance(a22, table)
    assert len(rep) == len(table) == 16
    assert not any("skipped" in r for r in rep)
    assert all(r["residual_zero"] for r in rep)


def test_gauge_invariance_matches_q_expansion_route(sl2):
    # reference route: embed each entry in the q-ring and expand f of it
    table = sl2.omega_table(1, 2)
    hom = sl2.gauge_homomorphism()
    expected = [{
        "check": "omega_gauge_invariance",
        "pair": [list(i), list(j)],
        "residual_zero": hom.is_invariant(val.substitute(sl2.canform.jets)),
    } for (i, j), val in sorted(table.items())]
    assert verify_gauge_invariance(sl2, table) == expected


def test_gauge_invariance_rejects_non_invariant_coordinate(sl3):
    # stand-in canonical form whose u_1 is q_2, which f does not fix
    table = sl3.omega_table(2, 1)
    hom = sl3.gauge_homomorphism()
    q2 = u(2)
    assert not hom.is_invariant(q2)
    stand_in = SimpleNamespace(
        canform=SimpleNamespace(jets=JetMap([q2] + sl3.canform.u_exprs[1:])),
        gauge_homomorphism=sl3.gauge_homomorphism)
    rep = verify_gauge_invariance(stand_in, table)
    assert len(rep) == len(table)
    uses_u1 = 0
    for r in rep:
        i, j = (tuple(x) for x in r["pair"])
        if any(a == 1 for a, _ in table[i, j].variables()):
            uses_u1 += 1
            assert r["residual_zero"] is False
        else:
            assert r["residual_zero"] is True
    assert 0 < uses_u1 < len(rep)


def test_corrupted_omega_fails_tau_symmetry(sl2):
    import copy
    table = copy.deepcopy(sl2.omega_table(1, 1))
    table[((1, 0), (1, 1))] = \
        table[((1, 0), (1, 1))] + u(1, 1)
    flows = sl2.flows([(1, 0), (1, 1)])
    rep = verify_tau_symmetry(flows, table, verify_integrability(flows))
    assert not all(r["residual_zero"] for r in rep)


# -- tau-coordinates and reconstruction ----------------------------------

def test_tau_coordinates_sl2(sl2):
    table = sl2.omega_table(1, 1)
    rep = tau_coordinate_check(sl2.flows(labels(table)), table, sl2.ell,
                               eps_order=2, jet_depth=6)
    assert rep["miura_type"]
    assert rep["jacobian_det"] == "-1/2"
    assert rep["residual_zero"]


def test_tau_coordinates_sl3(sl3):
    table = sl3.omega_table(2, 1)
    rep = tau_coordinate_check(sl3.flows(labels(table)), table, sl3.ell,
                               eps_order=2, jet_depth=6)
    assert rep["miura_type"]
    assert rep["residual_zero"]
    det = sl3.omega_table(2, 1)
    # 2x2 dispersionless Jacobian is a nonzero constant here
    assert rep["jacobian_det"] == "4/9"


def test_tau_coordinates_twisted(a22):
    table = a22.omega_table(2, 1)
    rep = tau_coordinate_check(a22.flows(labels(table)), table, a22.ell,
                               eps_order=2, jet_depth=8)
    assert rep["miura_type"]
    assert rep["reconstruction_matches"] == {"[1, 1]": True}
    assert rep["residual_zero"]


# The largest eps order the table supports: at it every entry is graded in
# full, one more than the top differential degree of any entry.  It is 9 for
# a1_1 at max-k 2, and 9 for a2_1 and 21 for a2_2 at max-k 1.
FULL_ORDER = {"sl2": 9, "sl3": 9, "a22": 21}


def _tau_structure_inputs(h: DSHierarchy, order: int) -> tuple:
    """(rows, pair, d_one): what ``reconstruct_flows`` reads for every label."""
    table = h.omega_table()
    one = (1, 0)
    coords = MiuraTuple([EpsSeries.regrade(table[(a, 0), one], order)
                         for a in range(1, h.ell + 1)])
    rows = {j: [EpsSeries.regrade(table[j, (b, 0)], order)
                for b in range(1, h.ell + 1)] for j in labels(table)}
    return rows, invert_miura(coords), h.flow(one).graded(order)


def _flows_from_tau_structure(h: DSHierarchy, order: int) -> dict:
    """Every label's flow, rebuilt from the tau-structure alone."""
    return reconstruct_flows(*_tau_structure_inputs(h, order))


@pytest.mark.parametrize("name", ["sl2", "sl3", "a22"])
def test_reconstruct_flows_matches_chain_rule_by_dx(request, name):
    inputs = _tau_structure_inputs(request.getfixturevalue(name), FULL_ORDER[name])
    assert reconstruct_flows(*inputs) == reconstruct_flows_by_dx(*inputs)


@pytest.mark.parametrize("name", ["sl2", "sl3", "a22"])
def test_every_flow_reconstructs_from_tau_structure(request, name):
    h = request.getfixturevalue(name)
    table = h.omega_table()
    order = FULL_ORDER[name]
    assert order == 1 + max(max(v.degrees()) for v in table.values())
    recon = _flows_from_tau_structure(h, order)
    assert set(recon) == set(labels(table))
    for label, chars in recon.items():
        assert chars == h.flow(label).graded(order).chars, label


@pytest.mark.parametrize("name", ["sl2", "sl3", "a22"])
def test_flows_from_tau_structure_commute(request, name):
    # the paper's direction: a tau-structure with Miura-type coordinates
    # gives commuting flows
    h = request.getfixturevalue(name)
    flows = [Derivation(chars) for chars in
             _flows_from_tau_structure(h, FULL_ORDER[name]).values()]
    for i, di in enumerate(flows):
        for dj in flows[i + 1:]:
            assert di.commutator(dj).is_zero()


def test_realization_built_and_validated_once(monkeypatch):
    calls = []
    validate = LoopRealization._validate
    monkeypatch.setattr(LoopRealization, "_validate",
                        lambda real: calls.append(real) or validate(real))
    DSHierarchy("a2_1")
    assert len(calls) == 1


def test_flow_commutators_survive_tau_coordinates(sl2, sl3):
    # transport the flows through the tau-coordinate Miura pair and
    # re-check commutativity on the other side
    K = 2
    for h in (sl2, sl3):
        table = h.omega_table(h.real.n, 1)
        vhat = [EpsSeries.regrade(table[(a, 0), (1, 0)], K)
                for a in range(1, h.ell + 1)]
        pair = invert_miura(MiuraTuple(vhat))
        d1 = induce_derivation(pair, h.flow((1, 0)).graded(K))
        d2 = induce_derivation(pair, h.flow((1, 1)).graded(K))
        assert d1.commutator(d2).is_zero()


def test_commutativity_transports_in_both_directions(sl2):
    # [D~_i, D~_j] = 0 iff [D_i, D_j] = 0: transport back through the pair
    # with the roles of the two sides swapped and recover the originals.
    from dshierarchy.miura import MiuraPair
    K = 2
    table = sl2.omega_table(1, 1)
    vhat = [EpsSeries.regrade(table[(1, 0), (1, 0)], K)]
    pair = invert_miura(MiuraTuple(vhat))
    reverse = MiuraPair(MiuraTuple(pair.inverse),
                        pair.forward.values, pair.jet_depth)
    for label in [(1, 0), (1, 1)]:
        d = sl2.flow(label).graded(K)
        back = induce_derivation(reverse, induce_derivation(pair, d))
        assert all((a - b).is_zero() for a, b in zip(back.chars, d.chars))


def test_degenerate_tau_coordinates_reported(sl2):
    import copy
    table = copy.deepcopy(sl2.omega_table(1, 1))
    table[((1, 0), (1, 0))] = DiffPoly.const(Fraction(1, 2))
    rep = tau_coordinate_check(sl2.flows(labels(table)), table, sl2.ell,
                               eps_order=1, jet_depth=4)
    assert not rep["residual_zero"]
    assert rep["error"] == "tau-coordinates degenerate"
