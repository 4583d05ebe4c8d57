from fractions import Fraction

import pytest

from conftest import random_poly
from dshierarchy.diffalg import Derivation, DiffPoly, EpsSeries
from dshierarchy.miura import (JetDepthError, LeadingMapError, MiuraTuple,
                               forward_map, invert_miura, reconstruct_flows)
from reference_ops import d_x, induce_derivation, reconstruct_flows_by_dx

u = DiffPoly.var
K = 4


def series(p, eps_power=0, order=K):
    return EpsSeries.of_poly(p, order, eps_power)


def test_jacobian_det_examples():
    assert MiuraTuple([series(u(1)), series(u(2))]).jacobian_det() == DiffPoly.const(1)
    assert MiuraTuple([series(u(1) ** 2)]).jacobian_det() == 2 * u(1)
    assert MiuraTuple([series(u(1, 1), eps_power=1)]).jacobian_det().is_zero()


def test_forward_map_chain_rule():
    vsq = MiuraTuple([series(u(1) ** 2)])
    out = forward_map(vsq, u(1, 1))  # v_{1,1} -> d(u^2) = 2 u u_x
    assert out == series(2 * u(1) * u(1, 1))
    ident = MiuraTuple([series(u(1))])
    assert forward_map(ident, u(1)) == series(u(1))


def test_forward_map_substitution_example():
    # p = v v_1 with V = (u + eps u_x): (u + eps u_x)(u_x + eps u_xx)
    v = MiuraTuple([series(u(1)) + series(u(1, 1), 1)])
    p = u(1) * u(1, 1)
    got = forward_map(v, p)
    expect = (series(u(1)) + series(u(1, 1), 1)) * \
        (series(u(1, 1)) + series(u(1, 2), 1))
    assert got == expect


def test_invert_identity_and_rescale():
    ident = invert_miura(MiuraTuple([series(u(1))]))
    assert ident.inverse[0] == series(u(1))
    half = invert_miura(MiuraTuple([series(2 * u(1))]))
    assert half.inverse[0] == series(u(1)) * Fraction(1, 2)


def test_invert_alternating_series():
    v = MiuraTuple([series(u(1)) + series(u(1, 1), 1)])
    pair = invert_miura(v)
    expect = EpsSeries.zero(K)
    for j in range(K + 1):
        expect = expect + EpsSeries.of_poly(
            u(1, j) * Fraction((-1) ** j), K, j)
    assert pair.inverse[0] == expect
    # round trip by direct substitution
    assert pair.phi(pair.inverse[0]) == series(u(1))


def test_invert_requires_field_inverse():
    with pytest.raises(LeadingMapError):
        invert_miura(MiuraTuple([series(u(1) ** 2)]))


def test_jet_depth_is_validated():
    v = MiuraTuple([series(u(1)) + series(u(1, 1), 1)])
    with pytest.raises(JetDepthError):
        invert_miura(v, jet_depth=2)
    pair = invert_miura(v, jet_depth=K)
    assert pair.jet_depth == K


def test_round_trips_on_generators():
    v = MiuraTuple([series(u(1)) + series(u(1, 1) * u(1), 1),
                    series(u(2)) + series(u(2, 2), 2)])
    pair = invert_miura(v)
    for alpha in (1, 2):
        assert pair.psi(pair.phi(u(alpha))) == series(u(alpha))
        assert pair.phi(pair.psi(u(alpha))) == series(u(alpha))


def test_phi_partial_equivariance():
    # d-equivariance on generators: phi(d(v_a)) = d(phi(v_a))
    v = MiuraTuple([series(u(1)) + series(u(1, 1), 1)])
    pair = invert_miura(v)
    assert pair.phi(u(1, 1)) == pair.phi(u(1)).dx()


def test_induce_translation_and_identity(rng):
    v = MiuraTuple([series(u(1)) + series(u(1, 1), 1)])
    pair = invert_miura(v)
    d = d_x(1, K)
    assert all((a - b).is_zero() for a, b in
               zip(induce_derivation(pair, d).chars, d_x(1, K).chars))
    ident = invert_miura(MiuraTuple([series(u(1))]))
    w = EpsSeries.of_poly(random_poly(rng, arity=1), K)
    d2 = Derivation([w])
    assert induce_derivation(ident, d2).chars[0] == w


def test_induce_respects_commutators(rng):
    v = MiuraTuple([series(u(1)) + series(u(1, 1), 1)])
    pair = invert_miura(v)
    for _ in range(4):
        d1 = Derivation([EpsSeries.of_poly(
            random_poly(rng, arity=1, max_order=2, terms=2, degree=2), K)])
        d2 = Derivation([EpsSeries.of_poly(
            random_poly(rng, arity=1, max_order=2, terms=2, degree=2), K)])
        lhs = induce_derivation(pair, d1).commutator(induce_derivation(pair, d2))
        rhs = induce_derivation(pair, d1.commutator(d2))
        assert all((a - b).is_zero() for a, b in zip(lhs.chars, rhs.chars))


def test_reconstruct_zero_row_gives_zero_flow():
    v = MiuraTuple([series(u(1))])
    pair = invert_miura(v)
    d_one = d_x(1, K)
    out = reconstruct_flows({"z": [EpsSeries.zero(K)]}, pair, d_one)
    assert all(c.is_zero() for c in out["z"])


def test_reconstruct_distinguished_flow_consistency():
    # with V_a = Omega_{1;i_a} the formula returns D_1 itself at j = 1.
    # Toy data: single variable, Omega_{1;1} = -u/2, D_1 = -d.
    omega_11 = EpsSeries.regrade(u(1) * Fraction(-1, 2), K)
    v = MiuraTuple([omega_11])
    pair = invert_miura(v)
    d_one = Derivation([EpsSeries.of_poly(-u(1, 1), K)])
    out = reconstruct_flows({(1, 0): [omega_11]}, pair, d_one)
    assert all((a - b).is_zero() for a, b in zip(out[(1, 0)], d_one.chars))


def test_reconstruct_matches_chain_rule_by_dx_on_a_non_graded_pair(rng):
    # eps^1 and eps^2 parts of mixed differential degree, a derivation that is
    # not -d, and rows of random series: the jet map route and the per-term
    # route through repeated dx are the same sum
    v = MiuraTuple([series(u(1)) + series(u(1) ** 2 * u(2, 2), 1) + series(u(2) * u(1, 1), 2),
                    series(u(2)) + series(u(1) * u(2) + u(1, 1), 1)])
    pair = invert_miura(v)
    d_one = Derivation([series(u(1) * u(2, 1)) + series(u(1, 2), 1),
                        series(u(2) ** 2) + series(u(1, 1) * u(2), 2)])
    rows = {j: [series(random_poly(rng)) + series(random_poly(rng), 1)
                for _ in range(2)] for j in range(3)}
    got = reconstruct_flows(rows, pair, d_one)
    assert got == reconstruct_flows_by_dx(rows, pair, d_one)
    assert any(not c.is_zero() for chars in got.values() for c in chars)
