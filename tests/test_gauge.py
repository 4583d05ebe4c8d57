from fractions import Fraction

import pytest

from conftest import random_poly
from dshierarchy.diffalg import DiffPoly
from dshierarchy.gauge import (GaugeHomomorphism, NotGaugeInvariantError,
                               ad_exp_series, canonical_form, to_invariant_coordinates)
from dshierarchy.kacmoody import build_algebra
from dshierarchy.resolvent import LaxOperator
from jet_images import FunctionJets
from reference_ops import gauge_transform, map_coeffs, nilpotent_coords

q1, q2 = DiffPoly.var(1), DiffPoly.var(2)


@pytest.fixture(scope="module")
def ctx():
    real = build_algebra("a1_1")
    lax = LaxOperator(real, "borel")
    return real, lax


def test_gauge_transform_identity(ctx):
    real, lax = ctx
    s = real.combination([DiffPoly.zero()], real.nilpotent_basis)
    assert gauge_transform(lax, s) == lax.q


def test_gauge_transform_keeps_lambda_part(ctx):
    real, lax = ctx
    s = real.combination([q2], real.nilpotent_basis)
    q = gauge_transform(lax, s)
    assert all(k == 0 for k in q.lambda_powers())


def test_gauge_transform_hand_expansion_sl2(ctx):
    # S = s f with s a fresh generator; ad S is nilpotent of order 2 on e
    real, lax = ctx
    s_coeff = DiffPoly.var(3)
    s = real.combination([s_coeff], real.nilpotent_basis)
    q = gauge_transform(lax, s)
    coords = real.borel_coords(q)
    expect_f = q1 - s_coeff ** 2 + 2 * s_coeff * q2 - s_coeff.dx()
    expect_h = q2 - s_coeff
    assert coords[0] == expect_f
    assert coords[1] == expect_h


def test_gauge_transform_rejects_non_nilpotent(ctx):
    real, lax = ctx
    bad = real.rho
    with pytest.raises(ValueError):
        gauge_transform(lax, bad)


def test_canonical_form_sl2_oracle(ctx):
    # two-step recursion by hand: S = q2 f and u = q1 + q2^2 - q2'
    real, lax = ctx
    cf = canonical_form(lax)
    assert nilpotent_coords(real, cf.s_can) == [q2]
    assert cf.u_exprs[0] == q1 + q2 * q2 - q2.dx()


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_canonical_form_is_the_gauge_transform_by_s_can(name):
    # Q_can is e^{ad S_can} acting on L; gauge_transform raises unless S_can
    # is n-valued by the reference oracle
    lax_q = LaxOperator(build_algebra(name), "borel")
    cf = canonical_form(lax_q)
    assert not cf.s_can.is_zero()
    assert cf.q_can == gauge_transform(lax_q, cf.s_can)


def test_canonical_form_vacuum(ctx):
    real, lax = ctx
    cf = canonical_form(lax)
    zero_sub = FunctionJets(lambda a, m: DiffPoly.zero())
    assert map_coeffs(cf.s_can, lambda p: p.substitute(zero_sub)).is_zero()
    assert map_coeffs(cf.q_can, lambda p: p.substitute(zero_sub)).is_zero()


def test_canonical_form_idempotent(ctx):
    real, lax = ctx
    lax_can = LaxOperator(real, "canonical")
    cf = canonical_form(lax_can)
    assert cf.s_can.is_zero()
    assert cf.q_can == lax_can.q
    assert cf.u_exprs[0] == DiffPoly.var(1)


def test_gauge_invariance_check(ctx):
    real, lax = ctx
    cf = canonical_form(lax)
    hom = GaugeHomomorphism(lax)
    assert hom.is_invariant(cf.u_exprs[0])
    assert not hom.is_invariant(q2)
    assert hom.is_invariant(DiffPoly.const(Fraction(5, 3)))


def test_homomorphism_properties(ctx, rng):
    real, lax = ctx
    hom = GaugeHomomorphism(lax)
    for _ in range(8):
        p = random_poly(rng, arity=2, max_order=2, terms=3, degree=2)
        q = random_poly(rng, arity=2, max_order=2, terms=3, degree=2)
        assert hom.apply(p * q) == hom.apply(p) * hom.apply(q)
        assert hom.apply(p.dx()) == hom.apply(p).dx()


def test_f_of_resolvent_is_gauged_resolvent(ctx):
    real, lax = ctx
    depth = 5
    r = lax.resolvent(1, depth)
    hom = GaugeHomomorphism(lax)
    lhs = map_coeffs(r.element, hom.apply)
    rhs = ad_exp_series(hom.s_generic, r.element)
    diff = lhs - rhs
    for d, sl in diff.pdeg_slices().items():
        if d >= r.m_a - depth:
            assert sl.is_zero()


def test_invariants_as_coordinates(ctx):
    real, lax = ctx
    cf = canonical_form(lax)
    us = cf.u_exprs
    assert to_invariant_coordinates(cf, us[0]) == DiffPoly.var(1)
    assert to_invariant_coordinates(cf, us[0].dx()) == DiffPoly.var(1, 1)
    with pytest.raises(NotGaugeInvariantError):
        to_invariant_coordinates(cf, q2)
    # a generator beyond the arity of q (an S-generator of the gauge
    # homomorphism) is not invariant, and the unchecked rewrite drops it
    s_gen = DiffPoly.var(lax.arity + 1, 1)
    with pytest.raises(NotGaugeInvariantError):
        to_invariant_coordinates(cf, us[0] + s_gen)
    assert to_invariant_coordinates(cf, us[0] + s_gen, check=False) == DiffPoly.var(1)


def test_gauge_composition_closure(ctx):
    # gauging by a concrete S first does not change the canonical coordinates
    real, lax = ctx
    cf = canonical_form(lax)
    s0 = real.combination([q2 * q2 - DiffPoly.const(3)], real.nilpotent_basis)
    q_new = gauge_transform(lax, s0)

    class _Gauged:
        def __init__(self):
            self.real = real
            self.q = q_new
            self.lam_plus_q = real.cyclic + q_new

    cf2 = canonical_form(_Gauged())
    assert cf2.u_exprs[0] == cf.u_exprs[0]


def test_splitting_dimensions(ctx):
    real, lax = ctx
    assert len(real.v_basis) == real.ell
    assert real.ell + len(real.nilpotent_basis) == len(real.borel_vectors())
