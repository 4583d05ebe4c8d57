import random
from fractions import Fraction

import pytest

from conftest import random_poly
from dshierarchy.diffalg import (ArityMismatchError, DegreeUndefinedError,
                                 Derivation, DiffPoly, EpsSeries, JetMap,
                                 apply_poly_derivation)
from reference_ops import d_x, is_graded

u = DiffPoly.var
C = DiffPoly.const


def test_total_derivative_on_generator():
    assert u(1).dx() == u(1, 1)
    assert u(2, 3).dx() == u(2, 4)


def test_total_derivative_kills_constants():
    assert C(Fraction(7, 3)).dx().is_zero()


def test_total_derivative_leibniz_example():
    assert (u(1) * u(1, 1)).dx() == u(1, 1) ** 2 + u(1) * u(1, 2)


def test_leibniz_rule_random(rng):
    for _ in range(25):
        p = random_poly(rng)
        q = random_poly(rng)
        assert (p * q).dx() == p.dx() * q + p * q.dx()


def test_partial_derivatives():
    assert (u(1) ** 2).partial((1, 0)) == 2 * u(1)
    assert u(1, 1).partial((1, 0)).is_zero()


def test_partial_commutes_with_total_derivative(rng):
    # [d/du_{a,m}, d] = d/du_{a,m-1}, with zero right side at m = 0
    for _ in range(20):
        p = random_poly(rng)
        for (alpha, m) in [(1, 0), (1, 1), (2, 2), (1, 3)]:
            lhs = p.dx().partial((alpha, m)) - p.partial((alpha, m)).dx()
            rhs = p.partial((alpha, m - 1)) if m >= 1 else DiffPoly.zero()
            assert lhs == rhs


def test_degree_examples():
    assert (u(1, 2) * u(1, 3)).degree() == 5
    assert u(1).degree() == 0
    assert (u(1, 1) + u(1, 2)).degree() == frozenset({1, 2})
    with pytest.raises(DegreeUndefinedError):
        DiffPoly.zero().degree()


def test_degree_raises_by_one_under_dx(rng):
    for _ in range(10):
        p = random_poly(rng)
        for d, comp in p.degree_decomposition().items():
            dcomp = comp.dx()
            if not dcomp.is_zero():
                assert dcomp.degree() == d + 1


def test_translation_characteristic_is_total_derivative(rng):
    K = 2
    d = d_x(2, K)
    for _ in range(10):
        p = EpsSeries.of_poly(random_poly(rng), K)
        assert d(p) == p.dx()


def test_derivation_on_generators_and_jets():
    K = 1
    w1 = EpsSeries.of_poly(u(1) * u(2), K)
    w2 = EpsSeries.of_poly(u(2, 1), K)
    d = Derivation([w1, w2])
    assert d(u(1)) == w1
    assert d(u(2)) == w2
    assert d(u(1, 2)) == w1.dx().dx()


def test_derivation_leibniz(rng):
    K = 1
    d = Derivation.from_polys([random_poly(rng), random_poly(rng)], K)
    for _ in range(10):
        p = EpsSeries.of_poly(random_poly(rng), K)
        q = EpsSeries.of_poly(random_poly(rng), K)
        assert d(p * q) == d(p) * q + p * d(q)


def test_commutator_antisymmetry(rng):
    d = Derivation.from_polys([random_poly(rng), random_poly(rng)], 1)
    assert d.commutator(d).is_zero()


def test_every_characteristic_derivation_commutes_with_dx(rng):
    K = 1
    ddx = d_x(2, K)
    for _ in range(5):
        d = Derivation.from_polys([random_poly(rng), random_poly(rng)], K)
        assert ddx.commutator(d).is_zero()


def test_kdv_flows_commute_via_both_orderings():
    # frozen sl2 characteristics of the first two nontrivial flows
    w1 = -u(1, 1)
    w2 = Fraction(3, 2) * u(1) * u(1, 1) - Fraction(1, 4) * u(1, 3)
    d1 = Derivation.from_polys([w1], 0)
    d2 = Derivation.from_polys([w2], 0)
    lhs = d1(d2.chars[0])
    rhs = d2(d1.chars[0])
    assert (lhs - rhs).is_zero()
    assert d1.commutator(d2).is_zero()


def test_jacobi_identity_for_commutators(rng):
    K = 1
    ds = [Derivation.from_polys([random_poly(rng, terms=2, degree=2),
                                 random_poly(rng, terms=2, degree=2)], K)
          for _ in range(3)]
    a, b, c = ds
    total = a.commutator(b.commutator(c)).chars
    total2 = b.commutator(c.commutator(a)).chars
    total3 = c.commutator(a.commutator(b)).chars
    for x, y, z in zip(total, total2, total3):
        assert (x + y + z).is_zero()


def test_plain_derivation_is_apply_poly_derivation(rng):
    chars = [random_poly(rng), random_poly(rng)]
    d = Derivation(chars)
    assert d.order is None and d.arity == 2
    graded = Derivation.from_polys(chars, 0)
    for _ in range(8):
        p = random_poly(rng)
        got = d(p)
        assert got == apply_poly_derivation(JetMap(chars), p)
        assert got == graded(p).component(0)


def test_mixed_characteristics_raise():
    for chars in ([u(1), EpsSeries.var(2, 1)], [EpsSeries.var(1, 1), u(2)]):
        with pytest.raises(ValueError, match="disagree on eps order"):
            Derivation(chars)
    with pytest.raises(ValueError):
        Derivation([u(1, 1)])(EpsSeries.var(1, 0))


def test_arity_mismatch():
    d = Derivation.from_polys([u(1, 1)], 0)
    with pytest.raises(ArityMismatchError):
        d(u(2))


def test_jet_map(rng):
    images = [random_poly(rng) for _ in range(3)]
    jets = JetMap(images)
    for a in range(1, 4):
        jet = images[a - 1]
        for m in range(4):
            assert jets(a, m) == jet
            jet = jet.dx()
    assert jets(2, 3) is jets(2, 3)
    with pytest.raises(ArityMismatchError):
        jets(4, 0)


def test_jet_map_rejects_negative_order():
    jets = JetMap([u(1)])
    with pytest.raises(ValueError, match=r"component 1 at order -1"):
        jets(1, -1)
    # the check guards derivations too: a shift variable has no d-jet
    with pytest.raises(ValueError, match=r"component 1 at order -2"):
        apply_poly_derivation(jets, DiffPoly.dvar(1, -2))


def test_eps_series_zero_checks():
    K = 2
    assert EpsSeries.zero(K).is_zero()
    assert not EpsSeries.of_poly(u(1, 1), K, 1).is_zero()
    p = EpsSeries.of_poly(random_poly(random.Random(1)), K)
    assert (p - p).is_zero()


def test_eps_series_truncation_arithmetic():
    K = 2
    a = EpsSeries.of_poly(u(1), K, 1)
    b = EpsSeries.of_poly(u(1, 1), K, 2)
    assert (a * b).is_zero()  # eps^3 is beyond the truncation
    assert (a * a).component(2) == u(1) ** 2


def test_eps_series_graded_check():
    K = 3
    ok = EpsSeries([C(1), u(1, 1), u(1, 1) * u(1, 1), DiffPoly.zero()], K)
    assert is_graded(ok)
    bad = EpsSeries.of_poly(u(1, 2), K, 1)
    assert not is_graded(bad)


def test_regrade_shifts():
    K = 3
    p = u(1) * u(1, 1) + u(1, 3)  # degrees 1 and 3
    graded = EpsSeries.regrade(p, K, shift=0)
    assert graded.component(1) == u(1) * u(1, 1)
    assert graded.component(3) == u(1, 3)
    assert is_graded(graded)
    flow = EpsSeries.regrade(p, K, shift=-1)
    assert flow.component(0) == u(1) * u(1, 1)
    assert flow.component(2) == u(1, 3)
    with pytest.raises(ValueError):
        EpsSeries.regrade(C(1), K, shift=-1)  # degree-0 part cannot drop


def test_commutator_matches_spec_characteristic(rng):
    K = 1
    d1 = Derivation.from_polys([random_poly(rng), random_poly(rng)], K)
    d2 = Derivation.from_polys([random_poly(rng), random_poly(rng)], K)
    comm = d1.commutator(d2)
    for alpha in range(1, 3):
        expect = d1(d2.chars[alpha - 1]) - d2(d1.chars[alpha - 1])
        assert comm.chars[alpha - 1] == expect
