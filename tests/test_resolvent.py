import json
from fractions import Fraction
from importlib import resources

import pytest

from dressing_route import Dressing, resolvent_slices
from jet_images import FunctionJets
from dshierarchy import resolvent
from dshierarchy.diffalg import DiffPoly
from dshierarchy.kacmoody import LoopElement, LoopRealization, build_algebra
from dshierarchy.resolvent import DepthError, LaxOperator, flow_depth


@pytest.fixture(scope="module")
def lax():
    return LaxOperator(build_algebra("a1_1", 0, depth_hint=10), "borel")


def _at_q_zero(elt: LoopElement) -> LoopElement:
    at_zero = FunctionJets(lambda a, m: DiffPoly.zero())
    return elt.map_coeffs(lambda p: p.substitute(at_zero))


def test_vacuum_dressing_and_resolvent(lax):
    dr = Dressing(lax, 5)
    for d, u_slice in dr.U.items():
        assert _at_q_zero(u_slice).is_zero()
    r = lax.resolvent(1, 5)
    vac = _at_q_zero(r.element())
    assert vac == lax.real.heisenberg_element(1)


def test_dressing_defining_identity(lax):
    dr = Dressing(lax, 4)
    assert dr.residual_slices() == {}


def test_h_leading_slice_is_heisenberg_density(lax):
    real = lax.real
    dr = Dressing(lax, 3)
    h1 = dr.H[-1]
    assert not h1.is_zero()
    lam_m1 = real.heisenberg_element(-1)
    coeff = dr.H_coeff[-1]
    assert h1 == lam_m1.scale(coeff)
    # frozen density for the sl2 table: (q1 + q2^2)/2
    q1, q2 = DiffPoly.var(1), DiffPoly.var(2)
    assert coeff == (q1 + q2 * q2) * Fraction(1, 2)


def test_h_minus_one_linear_in_leading_order(lax):
    # doubling q doubles the linear part of the depth-1 density
    dr = Dressing(lax, 2)
    coeff = dr.H_coeff[-1]
    doubled = coeff.substitute(FunctionJets(lambda a, m: DiffPoly.var(a, m) * 2))
    linear = doubled - coeff * 2
    # the residue is the purely nonlinear part; its linear term cancels
    assert linear.partial((1, 0)).is_zero()


def _table(name: str) -> dict:
    return json.loads(resources.files("dshierarchy.data")
                      .joinpath(f"{name}.json").read_text())


def _by_label(elt: LoopElement) -> dict:
    labels = elt.real.alg.labels
    return {(k, labels[i]): c for k, vec in elt.coeffs.items()
            for i, c in enumerate(vec) if not c.is_zero()}


def test_dressing_unique_under_basis_permutation():
    raw = _table("a1_1")
    perm = dict(raw)
    perm["basis"] = [raw["basis"][i] for i in (2, 0, 1)]
    real_a = LoopRealization(raw, (-6, 3))
    real_b = LoopRealization(perm, (-6, 3))
    ua = Dressing(LaxOperator(real_a, "borel"), 4)
    ub = Dressing(LaxOperator(real_b, "borel"), 4)
    for d in range(-1, -5, -1):
        assert _by_label(ua.u_slice(d)) == _by_label(ub.u_slice(d))


def test_resolvents_unique_under_basis_permutation():
    raw = _table("a2_2")
    perm = dict(raw)
    perm["basis"] = [raw["basis"][i] for i in (5, 2, 7, 0, 3, 1, 6, 4)]
    real_a = LoopRealization(raw, (-5, 4))
    real_b = LoopRealization(perm, (-5, 4))
    lax_a, lax_b = LaxOperator(real_a, "borel"), LaxOperator(real_b, "borel")
    for a in (1, 2):
        ra, rb = lax_a.resolvent(a, 8), lax_b.resolvent(a, 8)
        for d in range(ra.m_a - 8, ra.m_a + 1):
            assert _by_label(ra.slice(d)) == _by_label(rb.slice(d))


@pytest.mark.parametrize("name, depths", [
    ("a1_1", {"canonical": 9, "borel": 9}),
    ("a2_1", {"canonical": 12, "borel": 8}),
    ("a2_2", {"canonical": 20, "borel": 10}),
])
@pytest.mark.parametrize("kind", ["canonical", "borel"])
def test_resolvents_match_dressing_route(name, depths, kind):
    depth = depths[kind]
    real = build_algebra(name, 0, depth_hint=depth + 4)
    lax = LaxOperator(real, kind)
    for a in range(1, real.n + 1):
        r = lax.resolvent(a, depth)
        ref = resolvent_slices(lax, a, depth)
        assert {d: r.slice(d) for d in ref} == ref


def test_mutated_cyclic_element_fails_at_load():
    # Lambda = e + 2 lambda f squares to 2 lambda Id
    raw = _table("a1_1")
    raw["cyclic_lambda_part"] = {"f": "2"}
    with pytest.raises(ValueError, match=r"Lambda\^2 != lambda Id"):
        LoopRealization(raw, (-6, 3))


def test_wrong_heisenberg_coefficient_names_the_degree(monkeypatch):
    right = resolvent._heisenberg_coefficient
    monkeypatch.setattr(resolvent, "_heisenberg_coefficient",
                        lambda top, g, n: right(top, g, n) + 1)
    lax = LaxOperator(build_algebra("a2_1", 0, depth_hint=8), "canonical")
    # the first Heisenberg part of R_1 is at degree -1, checked in R_1^3 at 1
    with pytest.raises(RuntimeError, match=r"R_1\^3 = lambda Id fails at principal degree 1"):
        lax.resolvent(1, 4)


def test_resolvent_defining_residuals(lax):
    r = lax.resolvent(1, 6)
    assert r.leading_is_heisenberg()
    assert r.commutator_residual_slices() == {}
    assert r.pairing_residual(r) == {}


def test_resolvent_coefficients_and_depth_error(lax):
    r = lax.resolvent(1, 4)
    assert r.min_complete_power() == -1
    r.coefficient(-1)
    with pytest.raises(DepthError):
        r.coefficient(-2)
    with pytest.raises(DepthError):
        r.slice(1 - 5)


def test_coefficient_sums_the_slices_once_per_power(lax):
    r = lax.resolvent(1, 6)
    sums = []
    slices = r._slices
    r._slices = lambda: sums.append(1) or slices()
    powers = range(r.min_complete_power(), 2)
    for _ in range(3):
        for k in powers:
            assert r.coefficient(k) == tuple(sum((sl.vector_at(k)[t] for sl in slices()), DiffPoly.zero())
                                for t in range(lax.real.alg.dim))
    assert len(sums) == len(powers)
    # the depth check still comes first, on every call
    for _ in range(2):
        with pytest.raises(DepthError):
            r.coefficient(r.min_complete_power() - 1)
    assert len(sums) == len(powers)


def test_shifted_resolvent_plus(lax):
    real = lax.real
    r = lax.resolvent(1, 6)
    plus = r.shifted_plus(0)
    tail = plus - real.cyclic
    # (R_1)_+ = Lambda + Borel-valued lambda^0 tail
    assert tail.lambda_powers() == [0]
    real.borel_coords(tail.vector_at(0))
    # vacuum: (lambda^{kN} R)_+ at q = 0 is the shifted Heisenberg plus part
    vac = _at_q_zero(r.shifted_plus(1))
    expect = real.heisenberg_element(1).lambda_shift(1).project_plus()
    assert vac == expect
    with pytest.raises(ValueError):
        r.shifted_plus(-1)


def test_pre_flow_bracket_is_borel_at_lambda_zero(lax):
    real = lax.real
    r = lax.resolvent(1, flow_depth(real, 1, 1) + 1)
    xp = r.shifted_plus(1)
    res = xp.bracket(lax.lam_plus_q) - xp.dx()
    assert res.lambda_powers() == [0]
    real.borel_coords(res.vector_at(0))  # raises if outside the Borel span


def test_resolvent_depends_polynomially_on_q(lax):
    r = lax.resolvent(1, 5)
    for j in range(0, 6):
        for vec in r.slice(1 - j).coeffs.values():
            for c in vec:
                assert isinstance(c, DiffPoly)
