import json
from fractions import Fraction
from importlib import resources

import pytest

from dshierarchy.diffalg import DiffPoly
from dshierarchy.kacmoody import LoopElement, LoopRealization, build_algebra
from dshierarchy.resolvent import DepthError, LaxOperator, flow_depth


@pytest.fixture(scope="module")
def lax():
    return LaxOperator(build_algebra("a1_1", 0, depth_hint=10), "borel")


def _at_q_zero(elt: LoopElement) -> LoopElement:
    return elt.map_coeffs(lambda p: p.substitute(
        lambda a, m: DiffPoly.zero()))


def test_vacuum_dressing_and_resolvent(lax):
    dr = lax.dressing(5)
    for d, u_slice in dr.u_slices().items():
        assert _at_q_zero(u_slice).is_zero()
    r = lax.resolvent(1, 5)
    vac = _at_q_zero(r.element())
    assert vac == lax.real.heisenberg_element(1)


def test_dressing_defining_identity(lax):
    dr = lax.dressing(4)
    assert dr.residual_slices() == {}


def test_h_leading_slice_is_heisenberg_density(lax):
    real = lax.real
    dr = lax.dressing(3)
    h1 = dr.h_slice(-1)
    assert not h1.is_zero()
    lam_m1 = real.heisenberg_element(-1)
    coeff = dr._state.H_coeff[-1]
    assert h1 == lam_m1.scale(coeff)
    # frozen density for the sl2 table: (q1 + q2^2)/2
    q1, q2 = DiffPoly.var(1), DiffPoly.var(2)
    assert coeff == (q1 + q2 * q2) * Fraction(1, 2)


def test_h_minus_one_linear_in_leading_order(lax):
    # doubling q doubles the linear part of the depth-1 density
    dr = lax.dressing(2)
    coeff = dr._state.H_coeff[-1]
    doubled = coeff.substitute(lambda a, m: DiffPoly.var(a, m) * 2)
    linear = doubled - coeff * 2
    # the residue is the purely nonlinear part; its linear term cancels
    assert linear.partial((1, 0)).is_zero()


def test_dressing_unique_under_basis_permutation():
    raw = json.loads(resources.files("dshierarchy.data")
                     .joinpath("a1_1.json").read_text())
    perm = dict(raw)
    perm["basis"] = [raw["basis"][i] for i in (2, 0, 1)]
    real_a = LoopRealization(raw, (-6, 3))
    real_b = LoopRealization(perm, (-6, 3))
    ua = LaxOperator(real_a, "borel").dressing(4)
    ub = LaxOperator(real_b, "borel").dressing(4)
    for d in range(-1, -5, -1):
        sa = {(k, real_a.alg.labels[i]): c
              for k, vec in ua.u_slice(d).coeffs.items()
              for i, c in enumerate(vec) if not c.is_zero()}
        sb = {(k, real_b.alg.labels[i]): c
              for k, vec in ub.u_slice(d).coeffs.items()
              for i, c in enumerate(vec) if not c.is_zero()}
        assert sa == sb


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
