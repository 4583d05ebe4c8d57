import copy
import random
import re
from fractions import Fraction

import pytest

from dshierarchy import supported_types
from dshierarchy.diffalg import DiffPoly
from dshierarchy.kacmoody import (LoopElement, SimpleLieAlgebra, UnsupportedTypeError,
                                  build_algebra)
from reference_ops import (heisenberg_split, pi_lambda, pi_multi, project_minus,
                           project_plus)


@pytest.fixture(scope="module")
def a1():
    return build_algebra("a1_1", 0, depth_hint=10)


@pytest.fixture(scope="module")
def a2():
    return build_algebra("a2_1", 0, depth_hint=10)


@pytest.fixture(scope="module")
def tw():
    return build_algebra("a2_2", 0, depth_hint=14)


def test_supported_and_errors():
    assert set(supported_types()) == {"a1_1", "a2_1", "a2_2"}
    with pytest.raises(UnsupportedTypeError):
        build_algebra("e8_1")
    with pytest.raises(ValueError):
        build_algebra("a1_1", vertex=5)
    with pytest.raises(UnsupportedTypeError):
        build_algebra("a2_1", vertex=1)  # in range, but no table shipped


def test_a1_structure(a1):
    assert (a1.r, a1.h, a1.twist_order) == (1, 2, 1)
    assert a1.exponents == [1]
    # exponent set is 1 + 2Z: degree 3 and 5 elements exist, degree 2 does not
    assert a1.heisenberg_at(3) is not None
    assert a1.heisenberg_at(5) is not None
    assert a1.heisenberg_at(2) is None
    lam = a1.cyclic
    assert lam.principal_degree() == 1
    assert lam.pair(lam) == {1: DiffPoly.const(2)}  # (Lambda|Lambda) = 2 lambda


def test_a2_structure(a2):
    assert (a2.r, a2.h, a2.n, a2.ell) == (1, 3, 2, 2)
    assert a2.exponents == [1, 2]
    for d in (1, 2, 4, 5, 7):
        assert a2.heisenberg_at(d) is not None
    for d in (3, 6):
        assert a2.heisenberg_at(d) is None


def test_twisted_structure(tw):
    assert (tw.r, tw.h, tw.twist_order, tw.deg_lambda) == (2, 3, 2, 3)
    assert tw.exponents == [1, 5]
    for d in (1, 5, 7, 11):
        assert tw.heisenberg_at(d) is not None
    for d in (2, 3, 4, 6):
        assert tw.heisenberg_at(d) is None
    assert tw.kac_labels == [2, 1]


def test_exponent_symmetry(a1, a2, tw):
    for real in (a1, a2, tw):
        ms = real.exponents
        rh = real.r * real.h
        for a in range(real.n):
            assert ms[a] + ms[real.n - 1 - a] == rh


def test_bracket_examples(a1):
    e = LoopElement.from_vector(a1, 0, a1.poly_vector(a1.e_nil))
    f = LoopElement.from_vector(a1, 0, a1.poly_vector(a1.f_jm))
    rho = LoopElement.from_vector(a1, 0, a1.poly_vector(a1.rho))
    assert e.bracket(f) == rho
    assert e.bracket(e).is_zero()
    # Heisenberg is abelian across lambda shifts: [Lambda_1, Lambda_3] = 0
    lam1 = a1.heisenberg_element(1)
    lam3 = a1.heisenberg_element(3)
    assert lam1.bracket(lam3).is_zero()


def test_bilinear_examples(a1, rng):
    lam1 = a1.heisenberg_element(1)
    lam3 = a1.heisenberg_element(3)
    # normalization: (Lambda_1 | Lambda_3) = h lambda^(1+3)/deg = 2 lambda^2
    assert lam1.pair(lam3) == {2: DiffPoly.const(2)}
    zero = LoopElement.zero(a1)
    assert lam1.pair(zero) == {}
    # invariance ([x,y]|z) = -(y|[x,z]) on random triples
    for _ in range(10):
        elts = [_random_element(a1, rng) for _ in range(3)]
        x, y, z = elts
        lhs = x.bracket(y).pair(z)
        rhs = y.pair(x.bracket(z))
        total = dict(lhs)
        for k, v in rhs.items():
            total[k] = total.get(k, DiffPoly.zero()) + v
        assert all(v.is_zero() for v in total.values())


def _random_element(real, rng, window=(-2, 2)):
    coeffs = {}
    for k in range(window[0], window[1] + 1):
        vec = [DiffPoly.zero()] * real.alg.dim
        for i in range(real.alg.dim):
            if real.twist_class[i] % real.twist_order != k % real.twist_order:
                continue
            if rng.random() < 0.4:
                vec[i] = DiffPoly.const(rng.randint(-3, 3))
        coeffs[k] = vec
    return LoopElement(real, coeffs)


def test_loop_jacobi_random(a2, rng):
    for _ in range(6):
        x = _random_element(a2, rng, (-1, 1))
        y = _random_element(a2, rng, (-1, 1))
        z = _random_element(a2, rng, (-1, 1))
        total = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + \
            z.bracket(x.bracket(y))
        assert total.is_zero()


def test_twist_preserved_by_operations(tw, rng):
    for _ in range(8):
        x = _random_element(tw, rng)
        y = _random_element(tw, rng)
        assert x.check_twist() and y.check_twist()
        assert x.bracket(y).check_twist()
        assert project_plus(x).check_twist()
        assert project_minus(x).check_twist()


def test_heisenberg_split(a1, rng):
    lam1 = a1.heisenberg_element(1)
    h, im = heisenberg_split(a1, lam1)
    assert h == lam1 and im.is_zero()
    # an ad Lambda image splits as (0, x)
    w = _random_element(a1, rng, (-2, 1))
    x = a1.cyclic.bracket(w)
    h, im = heisenberg_split(a1, x)
    assert h.is_zero() and im == x
    # generic split re-sums and the H part commutes with Lambda
    e = LoopElement.from_vector(a1, 0, a1.poly_vector(a1.e_nil))
    h, im = heisenberg_split(a1, e)
    assert h + im == e
    assert a1.cyclic.bracket(h).is_zero()
    assert not h.is_zero()  # e = (Lambda + (e - lambda f)) / ... has an H part


def test_pi_lambda():
    lau = {-1: 1, 0: 2, 3: 4, -3: 7, -2: 9}
    assert pi_lambda(lau, 1) == {-1: 1, -3: 7, -2: 9}
    assert pi_lambda({-2: 5}, 2) == {}
    assert pi_lambda({-3: 5}, 2) == {-3: 5}
    assert pi_lambda({-1: 1, 4: 2}, 2) == {-1: 1}
    # idempotence
    once = pi_lambda(lau, 2)
    assert pi_lambda(once, 2) == once


def test_pi_lambda_mu_commute(rng):
    grid = {(k1, k2): rng.randint(1, 9)
            for k1 in range(-4, 3) for k2 in range(-4, 3)}
    for n in (1, 2):
        one_then_two = pi_multi(pi_multi(grid, n, [0]), n, [1])
        two_then_one = pi_multi(pi_multi(grid, n, [1]), n, [0])
        assert one_then_two == two_then_one == pi_multi(grid, n)


def test_pi_three_variables(rng):
    grid = {(k1, k2, k3): rng.randint(1, 9)
            for k1 in range(-3, 2) for k2 in range(-3, 2)
            for k3 in range(-3, 2)}
    out = pi_multi(grid, 2)
    assert out
    assert all(all(k < 0 and (k + 1) % 2 == 0 for k in key) for key in out)
    # idempotent
    assert pi_multi(out, 2) == out


def test_principal_degree_examples(a1):
    assert a1.cyclic.principal_degree() == 1
    e = LoopElement.from_vector(a1, 0, a1.poly_vector(a1.e_nil))
    assert e.principal_degree() == 1
    f_aff = a1.affine_f
    assert f_aff.principal_degree() == -1
    # lambda f has degree -1 + 2 = 1
    fvec = [DiffPoly.zero()] * a1.alg.dim
    fvec[a1.alg.index["f"]] = DiffPoly.const(1)
    lam_f = LoopElement(a1, {1: fvec})
    assert lam_f.principal_degree() == 1
    mixed = e + LoopElement.from_vector(a1, 0, a1.poly_vector(a1.rho))
    assert mixed.principal_degree() == frozenset({0, 1})
    with pytest.raises(ValueError):
        LoopElement.zero(a1).principal_degree()


def test_projections(a1, rng):
    x = _random_element(a1, rng)
    plus, minus = project_plus(x), project_minus(x)
    assert plus + minus == x
    assert all(k >= 0 for k in plus.lambda_powers())
    assert all(k < 0 for k in minus.lambda_powers())


def test_chevalley_degrees(a2):
    for idx in a2.chevalley_e:
        assert a2.pdeg[idx] == 1
    for idx in a2.chevalley_f:
        assert a2.pdeg[idx] == -1


def test_struct_constants_twist_compatible(tw):
    n = tw.twist_order
    for (i, j), entries in tw.alg.bracket_table.items():
        cls = (tw.twist_class[i] + tw.twist_class[j]) % n
        for k, _ in entries:
            assert tw.twist_class[k] % n == cls


# -- validate against the dense Fraction route --------------------------------

def reference_validate(alg):
    """The dense validate: bracket_vec and pair_vec on Fraction unit vectors.

    ``SimpleLieAlgebra.validate`` computes the same checks on the sparse rows
    of ``bracket_table``, in the same order and with the same messages.
    """
    dim = alg.dim
    zero = Fraction(0)
    basis = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]
    br = lambda a, b: alg.bracket_vec(a, b, zero=zero)
    for i in range(dim):
        if any(br(basis[i], basis[i])):
            raise ValueError(f"bracket not alternating at basis index {i}")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                jac = br(basis[i], br(basis[j], basis[k]))
                jac2 = br(basis[j], br(basis[k], basis[i]))
                jac3 = br(basis[k], br(basis[i], basis[j]))
                if any(a + b + c for a, b, c in zip(jac, jac2, jac3)):
                    raise ValueError(f"Jacobi identity fails on triple {i},{j},{k}")
                lhs = alg.pair_vec(br(basis[i], basis[j]), basis[k], zero=zero)
                rhs = alg.pair_vec(basis[j], br(basis[i], basis[k]), zero=zero)
                if lhs + rhs != 0:
                    raise ValueError(f"bilinear form is not invariant on triple {i},{j},{k}")
    for i in range(dim):
        for j in range(dim):
            if alg.gram[i][j] != alg.gram[j][i]:
                raise ValueError(f"bilinear form is not symmetric on pair {i},{j}")


def _verdict(check, alg):
    try:
        check(alg)
    except ValueError as exc:
        return str(exc)
    return None


def _with_bracket_table(alg, table):
    """A copy of alg whose structure constants (and bracket_vec rows) are ``table``."""
    bad = copy.copy(alg)
    bad.bracket_table = table
    bad._bracket_rows = [[] for _ in range(alg.dim)]
    for (i, j), entries in table.items():
        bad._bracket_rows[i].append((j, entries))
    return bad


@pytest.mark.parametrize("type_name", ["a1_1", "a2_1", "a2_2"])
def test_validate_matches_reference(type_name):
    alg = build_algebra(type_name).alg
    assert alg.validate() is None
    assert reference_validate(alg) is None
    assert all(isinstance(m, int) for mat in alg.matrices for row in mat for m in row)
    assert all(isinstance(g, int) for row in alg.gram for g in row)


def test_corrupted_structure_constant_names_a_jacobi_triple(a2):
    alg = a2.alg
    key = min(alg.bracket_table)
    (k, c), *rest = alg.bracket_table[key]
    bad = _with_bracket_table(alg, {**alg.bracket_table, key: ((k, c + 1), *rest)})
    got = _verdict(SimpleLieAlgebra.validate, bad)
    assert re.fullmatch(r"Jacobi identity fails on triple \d+,\d+,\d+", got)
    assert got == _verdict(reference_validate, bad)
    assert alg.validate() is None  # the original is untouched


def test_corrupted_gram_entry_names_the_indices(tw):
    alg = tw.alg
    i, j = next((i, j) for i in range(alg.dim) for j in range(alg.dim)
                if i != j and alg.gram[i][j])
    bad = copy.copy(alg)
    bad.gram = [row[:] for row in alg.gram]
    bad.gram[i][j] += 1
    got = _verdict(SimpleLieAlgebra.validate, bad)
    assert re.fullmatch(r"bilinear form is not invariant on triple \d+,\d+,\d+", got)
    assert got == _verdict(reference_validate, bad)
    # the same change on both (i, j) and (j, i) keeps the form symmetric
    bad.gram = [row[:] for row in alg.gram]
    bad.gram[i][j] = bad.gram[j][i] = alg.gram[i][j] + 1
    got = _verdict(SimpleLieAlgebra.validate, bad)
    assert got.startswith("bilinear form is not invariant on triple")
    assert got == _verdict(reference_validate, bad)


def test_self_bracket_names_the_index(a1):
    alg = a1.alg
    bad = _with_bracket_table(alg, {**alg.bracket_table, (1, 1): ((0, 1),)})
    got = _verdict(SimpleLieAlgebra.validate, bad)
    assert got == "bracket not alternating at basis index 1"
    assert got == _verdict(reference_validate, bad)


def test_asymmetric_form_names_the_pair(a1):
    # with an abelian bracket every triple is invariant, so only symmetry fails
    alg = _with_bracket_table(a1.alg, {})
    alg.gram = [row[:] for row in a1.alg.gram]
    alg.gram[0][1] += 1
    got = _verdict(SimpleLieAlgebra.validate, alg)
    assert got == "bilinear form is not symmetric on pair 0,1"
    assert got == _verdict(reference_validate, alg)
