import random
import re
from fractions import Fraction

import pytest
from conftest import random_poly

from dshierarchy import supported_types
from dshierarchy.diffalg import DiffPoly
from dshierarchy.kacmoody import (LoopElement, LoopRealization, UnsupportedTypeError,
                                  build_algebra, load_table)
from dshierarchy.linalg import InconsistentSystemError
from dshierarchy.resolvent import LaxOperator
from reference_ops import (bracket_vec, dense_add, dense_bracket, dense_check_twist,
                           dense_pair, dense_pdeg_slices, dense_scale, from_dense,
                           heisenberg_split, pi_lambda, pi_multi, project_minus,
                           project_plus, to_dense)


@pytest.fixture(scope="module")
def a1():
    return build_algebra("a1_1")


@pytest.fixture(scope="module")
def a2():
    return build_algebra("a2_1")


@pytest.fixture(scope="module")
def tw():
    return build_algebra("a2_2")


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
    e = a1.e_nil
    f = a1.f_jm
    rho = a1.rho
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
    return from_dense(real, coeffs)


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
    e = a1.e_nil
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
    e = a1.e_nil
    assert e.principal_degree() == 1
    f_aff = a1.affine_f
    assert f_aff.principal_degree() == -1
    # lambda f has degree -1 + 2 = 1
    fvec = [DiffPoly.zero()] * a1.alg.dim
    fvec[a1.alg.index["f"]] = DiffPoly.const(1)
    lam_f = from_dense(a1, {1: fvec})
    assert lam_f.principal_degree() == 1
    mixed = e + a1.rho
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


# -- the Lie algebra identities, on the dense Fraction route -------------------

def reference_validate(alg):
    """Alternation, Jacobi, form invariance and symmetry on every basis triple.

    Dense, through ``reference_ops.bracket_vec`` and pair_vec on Fraction unit vectors.  The
    load checks none of these: they follow from independent basis matrices
    (see ``SimpleLieAlgebra``), and this oracle confirms them on every table.
    """
    dim = alg.dim
    zero = Fraction(0)
    basis = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]
    br = lambda a, b: bracket_vec(alg, a, b, zero=zero)
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


@pytest.mark.parametrize("type_name", ["a1_1", "a2_1", "a2_2"])
def test_validate_matches_reference(type_name):
    real = build_algebra(type_name)
    alg = real.alg
    assert reference_validate(alg) is None
    # ad-rho invariance and homogeneity: (pdeg_i + pdeg_j) (x_i|x_j) = 0
    assert all(real.pdeg[i] + real.pdeg[j] == 0
               for i, row in enumerate(alg.gram) for j, g in enumerate(row) if g)
    assert all(isinstance(m, int) for mat in alg.matrices for row in mat for m in row)
    assert all(isinstance(g, int) for row in alg.gram for g in row)


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
@pytest.mark.parametrize("change", ["rank", "basis"])
def test_gauge_basis_length_must_be_rank_affine(name, change):
    # borel_coords reads the first rank_affine coordinates as the V part
    data = load_table(name)  # a fresh parse on every call
    if change == "rank":
        data["rank_affine"] += 1
    else:
        data["gauge_v_basis"] = data["gauge_v_basis"][:-1]
    n_v, ell = len(data["gauge_v_basis"]), data["rank_affine"]
    with pytest.raises(ValueError, match=rf"^gauge subspace has {n_v} basis "
                                         rf"vectors, not rank_affine = {ell}$"):
        LoopRealization(data)


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_borel_coords_refuse_a_lambda_power(name):
    # the Borel frame is lambda^0: a lambda^1 part is refused, not dropped
    real = build_algebra(name)
    v = real.v_basis[0]
    frame = real.borel_vectors()
    assert real.borel_coords(v) == [DiffPoly.const(int(j == 0)) for j in range(len(frame))]
    tail = LoopElement(real, {key: c for key, c in real.cyclic.coeffs.items() if key[0] == 1})
    assert tail.lambda_powers() == [1]
    with pytest.raises(InconsistentSystemError, match=r"^lambda\^1 \w+ is not in b$"):
        real.borel_coords(v + tail)


@pytest.mark.parametrize("name, label", [("a1_1", "h"), ("a2_1", "h1"), ("a2_2", "H")])
def test_dependent_basis_fails_to_load(name, label):
    # the identities the load no longer checks rest on independent matrices;
    # a degree-0 element again at twice its matrix keeps every other check true
    data = load_table(name)
    x = next(b for b in data["basis"] if b["label"] == label)
    data["basis"].append({**x, "label": label + "_twice",
                          "matrix": [[2 * m for m in row] for row in x["matrix"]]})
    dim = len(data["basis"])
    with pytest.raises(ValueError, match=rf"^{re.escape(data['name'])}: the {dim} basis "
                                         rf"matrices have rank {dim - 1}; they must be "
                                         rf"linearly independent$"):
        LoopRealization(data)


# -- the sparse coefficient map against the dense reference ----------------------

def _random_poly_element(real, rng, window=(-2, 2), twisted=True):
    """Random DiffPoly coefficients on about half the lambda^k x_i of the window;
    with ``twisted`` False the twist classes are ignored."""
    n = real.twist_order
    return LoopElement(real, {(k, i): random_poly(rng, terms=2, degree=1)
                              for k in range(window[0], window[1] + 1)
                              for i in range(real.alg.dim)
                              if (not twisted or real.twist_class[i] % n == k % n)
                              and rng.random() < 0.5})


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_sparse_operations_equal_the_dense_reference(name):
    real = build_algebra(name)
    rng = random.Random(35)
    n = real.twist_order
    twist_checked = set()
    for trial in range(12):
        x = _random_poly_element(real, rng, twisted=trial % 3 != 0)
        y = _random_poly_element(real, rng, (-1, 2))
        c = random_poly(rng, terms=2, degree=1)
        dx, dy = to_dense(x), to_dense(y)
        assert from_dense(real, dx) == x
        assert to_dense(x + y) == dense_add(dx, dy)
        assert to_dense(x - y) == dense_add(dx, dense_scale(dy, -1))
        assert to_dense(-x) == dense_scale(dx, -1)
        assert to_dense(x.scale(c)) == dense_scale(dx, c)
        assert to_dense(x.scale(0)) == {} == dense_scale(dx, 0)
        assert to_dense(x.bracket(y)) == dense_bracket(real, dx, dy)
        assert x.pair(y) == dense_pair(real, dx, dy)
        for lo in range(-5, 6):
            assert x.pair(y, lo) == dense_pair(real, dx, dy, lo)
        assert {d: to_dense(s) for d, s in x.pdeg_slices().items()} == \
            dense_pdeg_slices(real, dx)
        assert to_dense(x.lambda_shift(2 * n)) == {k + 2 * n: v for k, v in dx.items()}
        assert x.check_twist() == dense_check_twist(real, dx)
        twist_checked.add(x.check_twist())
    # on the twisted table both verdicts are compared
    assert twist_checked == ({True, False} if n > 1 else {True})


def _no_zero_stored(x: LoopElement) -> bool:
    return all(not c.is_zero() for c in x.coeffs.values())


def test_no_zero_coefficient_is_stored(a1, rng):
    x = _random_poly_element(a1, rng)
    assert not x.is_zero() and (x - x).coeffs == {}
    # [e + f + h, e + f]: [e, f] + [f, e] cancels on h, 2e - 2f stays
    e, f, h = (LoopElement(a1, {(0, a1.alg.index[lab]): DiffPoly.const(1)})
               for lab in ("e", "f", "h"))
    z = (e + f + h).bracket(e + f)
    assert z == e.scale(2) - f.scale(2) and _no_zero_stored(z)
    # the preimage of [Lambda, x_i lambda^k] solves every other slice coordinate to zero
    one, dropped = DiffPoly.const(1), 0
    for real in (a1, build_algebra("a2_1"), build_algebra("a2_2")):
        for d in range(-6, 7):
            basis = real.slice_basis(d - 1)
            for key in basis:
                y = real.splitter(d).preimage(real.cyclic.bracket(LoopElement(real, {key: one})))
                assert _no_zero_stored(y)
                dropped += len(basis) - len(y.coeffs)
    assert dropped > 0
    # the resolvent's element is the union of its slices, with their own coefficients
    r = LaxOperator(a1, "borel").resolvent(1, 6)
    slices = [r.slice(r.m_a - j).coeffs for j in range(r.depth + 1)]
    assert len(r.element.coeffs) == sum(len(s) for s in slices)
    for s in slices:
        assert all(r.element.coeffs[key] is c for key, c in s.items())


# -- load errors name what failed ----------------------------------------------------

def _set_class(label, cls):
    def corrupt(data):
        data["twist_order"] = 2
        next(b for b in data["basis"] if b["label"] == label)["twist_class"] = cls
    return corrupt


def _append_identity(data):
    # gl3 in place of sl3: the identity pairs with itself, and class 1 + 1
    # is not 0 mod 3, though it brackets to zero with everything
    data["twist_order"] = 3
    data["basis"].append({"label": "one", "pdeg": 0, "twist_class": 1,
                          "matrix": [[int(r == c) for c in range(3)] for r in range(3)]})


def _heisenberg(m):
    return lambda data: next(item["element"] for item in data["heisenberg"]
                             if item["exponent"] == m)


def _move_heisenberg_up(data):
    elt = _heisenberg(2)(data)
    elt["1"], elt["2"] = elt.pop("0"), elt.pop("1")


@pytest.mark.parametrize("name, corrupt, message", [
    ("a1_1", _set_class("e", 1),
     r"structure constants break the twist grading: \[e, f\] has a h term"),
    ("a2_1", _append_identity, r"bilinear form mixes twist classes: \(one\|one\) != 0"),
    ("a2_2", lambda data: _heisenberg(5)(data)["2"].update(P0="1"),
     r"Heisenberg element Lambda_5 breaks the twist"),
    ("a2_1", _move_heisenberg_up, r"Heisenberg element Lambda_2 is not of principal degree 2"),
    ("a2_1", lambda data: _heisenberg(2)(data)["1"].update(f1="2"),
     r"Heisenberg is not abelian: \[Lambda_1, Lambda_2\] != 0"),
    ("a2_1", lambda data: data["nilpotent_basis"].__setitem__(1, {"e1": "1"}),
     r"\[n, e_m lambda\] != 0 fails on nilpotent basis vector 1"),
    ("a2_1", lambda data: data.update(chevalley_e=["e1", "h1"]),
     r"finite Chevalley raising generator h1 not of degree 1"),
    ("a2_1", lambda data: data.update(chevalley_f=["f1", "fth"]),
     r"finite Chevalley lowering generator fth not of degree -1"),
    # a class-1 term at lambda^0 is off the twisted loop algebra's b
    ("a2_2", lambda data: data.update(gauge_v_basis=[{"F": "1", "Pm1": "1"}]),
     r"Borel frame vector 0 is not in b"),
    ("a2_1", lambda data: data.update(nilpotent_basis=[{"f1": "1"}, {"f2": "1"}]),
     r"dim V \+ dim \[e,n\] != dim b"),
    ("a2_1", lambda data: data.update(gauge_v_basis=[{"f1": "1", "f2": "1"}, {"f1": "1"}]),
     r"V does not complement \[e, n\] in the Borel"),
], ids=["bracket-twist", "form-twist", "heisenberg-twist", "heisenberg-degree",
        "heisenberg-abelian", "n-e-lambda", "chevalley-e", "chevalley-f", "borel-frame",
        "borel-dim", "borel-complement"])
def test_corrupted_table_error_names_the_index(name, corrupt, message):
    data = load_table(name)  # a fresh parse on every call
    corrupt(data)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        LoopRealization(data)
