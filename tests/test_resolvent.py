import json
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import power_route
from dressing_route import Dressing, resolvent_slices
from jet_images import FunctionJets
from matrixform import check_table, matrix_form, matrix_product
from power_route import PowerRoute
from reference_ops import (coefficient, from_dense, map_coeffs, pairing_residual_loop,
                           project_plus, split_with_preimage, to_dense, vector_at)
from dshierarchy import supported_types
from dshierarchy.diffalg import DiffPoly
from dshierarchy.hierarchy import DSHierarchy
from dshierarchy.kacmoody import LoopElement, LoopRealization, build_algebra
from dshierarchy.linalg import InconsistentSystemError, LinearSolver
from dshierarchy.resolvent import DepthError, LaxOperator, flow_depth


@pytest.fixture(scope="module")
def lax():
    return LaxOperator(build_algebra("a1_1"), "borel")


def _at_q_zero(elt: LoopElement) -> LoopElement:
    at_zero = FunctionJets(lambda a, m: DiffPoly.zero())
    return map_coeffs(elt, lambda p: p.substitute(at_zero))


def test_vacuum_dressing_and_resolvent(lax):
    dr = Dressing(lax, 5)
    for d, u_slice in dr.U.items():
        assert _at_q_zero(u_slice).is_zero()
    r = lax.resolvent(1, 5)
    vac = _at_q_zero(r.element)
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
    return {(k, labels[i]): c for k, vec in to_dense(elt).items()
            for i, c in enumerate(vec) if not c.is_zero()}


def test_dressing_unique_under_basis_permutation():
    raw = _table("a1_1")
    perm = dict(raw)
    perm["basis"] = [raw["basis"][i] for i in (2, 0, 1)]
    real_a = LoopRealization(raw)
    real_b = LoopRealization(perm)
    ua = Dressing(LaxOperator(real_a, "borel"), 4)
    ub = Dressing(LaxOperator(real_b, "borel"), 4)
    for d in range(-1, -5, -1):
        assert _by_label(ua.u_slice(d)) == _by_label(ub.u_slice(d))


def test_resolvents_unique_under_basis_permutation():
    raw = _table("a2_2")
    perm = dict(raw)
    perm["basis"] = [raw["basis"][i] for i in (5, 2, 7, 0, 3, 1, 6, 4)]
    real_a = LoopRealization(raw)
    real_b = LoopRealization(perm)
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
    real = build_algebra(name)
    lax = LaxOperator(real, kind)
    for a in range(1, real.n + 1):
        r = lax.resolvent(a, depth)
        ref = resolvent_slices(lax, a, depth)
        assert {d: r.slice(d) for d in ref} == ref


@pytest.mark.parametrize("kind", ["canonical", "borel"])
@pytest.mark.parametrize("name, depths", [
    ("a1_1", {"canonical": 10, "borel": 10}),
    ("a2_1", {"canonical": 12, "borel": 9}),
    ("a2_2", {"canonical": 22, "borel": 10}),
])
def test_slices_equal_the_power_route(name, depths, kind):
    # the program fixes each Heisenberg part by d^{-1}; the reference by one
    # entry of a power of R_1 per degree
    depth = depths[kind]
    lax = LaxOperator(build_algebra(name), kind)
    lax.dressing(depth)
    ref = PowerRoute(lax)
    ref.dressing(depth)
    for a, m in enumerate(lax.real.exponents, 1):
        assert sorted(lax._r[a]) == list(range(m - depth, m + 1))
        assert lax._r[a] == {d: sl for d, sl in ref._r[a].items() if d >= m - depth}, a


@pytest.mark.parametrize("name", supported_types())
def test_every_shipped_table_passes_the_power_route_check(name):
    check_table(_table(name))


def test_mutated_cyclic_element_fails_at_load():
    # Lambda = e + 2 lambda f squares to 2 lambda Id: the load rejects it as
    # another Lambda_1, the table check of the power route by its square
    raw = _table("a1_1")
    raw["cyclic_lambda_part"] = {"f": "2"}
    with pytest.raises(ValueError, match="Lambda_1 must equal the cyclic element"):
        LoopRealization(raw)
    with pytest.raises(ValueError, match=r"Lambda\^2 != lambda Id"):
        check_table(raw)


@pytest.mark.parametrize("name, exponents, k, found", [
    ("a2_1", [1, 3], 2, 0),
    ("a2_2", [1, 6], 2, 0),
    ("a2_1", [1, 2, 5], 2, 2),
])
def test_mutated_exponents_fail_at_load(name, exponents, k, found):
    # the load rejects exponents off m_a + m_{n+1-a} = r h; the power route
    # needs each power R_1^k, 0 < k < n, to be exactly one basic resolvent
    raw = _table(name)
    raw["exponents"] = exponents
    with pytest.raises(ValueError, match="exponents"):
        LoopRealization(raw)
    with pytest.raises(ValueError, match=rf"R_1\^{k} needs exactly one exponent "
                                         rf"that is {k} mod 3, found {found}"):
        check_table(raw)


def test_wrong_heisenberg_coefficient_names_the_degree(monkeypatch):
    right = power_route._heisenberg_coefficient
    monkeypatch.setattr(power_route, "_heisenberg_coefficient",
                        lambda entry, v, n: right(entry, v, n) + 1)
    ref = PowerRoute(LaxOperator(build_algebra("a2_1"), "canonical"))
    # the first Heisenberg part of R_1 is at degree -1, checked in R_1^3 at 1
    with pytest.raises(RuntimeError, match=r"R_1\^3 = lambda Id fails at principal degree 1"):
        ref.dressing(4)


def _powers(n: int, r: dict) -> dict:
    """{k: {degree: slice of R^k}} for 1 <= k <= n, every slice by convolution.

    ``r`` maps each degree d to the matrix form of the slice R_d of R.  Each
    slice of each power is rebuilt with matrix_product; with the lowest slice
    of R at degree low, R^k is complete down to degree low + k - 1.
    """
    low = min(r)
    power = {1: r}
    for k in range(2, n + 1):
        power[k] = {top: matrix_product((r[e], power[k - 1][top - e])
                                        for e in r if top - e in power[k - 1])
                    for top in range(k, low + k - 2, -1)}
    return power


def _nonzero(form: dict) -> dict:
    return {key: c for key, c in form.items() if c}


def _identity_residual(n: int, r: dict) -> dict:
    """The nonzero slices of R^n - lambda Id at every degree where R^n is complete."""
    power = _powers(n, r)[n]
    for i in range(n):
        power[n][(1, i, i)] = power[n].get((1, i, i), DiffPoly.zero()) - 1
    out = {}
    for top, sl in power.items():
        sl = _nonzero(sl)
        if sl:
            out[top] = sl
    return out


def _matrix_forms(real: LoopRealization, r: dict) -> dict:
    return {d: matrix_form(real.alg, to_dense(sl)) for d, sl in r.items()}


@pytest.mark.parametrize("name, depth", [("a1_1", 10), ("a2_1", 9), ("a2_2", 10)])
@pytest.mark.parametrize("kind", ["canonical", "borel"])
def test_full_power_identity_holds_at_every_degree(name, depth, kind):
    # the program forms no power of R_1; here every slice of R_1^n is
    # rebuilt through the computed depth
    lax = LaxOperator(build_algebra(name), kind)
    lax.dressing(depth)
    real, n = lax.real, lax.real.alg.size
    assert min(lax._r[1]) == 1 - depth
    assert _identity_residual(n, _matrix_forms(real, lax._r[1])) == {}
    # a wrong slice of R_1 shows in the reference
    r = dict(lax._r[1])
    r[-1] = r[-1] + real.heisenberg_element(-1)
    assert _identity_residual(n, _matrix_forms(real, r))


# canonical: the depth that `verify --max-k 2` dresses to; borel (more
# generators, so far larger slices): as deep as a test run affords
@pytest.mark.parametrize("name, depths", [
    ("a2_1", {"canonical": 20, "borel": 10}),
    ("a2_2", {"canonical": 38, "borel": 16}),
])
@pytest.mark.parametrize("kind", ["canonical", "borel"])
def test_power_slices_are_the_resolvents(name, depths, kind):
    # the program solves each R_a alone; here every slice of R_1^k,
    # 1 < k < n, is rebuilt by convolution and is lambda^{-s} R_a, m_a = s n + k
    depth = depths[kind]
    lax = LaxOperator(build_algebra(name), kind)
    lax.dressing(depth)
    real, n = lax.real, lax.real.alg.size
    power = _powers(n, _matrix_forms(real, lax._r[1]))
    checked = 0
    for a, m in enumerate(real.exponents, 1):
        s, k = divmod(m, n)
        if k == 1:
            continue
        assert sorted(power[k]) == sorted(d - s * n for d in lax._r[a])
        for d, sl in lax._r[a].items():
            shifted = {(p - s, i, j): c for (p, i, j), c in matrix_form(real.alg, to_dense(sl)).items()}
            assert _nonzero(power[k][d - s * n]) == shifted, (a, d)
            checked += 1
    assert checked == depth + 1


def _offset_with_heisenberg_in_r1_only(real: LoopRealization, m: int) -> int:
    """The first offset j with a Heisenberg element at degree 1 - j but none at m - j."""
    return next(j for j in range(1, 20)
                if real.heisenberg_at(1 - j) is not None and real.heisenberg_at(m - j) is None)


@pytest.mark.parametrize("name, power", [("a2_1", "R_2"), ("a2_2", "lambda\\^-1 R_5")])
def test_wrong_entry_at_a_power_slice_without_heisenberg_element_names_it(
        monkeypatch, name, power):
    # with a Heisenberg element in R_1, the identity R_1^n = lambda Id absorbs
    # the wrong entry into c; the power R_1^2 must still catch it
    ref = PowerRoute(LaxOperator(build_algebra(name), "canonical"))
    real, n = ref.real, ref.real.alg.size
    j = _offset_with_heisenberg_in_r1_only(real, real.exponents[1])
    right, calls = power_route.matrix_entry, []

    def wrong(terms, key):
        # n - 1 calls per offset, for R_1^2, ..., R_1^n
        calls.append(key)
        return right(terms, key) + (1 if len(calls) == (n - 1) * (j - 1) + 1 else 0)

    monkeypatch.setattr(power_route, "matrix_entry", wrong)
    with pytest.raises(RuntimeError,
                       match=rf"R_1\^2 = {power} fails at principal degree {2 - j}$"):
        ref.dressing(j + 2)


@pytest.mark.parametrize("name, a", [("a1_1", 1), ("a2_1", 1), ("a2_1", 2), ("a2_2", 2)])
def test_heisenberg_part_in_the_commutator_names_the_resolvent(monkeypatch, name, a):
    # a right-hand side of [L, R_a] = 0 with a Heisenberg part cannot be solved
    real = build_algebra(name)
    lax = LaxOperator(real, "canonical")
    m = real.exponents[a - 1]
    splitter, h_m = real.splitter, real.heisenberg_at(m)

    class WithHeisenbergPart:
        def preimage(self, x):
            return splitter(m).preimage(x + h_m)

    monkeypatch.setattr(real, "splitter", lambda d: WithHeisenbergPart() if d == m else splitter(d))
    with pytest.raises(RuntimeError,
                       match=rf"\[L, R_{m}\] = 0 has a Heisenberg part at principal degree {m}$"):
        lax.resolvent(a, 3)


@pytest.mark.parametrize("name, kind, a", [
    ("a1_1", "borel", 1), ("a2_1", "canonical", 2), ("a2_2", "canonical", 1), ("a2_2", "borel", 2)])
def test_heisenberg_inverse_off_by_a_non_constant_names_the_resolvent(monkeypatch, name, kind, a):
    # h_d + u_1 leaves d(u_1) H_d in [L, R_a] one degree down: the next
    # preimage solve finds it
    real = build_algebra(name)
    lax = LaxOperator(real, kind)
    m = real.exponents[a - 1]
    d = next(d for d in range(m - 1, m - 40, -1) if real.heisenberg_at(d) is not None)
    right = lax._heisenberg_inverse

    def off(b, e, y):
        return right(b, e, y) + (DiffPoly.var(1) if e == d else 0)

    monkeypatch.setattr(lax, "_heisenberg_inverse", off)
    lax.resolvent(a, m - d)
    with pytest.raises(RuntimeError,
                       match=rf"\[L, R_{m}\] = 0 has a Heisenberg part at principal degree {d}$"):
        lax.resolvent(a, m - d + 1)


@pytest.mark.parametrize("name, depth", [("a1_1", 15), ("a2_1", 12), ("a2_2", 20)])
def test_dressing_makes_one_splitter_solve_per_degree(monkeypatch, name, depth):
    real = build_algebra(name)
    lax = LaxOperator(real, "borel")
    solve, solved = LinearSolver.solve, []

    def counted(self, b, zero=Fraction(0)):
        solved.append(self)
        return solve(self, b, zero)

    monkeypatch.setattr(LinearSolver, "solve", counted)
    lax.dressing(depth)
    degree_of = {id(real.splitter(d).solver): d
                 for m in real.exponents for d in range(m - depth + 1, m + 1)}
    want = sorted(d for m in real.exponents for d in range(m - depth + 1, m + 1))
    assert sorted(degree_of[id(s)] for s in solved) == want


@pytest.mark.parametrize("name, kind, a, d", [
    ("a1_1", "borel", 1, -1), ("a2_1", "canonical", 1, -4),
    ("a2_2", "canonical", 1, -5), ("a2_2", "borel", 2, 1)])
def test_non_exact_heisenberg_projection_names_the_resolvent(name, kind, a, d):
    # the projection reads a stand-in u_1 q in place of q: its Heisenberg
    # coefficient is no total derivative
    real = build_algebra(name)
    lax, stand_in = LaxOperator(real, kind), LaxOperator(real, kind)
    stand_in._q_slices = sorted(lax.q.scale(DiffPoly.var(1)).pdeg_slices().items(), reverse=True)
    lax._dual = stand_in._dual
    m = real.exponents[a - 1]
    with pytest.raises(RuntimeError, match=rf"^\[L, R_{m}\] = 0: the Heisenberg part at "
                                           rf"principal degree {d} is no total derivative"):
        lax.resolvent(a, 8)


def _random_slice(real: LoopRealization, d: int, rng: random.Random) -> LoopElement:
    coeffs: dict = {}
    for k, i in real.slice_basis(d):
        vec = coeffs.setdefault(k, [DiffPoly.zero()] * real.alg.dim)
        vec[i] = rng.randint(-2, 2) + rng.randint(-1, 1) * DiffPoly.var(1)
    return from_dense(real, coeffs)


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_slice_basis_and_split_at_every_degree(name):
    # loop elements are finite: every degree has its whole slice basis, and
    # every slice splits as h_part + [Lambda, y] with y one degree lower
    real = build_algebra(name)
    rng = random.Random(17)
    n = real.twist_order
    for d in range(-80, 13):
        brute = [(k, i) for k in range(-100, 100) for i in range(real.alg.dim)
                 if k * real.deg_lambda + real.pdeg[i] == d
                 and real.twist_class[i] % n == k % n]
        assert real.slice_basis(d) == brute, d
        sl = _random_slice(real, d, rng)
        h_coeff, h_part, y = split_with_preimage(real, d, sl)
        assert h_part + real.cyclic.bracket(y) == sl, d
        assert y.is_zero() or y.principal_degree() == d - 1
        h_d = real.heisenberg_at(d)
        assert h_part == (h_d.scale(h_coeff) if h_d else LoopElement.zero(real))


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_preimage_is_the_reference_preimage_at_every_degree(name):
    # the one-solve preimage (a row (y | G) = 0) against the H-column split
    # with its second solve
    real = build_algebra(name)
    rng = random.Random(23)
    for d in range(-80, 13):
        sl = _random_slice(real, d, rng)
        _, h_part, y = split_with_preimage(real, d, sl)
        assert real.splitter(d).preimage(sl - h_part) == y, d


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_preimage_of_a_slice_with_a_heisenberg_part_is_inconsistent(name):
    real = build_algebra(name)
    rng = random.Random(29)
    degrees = [d for d in range(-30, 13) if real.heisenberg_at(d) is not None]
    assert degrees
    for d in degrees:
        sl = _random_slice(real, d, rng)
        im, h_d = sl - split_with_preimage(real, d, sl)[1], real.heisenberg_at(d)
        for x in (h_d, im + h_d.scale(DiffPoly.var(2))):
            with pytest.raises(InconsistentSystemError):
                real.splitter(d).preimage(x)


def test_split_names_the_degree_of_a_foreign_element():
    real = build_algebra("a2_1")
    with pytest.raises(ValueError, match=r"is not of principal degree -3$"):
        real.splitter(-3).preimage(_random_slice(real, -2, random.Random(1)))


@pytest.mark.parametrize("name, kind, depth", [("a1_1", "borel", 15), ("a2_2", "canonical", 34)])
def test_deep_resolvent_on_a_plain_realization(name, kind, depth):
    # deep solves need nothing sized for them: loop elements are finite
    lax = LaxOperator(build_algebra(name), kind)
    r = lax.resolvent(1, depth)
    assert min(lax._r[1]) == 1 - depth
    assert r.commutator_residual_slices() == {}


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32), first=st.integers(-4, 0), scalar=st.integers(-2, 2))
def test_first_nonzero_slice_of_the_identity_is_certified_by_one_entry(name, seed, first, scalar):
    # R = Lambda + random slices at degrees first, ..., first - 5, plus
    # scalar lambda^j Id at degree n j <= first.  The scalar is not in sl_n,
    # but the argument does not need that, and it puts the first nonzero
    # slice at degrees with no Heisenberg element as well.
    rng = random.Random(seed)
    real = build_algebra(name)
    ref = PowerRoute(LaxOperator(real, "canonical"))
    n = real.alg.size
    r = _matrix_forms(real, {1: real.cyclic, **{
        d: _random_slice(real, d, rng) for d in range(first, first - 6, -1)}})
    j = (first - first % n) // n
    for i in range(n):
        r[n * j][(j, i, i)] = r[n * j].get((j, i, i), DiffPoly.zero()) + scalar
    residual = _identity_residual(n, r)
    if not residual:
        return
    top = max(residual)
    got = residual[top]
    # the slice is c Lambda^top
    s, k = divmod(top, n)
    lam_top = {(p + s, a, b): v for (p, a, b), v in ref._lam_powers[k].items() if v}
    key = next(iter(power_route._lam_power(ref._lam_powers, top)))
    assert key in lam_top
    c = got.get(key, DiffPoly.zero()) * (1 / lam_top[key].constant_term())
    assert got == {kk: c * v for kk, v in lam_top.items()}
    # so the chosen entry is nonzero; a Heisenberg part c H_d of R_d adds
    # c n Lambda^{n-1} H_d = c n Lambda^top to the slice, at the same key
    assert got[key]
    h = real.heisenberg_at(top - n + 1)
    if h is not None:
        g = matrix_product([(ref._lam_powers[n - 1], matrix_form(real.alg, to_dense(h)))])
        assert _nonzero(g) == lam_top


@pytest.mark.parametrize("name, d", [("a1_1", -2), ("a2_1", -3), ("a2_2", -2), ("a2_2", -4)])
def test_wrong_entry_at_a_degree_without_heisenberg_element_names_it(monkeypatch, name, d):
    ref = PowerRoute(LaxOperator(build_algebra(name), "canonical"))
    assert ref.real.heisenberg_at(d) is None
    right, calls = power_route.matrix_entry, []

    def wrong(terms, key):
        # n - 1 calls per degree d = 0, -1, -2, ..., for R_1^2, ..., R_1^n
        calls.append(key)
        return right(terms, key) + (1 if len(calls) == (n - 1) * (1 - d) else 0)

    n = ref.real.alg.size
    monkeypatch.setattr(power_route, "matrix_entry", wrong)
    with pytest.raises(RuntimeError,
                       match=rf"R_1\^{n} = lambda Id fails at principal degree {n - 1 + d}$"):
        ref.dressing(6)


def test_resolvent_defining_residuals(lax):
    r = lax.resolvent(1, 6)
    assert r.leading_is_heisenberg()
    assert r.commutator_residual_slices() == {}
    assert r.pairing_residual(r) == {}


@pytest.mark.parametrize("name", ["a1_1", "a2_1", "a2_2"])
def test_pairing_residual_matches_the_reference_loop(name):
    # the table's resolvents at max-k 2, as verify reads them; then again with
    # the second slice of R_1 moved by a non-constant, so that both sides are
    # nonzero somewhere
    h = DSHierarchy(name, max_flow_k=2, omega_max_k=2)
    real = h.real

    def residuals():
        rs = h.table_resolvents(real.n, 2)
        got = {(a, b): ra.pairing_residual(rb) for a, ra in rs.items() for b, rb in rs.items()}
        assert got == {(a, b): pairing_residual_loop(ra, rb)
                       for a, ra in rs.items() for b, rb in rs.items()}
        return got

    assert not any(residuals().values())
    d = real.exponents[0] - 1
    k, i = real.slice_basis(d)[0]
    vec = [DiffPoly.zero()] * real.alg.dim
    vec[i] = DiffPoly.var(1)
    h.lax_u._r[1][d] = h.lax_u._r[1][d] + from_dense(real, {k: vec})
    assert any(residuals().values())


def test_pair_from_a_floor_is_the_full_pairing_above_it():
    h = DSHierarchy("a2_2", max_flow_k=1, omega_max_k=1)
    rs = h.table_resolvents(2, 1)
    x, y = rs[1].element, rs[2].element
    full = x.pair(y)
    powers = sorted(full)
    assert len(powers) > 2
    for lo in range(powers[0] - 1, powers[-1] + 2):
        assert x.pair(y, lo) == {k: v for k, v in full.items() if k >= lo}


def test_resolvent_coefficients_and_depth_error(lax):
    r = lax.resolvent(1, 4)
    assert r.min_complete_power() == -1
    coefficient(r, -1)
    with pytest.raises(DepthError):
        coefficient(r, -2)
    with pytest.raises(DepthError):
        r.slice(1 - 5)


def test_coefficient_sums_the_slices_once_per_power(lax):
    r = lax.resolvent(1, 6)
    # one summed view, cached: every reader gets the same object
    assert r.element is r.element
    slices = [r.slice(1 - j) for j in range(r.depth + 1)]
    # below the complete powers the view holds the computed slices only
    for k in range(r.min_complete_power() - 2, 2):
        assert vector_at(r.element, k) == tuple(
            sum((vector_at(sl, k)[t] for sl in slices), DiffPoly.zero())
            for t in range(lax.real.alg.dim))
    for k in range(r.min_complete_power(), 2):
        assert vector_at(r.element, k) == coefficient(r, k)
    deeper = lax.resolvent(1, 8)
    k = r.min_complete_power() - 1
    assert vector_at(r.element, k) != coefficient(deeper, k)
    # a view stops at its own depth, whatever is solved below it
    assert set(to_dense(r.element)) < set(to_dense(deeper.element))


def test_shifted_resolvent_plus(lax):
    real = lax.real
    r = lax.resolvent(1, 6)
    plus = r.shifted_plus(0)
    tail = plus - real.cyclic
    # (R_1)_+ = Lambda + Borel-valued lambda^0 tail
    assert tail.lambda_powers() == [0]
    real.borel_coords(tail)
    # vacuum: (lambda^{kN} R)_+ at q = 0 is the shifted Heisenberg plus part
    vac = _at_q_zero(r.shifted_plus(1))
    expect = project_plus(real.heisenberg_element(1).lambda_shift(1))
    assert vac == expect
    with pytest.raises(ValueError):
        r.shifted_plus(-1)


def test_pre_flow_bracket_is_borel_at_lambda_zero(lax):
    real = lax.real
    r = lax.resolvent(1, flow_depth(real, 1, 1) + 1)
    xp = r.shifted_plus(1)
    res = xp.bracket(lax.lam_plus_q) - xp.dx()
    assert res.lambda_powers() == [0]
    real.borel_coords(res)  # raises if outside the Borel span


def test_resolvent_depends_polynomially_on_q(lax):
    r = lax.resolvent(1, 5)
    for j in range(0, 6):
        for vec in to_dense(r.slice(1 - j)).values():
            for c in vec:
                assert isinstance(c, DiffPoly)
