"""Property tests of the DiffPoly kernel, with sympy as an independent oracle."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add
from pathlib import Path

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from dshierarchy.diffalg import (MAX_EXPONENT, ArityMismatchError, DiffPoly, EpsSeries,
                                 ExponentOverflowError, JetMap, NotTotalDerivativeError,
                                 apply_poly_derivation)
from jet_images import FunctionJets, memoised_monomials, reference_substitute
from reference_ops import eps_product_fold, exp_dx_sum

u = DiffPoly.var
v = DiffPoly.dvar

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def poly_strategy(orders=st.integers(0, 3), max_exp=3, max_terms=5):
    variables = st.tuples(st.integers(1, 2), orders)
    monomials = st.dictionaries(variables, st.integers(1, max_exp), max_size=3).map(
        lambda exps: tuple(sorted(exps.items())))
    return st.dictionaries(monomials, coeffs, max_size=max_terms).map(DiffPoly)


polys = poly_strategy()
small_polys = poly_strategy(st.integers(0, 2), max_exp=2, max_terms=3)
shift_polys = poly_strategy(st.integers(-3, 3))
jet_vars = st.tuples(st.integers(1, 2), st.integers(0, 4))
pair_lists = st.lists(st.tuples(polys, polys), max_size=5)


def assert_normal(p: DiffPoly):
    """The stored form: positive denominator, coprime to the numerators, no zeros."""
    num, den = p._num, p._den
    assert den > 0
    assert 0 not in num.values()
    assert gcd(den, *num.values()) == 1
    if not num:
        assert den == 1


def to_sympy(p: DiffPoly):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for (alpha, order), e in mono:
            term *= sympy.Symbol(f"u_{alpha}_{order}") ** e
        expr += term
    return sympy.expand(expr)


def sympy_dx(expr):
    out = sympy.Integer(0)
    for sym in expr.free_symbols:
        _, alpha, order = sym.name.split("_")
        out += sympy.Symbol(f"u_{alpha}_{int(order) + 1}") * sympy.diff(expr, sym)
    return sympy.expand(out)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    zero, one = DiffPoly.zero(), DiffPoly.const(1)
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert (p - p).is_zero() and (p * zero).is_zero()
    assert hash(p * q) == hash(q * p)


@given(polys, polys, coeffs)
def test_results_are_normalised(p, q, c):
    for result in (p, q, p + q, p - q, p * q, p * c, p.dx(), p.partial((1, 0)),
                   *p.degree_decomposition().values()):
        assert_normal(result)
        assert DiffPoly(result.terms) == result


@given(polys, polys)
def test_leibniz_rule(p, q):
    assert (p * q).dx() == p.dx() * q + p * q.dx()
    assert (p + q).dx() == p.dx() + q.dx()


@given(polys, jet_vars)
def test_partial_of_total_derivative(p, var):
    # d/du_{a,m} (d p) = d (d/du_{a,m} p) + d/du_{a,m-1} p
    alpha, m = var
    lower = p.partial((alpha, m - 1)) if m > 0 else DiffPoly.zero()
    assert p.dx().partial(var) == p.partial(var).dx() + lower


@given(small_polys, small_polys, st.lists(small_polys, min_size=2, max_size=2))
def test_substitute_is_a_ring_homomorphism(p, q, images):
    jets = JetMap(images)
    assert (p * q).substitute(jets) == p.substitute(jets) * q.substitute(jets)
    assert (p + q).substitute(jets) == p.substitute(jets) + q.substitute(jets)
    # a homomorphism built from jets of images commutes with d
    assert p.dx().substitute(jets) == p.substitute(jets).dx()


@given(polys, polys, coeffs)
def test_sympy_oracle(p, q, c):
    sp, sq = to_sympy(p), to_sympy(q)
    assert to_sympy(p * c) == sympy.expand(sp * sympy.Rational(c.numerator, c.denominator))
    assert to_sympy(p + q) == sympy.expand(sp + sq)
    assert to_sympy(p - q) == sympy.expand(sp - sq)
    assert to_sympy(p * q) == sympy.expand(sp * sq)
    assert to_sympy(p.dx()) == sympy_dx(sp)


@given(polys)
def test_terms_view_matches_sorted_terms(p):
    assert sorted(p.terms.items()) == p.sorted_terms()
    assert len(p.terms) == len(p.sorted_terms())
    for mono, c in p.sorted_terms():
        assert p.terms[mono] == c
        assert all(e > 0 for _, e in mono)
        assert list(mono) == sorted(mono)


@given(shift_polys, shift_polys, shift_polys)
def test_negative_shift_orders(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p * q).partial((1, -1)) == p.partial((1, -1)) * q + p * q.partial((1, -1))
    shift = FunctionJets(lambda alpha, m: v(alpha, m + 1))
    assert (p * q).substitute(shift) == p.substitute(shift) * q.substitute(shift)
    assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))
    for result in (p + q, p * q):
        assert_normal(result)


def test_negative_orders_reject_total_derivative():
    p = v(1, -2) * v(1, 0) + Fraction(1, 3) * v(2, -1)
    assert p.variables() == {(1, -2), (1, 0), (2, -1)}
    assert p.max_order() == 0
    assert [m for m, _ in p.sorted_terms()] == [(((1, -2), 1), ((1, 0), 1)),
                                                (((2, -1), 1),)]
    with pytest.raises(ValueError):
        p.dx()


def test_exponent_overflow_is_named_and_raised_before_carry():
    top = u(1) ** MAX_EXPONENT
    assert top.sorted_terms() == [((((1, 0), MAX_EXPONENT),), Fraction(1))]
    with pytest.raises(ExponentOverflowError, match=r"\(1, 0\)"):
        top * u(1)
    with pytest.raises(ExponentOverflowError):
        u(1, 1) * u(1, 2) ** MAX_EXPONENT * u(1, 2)
    with pytest.raises(ExponentOverflowError):
        (u(1) * u(1, 1) ** MAX_EXPONENT).dx()
    with pytest.raises(ExponentOverflowError):
        DiffPoly({(((1, 0), MAX_EXPONENT + 1),): 1})
    # a sum close to the limit that does not pass it is exact
    half = 1 << 14
    p = (u(1) ** half + u(1)) * u(1) ** (MAX_EXPONENT - half)
    assert p == u(1) ** MAX_EXPONENT + u(1) ** (MAX_EXPONENT - half + 1)


def stored(pairs):
    return [(a._den, dict(a._num), b._den, dict(b._num)) for a, b in pairs]


@given(pair_lists)
def test_dot_is_the_sum_of_products(pairs):
    before = stored(pairs)
    got = DiffPoly.dot(iter(pairs))
    assert_normal(got)
    assert got == reduce(add, (a * b for a, b in pairs), DiffPoly.zero())
    assert to_sympy(got) == sympy.expand(
        sum((to_sympy(a) * to_sympy(b) for a, b in pairs), sympy.Integer(0)))
    assert stored(pairs) == before          # the operands are not mutated


@given(pair_lists)
def test_dot_of_cancelling_pairs_is_zero(pairs):
    got = DiffPoly.dot(pairs + [(-a, b) for a, b in pairs])
    assert got == DiffPoly.zero() and (got._den, got._num) == (1, {})


def test_dot_mixed_denominators_and_zeros():
    p = Fraction(1, 6) * u(1) + Fraction(3, 4) * u(2)       # denominator 12
    q, r = Fraction(2, 5) * u(1, 1), Fraction(5, 3) * u(2) - 1
    got = DiffPoly.dot([(p, q), (r, r), (q, 10 * u(1))])
    assert_normal(got)
    assert got == p * q + r * r + q * (10 * u(1))
    # the denominators of the pairs cancel in the sum
    half = Fraction(1, 2) * u(1)
    assert (DiffPoly.dot([(half, u(2)), (u(2), half)])._den) == 1
    zero = DiffPoly.zero()
    for pairs in ([], [(zero, p)], [(p, zero), (zero, zero)], [(p, q), (q, -p)]):
        got = DiffPoly.dot(pairs)
        assert got == zero and (got._den, got._num) == (1, {})


def test_dot_checks_every_pair_for_overflow():
    top = u(1) ** MAX_EXPONENT
    with pytest.raises(ExponentOverflowError, match=r"\(1, 0\)"):
        DiffPoly.dot([(u(2), u(2)), (top, u(1))])
    # as with __mul__, a product that would cancel later still raises
    with pytest.raises(ExponentOverflowError):
        DiffPoly.dot([(top, u(1)), (-top, u(1))])
    assert DiffPoly.dot([(top, DiffPoly.const(3))]) == 3 * top


@given(polys, st.lists(small_polys, min_size=2, max_size=2))
def test_derivation_is_the_per_variable_sum(p, images):
    jets = JetMap(images)
    got = apply_poly_derivation(jets, p)
    assert_normal(got)
    assert got == reduce(add, (jets(*var) * p.partial(var) for var in p.variables()),
                         DiffPoly.zero())
    expr = to_sympy(p)
    assert to_sympy(got) == sympy.expand(sum(
        (sympy.diff(expr, sympy.Symbol(f"u_{a}_{m}")) * to_sympy(jets(a, m))
         for a, m in p.variables()), sympy.Integer(0)))


def test_derivation_beyond_the_arity_raises():
    jets = JetMap([u(1, 1)])
    assert apply_poly_derivation(jets, u(1) ** 2) == 2 * u(1) * u(1, 1)
    for p in (u(1) * u(2), u(2, 3), u(1, 1) + u(3)):
        with pytest.raises(ArityMismatchError):
            apply_poly_derivation(jets, p)


def test_one_denominator_per_polynomial():
    p = Fraction(1, 6) * u(1) + Fraction(3, 4) * u(2)
    assert (p._den, sorted(p._num.values())) == (12, [2, 9])
    assert (p * 12)._den == 1
    assert ((p * 12) * Fraction(1, 3)) == 4 * p
    assert_normal(p * Fraction(4, 3))


def test_pickle_carries_tuple_monomials_across_processes():
    p = Fraction(2, 3) * u(2, 1) ** 2 * u(1) - v(1, -1)
    assert pickle.loads(pickle.dumps(p)) == p
    # another process assigns its packed fields in another order
    script = ("import pickle, sys\n"
              "from dshierarchy.diffalg import DiffPoly\n"
              "DiffPoly.var(3, 5) * DiffPoly.dvar(1, -1)\n"
              "print(pickle.loads(sys.stdin.buffer.read()).sorted_terms())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(p),
                         capture_output=True, env=env, check=True).stdout
    assert out.decode().strip() == repr(p.sorted_terms())


@given(poly_strategy(st.integers(0, 4), max_terms=6))
def test_dx_inverse_inverts_dx(p):
    # inv(dx(p)) = p - p(0), with no constant term
    c = p.dx().dx_inverse()
    assert c == p - p.constant_term()
    assert_normal(c)


@given(polys, st.sampled_from([u(1, 1) ** 2, u(1) * u(1, 2), u(1) * u(2),
                               u(1) * u(2, 1), DiffPoly.const(1)]))
def test_dx_inverse_rejects_what_is_no_total_derivative(p, bad):
    # bad + dx(p) is no total derivative when bad is none
    with pytest.raises(NotTotalDerivativeError):
        (bad + p.dx()).dx_inverse()


def test_dx_inverse_names_the_failure():
    with pytest.raises(NotTotalDerivativeError, match=r"not linear in the top jets: u_x\^2"):
        (u(1, 1) ** 2).dx_inverse()
    with pytest.raises(NotTotalDerivativeError, match=r"u1\*u2 is of order 0 and not zero"):
        (u(1) * u(2)).dx_inverse()
    with pytest.raises(NotTotalDerivativeError, match="jets of order 1 are left"):
        (u(1) * u(2, 1)).dx_inverse()
    with pytest.raises(ValueError, match="orders >= 0"):
        v(1, -1).dx_inverse()
    assert DiffPoly.zero().dx_inverse() == DiffPoly.zero()


@given(polys)
def test_sorted_parts_are_the_sorted_terms(p):
    assert [(mono, Fraction(num, den)) for mono, num, den in p.sorted_parts()] == \
        sorted(p.terms.items())
    for _, num, den in p.sorted_parts():
        assert den > 0 and gcd(num, den) == 1


# -- the EpsSeries kernel, against a fold of single products and sums -----------

def eps_series(order: int):
    comp = st.one_of(st.just(DiffPoly.zero()), small_polys)
    return st.lists(comp, min_size=order + 1, max_size=order + 1).map(
        lambda comps: EpsSeries(comps, order))


eps_orders = st.integers(0, 5)


def hashes(*values):
    return [hash(x) for x in values]


@given(eps_orders.flatmap(lambda k: st.tuples(eps_series(k), eps_series(k))))
def test_eps_product_is_the_fold_of_component_products(pair):
    a, b = pair
    before = hashes(a, b)
    got = a * b
    assert got == eps_product_fold(a, b) and got == b * a
    for c in got.components:
        assert_normal(c)
    assert hashes(a, b) == before          # the operands are not mutated


@given(eps_orders.flatmap(eps_series))
def test_exp_dx_is_the_term_by_term_sum(s):
    before = hashes(s)
    got = s.exp_dx()
    assert got == exp_dx_sum(s)
    for c in got.components:
        assert_normal(c)
    assert hashes(s) == before


@given(eps_orders.flatmap(lambda k: st.tuples(
    small_polys, st.lists(eps_series(k), min_size=2, max_size=2))))
def test_substitute_into_eps_series_images_matches_reference(case):
    p, images = case
    jets = JetMap(images)
    one = EpsSeries.const(1, images[0].order)
    before = hashes(p, *images)
    for q in (p, DiffPoly.zero(), DiffPoly.const(Fraction(-3, 2)), p + Fraction(2, 3)):
        got = q.substitute(jets)
        assert type(got) is EpsSeries and got == reference_substitute(q, jets, one)
        for c in got.components:
            assert_normal(c)
    memo = [(mono, hash(value)) for mono, value in memoised_monomials(jets)]
    assert p.substitute(jets) == reference_substitute(p, jets, one)
    assert hashes(p, *images) == before
    assert [(mono, hash(value)) for mono, value in memoised_monomials(jets)] == memo


def test_substitute_rejects_eps_series_images_of_two_orders():
    jets = FunctionJets(lambda alpha, m: EpsSeries.var(alpha, alpha, m))
    assert u(1).substitute(jets) == EpsSeries.var(1, 1)
    with pytest.raises(ValueError, match="eps truncation mismatch: 1 vs 2"):
        (u(1) + u(2)).substitute(jets)


# -- the monomial memo of a jet map --------------------------------------------

class _Stores(dict):
    """A dict that lists every key stored into it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


class CountingJets(FunctionJets):
    """FunctionJets that lists its step calls and the images stored in its memo."""

    __slots__ = ("steps",)

    def __init__(self, fn):
        super().__init__(fn)
        self.steps = []
        self._monomials = _Stores()

    def step(self, alpha: int, m: int):
        self.steps.append((alpha, m))
        return super().step(alpha, m)


def _image(alpha: int, m: int) -> DiffPoly:
    return Fraction(1, alpha + 1) * u(alpha, m) - u(3 - alpha, m + 1) * u(alpha)


SHARED = [u(1) * u(2, 1) + u(1) ** 2,
          Fraction(1, 3) * u(1) * u(2, 1) * u(1, 2) - u(1) ** 2 * u(2, 1),
          u(2, 1) ** 3 + 5 - u(1) * u(2, 1)]


@pytest.mark.parametrize("order", [None, 0, 3])
def test_each_monomial_image_is_computed_once_per_map(order):
    # order None: DiffPoly images; else EpsSeries images of that eps order
    if order is None:
        jets, one = CountingJets(_image), DiffPoly.const(1)
    else:
        jets = CountingJets(lambda alpha, m: EpsSeries(
            [_image(alpha, m), DiffPoly.zero(), Fraction(-2, 5) * u(alpha, m + 2)], order))
        one = EpsSeries.const(1, order)
    first = [p.substitute(jets) for p in SHARED]
    monomials = {mono for p in SHARED for mono in p.terms}
    powers = {((var, e),) for mono in monomials for var, e in mono}
    stored = jets._monomials.stored
    assert len(stored) == len(set(stored))                  # each image once
    assert {mono for mono, _ in memoised_monomials(jets)} == monomials | powers
    assert sorted(jets.steps) == sorted({var for mono in monomials for var, _ in mono})
    counts = len(jets.steps), len(stored)
    assert [p.substitute(jets) for p in SHARED] == first
    assert (len(jets.steps), len(stored)) == counts         # the second pass only reads
    for p, got in zip(SHARED, first):
        assert got == reference_substitute(p, jets, one)
    for mono, value in memoised_monomials(jets):
        assert value == reference_substitute(DiffPoly({mono: 1}), jets, jets.unit)
