"""Property tests of the RatFunc kernel, with sympy as an independent oracle."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.fields import field

from dshierarchy.ratfunc import RatFunc
from reference_ops import eval_at_zero

# sympy's field Q(x): its elements are kept cancelled, so == is equality
K, X = field("x", sympy.QQ)

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
polys = st.lists(coeffs, max_size=4)
nonzero_polys = polys.filter(any)


def conv(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def ratfuncs(draw):
    """num/den with a common factor drawn too, so the gcd has work to do."""
    common = draw(nonzero_polys)
    return RatFunc(conv(draw(polys), common), conv(draw(nonzero_polys), common))


def expr(coefficients):
    return sum((sympy.QQ(c.numerator, c.denominator) * X ** i
                for i, c in enumerate(coefficients)), K(0))


def to_sympy(r: RatFunc):
    return expr(r.num) / expr(r.den)


def same(r: RatFunc, e) -> bool:
    return to_sympy(r) == e


def assert_normal(r: RatFunc):
    """int tuples, coprime, content 1, den leading > 0, zero is 0/1; monic view."""
    n, d = r._n, r._d
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0
    assert not n or n[-1]
    if not n:
        assert d == (1,)
        return
    assert gcd(*n, *d) == 1
    pn, pd = (sympy.Poly(list(reversed(p)), sympy.Symbol("x")) for p in (n, d))
    assert sympy.gcd(pn, pd).degree() == 0
    assert r.den[-1] == 1
    assert r.num == tuple(Fraction(c, d[-1]) for c in n)


@given(ratfuncs(), ratfuncs(), coeffs)
def test_arithmetic_matches_sympy(a, b, c):
    ea, eb, ec = to_sympy(a), to_sympy(b), expr([c])
    assert same(a + b, ea + eb)
    assert same(a - b, ea - eb)
    assert same(a * b, ea * eb)
    assert same(a * c, ea * ec) and same(c * a, ea * ec)
    assert same(a + c, ea + ec) and same(c - a, ec - ea)
    assert same(a.dx(), ea.diff(X))


@given(ratfuncs(), st.integers(-3, 3))
def test_powers_match_sympy(a, n):
    if a.is_zero() and n < 0:
        with pytest.raises(ZeroDivisionError):
            a ** n
        return
    e, p = to_sympy(a), a ** n
    assert_normal(p)
    if n >= 0:
        assert same(p, e ** n if n else K(1))
    else:   # sympy's own negative power leaves the sign unnormalised
        assert same(p, K(1) / e ** -n)


@pytest.mark.parametrize("n", [37, 64, -37, -64])
def test_large_powers_match_sympy(n):
    a = RatFunc((1, Fraction(1, 2)), (-3, 2))         # (1 + x/2)/(-3 + 2x)
    e, p = to_sympy(a), a ** n
    assert_normal(p)
    assert same(p, e ** n if n > 0 else K(1) / e ** -n)
    assert p * a ** -n == RatFunc((1,), (1,))


def test_powers_of_zero_and_one():
    zero, one = RatFunc((), (1,)), RatFunc((1,), (1,))
    assert zero ** 0 == one and zero ** 5 == zero
    assert one ** -40 == one
    with pytest.raises(ZeroDivisionError):
        zero ** -1


@given(ratfuncs(), ratfuncs(), coeffs)
def test_results_are_normal(a, b, c):
    for r in (a, b, a + b, a - b, a * b, a * c, -a, a.dx(), a - a, a * 0):
        assert_normal(r)


@given(polys, nonzero_polys, coeffs.filter(bool))
def test_equal_values_hash_equally(num, den, c):
    r = RatFunc(num, den)
    scaled = RatFunc([x * c for x in num], [x * c for x in den])
    assert scaled == r and hash(scaled) == hash(r)
    negated = RatFunc([-x for x in num], [-x for x in den])
    assert negated == r and hash(negated) == hash(r)
    common = [c, 1]
    widened = RatFunc(conv(num, common), conv(den, common))
    assert widened == r and hash(widened) == hash(r)


@given(polys, nonzero_polys)
def test_inputs_are_read_exactly(num, den):
    r = RatFunc(num, den)
    assert_normal(r)
    assert same(r, expr(num) / expr(den))


def test_fraction_negative_and_non_monic_inputs():
    half = Fraction(1, 2)
    r = RatFunc((half, 1), (-2, 0, -4))               # (1/2 + x)/(-2 - 4x^2)
    assert_normal(r)
    assert (r._n, r._d) == ((-1, -2), (4, 0, 8))
    assert r.num == (Fraction(-1, 8), Fraction(-1, 4)) and r.den == (half, 0, 1)
    assert RatFunc((3, 6), (6, 12)) == RatFunc.const(half)
    assert RatFunc((-1, 0, 1), (-1, 1)) == RatFunc((1, 1))
    assert RatFunc((0, 0), (5, 0)).is_zero()
    assert (RatFunc((0,), (7,))._n, RatFunc((0,), (7,))._d) == ((), (1,))
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), (0, 0))


def test_comparison_with_scalars_and_views_read_only():
    assert RatFunc((3,), (2,)) == Fraction(3, 2)
    assert RatFunc.const(4) == 4 and RatFunc.const(0) == 0
    assert RatFunc.x() != 1
    assert hash(RatFunc.const(Fraction(3, 2))) == hash(RatFunc((6,), (4,)))
    r = RatFunc.x()
    with pytest.raises(AttributeError):
        r.num = (Fraction(1),)
    with pytest.raises(AttributeError):
        r.den = (Fraction(1),)


@given(ratfuncs())
def test_value_at_zero(a):
    e = to_sympy(a)
    pole = e.denom(0) == 0
    assert a.has_pole_at_zero() == pole
    if pole:
        with pytest.raises(ZeroDivisionError):
            eval_at_zero(a)
    else:
        v = e.numer(0) / e.denom(0)
        assert eval_at_zero(a) == Fraction(int(v.numerator), int(v.denominator))
