"""Property tests of the RatFunc kernel, with sympy as an independent oracle."""

from fractions import Fraction
from itertools import zip_longest
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


# -- Henrici's sums and products, RatFunc.dot and the one-pass formatter ------

int_polys = st.lists(st.integers(-6, 6), max_size=4)


def one_minus_x_power(k: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(k):
        out = conv(out, [Fraction(1), Fraction(-1)])
    return out


@st.composite
def sharing_pairs(draw):
    """Two values whose denominators share factors, as the solver's values do.

    ``equal``: b = a + k, k an integer polynomial, so b's normal-form
    denominator is a's tuple itself (the equal-denominator sum); ``common``:
    denominators f g and f h; ``cancel``: a over f g and b = c - a with c over
    f h, read in by the constructor, so that g cancels from a + b = c;
    ``bgw``: constants over powers of (1 - x).
    """
    kind = draw(st.sampled_from(["equal", "common", "cancel", "bgw"]))
    if kind == "equal":
        a = draw(ratfuncs())
        b = draw(st.sampled_from([1, -1])) * a + RatFunc(draw(int_polys))
        return a, b
    if kind == "common":
        f, g, h = (draw(nonzero_polys) for _ in range(3))
        return RatFunc(draw(polys), conv(f, g)), RatFunc(draw(polys), conv(f, h))
    if kind == "cancel":
        f, h = draw(nonzero_polys), draw(nonzero_polys)
        g = [draw(coeffs), draw(coeffs.filter(bool))]  # of degree 1, so there is a g
        na, nc, da, dc = draw(nonzero_polys), draw(polys), conv(f, g), conv(f, h)
        nb = [x - y for x, y in zip_longest(conv(nc, da), conv(na, dc), fillvalue=0)]
        return RatFunc(na, da), RatFunc(nb, conv(da, dc))
    c, e = (draw(coeffs.filter(bool)) for _ in range(2))
    return (RatFunc([c], one_minus_x_power(draw(st.integers(0, 7)))),
            RatFunc(conv([e], draw(polys)), one_minus_x_power(draw(st.integers(0, 7)))))


def test_equal_strategy_reaches_the_equal_denominator_sum():
    a = RatFunc((1, 3), (2, 0, 4))                     # (1 + 3x)/(2 + 4x^2)
    b = a + RatFunc((5, -2))
    assert b._d == a._d
    assert same(a + b, to_sympy(a) + to_sympy(b))
    assert (a - a).is_zero() and (a + (-a)) == 0


@pytest.mark.parametrize("a, b, total", [
    (RatFunc((1,), (0, 1)), RatFunc((-2, 1), (0, 2)), RatFunc.const(Fraction(1, 2))),
    (RatFunc((1,), (0, 1, 1)), RatFunc((-2, 0, 1), (0, 2, 3, 1)), RatFunc((1,), (2, 1))),
    (RatFunc((1,), (1, -2, 1)), RatFunc((-1, -1), (2, -4, 2)), RatFunc((1,), (2, -2))),
])
def test_henrici_sum_divides_out_a_shared_factor(a, b, total):
    # 1/x + (x - 2)/(2x) = 1/2;  1/(x(x+1)) + (x^2 - 2)/(x(x+1)(x+2)) = 1/(x+2);
    # 1/(1-x)^2 - (1 + x)/(2(1-x)^2) = 1/(2(1-x)), over two distinct tuples
    assert a._d != b._d
    got = a + b
    assert_normal(got)
    assert got == total and same(got, to_sympy(a) + to_sympy(b))


@given(sharing_pairs())
def test_henrici_arithmetic_on_shared_factors_matches_sympy(ab):
    a, b = ab
    ea, eb = to_sympy(a), to_sympy(b)
    for got, want in ((a + b, ea + eb), (a - b, ea - eb), (b - a, eb - ea),
                      (a * b, ea * eb), (b * a, ea * eb), (a * a, ea * ea),
                      (a.dx(), ea.diff(X)), (b.dx(), eb.diff(X))):
        assert_normal(got)
        assert same(got, want)


@given(ratfuncs(), ratfuncs())
def test_henrici_results_are_normal(a, b):
    for got in (a + b, a - b, a * b, (a + b) * (a - b), a * b + b):
        assert_normal(got)


def fold(pairs) -> RatFunc:
    out = RatFunc.const(0)
    for a, b in pairs:
        out = out + a * b
    return out


pair_lists = st.lists(st.one_of(st.tuples(ratfuncs(), ratfuncs()), sharing_pairs()),
                      max_size=4)


@given(pair_lists)
def test_dot_matches_sympy_and_the_fold(pairs):
    got = RatFunc.dot(pairs)
    assert_normal(got)
    assert got == fold(pairs)
    assert same(got, sum((to_sympy(a) * to_sympy(b) for a, b in pairs), K(0)))


@given(pair_lists)
def test_dot_of_a_sum_that_cancels_is_zero(pairs):
    both = pairs + [(-a, b) for a, b in reversed(pairs)]
    got = RatFunc.dot(both)
    assert_normal(got)
    assert got.is_zero() and (got._n, got._d) == ((), (1,))


@given(st.lists(st.tuples(ratfuncs(), st.integers(-4, 4)), max_size=4))
def test_dot_with_integer_weights_matches_sympy_and_the_fold(pairs):
    # the sum DiffPoly.substitute asks for: images weighted by int numerators
    got = RatFunc.dot(pairs)
    assert_normal(got)
    assert got == fold(pairs) == RatFunc.dot([(a, RatFunc.const(b)) for a, b in pairs])
    assert same(got, sum((to_sympy(a) * b for a, b in pairs), K(0)))


def test_dot_of_nothing_and_of_zeros():
    zero = RatFunc.const(0)
    assert RatFunc.dot([]) == 0 and RatFunc.dot(iter(())) == 0
    assert RatFunc.dot([(zero, RatFunc.x()), (RatFunc.x(), zero)]).is_zero()
    x = RatFunc.x()
    assert RatFunc.dot([(x, x), (x, -x)]) == 0
    assert RatFunc.dot([(x, x ** -1), (x, x)]) == 1 + x * x


def reference_text(r: RatFunc) -> str:
    """``repr`` as it was first written, from the Fraction views."""
    def fmt(p):
        if not p:
            return "0"
        parts = []
        for i, c in enumerate(p):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts)

    if len(r.den) == 1:
        return fmt(r.num)
    return f"({fmt(r.num)})/({fmt(r.den)})"


def assert_formats_as_before(r: RatFunc):
    from dshierarchy.commands.solve import _value_fields
    num, den = [str(c) for c in r.num], [str(c) for c in r.den]
    assert r.texts() == (num, den)
    assert repr(r) == reference_text(r)
    assert _value_fields(r) == {"value": {"num": num, "den": den},
                                "value_text": reference_text(r)}


@given(st.one_of(ratfuncs(), sharing_pairs().map(lambda ab: ab[0] * ab[1])))
def test_texts_format_as_the_fraction_views(r):
    assert_formats_as_before(r)


@pytest.mark.parametrize("r", [
    RatFunc.const(0), RatFunc.const(1), RatFunc.const(-1), RatFunc.const(Fraction(-7, 3)),
    RatFunc.x(), -RatFunc.x(), RatFunc((0, 0, 1)), RatFunc((0, 1, -1)),
    RatFunc((Fraction(1, 2), 1), (-2, 0, -4)),       # negative, non-monic denominator
    RatFunc((3,), (6, -12, 6)),                       # 3/(6 (1 - x)^2)
    RatFunc((-15,), (-8, 56, -168, 280, -280, 168, -56, 8)),
    RatFunc((1, 0, -1), (2, 1)), RatFunc((0, 2), (3, 0, 1)),
])
def test_texts_format_zero_constants_negative_and_non_monic(r):
    assert_formats_as_before(r)
