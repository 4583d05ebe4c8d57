"""Property tests of the RatFunc kernel, with sympy as an independent oracle.

A RatFunc is a Laurent polynomial in y = 1 - x; the oracle reads it in
sympy's field Q(x), where nothing of that shape is assumed.
"""

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
exponents = st.integers(-4, 4)
terms = st.dictionaries(exponents, coeffs, max_size=4)
laurents = terms.map(RatFunc)
monomials = st.tuples(exponents, coeffs.filter(bool)).map(lambda kc: RatFunc({kc[0]: kc[1]}))
values = st.one_of(laurents, monomials)


def to_sympy(r: RatFunc):
    """sum_k c_k (1 - x)^k in Q(x), from the stored parts."""
    return sum((sympy.QQ(c, r._den) * (1 - X) ** k for k, c in r._num.items()), K(0))


def expr(terms_: dict):
    return sum((sympy.QQ(c.numerator, c.denominator) * (1 - X) ** k
                for k, c in terms_.items()), K(0))


def same(r: RatFunc, e) -> bool:
    return to_sympy(r) == e


def assert_normal(r: RatFunc):
    """int numerators over a positive int denominator, coprime; zero is {} over 1."""
    n, d = r._num, r._den
    assert all(type(c) is int and c for c in n.values()) and all(type(k) is int for k in n)
    assert type(d) is int and d > 0
    assert gcd(d, *n.values()) == 1


def dense(p) -> list[Fraction]:
    """The coefficients of a sympy polynomial in ascending powers of x."""
    out = [Fraction(0)] * (p.degree() + 1) if p else []
    for (i,), c in p.terms():
        out[i] = Fraction(int(c.numerator), int(c.denominator))
    return out


def lowest_terms(r: RatFunc) -> tuple[list[Fraction], list[Fraction]]:
    """sympy's cancelled numerator and denominator of r, the denominator monic."""
    e = to_sympy(r)
    num, den = dense(e.numer), dense(e.denom)
    return [c / den[-1] for c in num], [c / den[-1] for c in den]


@given(values, values, coeffs)
def test_arithmetic_matches_sympy(a, b, c):
    ea, eb, ec = to_sympy(a), to_sympy(b), K(sympy.QQ(c.numerator, c.denominator))
    assert same(a + b, ea + eb)
    assert same(a - b, ea - eb)
    assert same(a * b, ea * eb)
    assert same(a * c, ea * ec) and same(c * a, ea * ec)
    assert same(a + c, ea + ec) and same(c - a, ec - ea)
    assert same(-a, -ea)
    assert same(a.dx(), ea.diff(X))


@given(values, st.integers(-3, 3))
def test_powers_match_sympy(a, n):
    if n < 0 and len(a._num) != 1:
        # only a monomial c (1 - x)^k is a unit of the ring; zero is none
        with pytest.raises(ValueError, match="only a monomial"):
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
    # -3/(2 (1 - x)^2), a unit; and 1/(2 (1 - x)) + 1 - 2 (1 - x), which is none
    a = RatFunc({-2: Fraction(-3, 2)}) if n < 0 else RatFunc({-1: Fraction(1, 2), 0: 1, 1: -2})
    e, p = to_sympy(a), a ** n
    assert_normal(p)
    assert same(p, e ** n if n > 0 else K(1) / e ** -n)
    if n < 0:
        assert p * a ** -n == RatFunc.const(1)


def test_powers_of_zero_and_one():
    zero, one = RatFunc(), RatFunc({0: 1})
    assert zero ** 0 == one and zero ** 5 == zero
    assert one ** -40 == one
    for a in (zero, RatFunc.x(), 1 + (1 - RatFunc.x()) ** -1):
        with pytest.raises(ValueError, match="only a monomial"):
            a ** -1


@given(values, values, coeffs)
def test_results_are_normal(a, b, c):
    for r in (a, b, a + b, a - b, a * b, a * c, -a, a.dx(), a - a, a * 0):
        assert_normal(r)


@given(terms, coeffs.filter(bool))
def test_equal_values_hash_equally(t, c):
    r = RatFunc(t)
    scaled = RatFunc({k: v * c for k, v in t.items()}) * (1 / c)
    assert scaled == r and hash(scaled) == hash(r)
    summed = sum((RatFunc({k: v}) for k, v in t.items()), RatFunc())
    assert summed == r and hash(summed) == hash(r)
    shifted = RatFunc({k + 1: v for k, v in t.items()}) * RatFunc({-1: 1})
    assert shifted == r and hash(shifted) == hash(r)


@given(terms)
def test_inputs_are_read_exactly(t):
    r = RatFunc(t)
    assert_normal(r)
    assert same(r, expr(t))


def test_fraction_negative_and_non_monic_inputs():
    half = Fraction(1, 2)
    r = RatFunc({-1: half, 2: -3})                     # 1/(2 (1 - x)) - 3 (1 - x)^2
    assert_normal(r)
    assert (r._num, r._den) == ({-1: 1, 2: -6}, 2)
    # over the monic x - 1: (-1/2 - 3 (x - 1)^3) / (x - 1)
    assert r.texts() == (["5/2", "-9", "9", "-3"], ["-1", "1"])
    assert RatFunc({0: Fraction(3, 6)}) == RatFunc.const(half)
    assert RatFunc({1: Fraction(-4, -8)}) == (1 - RatFunc.x()) * half
    assert RatFunc({0: 0, 3: 0}).is_zero()
    assert (RatFunc({0: Fraction(0, 7)})._num, RatFunc({0: 0})._den) == ({}, 1)


def test_comparison_with_scalars_and_views_read_only():
    assert RatFunc({0: Fraction(3, 2)}) == Fraction(3, 2)
    assert RatFunc.const(4) == 4 and RatFunc.const(0) == 0
    assert RatFunc.x() != 1 and RatFunc({-1: 1}) != 1
    assert hash(RatFunc.const(Fraction(3, 2))) == hash(RatFunc({0: Fraction(6, 4)}))
    r = RatFunc.x()
    with pytest.raises(AttributeError):
        r.num = (Fraction(1),)
    with pytest.raises(AttributeError):
        r.den = (Fraction(1),)


@given(values)
def test_value_at_zero(a):
    # y = 1 at x = 0, so no value of the ring has a pole there
    e = to_sympy(a)
    v = e.numer(0) / e.denom(0)
    assert eval_at_zero(a) == Fraction(int(v.numerator), int(v.denominator))


# -- sums over a shared factor (once Henrici's gcds), RatFunc.dot and texts ---

int_terms = st.dictionaries(exponents, st.integers(-6, 6), max_size=4)


@st.composite
def sharing_pairs(draw):
    """Two values whose printed denominators share factors, as the solver's values do.

    ``equal``: b = +-a + k, k with integer coefficients, so b's stored
    denominator is a's; ``cancel``: b = c - a, so that a + b = c, with the
    lowest power of a cancelled when c starts higher; ``bgw``: constants over
    powers of (1 - x), as the initial data.
    """
    kind = draw(st.sampled_from(["equal", "cancel", "bgw"]))
    if kind == "equal":
        a = draw(values)
        return a, draw(st.sampled_from([1, -1])) * a + RatFunc(draw(int_terms))
    if kind == "cancel":
        a, c = draw(values), draw(values)
        return a, c - a
    c, e = (draw(coeffs.filter(bool)) for _ in range(2))
    return (RatFunc({-draw(st.integers(0, 7)): c}),
            RatFunc(draw(terms)) * RatFunc({-draw(st.integers(0, 7)): e}))


def test_equal_strategy_reaches_the_equal_denominator_sum():
    a = RatFunc({-2: Fraction(1, 6), 1: Fraction(3, 4)})
    b = a + RatFunc({-1: 5, 0: -2})
    assert b._den == a._den == 12
    assert same(a + b, to_sympy(a) + to_sympy(b))
    assert (a - a).is_zero() and (a + (-a)) == 0


@pytest.mark.parametrize("a, b, total", [
    (RatFunc({-2: 1}), RatFunc({-2: -1, -1: Fraction(1, 2)}), RatFunc({-1: Fraction(1, 2)})),
    (RatFunc({-3: 1}), RatFunc({-3: -1, -1: 1}), RatFunc({-1: 1})),
    (RatFunc({-1: Fraction(1, 6)}), RatFunc({-1: Fraction(1, 3)}), RatFunc({-1: Fraction(1, 2)})),
])
def test_henrici_sum_divides_out_a_shared_factor(a, b, total):
    # 1/(1-x)^2 - (1 + x)/(2 (1-x)^2) = 1/(2 (1-x));
    # 1/(1-x)^3 + (x^2 - 2x)/(1-x)^3 = 1/(1-x);  1/(6 (1-x)) + 1/(3 (1-x)) = 1/(2 (1-x))
    got = a + b
    assert_normal(got)
    assert got == total and same(got, to_sympy(a) + to_sympy(b))
    assert got.texts() == tuple([str(c) for c in p] for p in lowest_terms(got))


@given(sharing_pairs())
def test_henrici_arithmetic_on_shared_factors_matches_sympy(ab):
    a, b = ab
    ea, eb = to_sympy(a), to_sympy(b)
    for got, want in ((a + b, ea + eb), (a - b, ea - eb), (b - a, eb - ea),
                      (a * b, ea * eb), (b * a, ea * eb), (a * a, ea * ea),
                      (a.dx(), ea.diff(X)), (b.dx(), eb.diff(X))):
        assert_normal(got)
        assert same(got, want)


@given(values, values)
def test_henrici_results_are_normal(a, b):
    for got in (a + b, a - b, a * b, (a + b) * (a - b), a * b + b):
        assert_normal(got)


def fold(pairs) -> RatFunc:
    out = RatFunc.const(0)
    for a, b in pairs:
        out = out + a * b
    return out


pair_lists = st.lists(st.one_of(st.tuples(values, values), sharing_pairs()), max_size=4)


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
    assert got.is_zero() and (got._num, got._den) == ({}, 1)


@given(st.lists(st.tuples(values, st.integers(-4, 4)), max_size=4))
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
    x, y = RatFunc.x(), 1 - RatFunc.x()
    assert RatFunc.dot([(x, x), (x, -x)]) == 0
    assert RatFunc.dot([(y, y ** -1), (x, x)]) == 1 + x * x


def reference_text(r: RatFunc) -> str:
    """``repr`` from sympy's lowest terms, as the Fraction coefficients print."""
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

    num, den = lowest_terms(r)
    if len(den) == 1:
        return fmt(num)
    return f"({fmt(num)})/({fmt(den)})"


def assert_formats_in_lowest_terms(r: RatFunc):
    from dshierarchy.commands.solve import _value_fields
    num, den = ([str(c) for c in p] for p in lowest_terms(r))
    assert r.texts() == (num, den)
    assert repr(r) == reference_text(r)
    assert _value_fields(r) == {"value": {"num": num, "den": den},
                                "value_text": reference_text(r)}


@given(st.one_of(values, sharing_pairs().map(lambda ab: ab[0] * ab[1])))
def test_texts_format_as_the_fraction_views(r):
    assert_formats_in_lowest_terms(r)


@pytest.mark.parametrize("r", [
    RatFunc.const(0), RatFunc.const(1), RatFunc.const(-1), RatFunc.const(Fraction(-7, 3)),
    RatFunc.x(), -RatFunc.x(), RatFunc.x() ** 2, RatFunc.x() - RatFunc.x() ** 2,
    RatFunc({-1: Fraction(-1, 2), 0: 1}),            # negative, over x - 1
    RatFunc({-2: Fraction(3, 6)}),                    # 3/(6 (1 - x)^2)
    RatFunc({-7: Fraction(-15, 8)}),                  # an odd power: (x - 1)^7 = -(1 - x)^7
    RatFunc({-1: 1, 3: 2}), RatFunc({-3: Fraction(2, 3), -1: -1, 2: Fraction(1, 5)}),
])
def test_texts_format_zero_constants_negative_and_non_monic(r):
    assert_formats_in_lowest_terms(r)
