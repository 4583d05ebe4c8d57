"""matrix_product and matrix_entry: sums of products of matrix forms, summed entry by entry."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from dshierarchy.diffalg import DiffPoly
from matrixform import matrix_entry, matrix_product

u = DiffPoly.var

entries = st.sampled_from([DiffPoly.const(2), u(1), u(1, 1) - Fraction(1, 3),
                           Fraction(3, 4) * u(1) * u(2), -u(2) + 1])
keys = st.tuples(st.integers(-1, 1), st.integers(0, 2), st.integers(0, 2))
forms = st.dictionaries(keys, entries, max_size=5)


def naive(x, y) -> dict:
    """x y by the definition, with every zero entry dropped."""
    out: dict = {}
    for (p, i, j), a in x.items():
        for (q, k, l), b in y.items():
            if j == k:
                key = (p + q, i, l)
                out[key] = out.get(key, DiffPoly.zero()) + a * b
    return {key: c for key, c in out.items() if c}


def nonzero(form) -> dict:
    return {key: c for key, c in form.items() if c}


@given(st.lists(st.tuples(forms, forms), max_size=4))
def test_sum_of_products_is_the_entrywise_sum(pairs):
    total: dict = {}
    for x, y in pairs:
        single = matrix_product([(x, y)])
        assert nonzero(single) == naive(x, y)
        for key, c in single.items():
            total[key] = total.get(key, DiffPoly.zero()) + c
    got = matrix_product(iter(pairs))
    assert got.keys() == total.keys()
    assert got == total


@given(forms, forms)
def test_cancelled_entries_stay_as_zeros(x, y):
    single = matrix_product([(x, y)])
    neg = {key: -c for key, c in x.items()}
    got = matrix_product([(x, y), (neg, y)])
    assert got.keys() == single.keys()
    assert not any(got.values())


@given(st.lists(st.tuples(forms, forms), max_size=4), keys)
def test_one_entry_is_the_entry_of_the_full_product(pairs, other):
    neg = [({key: -c for key, c in x.items()}, y) for x, y in pairs]
    # as given, with the first product cancelled, and with every entry cancelled
    for terms in (pairs, pairs + neg[:1], pairs + neg):
        full = matrix_product(terms)
        for key, c in full.items():
            assert matrix_entry(iter(terms), key) == c
        if other not in full:       # no product reaches it
            assert matrix_entry(terms, other) == DiffPoly.zero()
    assert not any(full.values())


def test_product_of_units():
    one = DiffPoly.const(1)
    e01, e10 = {(1, 0, 1): one}, {(0, 1, 0): one}
    assert matrix_product([(e01, e10)]) == {(1, 0, 0): one}
    assert matrix_product([(e01, e10), (e10, e01)]) == {(1, 0, 0): one, (1, 1, 1): one}
    assert matrix_product([(e01, e01)]) == {}
    assert matrix_product([]) == {}
    assert matrix_entry([(e01, e10), (e10, e01)], (1, 1, 1)) == one
    assert matrix_entry([(e01, e01)], (2, 0, 1)) == DiffPoly.zero()
    assert matrix_entry([], (0, 0, 0)) == DiffPoly.zero()
