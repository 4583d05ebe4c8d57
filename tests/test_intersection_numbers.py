"""The a1_1 tau-structure against the Witten-Kontsevich intersection numbers.

The a1_1 hierarchy is KdV, and its tau-structure at the topological point is
the generating function of the intersection numbers <tau_d1 ... tau_dn>_g on
the moduli of stable curves.  The numbers below come from outside the
program: Witten, "Two-dimensional gravity and intersection theory on moduli
space" (1991), and Kontsevich, "Intersection theory on the moduli space of
curves and the matrix Airy function" (1992).

Read Omega_{(1,i);(1,j)} on u = -2x, with t_k scaled by (2k+1)!!: the
coefficient of x^n/n! in its degree-2g part is <tau_0^n tau_i tau_j>_g.
Nothing else is fitted, so every value is a check, and each entry's whole
genus-g polynomial is compared, which also checks that no other power of x
appears (dimension: 3g - 3 + n + 2 = i + j).

The third derivatives of log tau are the flows applied to the table.  The
flow D_(1,0) is -d/dx, so d/dt_k = -D_(1,k), and the coefficient of x^n/n!
in the degree-(2g+1) part of -D_(1,k) Omega_{(1,i);(1,j)}, read in the same
way, is <tau_0^n tau_i tau_j tau_k>_g.  No new scale or sign is fitted.
Two flows give the four-point numbers: the two minus signs cancel, so the
degree-(2g+2) part of D_(1,l) D_(1,k) Omega_{(1,i);(1,j)} reads
<tau_0^n tau_i tau_j tau_k tau_l>_g.  They see the terms u u_xxx and u_x u_xx
of D_(1,2), which vanish on u = -2x and so are invisible to the three-point
numbers; the string and dilaton equations tie them to the fewer-point ones.

The last test reads the other tau-function of KdV, at the Brezin-Gross-Witten
point, through ``dshier solve`` with the same scales.
"""

import json
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb, factorial, prod

import pytest

from dshierarchy.diffalg import DiffPoly, JetMap
from dshierarchy.hierarchy import DSHierarchy
from dshierarchy.ratfunc import RatFunc

MAX_K = 8  # reaches genus 3 through <tau_0 tau_8>_3
THREE_POINT_K = 4  # the flows D_(1,k), k <= 4, on the entries with i, j <= 4
FOUR_POINT_K = 3  # two flows D_(1,k), D_(1,l), k, l <= 3, on the entries with i, j <= 3

JETS = JetMap([RatFunc.x() * -2])  # u = -2x


def polynomial(coeffs) -> RatFunc:
    """sum_i c_i x^i from the printed coefficient strings."""
    x = RatFunc.x()
    return sum((x ** i * Fraction(c) for i, c in enumerate(coeffs)), RatFunc.const(0))


def double_factorial(k: int) -> int:  # (2k+1)!!
    return factorial(2 * k + 1) // (2 ** k * factorial(k))


def numbers(p: DiffPoly, degree: int, ks: tuple[int, ...]) -> dict[int, Fraction]:
    """{n: n! [x^n]} of the degree part of p on u = -2x, over the (2k+1)!! of each k."""
    part = p.degree_decomposition().get(degree)
    if part is None:
        return {}
    num, den = part.substitute(JETS).texts()
    assert den == ["1"]
    scale = prod(double_factorial(k) for k in ks)
    return {n: Fraction(c) * factorial(n) / scale for n, c in enumerate(num) if c != "0"}


@pytest.fixture(scope="module")
def hierarchy():
    return DSHierarchy("a1_1", max_flow_k=0, omega_max_k=MAX_K)


@pytest.fixture(scope="module")
def correlator(hierarchy):
    table = hierarchy.omega_table(1, MAX_K)

    def read(i: int, j: int, g: int) -> dict[int, Fraction]:
        """{n: <tau_0^n tau_i tau_j>_g} for every n with a nonzero number."""
        return numbers(table.entry((1, i), (1, j)), 2 * g, (i, j))

    return read


@pytest.fixture(scope="module")
def three_point(hierarchy):
    table = hierarchy.omega_table(1, MAX_K)

    def read(i: int, j: int, k: int, g: int) -> dict[int, Fraction]:
        """{n: <tau_0^n tau_i tau_j tau_k>_g}, from d/dt_k = -D_(1,k) on Omega_{i;j}."""
        third = hierarchy.flow((1, k))(table.entry((1, i), (1, j)))
        return {n: -c for n, c in numbers(third, 2 * g + 1, (i, j, k)).items()}

    return read


@pytest.fixture(scope="module")
def four_point_values(hierarchy):
    """{(i, j, k, l, g): {n: <tau_0^n tau_i tau_j tau_k tau_l>_g}}, from D_(1,l) D_(1,k) Omega_{i;j}.

    Every order of four labels <= 3, at every genus with a value
    (3g + 1 + n = i + j + k + l).  Also (0, j, 2, 5): d^5 of the
    characteristic of D_(1,l) vanishes on u = -2x for l < 5, so only l >= 5
    sees the u_xxxxx term of D_(1,2), at genus 2.
    """
    table = hierarchy.omega_table(1, MAX_K)
    once = {}
    out = {}
    for i, j, k, l in [*product(range(FOUR_POINT_K + 1), repeat=4),
                       *((0, j, 2, 5) for j in range(3))]:
        if (i, j, k) not in once:
            once[(i, j, k)] = hierarchy.flow((1, k))(table.entry((1, i), (1, j)))
        twice = hierarchy.flow((1, l))(once[(i, j, k)])
        for g in range(4):
            got = numbers(twice, 2 * g + 2, (i, j, k, l))
            if got:
                out[(i, j, k, l, g)] = got
    return out


@pytest.fixture(scope="module")
def any_points(correlator, three_point, four_point_values):
    def read(ds: list[int], g: int) -> Fraction:
        """<prod tau_d>_g over ds, by the reader with the fewest labels; 0 if some d < 0.

        Every d > 0 is a label, and tau_0 fills the labels up to two.
        """
        if min(ds) < 0:
            return Fraction(0)
        marked = sorted((d for d in ds if d), reverse=True)
        marked += [0] * (2 - len(marked))
        n = len(ds) - len(marked)
        assert len(marked) <= 4 and n >= 0, ds
        return readers[len(marked)](*marked, g).get(n, Fraction(0))

    def four(*key):
        assert max(key[:4]) <= FOUR_POINT_K, key  # a label set not read counts as no value
        return four_point_values.get(key, {})

    readers = {2: cache(correlator), 3: cache(three_point), 4: four}

    return read


def test_genus_zero_two_point_numbers(correlator):
    # <tau_0^{i+j+1} tau_i tau_j>_0 = C(i+j, i), from Witten's genus-0 formula
    # <tau_d1 ... tau_dn>_0 = (n-3)!/(d1! ... dn!) (Witten 1991)
    for i in range(MAX_K + 1):
        for j in range(MAX_K + 1):
            assert correlator(i, j, 0) == {i + j + 1: comb(i + j, i)}, (i, j)


@pytest.mark.parametrize("i, j, g, value", [
    (0, 2, 1, Fraction(1, 24)),  # Witten 1991
    (1, 1, 1, Fraction(1, 24)),  # Witten 1991
    (0, 5, 2, Fraction(1, 1152)),  # Witten 1991
    (1, 4, 2, Fraction(1, 384)),  # Witten 1991
    (2, 3, 2, Fraction(29, 5760)),  # Witten 1991; Kontsevich 1992
])
def test_higher_genus_two_point_numbers(correlator, i, j, g, value):
    assert correlator(i, j, g) == {0: value}
    assert correlator(j, i, g) == {0: value}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_tau_0_tau_3g_minus_1(correlator, g):
    # <tau_0 tau_{3g-1}>_g = <tau_{3g-2}>_g = 1/(24^g g!) (Witten 1991, string
    # equation; Kontsevich 1992)
    assert correlator(0, 3 * g - 1, g) == {0: Fraction(1, 24 ** g * factorial(g))}


def test_genus_zero_three_point_numbers(three_point):
    # <tau_0^n tau_i tau_j tau_k>_0 = n!/(i! j! k!) with n = i + j + k, from
    # Witten's genus-0 formula <tau_d1 ... tau_dm>_0 = (m-3)!/(d1! ... dm!)
    # (Witten 1991)
    for i, j, k in product(range(THREE_POINT_K + 1), repeat=3):
        n = i + j + k
        assert three_point(i, j, k, 0) == \
            {n: Fraction(factorial(n), factorial(i) * factorial(j) * factorial(k))}, (i, j, k)


@pytest.mark.parametrize("ks, value", [
    ((1, 1, 1), Fraction(1, 12)),  # dilaton equation on <tau_1^2>_1 = 1/24 (Witten 1991)
    ((0, 0, 3), Fraction(1, 24)),  # string equation on <tau_0 tau_2>_1 (Witten 1991)
    ((0, 1, 2), Fraction(1, 12)),  # string equation on <tau_0 tau_2>_1, <tau_1^2>_1 (Witten 1991)
])
def test_genus_one_three_point_numbers(three_point, ks, value):
    # every order of the three labels: the flow may act on any of them
    for i, j, k in set(permutations(ks)):
        assert three_point(i, j, k, 1) == {0: value}, (i, j, k)


def test_genus_zero_four_point_numbers(four_point_values):
    # <tau_0^n tau_i tau_j tau_k tau_l>_0 = (n+1)!/(i! j! k! l!) with
    # n + 1 = i + j + k + l, Witten's genus-0 formula (Witten 1991)
    for i, j, k, l in product(range(FOUR_POINT_K + 1), repeat=4):
        n = i + j + k + l - 1
        want = {} if n < 0 else {n: Fraction(factorial(n + 1), prod(
            factorial(d) for d in (i, j, k, l)))}
        assert four_point_values.get((i, j, k, l, 0), {}) == want, (i, j, k, l)


def test_four_point_string_equation(four_point_values, any_points):
    # <tau_0 prod tau_d>_g = sum_m <tau_{d_m - 1} prod_{d != d_m} tau_d>_g
    # (Witten 1991), on every four-point value that has a tau_0 among its
    # points; the right side is read by the reader with the fewest labels, so
    # a tau_0 among the flow labels is checked against the three-point numbers
    checked = 0
    for (*ijkl, g), values in four_point_values.items():
        for n, value in values.items():
            ds = ijkl + [0] * n
            if 0 not in ds:
                continue
            ds.remove(0)
            rhs = sum(any_points(ds[:m] + [ds[m] - 1] + ds[m + 1:], g)
                      for m in range(len(ds)) if ds[m])
            assert value == rhs, (ijkl, n, g)
            checked += 1
    assert checked > 100


def test_four_point_dilaton_equation(four_point_values, any_points):
    # <tau_1 prod_{m=1}^{p} tau_{d_m}>_g = (2g - 2 + p) <prod tau_{d_m}>_g
    # (Witten 1991), on every four-point value that has a tau_1 among its points
    checked = 0
    for (*ijkl, g), values in four_point_values.items():
        if 1 not in ijkl:
            continue
        for n, value in values.items():
            rest = ijkl + [0] * n
            rest.remove(1)
            assert value == (2 * g - 2 + len(rest)) * any_points(rest, g), (ijkl, n, g)
            checked += 1
    assert checked > 100


# The Brezin-Gross-Witten point, read through ``dshier solve``.  On KdV the
# initial data u(x, 0) = -1/(4(1 - x)^2) gives the BGW tau-function, the
# generating function of Norbury's Theta-class intersection numbers (Norbury,
# "A new cohomology class on the moduli space of curves", 2017; Do and
# Norbury, "Topological recursion on the Bessel curve", 2018).  Its free energy
# begins -(1/8) log(1 - t_0) + (3/128) t_1/(1 - t_0)^3
# + (15/1024) t_2/(1 - t_0)^5 + (63/1024) t_1^2/(1 - t_0)^6, so with x = t_0
# and t_k scaled by (2k+1)!!, as above, its second derivatives at
# t_1 = t_2 = 0 are these; solve's value at t = 0, summed over eps, must match.
BGW_SOLVE = ["solve", "--type", "a1_1", "--bgw=-1/4", "--flows", "1:0,1:1,1:2",
             "--max-k", "2"]
BGW_SECOND_DERIVATIVES = {  # (i, j) -> (c, n): c / (1 - x)^n
    (0, 0): (Fraction(1, 8), 2),  # d0 d0: (1/8) / (1 - x)^2
    (0, 1): (Fraction(27, 128), 4),  # d0 d1: 3 (3/128) 3 / (1 - x)^4
    (1, 1): (Fraction(567, 512), 6),  # d1 d1: 3^2 (2 (63/1024)) / (1 - x)^6
    (0, 2): (Fraction(1125, 1024), 6),  # d0 d2: 15 (5 (15/1024)) / (1 - x)^6
}


def test_bgw_point_second_derivatives_through_solve(capsys):
    from dshierarchy.cli import main
    assert main(BGW_SOLVE) == 0
    payload = json.loads(capsys.readouterr().out)
    at_zero = {}
    for row in payload["two_point"]:
        value = RatFunc.const(0)
        for e in row["series"]:
            if not any(e["t_exponents"]):
                value = value + (polynomial(e["value"]["num"])
                                 * polynomial(e["value"]["den"]) ** -1)
        at_zero[(row["i"][1], row["j"][1])] = value
    one_minus_x = 1 - RatFunc.x()
    for (i, j), (c, n) in BGW_SECOND_DERIVATIVES.items():
        assert at_zero[(i, j)] == at_zero[(j, i)] == c * one_minus_x ** -n, (i, j)
