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
"""

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest

from dshierarchy.diffalg import DiffPoly, JetMap
from dshierarchy.hierarchy import DSHierarchy
from dshierarchy.ratfunc import RatFunc

MAX_K = 8  # reaches genus 3 through <tau_0 tau_8>_3
THREE_POINT_K = 4  # the flows D_(1,k), k <= 4, on the entries with i, j <= 4

JETS = JetMap([RatFunc.x() * -2])  # u = -2x


def double_factorial(k: int) -> int:  # (2k+1)!!
    return factorial(2 * k + 1) // (2 ** k * factorial(k))


def numbers(p: DiffPoly, degree: int, ks: tuple[int, ...]) -> dict[int, Fraction]:
    """{n: n! [x^n]} of the degree part of p on u = -2x, over the (2k+1)!! of each k."""
    part = p.degree_decomposition().get(degree)
    if part is None:
        return {}
    value = part.substitute(JETS)
    assert value.den == (1,)
    scale = prod(double_factorial(k) for k in ks)
    return {n: c * factorial(n) / scale for n, c in enumerate(value.num) if c}


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
