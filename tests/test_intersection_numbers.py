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

The last test reads the other tau-function of KdV, at the Brezin-Gross-Witten
point, through ``dshier solve`` with the same scales.
"""

import json
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
