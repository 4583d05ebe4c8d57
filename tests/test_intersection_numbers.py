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
"""

from fractions import Fraction
from math import comb, factorial

import pytest

from dshierarchy.diffalg import JetMap
from dshierarchy.hierarchy import DSHierarchy
from dshierarchy.ratfunc import RatFunc

MAX_K = 8  # reaches genus 3 through <tau_0 tau_8>_3


@pytest.fixture(scope="module")
def correlator():
    table = DSHierarchy("a1_1", max_flow_k=0, omega_max_k=MAX_K).omega_table(1, MAX_K)
    jets = JetMap([RatFunc.x() * -2])  # u = -2x

    def double_factorial(k: int) -> int:  # (2k+1)!!
        return factorial(2 * k + 1) // (2 ** k * factorial(k))

    def read(i: int, j: int, g: int) -> dict[int, Fraction]:
        """{n: <tau_0^n tau_i tau_j>_g} for every n with a nonzero number."""
        part = table.entry((1, i), (1, j)).degree_decomposition().get(2 * g)
        if part is None:
            return {}
        value = part.substitute(jets)
        assert value.den == (1,)
        scale = double_factorial(i) * double_factorial(j)
        return {n: c * factorial(n) / scale for n, c in enumerate(value.num) if c}

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
