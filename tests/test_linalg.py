from fractions import Fraction

import pytest

from conftest import random_poly
from dshierarchy.diffalg import DiffPoly
from dshierarchy.linalg import InconsistentSystemError, LinearSolver


def test_solve_square():
    s = LinearSolver([[1, 2], [3, 4]])
    x = s.solve([Fraction(5), Fraction(11)])
    assert x == [Fraction(1), Fraction(2)]
    assert s.rank == 2


def test_solve_rank_deficient_consistent():
    s = LinearSolver([[1, 1], [2, 2]])
    x = s.solve([Fraction(3), Fraction(6)])
    # free variable set to zero; pivot carries the value
    assert x[0] + x[1] == 3


def test_solve_inconsistent():
    s = LinearSolver([[1, 1], [2, 2]])
    with pytest.raises(InconsistentSystemError):
        s.solve([Fraction(3), Fraction(7)])


def test_solve_with_polynomial_rhs():
    u = DiffPoly.var(1)
    s = LinearSolver([[2, 0], [0, 4]])
    x = s.solve([u, u.dx()], zero=DiffPoly.zero())
    assert x[0] == u * Fraction(1, 2)
    assert x[1] == u.dx() * Fraction(1, 4)


def test_solve_overdetermined():
    s = LinearSolver([[1], [1]])
    assert s.solve([Fraction(2), Fraction(2)]) == [Fraction(2)]
    with pytest.raises(InconsistentSystemError):
        s.solve([Fraction(2), Fraction(3)])


def _dense_solve(s: LinearSolver, b, zero):
    """A x = b through every entry of the dense transform, as a reference."""
    c = []
    for row in s.transform:
        acc = zero
        for j, coef in enumerate(row):
            acc = acc + b[j] * coef
        c.append(acc)
    if any(ci != zero for ci in c[s.rank:]):
        raise InconsistentSystemError("reference residual nonzero")
    x = [zero] * s.ncols
    for row, col in s.pivots:
        x[col] = c[row]
    return x


def _random_solver(rng):
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if rng.random() < 0.5
             else Fraction(0) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:  # a repeated row makes the system rank deficient
        rows.append(list(rows[0]))
    return rows, LinearSolver(rows)


def test_sparse_solve_matches_dense_transform(rng):
    for _ in range(60):
        rows, s = _random_solver(rng)
        xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(s.ncols)]
        b = [sum((a * x for a, x in zip(row, xs)), Fraction(0)) for row in rows]
        got = s.solve(b)
        assert got == _dense_solve(s, b, Fraction(0))
        assert [sum(a * x for a, x in zip(row, got)) for row in rows] == b
        xp = [random_poly(rng) for _ in range(s.ncols)]
        bp = [sum((x * a for a, x in zip(row, xp)), DiffPoly.zero()) for row in rows]
        gotp = s.solve(bp, zero=DiffPoly.zero())
        assert gotp == _dense_solve(s, bp, DiffPoly.zero())
        assert [sum((x * a for a, x in zip(row, gotp)), DiffPoly.zero())
                for row in rows] == bp


def test_sparse_solve_rejects_out_of_span_rhs(rng):
    u = DiffPoly.var(1)
    seen = 0
    for _ in range(60):
        _, s = _random_solver(rng)
        if s.rank == s.nrows:
            continue
        # a row of the transform below the rank annihilates the column span,
        # and it pairs with itself to a positive number
        y = s.transform[s.rank]
        for b, zero in ((list(y), Fraction(0)), ([u * c for c in y], DiffPoly.zero())):
            with pytest.raises(InconsistentSystemError):
                _dense_solve(s, b, zero)
            with pytest.raises(InconsistentSystemError):
                s.solve(b, zero=zero)
        seen += 1
    assert seen >= 10
