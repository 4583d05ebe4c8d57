from fractions import Fraction

import pytest
import sympy

from conftest import random_poly
from dshierarchy.diffalg import DiffPoly
from dshierarchy.linalg import InconsistentSystemError, LinearSolver
from reference_ops import DenseLinearSolver


def test_solve_square():
    s = LinearSolver([{0: 1, 1: 2}, {0: 3, 1: 4}], 2)
    assert s.solve({0: Fraction(5), 1: Fraction(11)}) == {0: 1, 1: 2}
    assert s.rank == 2


def test_solve_rank_deficient_consistent():
    s = LinearSolver([{0: 1, 1: 1}, {0: 2, 1: 2}], 2)
    # free variable set to zero and left out; the pivot carries the value
    assert s.solve({0: Fraction(3), 1: Fraction(6)}) == {0: 3}


def test_solve_inconsistent():
    s = LinearSolver([{0: 1, 1: 1}, {0: 2, 1: 2}], 2)
    with pytest.raises(InconsistentSystemError):
        s.solve({0: Fraction(3), 1: Fraction(7)})


def test_solve_with_polynomial_rhs():
    u = DiffPoly.var(1)
    s = LinearSolver([{0: 2}, {1: 4}], 2)
    assert s.solve({0: u, 1: u.dx()}) == {0: u * Fraction(1, 2), 1: u.dx() * Fraction(1, 4)}


def test_solve_overdetermined():
    s = LinearSolver([{0: 1}, {0: 1}], 1)
    assert s.solve({0: Fraction(2), 1: Fraction(2)}) == {0: 2}
    with pytest.raises(InconsistentSystemError):
        s.solve({0: Fraction(2), 1: Fraction(3)})


def test_zero_rhs_and_empty_rows():
    s = LinearSolver([{}, {1: 3}], 3)
    assert s.rank == 1 and s.pivots == [(0, 1)]
    assert s.solve({}) == {} and s.solve({0: DiffPoly.zero()}) == {}
    with pytest.raises(InconsistentSystemError):
        s.solve({0: Fraction(1)})


def test_keys_must_be_indices():
    with pytest.raises(ValueError, match=r"row 1 has a column outside range\(2\)"):
        LinearSolver([{0: 1}, {2: 1}], 2)
    s = LinearSolver([{0: 1}, {1: 1}], 2)
    for bad in (2, -1):
        with pytest.raises(ValueError, match=r"rhs has a row outside range\(2\)"):
            s.solve({bad: Fraction(1)})


def _random_system(rng, case: int) -> list[list]:
    """Dense rows of a random sparse system; ``case`` picks the shape and the entries.

    Shapes cycle square, over-determined, under-determined and rank
    deficient (a combination of earlier rows appended); even cases have
    int entries, odd ones Fraction entries.
    """
    shape = case % 4
    ncols = rng.randint(2 if shape == 2 else 1, 6)
    nrows = (ncols, ncols + rng.randint(1, 3), rng.randint(1, max(ncols - 1, 1)),
             rng.randint(1, 5))[shape]

    def entry():
        if rng.random() < 0.5:
            return 0
        if case % 2 == 0:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if shape == 3:
        a, b = rng.choice(rows), rng.choice(rows)
        c = rng.randint(-2, 2)
        rows.append([x + c * y for x, y in zip(a, b)])
    return rows


def _sparse(vec) -> dict:
    return {j: x for j, x in enumerate(vec) if x}


def _dense(x: dict, n: int, zero) -> list:
    return [x.get(j, zero) for j in range(n)]


def _systems(rng, count: int = 80):
    """Random sparse systems, each with its sparse solver and the dense reference."""
    for case in range(count):
        rows = _random_system(rng, case)
        ncols = len(rows[0])
        yield rows, LinearSolver([_sparse(row) for row in rows], ncols), DenseLinearSolver(rows)


def test_sparse_elimination_matches_the_dense_reference(rng):
    seen = {"deficient": 0, "over": 0, "under": 0, "fraction": 0}
    for rows, s, ref in _systems(rng):
        nrows, ncols = len(rows), len(rows[0])
        assert (s.nrows, s.ncols) == (ref.nrows, ref.ncols)
        assert s._rows == ref._rows
        assert s.pivots == ref.pivots
        assert s.rank == ref.rank == sympy.Matrix(rows).rank()
        seen["deficient"] += s.rank < min(nrows, ncols)
        seen["over"] += nrows > ncols
        seen["under"] += nrows < ncols
        seen["fraction"] += any(isinstance(x, Fraction) for row in rows for x in row)
    assert min(seen.values()) >= 10, seen


def test_sparse_solve_matches_dense_transform(rng):
    # right-hand sides in the column span, rational and polynomial
    for rows, s, ref in _systems(rng):
        ncols = s.ncols
        xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        xp = [random_poly(rng) for _ in range(ncols)]
        for x, zero in ((xs, Fraction(0)), (xp, DiffPoly.zero())):
            b = [sum((xj * a for a, xj in zip(row, x)), zero) for row in rows]
            got = s.solve(_sparse(b))
            assert all(got.values())
            dense = _dense(got, ncols, zero)
            assert dense == ref.solve(b, zero=zero)
            assert [sum((xj * a for a, xj in zip(row, dense)), zero) for row in rows] == b


def test_sparse_solve_rejects_out_of_span_rhs(rng):
    u = DiffPoly.var(1)
    seen = 0
    for rows, s, ref in _systems(rng):
        if s.rank == len(rows):
            continue
        # a row of the reference's transform below the rank annihilates the
        # column span, and it pairs with itself to a positive number, so it is no A x
        y = ref.transform[s.rank]
        for b, zero in ((list(y), Fraction(0)), ([u * c for c in y], DiffPoly.zero())):
            with pytest.raises(InconsistentSystemError):
                ref.solve(b, zero=zero)
            with pytest.raises(InconsistentSystemError):
                s.solve(_sparse(b))
        seen += 1
    assert seen >= 10, seen
