"""Exact linear solves over Q with ring-valued right-hand sides.

The splitting operations (Heisenberg projection, gauge splitting, Borel
coordinates) all reduce to solving A x = b where A is a fixed rational matrix
and b has entries in a commutative ring (Fraction or DiffPoly).  A row of A
is a sparse map {column: value}, b is the map {row: value} of its nonzero
entries, and the solution is the map {column: value} of its nonzero entries,
so no caller fills or reads a zero.  The solver row-reduces [A | I] once over
the nonzero entries only and keeps the transformation as the nonzero entries
of each row, integral ones as ``int``; a solve then touches only the
coefficients that contribute, and an inconsistent system raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


class InconsistentSystemError(ValueError):
    pass


def integral(c: int | Fraction) -> int | Fraction:
    """c as an int when it is one, so that a product with it is an integer scaling."""
    return c.numerator if c.denominator == 1 else c


class LinearSolver:
    """Solves A x = b exactly for the sparse rows of A; free variables are set to zero.

    The solution returned is the unique one supported on pivot columns; for
    injective A it is the unique solution.
    """

    def __init__(self, rows: Sequence[Mapping[int, int | Fraction]], ncols: int):
        nrows = self.nrows = len(rows)
        self.ncols = ncols
        # Row-reduce [A | I] to R = T A in RREF, the identity block stored as
        # columns ncols + i, so that each row carries its row of T along.
        r = []
        for i, row in enumerate(rows):
            if any(not 0 <= j < ncols for j in row):
                raise ValueError(f"row {i} has a column outside range({ncols})")
            r.append({**{j: Fraction(x) for j, x in row.items() if x}, ncols + i: Fraction(1)})
        pivots: list[tuple[int, int]] = []
        for col in range(ncols):
            row = len(pivots)
            sel = next((i for i in range(row, nrows) if col in r[i]), None)
            if sel is None:
                continue
            r[row], r[sel] = r[sel], r[row]
            inv = 1 / r[row][col]
            pivot = r[row] = {j: x * inv for j, x in r[row].items()}
            for i, other in enumerate(r):
                f = other.get(col)
                if f and i != row:
                    for j, y in pivot.items():
                        x = other.get(j, 0) - f * y
                        if x:
                            other[j] = x
                        else:
                            del other[j]
            pivots.append((row, col))
        self._rows = [tuple((j - ncols, integral(x)) for j, x in sorted(t.items()) if j >= ncols)
                      for t in r]
        self.pivots = pivots
        self.rank = len(pivots)

    def solve(self, b: Mapping) -> dict:
        """Return x with A x = b as {column: value}, or raise InconsistentSystemError.

        ``b`` maps row indices to ring elements (Fraction, int or DiffPoly);
        a missing row is zero, and a zero entry of x is left out.
        """
        if any(not 0 <= j < self.nrows for j in b):
            raise ValueError(f"rhs has a row outside range({self.nrows})")
        x = {}
        for i, row in enumerate(self._rows):
            acc = None
            for j, coef in row:
                v = b.get(j)
                if v:
                    acc = v * coef if acc is None else acc + v * coef
            if acc:
                if i >= self.rank:
                    raise InconsistentSystemError(f"row {i} residual nonzero")
                x[self.pivots[i][1]] = acc
        return x
