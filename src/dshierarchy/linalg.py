"""Exact linear solves over Q with ring-valued right-hand sides.

The splitting operations (Heisenberg projection, gauge splitting, Borel
coordinates) all reduce to solving A x = b where A is a fixed rational matrix
and b has entries in a commutative ring (Fraction or DiffPoly).  The solver
precomputes a row reduction of A once and then applies the recorded
transformation to each right-hand side; inconsistent systems raise.  The
transformation is kept as the nonzero entries of each row, integral ones as
``int``, so a solve touches only the coefficients that contribute.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class InconsistentSystemError(ValueError):
    pass


def integral(c: int | Fraction) -> int | Fraction:
    """c as an int when it is one, so that a product with it is an integer scaling."""
    return c.numerator if c.denominator == 1 else c


class LinearSolver:
    """Solves A x = b exactly; free variables are set to zero.

    The solution returned is the unique one supported on pivot columns; for
    injective A it is the unique solution.
    """

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        a = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(a)
        self.ncols = len(a[0]) if a else 0
        # Row-reduce [A | I] to get R = T A in RREF together with T.
        t = [[Fraction(int(i == j)) for j in range(self.nrows)] for i in range(self.nrows)]
        r = [row[:] for row in a]
        pivots: list[tuple[int, int]] = []
        row = 0
        for col in range(self.ncols):
            sel = None
            for i in range(row, self.nrows):
                if r[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            r[row], r[sel] = r[sel], r[row]
            t[row], t[sel] = t[sel], t[row]
            inv = 1 / r[row][col]
            r[row] = [x * inv for x in r[row]]
            t[row] = [x * inv for x in t[row]]
            for i in range(self.nrows):
                if i != row and r[i][col]:
                    f = r[i][col]
                    r[i] = [x - f * y for x, y in zip(r[i], r[row])]
                    t[i] = [x - f * y for x, y in zip(t[i], t[row])]
            pivots.append((row, col))
            row += 1
        self.transform = t
        self._rows = [tuple((j, integral(x)) for j, x in enumerate(tr) if x)
                      for tr in t]
        self.pivots = pivots
        self.rank = len(pivots)

    def solve(self, b: Sequence, zero=Fraction(0)):
        """Return x with A x = b, or raise InconsistentSystemError.

        ``zero`` supplies the ring zero used for free variables and for
        testing residuals (e.g. ``DiffPoly.zero()``).
        """
        if len(b) != self.nrows:
            raise ValueError(f"rhs length {len(b)} != {self.nrows}")
        c = []
        for row in self._rows:
            acc = zero
            for j, coef in row:
                if b[j]:
                    acc = acc + b[j] * coef
            c.append(acc)
        for i in range(self.rank, self.nrows):
            if c[i] != zero:
                raise InconsistentSystemError(f"row {i} residual nonzero")
        x = [zero] * self.ncols
        for (row, col) in self.pivots:
            x[col] = c[row]
        return x
