"""Exact integer and rational linear algebra helpers.

Everything here works over plain Python ints and Fractions.  Lattices are
handled through row-style Hermite normal form: pivots positive, entries
above each pivot reduced into [0, pivot), rows ordered by pivot column.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

IntVec = tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _echelon(rows: list[list[int]], width: int) -> list[list[int]]:
    """Integer row echelon on the first `width` columns, full rows carried.

    Unimodular row operations only, so the row lattice is preserved.
    """
    rows = [r[:] for r in rows]
    pivot_row = 0
    for col in range(width):
        # find a row with a nonzero entry in this column
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        # clear the column below via xgcd combinations
        for r in range(pivot_row + 1, len(rows)):
            a, b = rows[pivot_row][col], rows[r][col]
            if not b:
                continue
            g, x, y = _xgcd(a, b)
            pa, pb = a // g, b // g
            top = [x * s + y * t for s, t in zip(rows[pivot_row], rows[r])]
            bot = [-pb * s + pa * t for s, t in zip(rows[pivot_row], rows[r])]
            rows[pivot_row], rows[r] = top, bot
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-v for v in rows[pivot_row]]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows


def hnf(rows: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Canonical Hermite normal form basis of the row lattice."""
    rows = [list(map(int, r)) for r in rows if any(r)]
    if not rows:
        return ()
    width = len(rows[0])
    ech = [r for r in _echelon(rows, width) if any(r)]
    # pivot list in row order
    pivots = [next(j for j, v in enumerate(r) if v) for r in ech]
    order = sorted(range(len(ech)), key=lambda k: pivots[k])
    ech = [ech[k] for k in order]
    pivots = [pivots[k] for k in order]
    # reduce entries above each pivot
    for i in range(len(ech) - 1, -1, -1):
        p = pivots[i]
        piv = ech[i][p]
        for r in range(i):
            q = ech[r][p] // piv
            if q:
                ech[r] = [a - q * b for a, b in zip(ech[r], ech[i])]
    return tuple(tuple(r) for r in ech)


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership test against an HNF (or at least echelon) basis."""
    v = list(map(int, vec))
    pivots = {next(j for j, x in enumerate(r) if x): r for r in basis}
    for j in range(len(v)):
        if not v[j]:
            continue
        row = pivots.get(j)
        if row is None or v[j] % row[j]:
            return False
        q = v[j] // row[j]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


class IntegerSystem:
    """All integer solutions of matrix @ x = rhs, for one matrix and any
    number of right-hand sides (Cohen, GTM 138, section 2.4).

    The matrix holds ints or Fractions.  Each equation is scaled once by
    the lcm of its matrix denominators; the echelon form of [A^T | I] and
    the kernel's HNF are computed once; `solve` back-substitutes.  A
    right-hand side that is not integral after the scaling has no integer
    solution, and one that is needs no further scaling, so the solution
    is the one a solver scaling by the right-hand side too would find.
    """

    def __init__(self, matrix: Sequence[Sequence[Fraction]], ncols: int):
        self.ncols = ncols
        self._scales = [lcm(*[x.denominator for x in row]) for row in matrix]
        nrows = len(self._scales)
        # rows of the working matrix: (column i of the scaled A | e_i)
        work = [
            [row[i].numerator * (s // row[i].denominator) for row, s in zip(matrix, self._scales)]
            + [int(k == i) for k in range(ncols)]
            for i in range(ncols)
        ]
        ech = _echelon(work, nrows)
        self.kernel: tuple[IntVec, ...] = hnf([row[nrows:] for row in ech if not any(row[:nrows])])
        # (pivot, image row in the scaled A, combination of columns giving it)
        self._span = [
            (next(j for j, v in enumerate(row[:nrows]) if v), row[:nrows], row[nrows:])
            for row in ech
            if any(row[:nrows])
        ]

    def solve(self, rhs: Sequence[Fraction | int], den: int = 1) -> IntVec | None:
        """One integer x with matrix @ x = rhs / den, or None when there is
        none; every solution is x plus an integer combination of `kernel`."""
        residual = []
        for x, scale in zip(rhs, self._scales, strict=True):
            q, r = divmod(x * scale, den)
            if r:
                return None
            residual.append(int(q))
        combo = [0] * self.ncols
        for lead, image, columns in self._span:
            q, r = divmod(residual[lead], image[lead])
            if r:
                return None
            if q:
                residual = [a - q * b for a, b in zip(residual, image)]
                combo = [a + q * b for a, b in zip(combo, columns)]
        if any(residual):
            return None
        return tuple(combo)


def integer_kernel(matrix: Sequence[Sequence[Fraction]], ncols: int) -> tuple[IntVec, ...]:
    """HNF basis of { x in Z^ncols : matrix @ x = 0 }, a saturated lattice;
    the matrix may be rational."""
    return IntegerSystem(matrix, ncols).kernel


def solve_integer(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], ncols: int
) -> tuple[IntVec | None, tuple[IntVec, ...]]:
    """All integer solutions of matrix @ x = rhs as (particular, kernel
    basis), with None for the particular one when there is none."""
    system = IntegerSystem(matrix, ncols)
    return system.solve(rhs), system.kernel


def rational_inverse(matrix: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """Exact inverse of a square rational matrix, or None when singular."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    if any(len(row) != 2 * n for row in aug):
        raise ValueError("matrix is not square")
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact product of two rational matrices."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
        for row in a
    )


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 0 in ascending order, and [1] for 0:
    the numerators and denominators of rational-root candidates."""
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
