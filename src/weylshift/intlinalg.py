"""Exact integer and rational linear algebra helpers.

Everything here works over plain Python ints and Fractions.  Lattices are
handled through row-style Hermite normal form: pivots positive, entries
above each pivot reduced into [0, pivot), rows ordered by pivot column.
Besides the lattice work, `rref` is the one elimination over Q: its
integer core `integer_rref` keeps primitive integer rows, and
`over_pivots` divides each by its pivot.  `rational_inverse` uses `rref`;
the consistency checks' change of coordinates uses the core, and
`over_pivots` only to carry a witness back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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
    # _echelon returns the nonzero rows first, in increasing pivot column
    ech = [r for r in _echelon(rows, width) if any(r)]
    pivots = [next(j for j, v in enumerate(r) if v) for r in ech]
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
    the kernel's HNF are computed once; `reduce` back-substitutes.  A
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

    def reduce(self, rhs: Sequence[Fraction | int], den: int = 1) -> tuple[IntVec, tuple[Fraction, ...]]:
        """An integer x and the residual rhs / den - matrix @ x, reduced
        into [0, pivot) at each pivot of the columns' echelon span, so that
        right-hand sides differing by an integer combination of the columns
        get the same residual."""
        residual = [x * scale for x, scale in zip(rhs, self._scales, strict=True)]
        combo = [0] * self.ncols
        for lead, image, columns in self._span:
            q = residual[lead] // (den * image[lead])
            if q:
                residual = [a - q * den * b for a, b in zip(residual, image)]
                combo = [a + q * b for a, b in zip(combo, columns)]
        return tuple(combo), tuple(Fraction(r, den * s) for r, s in zip(residual, self._scales))

    def solve(self, rhs: Sequence[Fraction | int], den: int = 1) -> IntVec | None:
        """One integer x with matrix @ x = rhs / den, or None when there is
        none; every solution is x plus an integer combination of `kernel`."""
        x, residual = self.reduce(rhs, den)
        return None if any(residual) else x


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


def integer_rref(rows: Iterable[Sequence[int]], width: int) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination (Cohen, GTM 138, 2.2), the
    integer core of `rref`: the pivot columns, ascending, and one integer
    row per pivot spanning over Q the integer rows read, whose pivots lie in
    the first `width` columns.  Reading stops once each of those is a pivot.
    Each kept row is zero at every other pivot and divided by its content."""
    kept: dict[int, list[int]] = {}  # pivot column -> row
    for row in rows:
        for j, b in kept.items():
            if c := row[j]:
                row = [b[j] * x - c * y for x, y in zip(row, b)]
        j = next((j for j in range(width) if row[j]), None)
        if j is None:
            continue
        g = gcd(*row)
        row = [x // g for x in row]
        for i, b in kept.items():
            if c := b[j]:
                b = [row[j] * x - c * y for x, y in zip(b, row)]
                g = gcd(*b)
                kept[i] = [x // g for x in b]
        kept[j] = row
        if len(kept) == width:
            break
    cols = sorted(kept)
    return cols, [kept[j] for j in cols]


def rref(rows: Iterable[Sequence[int]], width: int) -> tuple[list[int], list[list[Fraction]]]:
    """The pivot columns and the reduced row echelon basis of the span over
    Q of integer rows with pivots in the first `width` columns: the rows of
    `integer_rref`, each divided by its pivot."""
    cols, kept = integer_rref(rows, width)
    return cols, over_pivots(cols, kept)


def over_pivots(cols: Sequence[int], rows: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Each integer row divided by its entry in the pivot column paired with it."""
    return [[Fraction(x, row[j]) for x in row] for j, row in zip(cols, rows)]


def rational_inverse(matrix: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """Exact inverse of a square rational matrix, or None when singular:
    the right half of the rref of [A | I], each row scaled to integers."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    scales = [lcm(*[Fraction(x).denominator for x in row]) for row in matrix]
    aug = [[int(x * s) for x in row] + [s * (i == j) for j in range(n)] for i, (row, s) in enumerate(zip(matrix, scales))]
    cols, rows = rref(aug, n)
    return tuple(tuple(row[n:]) for row in rows) if len(cols) == n else None


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact product of two rational matrices."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
        for row in a
    )


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in ascending order: the numerators
    and denominators of rational-root candidates."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
