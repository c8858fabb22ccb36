"""Exact integer and rational linear algebra helpers.

Everything here works over plain Python ints and Fractions.  Lattices are
handled through row-style Hermite normal form: pivots positive, entries
above each pivot reduced into [0, pivot), rows ordered by pivot column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _clear_denominators(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction] | None = None
) -> tuple[list[list[int]], list[int] | None]:
    """Scale each equation row by the lcm of its denominators."""
    out_m: list[list[int]] = []
    out_b: list[int] | None = [] if rhs is not None else None
    for idx, row in enumerate(matrix):
        entries = [Fraction(x) for x in row]
        dens = [x.denominator for x in entries]
        if rhs is not None:
            dens.append(Fraction(rhs[idx]).denominator)
        scale = lcm(*dens) if dens else 1
        out_m.append([int(x * scale) for x in entries])
        if out_b is not None:
            out_b.append(int(Fraction(rhs[idx]) * scale))
    return out_m, out_b


def integer_kernel(matrix: Sequence[Sequence[Fraction]], ncols: int) -> tuple[IntVec, ...]:
    """HNF basis of { x in Z^ncols : matrix @ x = 0 }.

    The matrix may be rational; row scaling does not change the kernel.
    The resulting lattice is automatically saturated.
    """
    int_rows, _ = _clear_denominators(matrix)
    nrows = len(int_rows)
    # rows of the working matrix: (column i of A | e_i)
    work = [
        [int_rows[r][i] for r in range(nrows)] + [1 if k == i else 0 for k in range(ncols)]
        for i in range(ncols)
    ]
    ech = _echelon(work, nrows)
    kernel = [row[nrows:] for row in ech if not any(row[:nrows])]
    return hnf(kernel)


def solve_integer(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], ncols: int
) -> tuple[IntVec | None, tuple[IntVec, ...]]:
    """All integer solutions of matrix @ x = rhs as (particular, kernel basis).

    Returns (None, kernel) when no integer solution exists.  The matrix and
    right-hand side may be rational.
    """
    int_rows, int_b = _clear_denominators(matrix, rhs)
    assert int_b is not None
    nrows = len(int_rows)
    work = [
        [int_rows[r][i] for r in range(nrows)] + [1 if k == i else 0 for k in range(ncols)]
        for i in range(ncols)
    ]
    ech = _echelon(work, nrows)
    kernel = hnf([row[nrows:] for row in ech if not any(row[:nrows])])
    span = [row for row in ech if any(row[:nrows])]
    residual = list(int_b)
    combo = [0] * ncols
    for row in span:
        lead = next(j for j, v in enumerate(row[:nrows]) if v)
        if residual[lead] % row[lead]:
            return None, kernel
        q = residual[lead] // row[lead]
        if q:
            residual = [a - q * b for a, b in zip(residual, row[:nrows])]
            combo = [a + q * b for a, b in zip(combo, row[nrows:])]
    if any(residual):
        return None, kernel
    return tuple(combo), kernel


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


def row_gcd(values: Sequence[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


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
