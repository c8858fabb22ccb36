from fractions import Fraction
from math import gcd, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given

from weylshift import intlinalg
from weylshift.intlinalg import (
    IntegerSystem,
    _echelon,
    hnf,
    integer_kernel,
    integer_rref,
    lattice_contains,
    matmul,
    rational_inverse,
    rref,
    solve_integer,
)

small_ints = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_ints, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def test_hnf_examples():
    assert hnf([[2, 4], [6, 8]]) == ((2, 0), (0, 4))
    assert hnf([[1, 2], [3, 4]]) == ((1, 0), (0, 2))
    assert hnf([[0, 0]]) == ()
    assert hnf([[0, 3], [0, 5]]) == ((0, 1),)
    assert hnf([[-2, 0]]) == ((2, 0),)


def test_hnf_is_canonical_under_row_shuffles():
    basis = hnf([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
    assert hnf([[1, 5, 9], [2, 6, 5], [3, 1, 4]]) == basis
    # pivots positive, entries above pivots reduced
    for row in basis:
        lead = next(v for v in row if v)
        assert lead > 0


def test_lattice_contains():
    basis = hnf([[2, 0], [0, 3]])
    assert lattice_contains(basis, (4, -3))
    assert not lattice_contains(basis, (1, 0))
    assert not lattice_contains(basis, (2, 1))
    assert lattice_contains(basis, (0, 0))
    assert not lattice_contains((), (0, 1))
    assert lattice_contains((), (0, 0))


def test_integer_kernel_saturates():
    # the rational kernel is spanned by (2, -1); saturation keeps it primitive
    assert integer_kernel([[Fraction(1), Fraction(2)]], 2) == ((2, -1),)
    assert integer_kernel([[Fraction(2), Fraction(4)]], 2) == ((2, -1),)
    assert integer_kernel([[Fraction(1, 3), Fraction(2, 3)]], 2) == ((2, -1),)


def test_integer_kernel_full_and_trivial():
    assert integer_kernel([], 2) == ((1, 0), (0, 1))
    assert integer_kernel([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], 2) == ()


def test_solve_integer_examples():
    part, kernel = solve_integer([[Fraction(2), Fraction(3)]], [Fraction(1)], 2)
    assert part is not None
    assert 2 * part[0] + 3 * part[1] == 1
    assert kernel == ((3, -2),)

    # 2x + 4y = 1 has no integer solution
    part, kernel = solve_integer([[Fraction(2), Fraction(4)]], [Fraction(1)], 2)
    assert part is None
    assert kernel == ((2, -1),)

    # rational data, integral answer
    part, _ = solve_integer([[Fraction(1, 2)]], [Fraction(3, 2)], 1)
    assert part == (3,)


def test_solve_integer_inconsistent_system():
    part, kernel = solve_integer(
        [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]],
        [Fraction(0), Fraction(1)],
        2,
    )
    assert part is None


def test_rational_inverse():
    inv = rational_inverse([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert inv == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    assert rational_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None


def test_matmul():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert matmul(a, b) == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))


@given(rows=matrices(2, 3))
def test_hnf_spans_the_same_lattice(rows):
    basis = hnf(rows)
    for row in rows:
        assert lattice_contains(basis, row)
    # HNF of the basis is itself
    assert hnf(basis) == basis


@given(rows=matrices(2, 3), coeffs=st.lists(small_ints, min_size=2, max_size=2))
def test_lattice_contains_combinations(rows, coeffs):
    basis = hnf(rows)
    combo = [
        coeffs[0] * a + coeffs[1] * b for a, b in zip(rows[0], rows[1])
    ]
    assert lattice_contains(basis, combo)


@given(rows=matrices(2, 3))
def test_integer_kernel_annihilates(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    for vec in integer_kernel(mat, 3):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(rows=matrices(2, 3), x=st.lists(small_ints, min_size=3, max_size=3))
def test_solve_integer_finds_planted_solutions(rows, x):
    mat = [[Fraction(v) for v in row] for row in rows]
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    part, kernel = solve_integer(mat, [Fraction(v) for v in rhs], 3)
    assert part is not None
    for row in rows:
        assert sum(a * b for a, b in zip(row, part)) == rhs[rows.index(row)]
    # the planted solution differs from the particular one by a kernel vector
    diff = [a - b for a, b in zip(x, part)]
    assert lattice_contains(kernel, diff) or not any(diff)


# ----------------------------------------------------------------------
# IntegerSystem against the one-shot solver it replaced, kept here as the
# reference.  The reference scales each equation by the lcm of all its
# denominators, right-hand side included, and redoes the echelon form for
# every right-hand side; it shares `_echelon` and `hnf` with the engine on
# purpose, since the engine must return the same particular solution, not
# just some solution.


def reference_solve(matrix, rhs, ncols):
    int_rows, int_b = [], []
    for row, b in zip(matrix, rhs):
        scale = lcm(*[Fraction(x).denominator for x in row], Fraction(b).denominator)
        int_rows.append([int(Fraction(x) * scale) for x in row])
        int_b.append(int(Fraction(b) * scale))
    nrows = len(int_rows)
    work = [
        [int_rows[r][i] for r in range(nrows)] + [1 if k == i else 0 for k in range(ncols)]
        for i in range(ncols)
    ]
    ech = _echelon(work, nrows)
    kernel = hnf([row[nrows:] for row in ech if not any(row[:nrows])])
    residual = list(int_b)
    combo = [0] * ncols
    for row in (row for row in ech if any(row[:nrows])):
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


rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4]))


@st.composite
def integer_systems(draw):
    """A rational matrix, some of whose rows may be zero, and several
    right-hand sides: planted images of integer points (solvable), planted
    images of half-integer points, and random rationals."""
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    matrix = [
        [Fraction(0)] * ncols if draw(st.integers(0, 4)) == 0 else [draw(rationals) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    rhss = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["integer", "half", "random"]))
        if kind == "random":
            rhss.append([draw(rationals) for _ in range(nrows)])
            continue
        den = 1 if kind == "integer" else 2
        x = [Fraction(draw(st.integers(-5, 5)), den) for _ in range(ncols)]
        rhss.append([sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in matrix])
    return matrix, rhss, ncols


@given(integer_systems())
def test_integer_system_matches_reference(case):
    matrix, rhss, ncols = case
    system = IntegerSystem(matrix, ncols)
    assert integer_kernel(matrix, ncols) == system.kernel
    for rhs in rhss:
        part, kernel = reference_solve(matrix, rhs, ncols)
        assert system.kernel == kernel
        assert system.solve(rhs) == part
        assert solve_integer(matrix, rhs, ncols) == (part, kernel)
        # the same right-hand side as integer numerators over one denominator
        den = lcm(*[b.denominator for b in rhs])
        assert system.solve([int(b * den) for b in rhs], den) == part


def test_integer_system_examples():
    # x/2 + y/3 = b, and a zero row 0 = c
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(0)]]
    system = IntegerSystem(matrix, 2)
    assert system.kernel == ((2, -3),)
    x = system.solve([Fraction(1, 6), 0])
    assert x == reference_solve(matrix, [Fraction(1, 6), 0], 2)[0]
    assert x is not None and Fraction(x[0], 2) + Fraction(x[1], 3) == Fraction(1, 6)
    # not integral after scaling by 6, so there is no integer point
    assert system.solve([Fraction(1, 12), 0]) is None
    # a zero row needs a zero right-hand side
    assert system.solve([0, 1]) is None
    assert system.solve([0, 0]) == (0, 0)
    # the same right-hand sides as numerators over a denominator
    assert system.solve([1, 0], 6) == x
    assert system.solve([1, 0], 12) is None


def test_integer_system_reduce_example():
    # the columns 2 and 3 span Z, and the zero row is left alone
    matrix = [[Fraction(2), Fraction(3)], [Fraction(0), Fraction(0)]]
    system = IntegerSystem(matrix, 2)
    x, residual = system.reduce([Fraction(7, 2), 5])
    assert residual == (Fraction(1, 2), 5)
    assert 2 * x[0] + 3 * x[1] == 3
    assert system.reduce([7, 10], 2) == (x, residual)


@given(integer_systems(), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_integer_system_reduce_is_constant_on_cosets(case, shift):
    # right-hand sides that differ by an integer combination of the
    # columns reduce to one residual, and a residual is its own reduction
    matrix, rhss, ncols = case
    system = IntegerSystem(matrix, ncols)
    for rhs in rhss:
        moved = [b + sum((a * c for a, c in zip(row, shift)), Fraction(0)) for b, row in zip(rhs, matrix)]
        x, residual = system.reduce(rhs)
        y, again = system.reduce(moved)
        assert again == residual
        assert [b - sum((a * c for a, c in zip(row, x)), Fraction(0)) for b, row in zip(rhs, matrix)] == list(residual)
        assert system.reduce(residual)[1] == residual
        assert (system.solve(rhs) is None) == any(residual)


@st.composite
def spanning_rows(draw):
    """(width, rows): a few random rows, integer combinations of them and
    repeats of any, shuffled, so the rank is often below the row count
    and below the width."""
    width = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(small_ints, min_size=width, max_size=width), min_size=1, max_size=4))
    combos = draw(st.lists(st.lists(small_ints, min_size=len(base), max_size=len(base)), max_size=3))
    rows = base + [[sum(c * b[j] for c, b in zip(combo, base)) for j in range(width)] for combo in combos]
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return width, draw(st.permutations(rows))


def _rref_reference(rows, width):
    """The saturated lattice of the row span, as the kernel of the kernel,
    each row divided by its pivot and cleared above the later pivots."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    basis = [[Fraction(x) for x in v] for v in integer_kernel(integer_kernel(matrix, width), width)]
    cols = [next(j for j, a in enumerate(v) if a) for v in basis]
    for i, j in enumerate(cols):
        basis[i] = [a / basis[i][j] for a in basis[i]]
        for h in range(i):
            basis[h] = [a - basis[h][j] * b for a, b in zip(basis[h], basis[i])]
    return cols, basis


@given(spanning_rows())
def test_rref_matches_the_kernel_of_the_kernel(case):
    width, rows = case
    assert rref(rows, width) == _rref_reference(rows, width)


@given(spanning_rows(), st.integers(1, 12))
def test_rref_divides_kept_rows_by_their_content(case, factor):
    # the numerators each basis row is read from share no factor, however
    # large a factor the input rows share
    width, rows = case
    seen = []

    def fraction(x, pivot):
        seen.append(x)
        return Fraction(x, pivot)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intlinalg, "Fraction", fraction)
        cols, _ = rref([[factor * x for x in row] for row in rows], width)
    assert len(seen) == width * len(cols)
    for k in range(len(cols)):
        assert gcd(*seen[k * width:(k + 1) * width]) == 1


@given(spanning_rows(), st.integers(-12, 12).filter(bool))
def test_integer_rref_keeps_primitive_rows_that_rref_divides(case, factor):
    # one row per pivot, zero at the other pivots and with no common
    # factor, whatever factor the input rows share
    width, rows = case
    cols, kept = integer_rref([[factor * x for x in row] for row in rows], width)
    for j, row in zip(cols, kept):
        assert gcd(*row) == 1
        assert all(row[i] == 0 for i in cols if i != j)
    assert rref(rows, width) == (cols, [[Fraction(x, row[j]) for x in row] for j, row in zip(cols, kept)])


def test_rref_examples():
    assert rref([], 2) == ([], [])
    assert rref([[0, 0], [0, 0]], 2) == ([], [])
    assert rref([[2, 4], [3, 6]], 2) == ([0], [[1, 2]])
    assert rref([[0, 3, 1], [6, 0, 2]], 3) == ([0, 1], [[1, 0, Fraction(1, 3)], [0, 1, Fraction(1, 3)]])
    # a row that is zero on the first `width` columns once reduced is dropped
    assert rref([[1, 2, 0], [2, 4, 5]], 2) == ([0], [[1, 2, 0]])


def test_rref_stops_reading_at_full_rank():
    def rows():
        yield [2, 4, 0]
        yield [1, 2, 0]
        yield [0, 3, 1]
        yield [1, 0, 1]
        raise AssertionError("read past full rank")

    assert rref(rows(), 3) == ([0, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@st.composite
def rational_matrices(draw, singular: bool):
    """Square matrices of small fractions; singular ones have a row that is
    a rational combination of the others."""
    n = draw(st.integers(1, 4))
    entry = st.builds(Fraction, small_ints, st.integers(1, 4))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if singular:
        combo = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * row[j] for c, row in zip(combo, rows)), Fraction(0)) for j in range(n)]
        rows = draw(st.permutations(rows))
    return rows


@given(rational_matrices(singular=False))
def test_rational_inverse_inverts(matrix):
    inv = rational_inverse(matrix)
    n = len(matrix)
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    if inv is None:
        # singular: the rows have a nonzero rational relation
        assert integer_kernel([list(col) for col in zip(*matrix)], n)
    else:
        assert matmul(inv, matrix) == identity
        assert matmul(matrix, inv) == identity


@given(rational_matrices(singular=True))
def test_rational_inverse_of_a_singular_matrix_is_none(matrix):
    assert rational_inverse(matrix) is None


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 2]], [[1], [2]], [[1, 2, 3], [4, 5, 6], [7, 8]]])
def test_rational_inverse_of_a_non_square_matrix_raises(matrix):
    with pytest.raises(ValueError, match="not square"):
        rational_inverse([[Fraction(x) for x in row] for row in matrix])
