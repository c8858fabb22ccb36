from fractions import Fraction
from math import lcm

import hypothesis.strategies as st
from hypothesis import given

from weylshift.intlinalg import (
    IntegerSystem,
    _echelon,
    hnf,
    integer_kernel,
    lattice_contains,
    matmul,
    rational_inverse,
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
