"""Differential tests of the consistency checkers against the expanding
reference in consistency_reference.py.

check_binary, check_ternary and check_nonsymmetric must give the same
(relation, indices, witness) list as their references, in the same
order, and check_factored on a factored tuple the same list as the
reference binary and ternary checks on its expansion.  Tuples have 1 to 4
directions, zero and parallel columns, constant entries, and are
solutions, corrupted solutions or neither.  Expanded tuples whose entries
depend on fewer linear forms than there are variables are checked in
those forms, so some tuples are built that way, with columns that mix
the variables.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, given, settings

import strategies
from consistency_reference import (
    reference_binary,
    reference_fewest_variables,
    reference_nonsymmetric,
    reference_symmetric,
    reference_ternary,
)
from orbit_reference import combo
from weylshift.consistency import (
    SolutionTuple,
    _fewest_variables,
    check_binary,
    check_factored,
    check_nonsymmetric,
    check_symmetric,
    check_ternary,
    linear_forms,
    unsymmetrize,
)
from weylshift.intlinalg import matmul, over_pivots, rational_inverse
from weylshift.multiquiver import build_solution, symmetrized_solution
from weylshift.orbital import FactoredPoly, FactoredSolution
from weylshift.poly import Poly, merge_factors
from weylshift.shifts import ShiftSystem

HALVES = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])


def listed(report):
    return [(f.relation, f.indices, f.witness) for f in report.failures]


@st.composite
def systems(draw):
    """1 to 4 directions in 1 or 2 variables; a column may be zero or a
    multiple of an earlier one."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=2))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(("free", "zero", "parallel")))
        if kind == "zero":
            cols.append([Fraction(0)] * m)
        elif kind == "parallel" and cols:
            base = draw(st.sampled_from(cols))
            c = draw(st.sampled_from([-2, -1, Fraction(1, 2), 1, 2]))
            cols.append([c * a for a in base])
        else:
            cols.append([draw(HALVES) for _ in range(m)])
    return ShiftSystem.from_rows([[col[r] for col in cols] for r in range(m)])


def monic_factors(nvars: int):
    return (
        strategies.nonzero_polys(nvars, max_terms=3, max_degree=2)
        .filter(lambda p: not p.is_constant)
        .map(lambda p: p.make_monic()[1])
    )


@st.composite
def factored_tuples(draw, max_factors: int = 3, max_mult: int = 2):
    """Entries with a unit and up to max_factors factors each, drawn from
    shifted copies of one base factor (so that some identities hold) and
    from free factors; an entry with no factors is constant."""
    sys = draw(systems())
    m, n = sys.nvars, sys.nshifts
    base = draw(monic_factors(m))
    entries = []
    for _ in range(n):
        factors = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_factors))):
            if draw(st.booleans()):
                q = base.shift(combo(sys, [draw(HALVES) for _ in range(n)], range(n)))
            else:
                q = draw(monic_factors(m))
            factors.append((q, draw(st.integers(min_value=1, max_value=max_mult))))
        unit = draw(strategies.nonzero_rationals)
        entries.append(FactoredPoly.from_factors(m, merge_factors(factors).items(), unit))
    return FactoredSolution(sys, tuple(entries))


@st.composite
def partly_fixed_tuples(draw):
    """Axis-parallel columns and factors in a subset of the variables, such
    as u1 + c beside u2^2 + u1: a direction along u_r moves exactly the
    factors that use u_r, so it can move some factors of an entry and fix
    the others.  Factors are drawn from shifted copies of a few bases, so
    that identities the checker cannot skip still hold."""
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=2, max_value=4))
    cols = []
    for _ in range(n):
        col = [Fraction(0)] * m
        col[draw(st.integers(min_value=0, max_value=m - 1))] = draw(HALVES)
        cols.append(col)
    sys = ShiftSystem.from_rows([[col[r] for col in cols] for r in range(m)])
    bases = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        used = draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=1, max_size=m, unique=True))
        q = draw(monic_factors(len(used)))
        bases.append(q.compose([Poly.variable(m, r) for r in used]).make_monic()[1])
    entries = []
    for _ in range(n):
        factors = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            q = draw(st.sampled_from(bases)).shift(combo(sys, [draw(HALVES) for _ in range(n)], range(n)))
            factors.append((q, draw(st.integers(min_value=1, max_value=2))))
        unit = draw(strategies.nonzero_rationals)
        entries.append(FactoredPoly.from_factors(m, merge_factors(factors).items(), unit))
    return FactoredSolution(sys, tuple(entries))


@st.composite
def corrupted(draw, solutions):
    """A solution with one entry's unit-free part multiplied by a linear
    factor (u_r - c)."""
    fs = draw(solutions)
    sys = fs.sys
    k = draw(st.integers(min_value=0, max_value=sys.nshifts - 1))
    r = draw(st.integers(min_value=0, max_value=sys.nvars - 1))
    extra = Poly.variable(sys.nvars, r) - Poly.constant(sys.nvars, draw(strategies.rationals))
    entry = fs.entries[k]
    factors = merge_factors([*entry.factors, (extra, 1)])
    entries = list(fs.entries)
    entries[k] = FactoredPoly.from_factors(sys.nvars, factors.items(), entry.unit)
    return FactoredSolution(sys, tuple(entries))


beta_solutions = strategies.betas().map(symmetrized_solution)
factored = st.one_of(factored_tuples(), beta_solutions, corrupted(beta_solutions))


@st.composite
def unimodular(draw, m: int):
    """An integer m x m matrix of determinant +-1 that mixes the variables:
    the identity with rows swapped and multiples of rows added to others."""
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(min_value=m, max_value=2 * m))):
        i, j = draw(st.permutations(range(m)))[:2]
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        rows[j] = [b + k * a for a, b in zip(rows[i], rows[j])]
    return draw(st.permutations(rows))


@st.composite
def tuples_in_fewer_forms(draw):
    """A factored tuple in r variables y, expanded and composed with the
    first r coordinates of y = Mu for a unimodular M in m > r variables.
    The columns are M^-1 applied to the small tuple's columns stacked on
    free rows, so they mix the variables, and shifting an entry by a column
    shifts the small entry by its small column: solutions stay solutions.
    A corrupted copy adds a constant to one entry, which keeps the
    translations that fix every entry, or multiplies it by u_j - c, which
    in general shrinks them."""
    one_row_betas = strategies.betas().filter(lambda beta: len(beta) == 1)
    fs = draw(st.one_of(factored_tuples(max_factors=2, max_mult=1), one_row_betas.map(symmetrized_solution)))
    r, n = fs.sys.nvars, fs.sys.nshifts
    m = r + draw(st.integers(min_value=1, max_value=2))
    mix = draw(unimodular(m))
    free = [[draw(HALVES) for _ in range(n)] for _ in range(m - r)]
    sys = ShiftSystem(matmul(rational_inverse(mix), [*fs.sys.alpha, *free]))
    forms = [sum((a * Poly.variable(m, j) for j, a in enumerate(row) if a), Poly.zero(m)) for row in mix[:r]]
    polys = [e.expand().compose(forms) for e in fs.entries]
    k = draw(st.integers(min_value=0, max_value=n - 1))
    corruption = draw(st.sampled_from(["none", "constant", "factor"]))
    if corruption == "constant":
        polys[k] = polys[k] + draw(strategies.nonzero_rationals)
        assume(not polys[k].is_zero)
    elif corruption == "factor":
        j = draw(st.integers(min_value=0, max_value=m - 1))
        polys[k] = polys[k] * (Poly.variable(m, j) - draw(strategies.rationals))
    return SolutionTuple(sys, tuple(polys))


@st.composite
def scaled_copies(draw):
    """A tuple in fewer forms with some entries replaced by a nonzero
    multiple of another entry, whose gradient rows are then those of the
    other entry at a new scale."""
    sol = draw(tuples_in_fewer_forms())
    polys = list(sol.polys)
    for k in range(len(polys)):
        if draw(st.booleans()):
            other = sol.polys[draw(st.integers(min_value=0, max_value=len(polys) - 1))]
            polys[k] = other * draw(strategies.nonzero_rationals)
    return SolutionTuple(sol.sys, tuple(polys))


@st.composite
def tuples_on_every_variable(draw):
    """A tuple in fewer forms with one entry multiplied by a product of
    u_j - c_j over every variable, so that its entries depend on all of
    them."""
    sol = draw(tuples_in_fewer_forms())
    m = sol.sys.nvars
    polys = list(sol.polys)
    for j in range(m):
        polys[0] = polys[0] * (Poly.variable(m, j) - draw(strategies.rationals))
    return SolutionTuple(sol.sys, tuple(polys))


@st.composite
def tuples_of_constants(draw):
    sol = draw(tuples_in_fewer_forms())
    m = sol.sys.nvars
    return SolutionTuple(sol.sys, tuple(Poly.constant(m, draw(strategies.nonzero_rationals)) for _ in sol.polys))


@settings(max_examples=150, deadline=None)
@given(sol=st.one_of(tuples_in_fewer_forms(), scaled_copies(), tuples_on_every_variable(), tuples_of_constants()))
def test_fewest_variables_matches_reference(sol):
    # the integer change of coordinates gives the system, the restricted
    # entries and the forms Lu of the Fraction one
    small, cols, rows = _fewest_variables(sol)
    expected, forms = reference_fewest_variables(sol)
    assert small.sys.alpha == expected.sys.alpha
    assert (small.sys.den, small.sys.columns) == (expected.sys.den, expected.sys.columns)
    assert small.polys == expected.polys
    if forms is None:
        assert small is sol and not rows
        return
    assert linear_forms(over_pivots(cols, rows)) == forms


def assert_matches_reference(fs: FactoredSolution):
    sol = fs.expand()
    assert listed(check_binary(sol)) == listed(reference_binary(sol))
    assert listed(check_ternary(sol)) == listed(reference_ternary(sol))
    assert listed(check_nonsymmetric(sol)) == listed(reference_nonsymmetric(sol))
    assert listed(check_factored(fs.sys, fs.entries)) == listed(reference_symmetric(sol))


@settings(max_examples=150, deadline=None)
@given(fs=factored)
def test_checkers_match_reference(fs):
    assert_matches_reference(fs)


@settings(max_examples=150, deadline=None)
@given(fs=partly_fixed_tuples())
def test_checkers_match_reference_where_a_direction_fixes_some_factors(fs):
    assert_matches_reference(fs)


@settings(max_examples=100, deadline=None)
@given(sol=tuples_in_fewer_forms())
def test_checkers_match_reference_where_entries_depend_on_fewer_forms(sol):
    assert listed(check_binary(sol)) == listed(reference_binary(sol))
    assert listed(check_ternary(sol)) == listed(reference_ternary(sol))
    assert listed(check_symmetric(sol)) == listed(reference_symmetric(sol))
    assert listed(check_nonsymmetric(sol)) == listed(reference_nonsymmetric(sol))
    full = unsymmetrize(sol)
    assert listed(check_nonsymmetric(full)) == listed(reference_nonsymmetric(full))


@settings(max_examples=40, deadline=None)
@given(beta=strategies.betas(), data=st.data())
def test_nonsymmetric_solutions_and_their_corruptions(beta, data):
    sol = build_solution(beta)
    assert check_nonsymmetric(sol).passed
    assert reference_nonsymmetric(sol).passed
    k = data.draw(st.integers(min_value=0, max_value=sol.sys.nshifts - 1))
    m = sol.sys.nvars
    r = data.draw(st.integers(min_value=0, max_value=m - 1))
    extra = Poly.variable(m, r) - Poly.constant(m, data.draw(strategies.rationals))
    polys = list(sol.polys)
    polys[k] = polys[k] * extra
    bad = SolutionTuple(sol.sys, tuple(polys))
    assert listed(check_nonsymmetric(bad)) == listed(reference_nonsymmetric(bad))


@settings(max_examples=60, deadline=None)
@given(fs=factored_tuples())
def test_nonsymmetric_of_unsymmetrized_matches_reference(fs):
    # the half-step back turns symmetric matches into non-symmetric ones
    sol = unsymmetrize(fs.expand())
    assert listed(check_nonsymmetric(sol)) == listed(reference_nonsymmetric(sol))
