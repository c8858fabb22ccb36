"""Differential tests of the consistency checkers against the expanding
reference in consistency_reference.py.

check_binary, check_ternary and check_nonsymmetric must give the same
(relation, indices, witness) list as their references, in the same
order, and check_factored on a factored tuple the same list as the
reference binary and ternary checks on its expansion.  Tuples have 1 to 4
directions, zero and parallel columns, constant entries, and are
solutions, corrupted solutions or neither.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import strategies
from consistency_reference import (
    reference_binary,
    reference_nonsymmetric,
    reference_symmetric,
    reference_ternary,
)
from weylshift.consistency import (
    SolutionTuple,
    check_binary,
    check_factored,
    check_nonsymmetric,
    check_ternary,
    unsymmetrize,
)
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
def factored_tuples(draw):
    """Entries with a unit and up to three factors each, drawn from shifted
    copies of one base factor (so that some identities hold) and from free
    factors; an entry with no factors is constant."""
    sys = draw(systems())
    m, n = sys.nvars, sys.nshifts
    base = draw(monic_factors(m))
    entries = []
    for _ in range(n):
        factors = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if draw(st.booleans()):
                q = base.shift(sys.combo([draw(HALVES) for _ in range(n)]))
            else:
                q = draw(monic_factors(m))
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
