import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from consistency_reference import reference_nonsymmetric
from weylshift.consistency import (
    CheckReport,
    SolutionTuple,
    check_binary,
    check_nonsymmetric,
    check_ternary,
    symmetrize,
    unsymmetrize,
)
from weylshift.multiquiver import build_solution
from weylshift.parser import parse_poly
from weylshift.poly import Poly
from weylshift.shifts import ShiftSystem


def test_solution_tuple_validation():
    sys = ShiftSystem.from_rows([[1, -1]])
    with pytest.raises(ValueError):
        SolutionTuple(sys, (Poly.one(1),))
    with pytest.raises(ValueError):
        SolutionTuple(sys, (Poly.one(1), Poly.zero(1)))
    with pytest.raises(ValueError):
        SolutionTuple(sys, (Poly.one(2), Poly.one(2)))


def test_gl3_raw_passes_nonsymmetric(gl3_file):
    raw = gl3_file.tuples["gl3_raw"].as_solution()
    assert check_nonsymmetric(raw).passed


def test_gl3_symmetrized_passes_binary_and_ternary(gl3_file):
    sym = gl3_file.tuples["gl3_sym"].as_solution()
    assert check_binary(sym).passed
    assert check_ternary(sym).passed


def test_symmetrize_matches_stored_form(gl3_file):
    raw = gl3_file.tuples["gl3_raw"].as_solution()
    sym = gl3_file.tuples["gl3_sym"].as_solution()
    assert symmetrize(raw).polys == sym.polys
    assert unsymmetrize(sym).polys == raw.polys


def test_gl3_alt_fails_binary_with_fixed_witness(gl3_file):
    alt = gl3_file.tuples["gl3_alt"].as_solution()
    report = check_binary(alt)
    assert not report.passed
    by_pair = {f.indices: f.witness for f in report.failures}
    assert (0, 1) in by_pair
    assert by_pair[(0, 1)] == parse_poly("1/2 - u2", 2)
    assert "binary fails at (1,2)" in report.describe()


def test_nonsymmetric_failure_witness():
    sys = ShiftSystem.from_rows([[1, 1]])
    u1 = Poly.variable(1, 0)
    report = check_nonsymmetric(SolutionTuple(sys, (u1, u1)))
    assert not report.passed
    assert report.failures[0].relation == "nonsym-binary"
    assert report.failures[0].witness == parse_poly("-2*u1 + 3", 1)


def test_single_direction_is_vacuous():
    sys = ShiftSystem.from_rows([[1]])
    sol = SolutionTuple(sys, (parse_poly("u1^2", 1),))
    assert check_binary(sol).passed
    assert check_ternary(sol).passed
    assert check_nonsymmetric(sol).passed


def test_ternary_skips_constant_entries():
    # a constant entry makes both sides of its triple identity the same square
    sys = ShiftSystem.from_rows([[1, -1, 2], [0, 1, 1]])
    sol = SolutionTuple(
        sys, (Poly.constant(2, 5), Poly.constant(2, 3), Poly.one(2))
    )
    assert check_ternary(sol).passed


def test_report_merging():
    a = CheckReport()
    assert a.passed and a.describe() == "all checks passed"
    sys = ShiftSystem.from_rows([[1, 1]])
    u1 = Poly.variable(1, 0)
    b = check_nonsymmetric(SolutionTuple(sys, (u1, u1)))
    merged = a.merged(b)
    assert merged.failures == b.failures


def small_tuples():
    sys = ShiftSystem.from_rows([[1, -1], [0, 2]])
    entry = strategies.nonzero_polys(2, max_terms=3, max_degree=2)
    return st.tuples(entry, entry).map(lambda ps: SolutionTuple(sys, ps))


@settings(max_examples=40)
@given(sol=small_tuples())
def test_nonsymmetric_iff_symmetrized_passes(sol):
    # check_nonsymmetric is defined through symmetrize; the expanding
    # reference checks the non-symmetric form directly
    direct = reference_nonsymmetric(sol).passed
    half = symmetrize(sol)
    via_half = check_binary(half).passed and check_ternary(half).passed
    assert direct == via_half


@settings(max_examples=20)
@given(
    b1=st.integers(min_value=1, max_value=3),
    b2=st.integers(min_value=-3, max_value=-1),
)
def test_run_products_solve_both_forms(b1, b2):
    t = build_solution([[b1, b2]])
    assert check_nonsymmetric(t).passed
    half = symmetrize(t)
    assert check_binary(half).passed
    assert check_ternary(half).passed
    assert unsymmetrize(half).polys == t.polys
