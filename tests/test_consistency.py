import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from consistency_reference import reference_nonsymmetric, reference_symmetric
from weylshift import consistency
from weylshift.consistency import (
    CheckReport,
    SolutionTuple,
    check_binary,
    check_nonsymmetric,
    check_symmetric,
    check_ternary,
    symmetrize,
    unsymmetrize,
)
from weylshift.multiquiver import build_solution, symmetrized_solution
from weylshift.parser import parse_poly
from weylshift.poly import FactoredPoly, Poly
from weylshift.shifts import ShiftSystem
from weylshift.vertex import decode, random_config


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


def _shifted_nvars(monkeypatch, check, sol) -> set[int]:
    """The variable counts of the polynomials that a passing check shifts."""
    seen = set()
    shift = Poly.shift

    def recorded(p, *args):
        seen.add(p.nvars)
        return shift(p, *args)

    with monkeypatch.context() as patch:
        patch.setattr(Poly, "shift", recorded)
        assert check(sol).passed
    return seen


def test_expanded_tuples_are_checked_in_the_forms_they_depend_on(monkeypatch, staircase_file, gl3_file):
    # lin staircase entries depend on u1 + u2 + u3 alone and quad ones on
    # u1 and u2 + u3; the entries of gl3_sym and of a beta tuple, taken
    # together, depend on every variable
    def staircase(generator):
        config = random_config(staircase_file.sys, parse_poly(generator, 3), (0, 1), loops=2, seed=7)
        return decode(config).solution.expand()

    for generator, nvars in (("u1 + u2 + u3 + 1/3", 1), ("u1^2 + 1/3*u1 + u2 + u3 - 2/3", 2)):
        sol = staircase(generator)
        assert _shifted_nvars(monkeypatch, check_symmetric, sol) == {nvars}
        assert _shifted_nvars(monkeypatch, check_nonsymmetric, unsymmetrize(sol)) == {nvars}
    gl3 = gl3_file.tuples["gl3_sym"].as_solution()
    beta = symmetrized_solution([[1, -2, 0], [0, 2, -3]]).expand()
    for sol in (gl3, beta):
        assert _shifted_nvars(monkeypatch, check_symmetric, sol) == {sol.sys.nvars}


LIN_WITNESSES = (
    "nonsym-binary fails at (1,2): 60*u1^3 + 180*u1^2*u2 + 180*u1^2*u3 + 6060*u1^2 + 180*u1*u2^2 + 360*u1*u2*u3"
    " + 12120*u1*u2 + 180*u1*u3^2 + 12120*u1*u3 + 203040*u1 + 60*u2^3 + 180*u2^2*u3 + 6060*u2^2 + 180*u2*u3^2"
    " + 12120*u2*u3 + 203040*u2 + 60*u3^3 + 6060*u3^2 + 203040*u3 + 20296880/9",
    "binary fails at (1,2): -60*u1^3 - 180*u1^2*u2 - 180*u1^2*u3 - 5400*u1^2 - 180*u1*u2^2 - 360*u1*u2*u3"
    " - 10800*u1*u2 - 180*u1*u3^2 - 10800*u1*u3 - 161020*u1 - 60*u2^3 - 180*u2^2*u3 - 5400*u2^2 - 180*u2*u3^2"
    " - 10800*u2*u3 - 161020*u2 - 60*u3^3 - 5400*u3^2 - 161020*u3 - 14327600/9",
)


def test_expanded_checks_build_forms_only_for_a_witness(monkeypatch, staircase_file):
    # a passing lin staircase, sym or nonsym, composes no witness, so no
    # forms Lu are built, and the engine's entries and sides are built
    # without checking their factors again; the same staircase forced
    # into the other form fails with the witnesses recorded before the
    # change of coordinates ran in integers, and builds the forms once
    calls = Counter()
    forms, post_init = consistency.linear_forms, FactoredPoly.__post_init__

    def counted_forms(rows):
        calls["linear_forms"] += 1
        return forms(rows)

    def counted_post_init(self):
        calls["__post_init__"] += 1
        post_init(self)

    monkeypatch.setattr(consistency, "linear_forms", counted_forms)
    monkeypatch.setattr(FactoredPoly, "__post_init__", counted_post_init)
    generator = parse_poly("u1 + u2 + u3 + 1/3", 3)
    for loops in (1, 2):
        sym = decode(random_config(staircase_file.sys, generator, (0, 1), loops=loops, seed=7)).solution.expand()
        calls.clear()
        assert check_symmetric(sym).passed
        assert check_nonsymmetric(unsymmetrize(sym)).passed
        assert not calls
    sym = decode(random_config(staircase_file.sys, generator, (0, 1), loops=1, seed=7)).solution.expand()
    full = unsymmetrize(sym)
    for check, reference, sol, witness in (
        (check_nonsymmetric, reference_nonsymmetric, sym, LIN_WITNESSES[0]),
        (check_symmetric, reference_symmetric, full, LIN_WITNESSES[1]),
    ):
        calls.clear()
        report = check(sol)
        assert report.describe() == witness
        assert report.failures == reference(sol).failures
        assert calls == {"linear_forms": 1}


def small_tuples():
    sys = ShiftSystem.from_rows([[1, -1], [0, 2]])
    entry = strategies.nonzero_polys(2, max_terms=3, max_degree=2)
    return st.tuples(entry, entry).map(lambda ps: SolutionTuple(sys, ps))


@settings(max_examples=40)
@given(sol=small_tuples())
def test_nonsymmetric_iff_symmetrized_passes(sol):
    # the expanding reference checks the non-symmetric form directly, and
    # the symmetric checks read the symmetrized tuple
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


# Binary => ternary on tuples that no decoding produced: entries are
# products of up to three shifted linear factors, columns lie in (1/2)Z,
# and the systems include zero columns, parallel columns and rank one.
_HALVES = [Fraction(k, 2) for k in range(-2, 3)]
_QUARTERS = [Fraction(k, 4) for k in range(-4, 5)]
_SYSTEM_KINDS = ("generic", "zero", "parallel", "rank1")


def _random_system(rng, kind, m, n):
    base = [rng.choice(_HALVES) for _ in range(m)]
    cols = []
    for i in range(n):
        if kind == "rank1" or (kind == "parallel" and i and rng.random() < 0.5):
            ref = base if kind == "rank1" else cols[rng.randrange(i)]
            scale = rng.choice((-2, -1, 1, 2))
            cols.append([scale * x for x in ref])
        elif kind == "zero" and rng.random() < 0.4:
            cols.append([Fraction(0)] * m)
        else:
            cols.append([rng.choice(_HALVES) for _ in range(m)])
    return ShiftSystem.from_rows([[cols[i][j] for i in range(n)] for j in range(m)])


def _linear_forms(m):
    if m == 1:
        return [Poly.variable(1, 0)]
    u1, u2 = Poly.variable(2, 0), Poly.variable(2, 1)
    return [u1, u2, u1 + u2, u1 - u2]


def _random_entry(rng, m, forms):
    if rng.random() < 0.3:
        return Poly.constant(m, rng.choice((1, 2, Fraction(-1, 3))))
    acc = Poly.one(m)
    for _ in range(rng.randint(1, 3)):
        acc = acc * (rng.choice(forms) - rng.choice(_QUARTERS))
    return acc


def test_binary_implies_ternary_on_undecoded_tuples():
    rng = random.Random(2019)
    nonconstant_passes = 0
    kinds_seen = set()
    for _ in range(2500):
        m, n = rng.choice((1, 2)), rng.choice((3, 4))
        kind = rng.choice(_SYSTEM_KINDS)
        sys = _random_system(rng, kind, m, n)
        forms = rng.sample(_linear_forms(m), min(2, len(_linear_forms(m))))
        sol = SolutionTuple(sys, tuple(_random_entry(rng, m, forms) for _ in range(n)))
        if not check_binary(sol).passed:
            continue
        assert check_ternary(sol).passed, (sys.alpha, [str(p) for p in sol.polys])
        if any(not p.is_constant for p in sol.polys):
            nonconstant_passes += 1
            kinds_seen.add(kind)
    # the loop must reach the claim, not only tuples of constants
    assert nonconstant_passes >= 100
    assert kinds_seen == set(_SYSTEM_KINDS)
