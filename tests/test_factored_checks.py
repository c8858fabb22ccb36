"""The factored consistency checks against the expanding reference.

check_factored must give the same report as the reference binary check
followed by the reference ternary check on the expanded tuple: the same
failures in the same order and the same text, witnesses included.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import data_path
from consistency_reference import reference_symmetric
from weylshift import shifts
from weylshift.cli import main
from weylshift.consistency import check_factored
from weylshift.multiquiver import symmetrized_solution
from weylshift.orbital import FactoredPoly, FactoredSolution, decompose, verify_orbital
from weylshift.parser import parse_poly
from weylshift.poly import Poly, merge_factors
from weylshift.shifts import ShiftSystem, is_fixed_by_shift
from weylshift.vertex import decode, random_config

import strategies

GL3 = ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 1]])
STAIR = ShiftSystem.from_rows([[2, -3, 0, 0], [4, -5, 1, -3], [-2, 2, -1, 3]])
# generator families with the pair they live on; every other direction fixes them
GL3_FAMILIES = [("u1", (0, 1)), ("u2", (1, 2)), ("u1 + u2", (0, 2))]
STAIR_FAMILIES = [("u1 + u2 + u3", (0, 1)), ("u1^2 + u2 + u3", (0, 1))]


class Counting:
    """Counts the Poly products and shifts taken while it is active."""

    def __enter__(self):
        self.products = self.shifts = 0
        self.mul, self.shift = Poly.__mul__, Poly.shift

        def counted_mul(a, b):
            self.products += 1
            return self.mul(a, b)

        def counted_shift(p, vec):
            self.shifts += 1
            return self.shift(p, vec)

        Poly.__mul__, Poly.shift = counted_mul, counted_shift
        return self

    def __exit__(self, *exc):
        Poly.__mul__, Poly.shift = self.mul, self.shift


def assert_same_report(fs: FactoredSolution):
    got = check_factored(fs.sys, fs.entries)
    want = reference_symmetric(fs.expand())
    assert [(f.relation, f.indices) for f in got.failures] == [
        (f.relation, f.indices) for f in want.failures
    ]
    assert got.describe() == want.describe()
    return got


def _entry(fp: FactoredPoly, factors) -> FactoredPoly:
    return FactoredPoly.from_factors(fp.nvars, merge_factors(factors).items(), fp.unit)


def _replace(fs: FactoredSolution, k: int, entry: FactoredPoly) -> FactoredSolution:
    entries = list(fs.entries)
    entries[k] = entry
    return FactoredSolution(fs.sys, tuple(entries))


def superpose(pieces) -> FactoredSolution:
    """Entrywise product of factored solutions on one system."""
    sys = pieces[0].sys
    entries = []
    for k in range(sys.nshifts):
        unit = Fraction(1)
        for piece in pieces:
            unit *= piece.entries[k].unit
        factors = [f for piece in pieces for f in piece.entries[k].factors]
        entries.append(FactoredPoly.from_factors(sys.nvars, merge_factors(factors).items(), unit))
    return FactoredSolution(sys, tuple(entries))


@st.composite
def decoded(draw, sys, families, max_loops):
    base, pair = draw(st.sampled_from(families))
    offset = draw(strategies.rationals)
    lead = draw(st.sampled_from([1, 1, 2, -1]))
    generator = parse_poly(base, sys.nvars) * lead - Poly.constant(sys.nvars, offset)
    loops = draw(st.integers(min_value=1, max_value=max_loops))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return decode(random_config(sys, generator, pair, loops=loops, seed=seed)).solution


solutions = st.one_of(
    decoded(GL3, GL3_FAMILIES, 3),
    st.lists(decoded(GL3, GL3_FAMILIES, 2), min_size=2, max_size=3).map(superpose),
    decoded(STAIR, STAIR_FAMILIES, 1),
    strategies.betas().map(symmetrized_solution),
)


@st.composite
def corrupted(draw):
    """A solution with one factor moved by a nonzero constant."""
    fs = draw(solutions)
    k = draw(st.sampled_from([k for k, e in enumerate(fs.entries) if e.factors] or [0]))
    entry = fs.entries[k]
    if not entry.factors:
        return fs
    pos = draw(st.integers(min_value=0, max_value=len(entry.factors) - 1))
    delta = draw(strategies.nonzero_rationals)
    factors = list(entry.factors)
    q, mult = factors[pos]
    factors[pos] = (q + delta, mult)
    return _replace(fs, k, _entry(entry, factors))


def regrouped(fs: FactoredSolution):
    """The solution with two factors of one entry multiplied into a single
    reducible factor, that entry's index and the product; None without such
    an entry."""
    for k, entry in enumerate(fs.entries):
        flat = [q for q, mult in entry.factors for _ in range(mult)]
        if len(flat) >= 2:
            product = flat[0] * flat[1]
            factors = [(product, 1)] + [(q, 1) for q in flat[2:]]
            return _replace(fs, k, _entry(entry, factors)), k, product
    return None


@settings(max_examples=60)
@given(fs=solutions)
def test_factored_engine_matches_expanded_on_solutions(fs):
    assert assert_same_report(fs).passed


@settings(max_examples=60)
@given(fs=corrupted())
def test_factored_engine_matches_expanded_on_corrupted_copies(fs):
    assert_same_report(fs)


@settings(max_examples=40)
@given(fs=solutions)
def test_solutions_pass_on_factors_alone(fs):
    with Counting() as counting:
        assert check_factored(fs.sys, fs.entries).passed
    assert counting.products == 0


@settings(max_examples=40)
@given(fs=solutions)
def test_reducible_factors_take_the_expansion_and_pass(fs):
    found = regrouped(fs)
    if found is None:
        return
    grouped, k, product = found
    assert grouped.expand().polys == fs.expand().polys
    assert assert_same_report(grouped).passed
    with Counting() as counting:
        assert check_factored(grouped.sys, grouped.entries).passed
    # a direction that moves the reducible factor leaves its shifted copy
    # unmatched on the other side of the binary identity
    sys = grouped.sys
    if any(not is_fixed_by_shift(product, sys.column(j)) for j in range(sys.nshifts) if j != k):
        assert counting.products > 0


def test_reducible_factor_against_its_split_form():
    # with equal entries the binary identity of (1, -1) holds trivially;
    # (u1^2 - 1) against (u1 - 1)(u1 + 1) differ as multisets of factors
    sys = ShiftSystem.from_rows([[1, -1]])
    square = FactoredPoly.from_factors(1, [(parse_poly("u1^2 - 1", 1), 1)])
    split = FactoredPoly.from_factors(
        1, [(parse_poly("u1 - 1", 1), 1), (parse_poly("u1 + 1", 1), 1)]
    )
    with Counting() as counting:
        assert check_factored(sys, [square, split]).passed
    assert counting.products > 0


def test_only_the_generators_pair_shifts_on_the_staircase(staircase_config):
    # directions 3 and 4 fix every factor of the decoded figure and entries
    # 3 and 4 are constant, so every identity but binary (1,2) is skipped;
    # that one shifts each factor of entries 1 and 2 once per side
    fs = decode(staircase_config).solution
    with Counting() as counting:
        assert check_factored(fs.sys, fs.entries).passed
    assert counting.shifts == 2 * sum(len(e.factors) for e in fs.entries[:2]) == 10


def test_verify_decides_an_expanded_tuple_in_one_engine_call(monkeypatch, capsys):
    # gl3_sym has three nonconstant entries and three directions; one
    # engine call builds each moving set once, so each entry meets each
    # direction once, not once for binary and again for ternary
    calls = []

    def counted(q, vec):
        calls.append(q)
        return is_fixed_by_shift(q, vec)

    monkeypatch.setattr(shifts, "is_fixed_by_shift", counted)
    assert main(["verify", data_path("gl3.json"), "--tuple", "gl3_sym"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == 3 * 3


def test_factored_engine_failure_text(gl3_file):
    # gl3_alt fails its binary identity at (1,2); the factored form gives
    # the same witness
    alt = gl3_file.tuples["gl3_alt"].as_solution()
    fs = FactoredSolution(
        alt.sys,
        tuple(FactoredPoly.from_factors(2, [(p, 1)]) for p in alt.polys),
    )
    report = assert_same_report(fs)
    assert "binary fails at (1,2): -u2 + 1/2" in report.describe()


def test_verify_orbital_on_factors(gl3_file):
    for piece in decompose(gl3_file.tuples["gl3_sym"].as_factored()):
        assert verify_orbital(piece).passed
