"""The factored consistency checks against the expanding reference.

check_factored must give the same report as the reference binary check
followed by the reference ternary check on the expanded tuple: the same
failures in the same order and the same text, witnesses included.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from conftest import data_path
from consistency_reference import reference_nonsymmetric, reference_symmetric
from weylshift import consistency, shifts
from weylshift.cli import main
from weylshift.consistency import SolutionTuple, check_factored, check_nonsymmetric, check_symmetric, unsymmetrize
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
    """Counts the Poly products and shifts taken, and the Polys the engine
    builds from degree-1 keys, while it is active."""

    def __enter__(self):
        self.products = self.shifts = self.lines = 0
        self.mul, self.shift, self.line = Poly.__mul__, Poly.shift, consistency.linear_poly

        def counted_mul(a, b):
            self.products += 1
            return self.mul(a, b)

        def counted_shift(p, *args):
            self.shifts += 1
            return self.shift(p, *args)

        def counted_line(*args):
            self.lines += 1
            return self.line(*args)

        Poly.__mul__, Poly.shift, consistency.linear_poly = counted_mul, counted_shift, counted_line
        return self

    def __exit__(self, *exc):
        Poly.__mul__, Poly.shift, consistency.linear_poly = self.mul, self.shift, self.line


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


def _degree_one(fs: FactoredSolution) -> bool:
    return all(q.degree() == 1 for e in fs.entries for q, _ in e.factors)


# gl3 decoded, symmetrized betas and the staircase's linear family
degree_one_solutions = solutions.filter(_degree_one)


@st.composite
def corrupted(draw, tuples=solutions):
    """A solution with one factor moved by a nonzero constant."""
    fs = draw(tuples)
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


def _unit_entries(sys: ShiftSystem, factors) -> FactoredSolution:
    """The tuple whose entry k is the product of the factors[k] texts."""
    m = sys.nvars
    entries = [FactoredPoly.from_factors(m, [(parse_poly(q, m), 1) for q in fs]) for fs in factors]
    return FactoredSolution(sys, tuple(entries))


@st.composite
def degree_one_tuples(draw):
    """Tuples of degree-1 factors that need not be solutions, on GL3 or
    STAIR.  Factors sum_j n_j u_j + c, monic, with n_j in -3..3 and c over
    1..6, come from a pool in which two directions take the same
    constants, so that a direction has constants over different
    denominators (u1 + 1/3 beside u1 + 1) and two directions share one.  A
    factor may be a half-column translate of a pool factor, so that keys
    meet across entries, and one entry may hold one quadratic factor."""
    sys = draw(st.sampled_from([GL3, STAIR]))
    m, n = sys.nvars, sys.nshifts
    directions = st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any)
    constants = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    pool = []
    shared = draw(st.lists(constants, min_size=1, max_size=3))
    for direction in draw(st.lists(directions, min_size=2, max_size=2)):
        for c in shared:
            terms = {tuple(int(i == j) for i in range(m)): a for j, a in enumerate(direction)}
            pool.append(Poly(m, {**terms, (0,) * m: c}).make_monic()[1])
    entries = []
    for _ in range(n):
        factors = []
        for _ in range(draw(st.integers(0, 3))):
            q = draw(st.sampled_from(pool))
            if not draw(st.integers(0, 3)):  # moved by plus or minus half of a column
                i, sign = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, -1]))
                q = q.shift([sign * a for a in sys.columns[i]], 2 * sys.den)
            factors.append((q, draw(st.integers(1, 2))))
        unit = draw(st.sampled_from([1, 2, -1, Fraction(1, 3)]))
        entries.append(FactoredPoly.from_factors(m, merge_factors(factors).items(), unit))
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        quadratic = draw(st.sampled_from(pool)) * draw(st.sampled_from(pool)) + draw(constants)
        entries[k] = _entry(entries[k], [*entries[k].factors, (quadratic, 1)])
    return FactoredSolution(sys, tuple(entries))


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


@settings(max_examples=80)
@given(fs=degree_one_tuples())
# the two sides of the first tuple's binary (2,3) differ in the shifted
# factors' directions alone, and those of the second's binary (3,4) in
# their denominators alone
@example(fs=_unit_entries(GL3, [[], ["u1 + u2 + 3", "u1 - u2 + 3"], []]))
@example(fs=_unit_entries(STAIR, [[], [], ["u1 + u2 - 3*u3 - 1"], ["u1 + u2 - 3*u3 - 1/3"]]))
def test_degree_one_keys_match_expanded(fs):
    assert_same_report(fs)


@settings(max_examples=40)
@given(fs=degree_one_solutions)
def test_degree_one_solutions_pass_without_shifting_a_factor(fs):
    with Counting() as counting:
        assert check_factored(fs.sys, fs.entries).passed
    assert counting.shifts == 0


@settings(max_examples=40)
@given(fs=corrupted(degree_one_solutions))
def test_degree_one_factors_shift_only_for_failing_identities(fs):
    # degree-1 factors are irreducible, so exactly the failing identities
    # differ as multisets; no factor is shifted as a Poly, and each failing
    # identity builds each distinct shifted factor of its two sides once,
    # a factor both sides share included
    with Counting() as counting:
        report = check_factored(fs.sys, fs.entries)
    den, halves = 2 * fs.sys.den, fs.sys.columns

    def distinct(*sides):
        return len({q.shift(vec, den) for side in sides for k, vec in side for q, _ in fs.entries[k].factors})

    built = 0
    for f in report.failures:
        if f.relation == "binary":
            i, j = f.indices
            sides = [[(i, halves[j]), (j, halves[i])], [(i, [-a for a in halves[j]]), (j, [-a for a in halves[i]])]]
        else:
            i, j, k = f.indices
            plus = [a + b for a, b in zip(halves[i], halves[j])]
            minus = [a - b for a, b in zip(halves[i], halves[j])]
            sides = [[(k, v), (k, [-a for a in v])] for v in (plus, minus)]
        built += distinct(*sides)
    assert counting.shifts == 0
    assert counting.lines == built


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


def test_a_failing_identity_shifts_its_factors_once(staircase_config):
    # the figure's factors are past degree 1, so each one's shifted Poly is
    # its key and, once binary (1,2) fails, also its part of the witness
    fs = decode(staircase_config).solution
    (q, mult), *rest = fs.entries[0].factors
    broken = _replace(fs, 0, _entry(fs.entries[0], [(q + Fraction(1, 7), mult), *rest]))
    with Counting() as counting:
        report = check_factored(broken.sys, broken.entries)
    assert [f.indices for f in report.failures] == [(0, 1)]
    assert counting.shifts == 10


def test_a_failing_identity_multiplies_out_only_what_its_sides_do_not_share(staircase_config):
    # binary (1,2) of the broken figure holds 5 shifted factors a side, of
    # which 3 are on both; each side multiplies its other 2 and its unit -1,
    # and the failure multiplies the 3 shared ones and then the difference
    fs = decode(staircase_config).solution
    (q, mult), *rest = fs.entries[0].factors
    broken = _replace(fs, 0, _entry(fs.entries[0], [(q + Fraction(1, 7), mult), *rest]))
    with Counting() as counting:
        report = check_factored(broken.sys, broken.entries)
    assert report.describe() == reference_symmetric(broken.expand()).describe()
    assert counting.products == 2 * (1 + 1) + 2 + 1


def test_a_shared_factor_repeated_on_one_side_only():
    # with a = (1, -1), p1 = u1 and p2 = u1 (u1 + 1), binary (1,2) reads
    # (u1 + 1/2) * (u1 + 1/2)(u1 - 1/2) = (u1 - 1/2) * (u1 + 3/2)(u1 + 1/2):
    # u1 + 1/2 twice on the left and once on the right, u1 - 1/2 once on
    # each, so the witness is (u1 + 1/2)(u1 - 1/2) * ((u1 + 1/2) - (u1 + 3/2))
    fs = _unit_entries(ShiftSystem.from_rows([[1, -1]]), [["u1"], ["u1", "u1 + 1"]])
    with Counting() as counting:
        report = check_factored(fs.sys, fs.entries)
    assert report.failures == reference_symmetric(fs.expand()).failures
    assert report.describe() == "binary fails at (1,2): -u1^2 + 1/4"
    assert counting.lines == 3  # u1 + 1/2, u1 - 1/2 and u1 + 3/2, each built once
    assert counting.products == 2


def test_nonsymmetric_identities_are_listed_on_the_tuple_as_given(monkeypatch, staircase_file):
    # no entry takes a half-step and no witness is shifted back: the probe
    # (u1 + 1)^5, (u1 - 1)^5 shifts each entry once per side of its one
    # binary identity, and a passing 1-loop lin staircase takes no half-step
    half_shift, steps = shifts.half_shift, []

    def counted(*args):
        steps.append(args)
        return half_shift(*args)

    monkeypatch.setattr(shifts, "half_shift", counted)
    monkeypatch.setattr(consistency, "half_shift", counted)
    probe = SolutionTuple(ShiftSystem.from_rows([[1, -1]]), (parse_poly("(u1 + 1)^5", 1), parse_poly("(u1 - 1)^5", 1)))
    with Counting() as counting:
        report = check_nonsymmetric(probe)
    assert not steps
    assert counting.shifts <= 4
    assert [(f.relation, f.indices) for f in report.failures] == [("nonsym-binary", (0, 1))]
    assert report.failures == reference_nonsymmetric(probe).failures
    generator = parse_poly("u1 + u2 + u3 + 1/3", 3)
    sym = decode(random_config(staircase_file.sys, generator, (0, 1), loops=1, seed=7)).solution.expand()
    full = unsymmetrize(sym)
    steps.clear()
    assert check_nonsymmetric(full).passed
    assert not steps


def _count_moving_sets(monkeypatch) -> list[tuple[int, int]]:
    """Per moving set the engine builds, the Poly.gradient calls it makes
    and the degree-1 top forms it reads instead."""
    gradient, taken, per_set = Poly.gradient, [], []

    def counted(self):
        taken.append(self)
        return gradient(self)

    def moving(sys, polys, *rest):
        before = len(taken)
        out = shifts.moving_directions(sys, polys, *rest)
        per_set.append((len(taken) - before, sum(not isinstance(q, Poly) for q in polys)))
        return out

    monkeypatch.setattr(Poly, "gradient", counted)
    monkeypatch.setattr(consistency, "moving_directions", moving)
    return per_set


def test_verify_decides_an_expanded_tuple_in_one_engine_call(monkeypatch, capsys):
    # gl3_sym has three nonconstant entries; one engine call builds each
    # moving set once, not once for binary and again for ternary.  Each set
    # reads each factor once: entry 2's gradient, and the top forms of the
    # degree-1 entries 1 and 3, which take no gradient
    per_set = _count_moving_sets(monkeypatch)
    assert main(["verify", data_path("gl3.json"), "--tuple", "gl3_sym"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert per_set == [(0, 1), (1, 0), (0, 1)]


def test_verify_builds_moving_sets_only_for_nonconstant_factored_entries(monkeypatch, capsys):
    # the factored main tuple of staircase.json: entries 1 and 2 hold two
    # and three cubic factors, each read by one gradient in one set;
    # entries 3 and 4 are constants and build no set
    per_set = _count_moving_sets(monkeypatch)
    assert main(["verify", data_path("staircase.json"), "--tuple", "main"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert per_set == [(2, 0), (3, 0)]


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


@st.composite
def mixed_tuples(draw):
    """Tuples on random integer systems whose entries mix degree-1 factors,
    at any scaling and with some coefficients zero, higher-degree factors
    and constant entries; they need not be solutions."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    alpha = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    sys = ShiftSystem.from_rows(alpha)
    coefficient = st.one_of(st.just(0), strategies.rationals)

    def line(coeffs, c):
        return Poly(m, {**{tuple(int(i == j) for i in range(m)): a for j, a in enumerate(coeffs)}, (0,) * m: c})

    linear = st.builds(line, st.lists(coefficient, min_size=m, max_size=m).filter(any), coefficient)
    higher = strategies.polys(m, max_terms=3, max_degree=2).filter(lambda p: p.degree() >= 2)
    factor = st.one_of(linear, linear, higher).map(lambda p: p.make_monic()[1])
    entries = []
    for _ in range(n):
        factors = draw(st.lists(st.tuples(factor, st.integers(1, 2)), max_size=3))
        unit = draw(strategies.nonzero_rationals)
        entries.append(FactoredPoly.from_factors(m, merge_factors(factors).items(), unit))
    return FactoredSolution(sys, tuple(entries))


@settings(max_examples=80)
@given(fs=mixed_tuples())
def test_moving_sets_follow_each_factors_gradient(fs):
    # the engine's moving sets, read from top forms for degree-1 factors,
    # are the ones the gradient of every factor gives, and a constant
    # entry's is empty
    seen = []

    def record(halves, moving):
        seen.append(moving)
        return iter(())

    consistency._decide(fs.sys, fs.entries, record)
    assert seen == [[set(shifts.moving_directions(fs.sys, [q for q, _ in e.factors])) for e in fs.entries]]
    assert check_factored(fs.sys, fs.entries) == check_symmetric(fs.expand())
