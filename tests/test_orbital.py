import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies
from orbit_reference import combo, reference_decompose, reference_same_orbit

from weylshift import orbital
from weylshift.intlinalg import divisors
from weylshift.orbital import (
    FactoredPoly,
    FactoredSolution,
    OrbitalPiece,
    StructureError,
    decompose,
    factor_entry,
    support_pair,
    verify_orbital,
)
from weylshift.parser import parse_poly
from weylshift.poly import Poly, exact_div, merge_factors
from weylshift.shifts import ShiftSystem, same_orbit, stabilizer_lattice

GL3 = ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 1]])


def fp(nvars, *factors, unit=1):
    return FactoredPoly.from_factors(
        nvars, [(parse_poly(s, nvars), m) for s, m in factors], unit
    )


def test_factored_poly_validation():
    with pytest.raises(ValueError):
        fp(2, ("u1", 1), unit=0)
    with pytest.raises(ValueError):
        fp(2, ("-u1", 1))  # not monic
    with pytest.raises(ValueError):
        fp(2, ("u1", 0))
    with pytest.raises(ValueError):
        fp(2, ("5", 1))  # constant factor
    with pytest.raises(ValueError):
        FactoredPoly(2, Fraction(1), ((Poly.variable(2, 0), 1), (Poly.variable(2, 0), 1)))


def test_factored_poly_expand():
    e = fp(2, ("u1 - 1", 2), ("u2", 1), unit=-3)
    assert e.expand() == parse_poly("-3*(u1 - 1)^2*u2", 2)
    assert fp(2).is_one
    assert fp(2).expand() == Poly.one(2)
    assert not fp(2, unit=-1).is_one


def test_factored_solution_expand(gl3_file):
    fs = gl3_file.tuples["gl3_sym"].as_factored()
    assert all(e.unit == 1 for e in fs.entries)
    assert fs.expand().polys == gl3_file.tuples["gl3_sym"].as_solution().polys


def test_decompose_gl3(gl3_file):
    fs = gl3_file.tuples["gl3_sym"].as_factored()
    pieces = decompose(fs)
    assert len(pieces) == 2
    assert [support_pair(p) for p in pieces] == [(0, 1), (1, 2)]

    # entrywise product of the pieces reconstructs the input
    for i in range(3):
        product = Poly.one(2)
        for piece in pieces:
            product = product * piece.solution.entries[i].expand()
        assert product == fs.entries[i].expand()

    for piece in pieces:
        assert verify_orbital(piece).passed

    # distinct orbits: the anchors are not reachable from one another
    a, b = pieces
    full = (0, 1, 2)
    assert same_orbit(GL3, a.generator, b.generator, full) is None


def test_decompose_drops_units(staircase_file):
    # "main" is "main_monic" with a unit of -1 on entry 2
    fs = staircase_file.tuples["main"].as_factored()
    assert any(e.unit != 1 for e in fs.entries)
    assert decompose(fs) == decompose(staircase_file.tuples["main_monic"].as_factored())


def test_decompose_staircase_single_piece(staircase_file):
    fs = staircase_file.tuples["main_monic"].as_factored()
    pieces = decompose(fs)
    assert len(pieces) == 1
    piece = pieces[0]
    assert support_pair(piece) == (0, 1)
    assert sum(m for e in piece.solution.entries for _, m in e.factors) == 5
    assert piece.indices == (0, 1, 2, 3)
    stab = stabilizer_lattice(piece.solution.sys, piece.generator, piece.indices)
    assert stab == ((3, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert verify_orbital(piece).passed


def test_verify_orbital_flags_off_orbit_factors():
    sys = ShiftSystem.from_rows([[1]])
    piece = OrbitalPiece(
        Poly.variable(1, 0), (0,), FactoredSolution(sys, (fp(1, ("u1 + 1/4", 1)),))
    )
    report = verify_orbital(piece)
    assert not report.passed
    assert report.failures[0].relation == "membership"


def test_support_pair_single_direction():
    sys = ShiftSystem.from_rows([[1]])
    piece = OrbitalPiece(Poly.variable(1, 0), (0,), FactoredSolution(sys, (fp(1, ("u1 - 1/2", 1)),)))
    assert support_pair(piece) is None


def test_support_pair_rejects_three_entries():
    entries = (fp(2, ("u1 - 1/2", 1)),) * 3
    piece = OrbitalPiece(Poly.variable(2, 0), (0, 1, 2), FactoredSolution(GL3, entries))
    with pytest.raises(StructureError, match="at most two"):
        support_pair(piece)


def test_support_pair_rejects_moving_direction_with_constant_entry():
    entries = (fp(2, ("u1 - 1/2", 1)), fp(2), fp(2))
    piece = OrbitalPiece(Poly.variable(2, 0), (0, 1, 2), FactoredSolution(GL3, entries))
    with pytest.raises(StructureError, match="moves the generator"):
        support_pair(piece)


def test_support_pair_rejects_fixing_support_direction():
    sys = ShiftSystem.from_rows([[0, 1], [1, 0]])
    entries = (fp(2, ("u1 + 5", 1)), fp(2, ("u1 - 1/2", 1)))
    piece = OrbitalPiece(Poly.variable(2, 0), (0, 1), FactoredSolution(sys, entries))
    with pytest.raises(StructureError, match="fixes the generator"):
        support_pair(piece)


def test_factor_entry_content_and_linears():
    got = factor_entry(parse_poly("u1^2*u2^3 - u1^2*u2^2", 2))
    assert got is not None
    assert got.unit == 1
    assert dict(got.factors) == {
        parse_poly("u1", 2): 2,
        parse_poly("u2", 2): 2,
        parse_poly("u2 - 1", 2): 1,
    }


def test_factor_entry_unit_tracking():
    got = factor_entry(parse_poly("-2*u1 + 2", 1))
    assert got.unit == -2
    assert got.factors == ((parse_poly("u1 - 1", 1), 1),)
    got = factor_entry(parse_poly("7", 1))
    assert got.unit == 7 and got.factors == ()


def test_factor_entry_quartic_resolvent_split():
    got = factor_entry(parse_poly("u1^4 + 4", 1))
    assert got is not None
    assert {str(q) for q, _ in got.factors} == {
        "u1^2 - 2*u1 + 2",
        "u1^2 + 2*u1 + 2",
    }

    got = factor_entry(parse_poly("u1^4 + 3*u1^2 + 2", 1))
    assert {str(q) for q, _ in got.factors} == {"u1^2 + 1", "u1^2 + 2"}


def test_factor_entry_quartic_repeated_quadratic():
    got = factor_entry(parse_poly("u1^4 + 2*u1^2 + 1", 1))
    assert got.factors == ((parse_poly("u1^2 + 1", 1), 2),)


def test_factor_entry_irreducibles_kept_whole():
    got = factor_entry(parse_poly("u1^4 + 1", 1))
    assert got.factors == ((parse_poly("u1^4 + 1", 1), 1),)
    got = factor_entry(parse_poly("u1^2 + 1", 1))
    assert got.factors == ((parse_poly("u1^2 + 1", 1), 1),)


def test_factor_entry_gives_up_honestly():
    # rootless sextic: beyond the quartic resolvent
    assert factor_entry(parse_poly("u1^6 + u1 + 7", 1)) is None
    # genuinely multivariate irreducible remainder
    assert factor_entry(parse_poly("u1*u2 + 1", 2)) is None
    with pytest.raises(ValueError):
        factor_entry(Poly.zero(2))


@pytest.mark.parametrize(
    "text",
    [
        "u1^2 + 100000000000000000000000003",
        # no rational root, but the quartic's resolvent has the constant 4*10^14 - 1
        "u1^4 + 10000000*u1^2 + u1 + 10000000",
    ],
)
def test_factor_entry_gives_up_past_the_root_bound_at_once(text):
    # trial division up to the square root of 10^26 would run for hours
    start = time.process_time()
    assert factor_entry(parse_poly(text, 1)) is None
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize(
    ("text", "m"),
    [
        ("u1^2 + u2^2 + 99999999999973", 2),
        ("99999999999971*u1^2 + u2^2 + 99999999999973", 2),
        ("u1^2 + u2^2 + u3^2 + 99999999999973", 3),
    ],
)
def test_factor_entry_spends_one_allowance_on_all_its_root_searches(monkeypatch, text, m):
    # every coefficient is below the bound, but the root search in each
    # variable would trial-divide a number near it; one call may afford one
    # such division.  Both large numbers are primes, so the stub's divisors
    # are theirs.
    large = []

    def counting(n):
        if n <= 10**12:
            return divisors(n)
        large.append(n)
        return [1, n]

    monkeypatch.setattr(orbital, "divisors", counting)
    assert factor_entry(parse_poly(text, m)) is None
    assert len(large) <= 1


def test_factor_entry_divides_only_by_roots_of_the_slice(monkeypatch):
    # every candidate that is no root is rejected on the slice, so each root
    # costs one division per multiplicity and one that fails
    calls = []

    def counting(a, b):
        calls.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(orbital, "exact_div", counting)
    p = parse_poly("(u1 - 1)*(u1 - 2)^2*(u1 + 3)*(u1 - 6)", 1)
    got = factor_entry(p)
    assert got.expand() == p
    assert len(calls) == 2 + 3 + 2 + 2


def test_factor_entry_multivariate_shifts():
    p = parse_poly("(u1 - 1)*(u2 + 1/2)^2", 2)
    got = factor_entry(p)
    assert got.expand() == p
    assert dict(got.factors) == {
        parse_poly("u1 - 1", 2): 1,
        parse_poly("u2 + 1/2", 2): 2,
    }


# ----------------------------------------------------------------------
# decompose against the pairwise anchor search it replaced

HALVES = st.sampled_from([Fraction(x, 2) for x in range(-4, 5)])


@st.composite
def orbit_tuples(draw):
    """A factored tuple whose factors are shifts of 1-3 monic anchors, by
    integer points of the directions or by rational vectors, so that some
    factors share an orbit and some do not; a random set of directions
    leaves u1 alone, which a top form in u1 cannot see."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    rows = [[draw(HALVES) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[0][i] = Fraction(0)
    sys = ShiftSystem.from_rows(rows)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        top = parse_poly(draw(st.sampled_from(["u1", "u1^2", "u1*u2", "u1^2 + u2^2", "u2"])), m)
        lower = draw(st.dictionaries(strategies.exponents(m, 1), strategies.rationals, max_size=3))
        pool.append(top + Poly(m, {e: c for e, c in lower.items() if sum(e) < top.degree()}))
    entries = [[] for _ in range(n)]
    for _ in range(draw(st.integers(1, 7))):
        q = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            q = q.shift(combo(sys, [draw(st.integers(-3, 3)) for _ in range(n)], range(n)))
        else:
            q = q.shift(draw(strategies.shift_vectors(m)))
        entries[draw(st.integers(0, n - 1))].append((q, 1))
    return FactoredSolution(sys, tuple(FactoredPoly.from_factors(m, merge_factors(e).items()) for e in entries))


@given(orbit_tuples())
def test_decompose_groups_as_the_anchor_search(sol):
    # the same factor groups, each generated by a member of its reference
    # anchor's orbit and ordered by the generator's text
    pieces = decompose(sol)
    generators = {p.solution.entries: p.generator for p in pieces}
    reference = reference_decompose(sol)
    assert len(generators) == len(pieces) == len(reference)
    full = range(sol.sys.nshifts)
    for anchor, entries in reference:
        assert reference_same_orbit(sol.sys, anchor, generators[entries], full) is not None
    assert [str(p.generator) for p in pieces] == sorted(str(p.generator) for p in pieces)
