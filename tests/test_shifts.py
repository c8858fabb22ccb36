"""Shift systems, stabilizers and orbit membership.

Orbit membership is checked against a bounded walk kept here as the
reference: it tries every k in a box and shares no code with the
degree-by-degree decision it checks.
"""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

import strategies
from weylshift.parser import parse_poly
from weylshift.poly import Poly
from weylshift.shifts import (
    OrbitId,
    ShiftSystem,
    half_shift,
    is_fixed_by_shift,
    same_orbit,
    stabilizer_lattice,
)

GL3 = ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 1]])
STAIR = ShiftSystem.from_rows([[2, -3, 0, 0], [4, -5, 1, -3], [-2, 2, -1, 3]])
F = parse_poly("(u2 + u3)^2 - (u1^3 - u1 + 1)", 3)


def test_system_shape_validation():
    with pytest.raises(ValueError):
        ShiftSystem(2, 2, ((Fraction(1),),))
    with pytest.raises(ValueError):
        ShiftSystem.from_rows([])


def test_column_and_combo():
    assert GL3.column(1) == (1, -1)
    assert GL3.combo([1, 1, 1]) == (0, 0)
    assert GL3.combo([2, 3], indices=[0, 2]) == (-2, 3)
    with pytest.raises(ValueError):
        GL3.combo([1, 2], indices=[0, 1, 2])


def test_half_shift_matches_column():
    p = parse_poly("u1*u2", 2)
    assert half_shift(GL3, 0, 1, p) == p.shift([Fraction(-1, 2), 0])
    assert half_shift(GL3, 0, -1, p) == p.shift([Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        half_shift(GL3, 0, 2, p)


def test_zn_action_composes():
    p = parse_poly("u1^2 + u2", 2)
    once = p.shift(GL3.combo((1, 0, 0)))
    assert once == p.shift([-1, 0])
    assert p.shift(GL3.combo((1, 1, 1))) == p  # columns sum to zero


def test_is_fixed_by_shift_examples():
    assert is_fixed_by_shift(F, (0, 1, -1))
    assert is_fixed_by_shift(F, STAIR.combo([3, 2], indices=[0, 1]))
    assert not is_fixed_by_shift(F, (1, 0, 0))
    assert is_fixed_by_shift(F, (0, 0, 0))
    with pytest.raises(ValueError):
        is_fixed_by_shift(F, (1, 0))


def test_stabilizer_gl3():
    lat = stabilizer_lattice(GL3, Poly.variable(2, 0), (0, 1))
    assert lat.basis == ((1, 1),)
    assert lat.rank == 1
    assert lat.contains((3, 3)) and not lat.contains((1, 0))


def test_stabilizer_staircase_pair():
    lat = stabilizer_lattice(STAIR, F, (0, 1))
    assert lat.basis == ((3, 2),)


def test_stabilizer_staircase_fixing_directions():
    lat = stabilizer_lattice(STAIR, F, (2, 3))
    assert lat.basis == ((1, 0), (0, 1))
    assert lat.rank == 2


def test_stabilizer_full_index_set():
    lat = stabilizer_lattice(STAIR, F, (0, 1, 2, 3))
    assert lat.basis == ((3, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_same_orbit_translation():
    u1 = Poly.variable(2, 0)
    target = parse_poly("u1 - 3", 2)
    k = same_orbit(GL3, u1, target, (0, 1))
    assert k is not None
    assert u1.shift(GL3.combo((k[0], k[1], 0))) == target
    # stabilizer coset freedom: the offset -k1 + k2 is pinned to 3
    assert -k[0] + k[1] == 3


def test_same_orbit_rejects_fractional_offsets():
    u1 = Poly.variable(2, 0)
    assert same_orbit(GL3, u1, parse_poly("u1 + 5/2", 2), (0, 1)) is None


def test_same_orbit_rejects_different_leading_forms():
    u1 = Poly.variable(2, 0)
    u2 = Poly.variable(2, 1)
    assert same_orbit(GL3, u1, u2, (0, 1)) is None
    assert same_orbit(GL3, u1, parse_poly("u1^2", 2), (0, 1)) is None


def test_same_orbit_on_the_cubic():
    shifted = F.shift(STAIR.combo((2, -1, 0, 0)))
    k = same_orbit(STAIR, F, shifted, (0, 1))
    assert k is not None
    assert F.shift(STAIR.combo((k[0], k[1], 0, 0))) == shifted
    # anything fixing F is absorbed: k is unique mod (3, 2)
    assert (k[0] - 2) * 2 == (k[1] + 1) * 3


def test_same_orbit_degenerate_fallback():
    # direction (0, 1) is invisible to the leading form of u1^2 + u2, so
    # the degree-1 condition decides it one step below the top
    sys = ShiftSystem.from_rows([[0], [1]])
    q = parse_poly("u1^2 + u2", 2)
    far = q.shift([0, 5])
    assert same_orbit(sys, q, far, (0,)) == (5,)


def test_same_orbit_lower_degrees_keep_the_top_fixed():
    # both directions move u1 + u2, but direction 2 also moves the leading
    # form u1^2, so only direction 1 may be used one degree down
    sys = ShiftSystem.from_rows([[0, 1], [1, 0]])
    q = parse_poly("u1^2 + u1 + u2", 2)
    assert same_orbit(sys, q, q.shift([0, 5]), (0, 1)) == (5, 0)


# directions 2 and 3 fix the leading form u1^2, and direction 1 moves
# only the constant term
DEGENERATE = ShiftSystem.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
DEGENERATE_Q = parse_poly("u1^2 + u2 + 2*u3 + 3*u4", 4)


def test_same_orbit_degenerate_no():
    # every shift moves the constant term by an integer, never by 1/2
    q2 = DEGENERATE_Q + Poly.constant(4, Fraction(1, 2))
    assert same_orbit(DEGENERATE, DEGENERATE_Q, q2, (0, 1, 2)) is None


def test_same_orbit_far_yes():
    q2 = DEGENERATE_Q.shift([0, 1000, 0, 0])
    k = same_orbit(DEGENERATE, DEGENERATE_Q, q2, (0, 1, 2))
    assert k is not None
    assert DEGENERATE_Q.shift(DEGENERATE.combo(k, (0, 1, 2))) == q2


def test_same_orbit_linear_stage_proves_absence():
    sys = ShiftSystem.from_rows([[0], [1]])
    q = parse_poly("u1^2 + u2", 2)
    assert same_orbit(sys, q, parse_poly("u1^2 + 2*u2", 2), (0,)) is None


def test_same_orbit_half_integer_shifts():
    # the degree-0 condition is 1/2 * k = 3/2 over a right-hand side with
    # denominator 2
    sys = ShiftSystem.from_rows([[Fraction(1, 2)]])
    u1 = Poly.variable(1, 0)
    assert same_orbit(sys, u1, parse_poly("u1 - 3/2", 1), (0,)) == (3,)
    assert same_orbit(sys, u1, parse_poly("u1 - 3/4", 1), (0,)) is None


def test_same_orbit_memo_keeps_free_directions_apart():
    # the first query leaves u2 as the top form one degree down, with only
    # the directions that fix u1^2 free; the second query starts from the
    # top form u2 with every direction free, and must not reuse that step
    sys = ShiftSystem.from_rows([[0, 1, 1], [1, 0, 1]])
    q = parse_poly("u1^2 + u2", 2)
    u2 = Poly.variable(2, 1)
    queries = [(q, q.shift([0, 5])), (u2, u2.shift([0, 3])), (u2 + q, q.shift([1, 2]))]
    memo = {}
    for a, b in queries:
        assert same_orbit(sys, a, b, (0, 1, 2), memo) == same_orbit(sys, a, b, (0, 1, 2))
    k = same_orbit(sys, u2, u2.shift([0, 3]), (0, 1, 2), memo)
    assert u2.shift(sys.combo(k)) == u2.shift([0, 3])


def test_same_orbit_rejects_zero():
    with pytest.raises(ValueError):
        same_orbit(GL3, Poly.zero(2), Poly.one(2), (0, 1))


def test_orbit_id_build():
    u1 = Poly.variable(2, 0)
    orbit = OrbitId(u1, (0, 1), stabilizer_lattice(GL3, u1, (0, 1)))
    assert orbit.stabilizer.basis == ((1, 1),)


# ----------------------------------------------------------------------
# the reference: a bounded walk over every k in a box

WALK = 2


def walk_orbit(sys, q, q2, indices):
    """Some k with every |k_i| <= WALK and q shifted by k equal to q2, or None."""
    for k in itertools.product(range(-WALK, WALK + 1), repeat=len(indices)):
        if q.shift(sys.combo(k, indices)) == q2:
            return k
    return None


SMALL = st.sampled_from([Fraction(x, 2) for x in range(-4, 5)])


@st.composite
def orbit_systems(draw):
    """A system of 1-3 directions on 2-3 variables and an index set.  A
    random set of directions leaves u1 alone, so that a top form in u1
    cannot see some directions that move lower terms, while the others can."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    rows = [[draw(SMALL) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[0][i] = Fraction(0)
    sys = ShiftSystem.from_rows(rows)
    indices = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return sys, indices


@st.composite
def anchors(draw, m):
    """A polynomial whose leading form uses u1."""
    top = parse_poly(draw(st.sampled_from(["u1^2", "u1^3", "u1*u2", "u1^2 + u2^2", "u1"])), m)
    lower = draw(
        st.dictionaries(strategies.exponents(m, 1), strategies.nonzero_rationals, min_size=1, max_size=4)
    )
    return top + Poly(m, {e: c for e, c in lower.items() if sum(e) < top.degree()})


@st.composite
def targets(draw, sys, indices, q):
    """A shift of q by a lattice point, by one outside the walk, or by a
    rational vector, or such a shift plus a small perturbation."""
    m = sys.nvars
    reach = draw(st.sampled_from([WALK, 3 * WALK]))
    k = [draw(st.integers(-reach, reach)) for _ in indices]
    if draw(st.booleans()):
        q2 = q.shift(sys.combo(k, indices))
    else:
        q2 = q.shift(draw(strategies.shift_vectors(m)))
    if draw(st.booleans()):
        q2 = q2 + Poly(m, {draw(strategies.exponents(m, 1)): draw(strategies.nonzero_rationals)})
    assume(not q2.is_zero)
    return q2


@st.composite
def orbit_queries(draw):
    """One query: a system, an anchor q and a target q2."""
    sys, indices = draw(orbit_systems())
    q = draw(anchors(sys.nvars))
    return sys, q, draw(targets(sys, indices, q)), indices


@given(orbit_queries())
def test_same_orbit_matches_bounded_walk(query):
    sys, q, q2, indices = query
    found = same_orbit(sys, q, q2, indices)
    walked = walk_orbit(sys, q, q2, indices)
    if found is None:
        assert walked is None
    else:
        assert q.shift(sys.combo(found, indices)) == q2
    if walked is not None:
        assert found is not None


@st.composite
def query_sequences(draw):
    """Interleaved queries over 2-5 anchors of one system and index set,
    as decompose asks them; anchors often share their top form, and a
    target may come from another anchor than the one it is asked against."""
    sys, indices = draw(orbit_systems())
    pool = [draw(anchors(sys.nvars)) for _ in range(draw(st.integers(1, 3)))]
    qs = [q.shift(draw(strategies.shift_vectors(sys.nvars))) if draw(st.booleans()) else q for q in pool]
    qs += [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 2)))]
    queries = []
    for _ in range(draw(st.integers(2, 8))):
        a = draw(st.integers(0, len(qs) - 1))
        source = qs[draw(st.integers(0, len(qs) - 1))]
        queries.append((qs[a], draw(targets(sys, indices, source))))
    return sys, indices, queries


@given(query_sequences())
def test_same_orbit_shared_memo_matches_fresh_queries(case):
    sys, indices, queries = case
    memo = {}
    for q, q2 in queries:
        assert same_orbit(sys, q, q2, indices, memo) == same_orbit(sys, q, q2, indices)
