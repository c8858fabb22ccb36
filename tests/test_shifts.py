"""Shift systems, stabilizers and orbit membership.

Orbit membership is checked against two references: a bounded walk kept
here, which tries every k in a box and shares no code with the normal
forms it checks, and the pairwise search in orbit_reference.py.
"""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given

import strategies
from orbit_reference import (
    combo,
    directional,
    homogeneous_part,
    reference_line_step,
    reference_moving_directions,
    reference_orbit_forms,
    reference_same_orbit,
    reference_stabilizer_lattice,
)
from weylshift.intlinalg import hnf, integer_kernel, lattice_contains
from weylshift.parser import parse_poly
from weylshift.poly import Poly
from weylshift.shifts import (
    ShiftSystem,
    _line_step,
    half_shift,
    is_fixed_by_shift,
    linear_form,
    linear_key,
    linear_poly,
    moving_directions,
    orbit_forms,
    same_orbit,
    stabilizer_lattice,
)

GL3 = ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 1]])
STAIR = ShiftSystem.from_rows([[2, -3, 0, 0], [4, -5, 1, -3], [-2, 2, -1, 3]])
F = parse_poly("(u2 + u3)^2 - (u1^3 - u1 + 1)", 3)


def test_system_shape_validation():
    with pytest.raises(ValueError):
        ShiftSystem(((Fraction(1),), (Fraction(1), Fraction(2))))
    with pytest.raises(ValueError):
        ShiftSystem.from_rows([])


def test_column_and_combo():
    assert GL3.column(1) == (1, -1)
    assert combo(GL3, [1, 1, 1], range(3)) == (0, 0)
    assert combo(GL3, [2, 3], indices=[0, 2]) == (-2, 3)
    with pytest.raises(ValueError):
        combo(GL3, [1, 2], indices=[0, 1, 2])


def test_half_shift_matches_column():
    p = parse_poly("u1*u2", 2)
    assert half_shift(GL3, 0, 1, p) == p.shift([Fraction(-1, 2), 0])
    assert half_shift(GL3, 0, -1, p) == p.shift([Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        half_shift(GL3, 0, 2, p)


def test_zn_action_composes():
    p = parse_poly("u1^2 + u2", 2)
    once = p.shift(combo(GL3, (1, 0, 0), range(3)))
    assert once == p.shift([-1, 0])
    assert p.shift(combo(GL3, (1, 1, 1), range(3))) == p  # columns sum to zero


def test_is_fixed_by_shift_examples():
    assert is_fixed_by_shift(F, (0, 1, -1))
    assert is_fixed_by_shift(F, combo(STAIR, [3, 2], indices=[0, 1]))
    assert not is_fixed_by_shift(F, (1, 0, 0))
    assert is_fixed_by_shift(F, (0, 0, 0))
    with pytest.raises(ValueError):
        is_fixed_by_shift(F, (1, 0))


@pytest.mark.parametrize("text", ["0", "7/2", "u1 - 2*u3 + 1", "u1*u2"])
@pytest.mark.parametrize("vec", [(1, 0), (1, 0, 0, 0), ()])
def test_vectors_of_the_wrong_length_are_refused(text, vec):
    # the closed form for degree <= 1 pairs terms with entries, so a short
    # vector must be refused before it is read
    q = parse_poly(text, 3)
    with pytest.raises(ValueError, match="offset length mismatch"):
        q.shift(vec)
    with pytest.raises(ValueError, match="direction length mismatch"):
        is_fixed_by_shift(q, vec)


def reference_combo(sys, coeffs, indices):
    """sum_k coeffs[k] * column(indices[k]) by Fraction multiply-adds."""
    vec = [Fraction(0)] * sys.nvars
    for c, i in zip(coeffs, indices, strict=True):
        if c:
            for j, row in enumerate(sys.alpha):
                vec[j] += Fraction(c) * row[i]
    return tuple(vec)


@st.composite
def combos(draw):
    """A system of rational columns and integer or rational coefficients
    over indices that may repeat."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    sys = ShiftSystem.from_rows([[draw(strategies.rationals) for _ in range(n)] for _ in range(m)])
    size = draw(st.integers(0, 5))
    indices = [draw(st.integers(0, n - 1)) for _ in range(size)]
    coeffs = [draw(st.one_of(st.integers(-9, 9), strategies.rationals)) for _ in range(size)]
    return sys, coeffs, indices


@given(combos())
def test_combo_matches_the_fraction_loop(case):
    sys, coeffs, indices = case
    got = combo(sys, coeffs, indices)
    assert got == reference_combo(sys, coeffs, indices)
    assert all(type(x) is Fraction for x in got)


@st.composite
def fixing_cases(draw):
    """A polynomial in 3 variables and a direction; half the time the
    polynomial is a polynomial in two linear forms the direction fixes, so
    its derivative along the direction is zero after cancellation."""
    beta = draw(strategies.shift_vectors(3))
    b1, b2, b3 = beta
    u1, u2, u3 = (Poly.variable(3, j) for j in range(3))
    forms = [u1 * b2 - u2 * b1, u2 * b3 - u3 * b2]
    q = draw(strategies.polys(2, max_degree=3)).compose(forms)
    if draw(st.booleans()):
        q = q + Poly(3, {draw(strategies.exponents(3, 2)): draw(strategies.nonzero_rationals)})
    return q, beta


@given(fixing_cases())
def test_is_fixed_by_shift_matches_the_derivative(case):
    q, beta = case
    assert is_fixed_by_shift(q, beta) == directional(q, beta).is_zero


def test_stabilizer_gl3():
    lat = stabilizer_lattice(GL3, Poly.variable(2, 0), (0, 1))
    assert lat == ((1, 1),)
    assert len(lat) == 1
    assert lattice_contains(lat, (3, 3)) and not lattice_contains(lat, (1, 0))


def test_stabilizer_staircase_pair():
    lat = stabilizer_lattice(STAIR, F, (0, 1))
    assert lat == ((3, 2),)


def test_stabilizer_staircase_fixing_directions():
    lat = stabilizer_lattice(STAIR, F, (2, 3))
    assert lat == ((1, 0), (0, 1))
    assert len(lat) == 2


def test_stabilizer_full_index_set():
    lat = stabilizer_lattice(STAIR, F, (0, 1, 2, 3))
    assert lat == ((3, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_same_orbit_translation():
    u1 = Poly.variable(2, 0)
    target = parse_poly("u1 - 3", 2)
    k = same_orbit(GL3, u1, target, (0, 1))
    assert k is not None
    assert u1.shift(combo(GL3, k, (0, 1))) == target
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
    shifted = F.shift(combo(STAIR, (2, -1), (0, 1)))
    k = same_orbit(STAIR, F, shifted, (0, 1))
    assert k is not None
    assert F.shift(combo(STAIR, k, (0, 1))) == shifted
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
    assert DEGENERATE_Q.shift(combo(DEGENERATE, k, (0, 1, 2))) == q2


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
    # q leaves u2 as the top form one degree down, with only the directions
    # that fix u1^2 free; u2 starts from the top form u2 with every
    # direction free, and must not reuse that step within one batch
    sys = ShiftSystem.from_rows([[0, 1, 1], [1, 0, 1]])
    q = parse_poly("u1^2 + u2", 2)
    u2 = Poly.variable(2, 1)
    batch = [q, q.shift([0, 5]), u2, u2.shift([0, 3]), u2 + q, q.shift([1, 2])]
    forms = orbit_forms(sys, batch, (0, 1, 2))
    assert forms == [orbit_forms(sys, [p], (0, 1, 2))[0] for p in batch]
    for p, (r, k, _) in zip(batch, forms):
        assert p.shift(combo(sys, k, (0, 1, 2))) == r
    assert forms[2][0] == forms[3][0]
    k = same_orbit(sys, u2, u2.shift([0, 3]), (0, 1, 2))
    assert u2.shift(combo(sys, k, (0, 1, 2))) == u2.shift([0, 3])


def test_orbit_forms_of_one_orbit_agree():
    shifted = F.shift(combo(STAIR, (2, -1), (0, 1)))
    (r, k, _), (r2, k2, _) = orbit_forms(STAIR, [F, shifted], (0, 1))
    assert r == r2
    assert F.shift(combo(STAIR, k, (0, 1))) == r
    assert shifted.shift(combo(STAIR, k2, (0, 1))) == r
    # a constant is its own form, and a polynomial no direction moves too
    # (and every direction fixes them)
    assert orbit_forms(GL3, [Poly.one(2)], (0, 1)) == [(Poly.one(2), (0, 0), ((1, 0), (0, 1)))]
    assert orbit_forms(STAIR, [F], (2, 3)) == [(F, (0, 0), ((1, 0), (0, 1)))]


def test_same_orbit_rejects_zero():
    with pytest.raises(ValueError):
        same_orbit(GL3, Poly.zero(2), Poly.one(2), (0, 1))


# ----------------------------------------------------------------------
# the reference: a bounded walk over every k in a box

WALK = 2


def walk_orbit(sys, q, q2, indices):
    """Some k with every |k_i| <= WALK and q shifted by k equal to q2, or None."""
    for k in itertools.product(range(-WALK, WALK + 1), repeat=len(indices)):
        if q.shift(combo(sys, k, indices)) == q2:
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
    """A polynomial whose leading form uses u1; some are of degree 1 with
    a top that is not monic or has fractional coefficients."""
    tops = ["u1^2", "u1^3", "u1*u2", "u1^2 + u2^2", "u1", "2*u1 + u2", "u1 - 1/2*u2"]
    top = parse_poly(draw(st.sampled_from(tops)), m)
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
        q2 = q.shift(combo(sys, k, indices))
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
        assert q.shift(combo(sys, found, indices)) == q2
    if walked is not None:
        assert found is not None


@st.composite
def query_sequences(draw):
    """Interleaved queries over 2-5 anchors of one system and index set,
    as decompose asks them; anchors often share their top form, a target
    may come from another anchor than the one it is asked against, and an
    anchor's lower part may be asked about too, so that its top form is met
    both below another top form and with every direction free."""
    sys, indices = draw(orbit_systems())
    pool = [draw(anchors(sys.nvars)) for _ in range(draw(st.integers(1, 3)))]
    qs = [q.shift(draw(strategies.shift_vectors(sys.nvars))) if draw(st.booleans()) else q for q in pool]
    qs += [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 2)))]
    qs += [q - homogeneous_part(q, q.degree()) for q in pool if q.degree() > 1 and draw(st.booleans())]
    qs = [q for q in qs if not q.is_constant]
    queries = []
    for _ in range(draw(st.integers(2, 8))):
        a = draw(st.integers(0, len(qs) - 1))
        source = qs[draw(st.integers(0, len(qs) - 1))]
        queries.append((qs[a], draw(targets(sys, indices, source))))
    return sys, indices, queries


@given(query_sequences())
def test_same_orbit_shared_memo_matches_fresh_queries(case):
    # one batch shares its factored steps across polynomials, as decompose
    # asks them: every form must equal the form of a call of its own
    sys, indices, queries = case
    batch = [p for pair in queries for p in pair]
    forms = orbit_forms(sys, batch, indices)
    assert forms == [orbit_forms(sys, [p], indices)[0] for p in batch]
    for p, (r, k, _) in zip(batch, forms):
        assert p.shift(combo(sys, k, indices)) == r
    memo = {}
    for (r, *_), (r2, *_), (q, q2) in zip(forms[::2], forms[1::2], queries):
        assert (r == r2) == (reference_same_orbit(sys, q, q2, indices, memo) is not None)


@given(orbit_queries())
def test_same_orbit_matches_reference(query):
    sys, q, q2, indices = query
    found = same_orbit(sys, q, q2, indices)
    expected = reference_same_orbit(sys, q, q2, indices)
    assert (found is None) == (expected is None)
    if found is not None:
        assert q.shift(combo(sys, found, indices)) == q2


# ----------------------------------------------------------------------
# degree-1 queries, whose normal forms orbit_forms finds in closed form

# every direction fixes u1, so the constant alone tells orbits apart
FIXED_U1 = ShiftSystem.from_rows([[0, 0], [1, 2]])
TOPS = ["u1", "2*u1 + u2", "u1 - 1/2*u2", "3*u2 - 2/3*u1"]


@st.composite
def linear_batches(draw):
    """Degree-1 queries over one system: tops that are not monic or have
    fractional coefficients, a top that every direction fixes when the
    columns leave room for one, and translates of one orbit by lattice
    points and by rational vectors, whose constants sit over different
    denominators, next to near misses off the orbit."""
    sys, indices = draw(orbit_systems())
    m = sys.nvars
    tops = [parse_poly(t, m) for t in TOPS]
    units = [tuple(int(a == b) for b in range(m)) for a in range(m)]
    tops += [Poly(m, dict(zip(units, w))) for w in integer_kernel([sys.column(i) for i in range(sys.nshifts)], m)]
    batch = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.sampled_from(tops)) * draw(strategies.nonzero_rationals) + draw(strategies.rationals)
        batch.append(q)
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                moved = q.shift(combo(sys, [draw(st.integers(-3 * WALK, 3 * WALK)) for _ in indices], indices))
            else:
                moved = q.shift(draw(strategies.shift_vectors(m)))
            if draw(st.booleans()):
                moved = moved + Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([2, 3, 4, 6])))
            batch.append(moved)
    return sys, indices, draw(st.permutations(batch))


@example(case=(FIXED_U1, (0, 1), [parse_poly("u1 - 13/2", 2), parse_poly("u1 - 13/4", 2)]))
@given(linear_batches())
def test_degree_one_forms_match_the_reference(case):
    # the same forms, shifts and bases as the loop one degree at a time,
    # and one Poly for every form of an orbit
    sys, indices, batch = case
    for over in (indices, tuple(range(sys.nshifts))):
        forms = orbit_forms(sys, batch, over)
        assert forms == reference_orbit_forms(sys, batch, over)
        for (r, *_), (r2, *_) in itertools.combinations(forms, 2):
            assert (r == r2) == (r is r2)


@st.composite
def line_tops(draw):
    """A system of at most 3 variables and 4 directions, some of them zero
    columns, an index set in any order, and a degree-1 top form: at times
    one that every indexed direction fixes, when the columns leave room."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [[draw(strategies.rationals) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        for row in rows:
            row[i] = Fraction(0)
    sys = ShiftSystem.from_rows(rows)
    indices = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    fixed = integer_kernel([sys.column(i) for i in indices], m)
    if fixed and draw(st.booleans()):
        coeffs = [sum(draw(st.integers(-2, 2)) * w[j] for w in fixed) for j in range(m)]
    else:
        coeffs = [draw(strategies.rationals) for _ in range(m)]
    assume(any(coeffs))
    scale = draw(strategies.nonzero_rationals)
    units = [tuple(int(a == b) for b in range(m)) for a in range(m)]
    return sys, indices, Poly(m, {e: scale * c for e, c in zip(units, coeffs)})


@example(case=(FIXED_U1, (0, 1), parse_poly("u1", 2)))
@example(case=(ShiftSystem.from_rows([[0, 1, 0], [0, 2, 0]]), (2, 0, 1), parse_poly("3/2*u1 - u2", 2)))
@given(line_tops())
def test_line_step_matches_the_one_row_integer_system(case):
    # the closed form gives the scale, pivot, combination and stabilizer
    # basis of the integer system of the one pairing row, exactly
    sys, indices, top = case
    s = len(indices)
    identity = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
    expected = reference_line_step(sys, top, indices)
    # by hand, and as linear_form reads it off top + 1/2, whose numerators
    # and denominator share the factor that the constant brings in
    for key in ((tuple(sorted(top._linear_terms())), top._den), linear_form(top + Fraction(1, 2), 1)[0]):
        assert _line_step(sys, key, indices, identity) == expected


@st.composite
def shifted_lines(draw):
    """Two degree-1 polynomials in the same variables, at any scaling and
    with some coefficients zero, an integer vector for each and a den in
    1..6.  The second is at times the first, moved by an integer vector
    over den that its own vector moves back, and at times rescaled."""
    m, den = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    units = [tuple(int(a == b) for b in range(m)) for a in range(m)]
    coeffs = [draw(st.one_of(st.just(0), strategies.nonzero_rationals)) for _ in range(m)]
    assume(any(coeffs))
    q = Poly(m, dict(zip(units, coeffs))) + draw(strategies.rationals)
    vectors = st.lists(st.integers(-6, 6), min_size=m, max_size=m).map(tuple)
    vec, move = draw(vectors), draw(vectors)
    q2 = q.shift(move, den) * draw(st.sampled_from([1, 1, 2, -1, Fraction(1, 3)]))
    vec2 = tuple(a - b for a, b in zip(vec, move)) if draw(st.booleans()) else draw(vectors)
    return m, den, (q, vec), (q2, vec2)


@example(case=(1, 1, (parse_poly("u1 + 1", 1), (0,)), (parse_poly("2*u1 + 1", 1), (0,))))
@example(case=(2, 4, (parse_poly("u1 - 1/2*u2", 2), (1, 2)), (parse_poly("2*u1 - u2 - 1", 2), (-1, 2))))
@given(shifted_lines())
def test_linear_keys_are_the_shifted_polynomials(case):
    # a key builds back the shifted Poly, and two keys are equal exactly
    # when the shifted polynomials are, whatever the scaling of each q
    m, den, *pairs = case
    shifted = [q.shift(vec, den) for q, vec in pairs]
    keys = [linear_key(linear_form(q, den), vec) for q, vec in pairs]
    assert [linear_poly(m, key) for key in keys] == shifted
    assert (keys[0] == keys[1]) == (shifted[0] == shifted[1])


@st.composite
def pulled_batches(draw):
    """Queries over one system, each with the direction whose half-step
    pulls it back, or None: degree-1 and non-linear anchors, each moved by
    a lattice point and by half of the drawn direction, so that several
    pull-backs share an orbit, and at times perturbed off it."""
    sys, indices = draw(orbit_systems())
    m = sys.nvars
    pool = [draw(anchors(m)) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        top = parse_poly(draw(st.sampled_from(TOPS)), m)
        pool.append(top * draw(strategies.nonzero_rationals) + draw(strategies.rationals))
    batch, pulls = [], []
    for _ in range(draw(st.integers(1, 8))):
        pull = draw(st.one_of(st.none(), st.integers(0, sys.nshifts - 1)))
        q = draw(st.sampled_from(pool)).shift(combo(sys, [draw(st.integers(-3, 3)) for _ in indices], indices))
        if pull is not None:
            q = half_shift(sys, pull, 1, q)
        if draw(st.booleans()):
            q = q + Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([2, 3, 4, 6])))
        batch.append(q)
        pulls.append(pull)
    return sys, indices, batch, pulls


@given(pulled_batches())
def test_pulled_forms_match_the_half_shifted_queries(case):
    # pulling back inside orbit_forms gives the triples of the pulled-back
    # Polys, and one Poly for every degree-1 form of an orbit
    sys, indices, batch, pulls = case
    bases = [q if i is None else half_shift(sys, i, -1, q) for q, i in zip(batch, pulls)]
    for over in (indices, tuple(range(sys.nshifts))):
        forms = orbit_forms(sys, batch, over, pulls)
        assert forms == orbit_forms(sys, bases, over) == reference_orbit_forms(sys, bases, over)
        linear = [r for q, (r, *_) in zip(batch, forms) if q.degree() == 1]
        for r, r2 in itertools.combinations(linear, 2):
            assert (r == r2) == (r is r2)


# ----------------------------------------------------------------------
# the stabilizer that orbit_forms finds on the way, and its projection onto
# a pair that classify takes as the pair's stabilizer


def test_orbit_forms_stabilizer_examples():
    full = (0, 1, 2, 3)
    ((_, _, stab),) = orbit_forms(STAIR, [F], full)
    assert hnf(stab) == stabilizer_lattice(STAIR, F, full) == ((3, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ((_, _, stab),) = orbit_forms(GL3, [Poly.variable(2, 0)], (0, 1, 2))
    assert hnf(stab) == stabilizer_lattice(GL3, Poly.variable(2, 0), (0, 1, 2))
    assert hnf([(k[0], k[1]) for k in stab]) == ((1, 1),)


@given(query_sequences())
def test_orbit_forms_stabilizer_is_the_stabilizer_lattice(case):
    # every query of one shared batch, over the drawn directions and over all
    sys, indices, queries = case
    batch = [p for pair in queries for p in pair]
    for over in (indices, tuple(range(sys.nshifts))):
        for p, (_, _, stab) in zip(batch, orbit_forms(sys, batch, over)):
            assert hnf(stab) == stabilizer_lattice(sys, p, over)


@st.composite
def random_systems(draw):
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    return ShiftSystem.from_rows([[draw(SMALL) for _ in range(n)] for _ in range(m)])


@st.composite
def pair_fixed_cases(draw):
    """gl3, the staircase or a random system, a pair of its directions, and
    a polynomial that every other direction fixes: a polynomial in integer
    linear forms that vanish on the other directions' columns, shifted."""
    sys = draw(st.one_of(st.sampled_from([GL3, STAIR]), random_systems()))
    m, n = sys.nvars, sys.nshifts
    i, j = sorted(draw(st.permutations(range(n)))[:2])
    units = [tuple(int(a == b) for b in range(m)) for a in range(m)]
    others = [sys.column(k) for k in range(n) if k not in (i, j)]
    forms = integer_kernel(others, m) if others else units
    images = [Poly(m, dict(zip(units, w))) for w in forms]
    f = draw(strategies.nonzero_polys(len(images), max_terms=4, max_degree=3))
    q = f.compose(images).shift(draw(strategies.shift_vectors(m)))
    return sys, (i, j), q


@given(pair_fixed_cases())
def test_moving_directions_match_the_per_vector_rule(case):
    # every direction outside the pair fixes q, so both answers occur
    sys, pair, q = case
    for exclude in ((), pair):
        assert moving_directions(sys, [q], exclude) == reference_moving_directions(sys, [q], exclude)


@given(query_sequences())
def test_orbit_engine_matches_the_per_vector_rule(case):
    # pairing one gradient with every vector must give the matrices of one
    # directional Poly per vector, so every form, shift and basis agrees
    sys, indices, queries = case
    batch = [p for pair in queries for p in pair]
    for over in (indices, tuple(range(sys.nshifts))):
        assert orbit_forms(sys, batch, over) == reference_orbit_forms(sys, batch, over)
        for p in batch:
            assert stabilizer_lattice(sys, p, over) == reference_stabilizer_lattice(sys, p, over)
    for exclude in ((), indices):
        assert moving_directions(sys, batch, exclude) == reference_moving_directions(sys, batch, exclude)


@given(pair_fixed_cases())
def test_pair_stabilizer_is_the_projection_of_the_full_one(case):
    sys, pair, q = case
    assert moving_directions(sys, [q], pair) == []
    ((_, _, stab),) = orbit_forms(sys, [q], range(sys.nshifts))
    i, j = pair
    assert hnf([(k[i], k[j]) for k in stab]) == stabilizer_lattice(sys, q, pair)
