"""Differential tests of Poly against a minimal reference.

The reference stores a polynomial as {exponent tuple: nonzero Fraction}
and does every operation the direct way, so it shares no code with the
packed integer core it checks.
"""

from fractions import Fraction
from math import comb

import hypothesis.strategies as st
from hypothesis import example, given, settings

import strategies
from format_reference import reference_format
from orbit_reference import coefficient, content_exponent, directional, homogeneous_part
from shift_reference import reference_shift
from weylshift.parser import parse_poly
from weylshift.poly import Poly, exact_div, format_poly, sum_terms, variable_key
from weylshift.shifts import is_fixed_by_shift

M = 3
TERMS = st.dictionaries(
    strategies.exponents(M, 3), strategies.rationals, max_size=5
)


# ----------------------------------------------------------------------
# the reference


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return ref_clean(out)


def ref_pow(a, k):
    out = {(0,) * M: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_shift(a, offsets):
    """p(u - t), one variable at a time by the binomial theorem."""
    out = dict(a)
    for j, t in enumerate(offsets):
        nxt = {}
        for e, c in out.items():
            for k in range(e[j] + 1):
                e2 = e[:j] + (k,) + e[j + 1 :]
                nxt[e2] = nxt.get(e2, Fraction(0)) + c * comb(e[j], k) * (-t) ** (e[j] - k)
        out = ref_clean(nxt)
    return out


def ref_partial(a, j):
    out = {}
    for e, c in a.items():
        if e[j]:
            out[e[:j] + (e[j] - 1,) + e[j + 1 :]] = c * e[j]
    return out


def ref_exact_div(a, b):
    lb = max(b)
    rem, quot = dict(a), {}
    while rem:
        le = max(rem)
        qe = tuple(x - y for x, y in zip(le, lb))
        if min(qe) < 0:
            return None
        qc = rem[le] / b[lb]
        quot[qe] = qc
        rem = ref_add(rem, ref_mul({qe: qc}, b), -1)
    return quot


def ref_homogeneous(a, d):
    return {e: c for e, c in a.items() if sum(e) == d}


def both(terms):
    return Poly(M, terms), ref_clean(terms)


def agrees(p, ref):
    """Same terms (items() in any order), same printed form, and equal to
    the Poly rebuilt from the reference, hash included."""
    rebuilt = Poly(M, ref)
    return (
        sorted(p.items()) == sorted(ref.items())
        and format_poly(p) == reference_format(ref)
        and p == rebuilt
        and hash(p) == hash(rebuilt)
    )


# ----------------------------------------------------------------------
# differential properties


@given(a=TERMS, b=TERMS)
def test_ring_operations_match_reference(a, b):
    (pa, ra), (pb, rb) = both(a), both(b)
    assert agrees(pa, ra)
    assert agrees(pa + pb, ref_add(ra, rb))
    assert agrees(pa - pb, ref_add(ra, rb, -1))
    assert agrees(pa * pb, ref_mul(ra, rb))
    assert agrees(-pa, ref_add({}, ra, -1))


@given(a=TERMS, c=strategies.rationals)
def test_scalar_operations_match_reference(a, c):
    pa, ra = both(a)
    scaled = {e: v * c for e, v in ra.items()} if c else {}
    assert agrees(pa * c, scaled)
    assert agrees(c * pa, scaled)
    assert agrees(pa + c, ref_add(ra, ref_clean({(0,) * M: c})))
    assert agrees(c - pa, ref_add(ref_clean({(0,) * M: c}), ra, -1))


@st.composite
def printable(draw):
    """Polys in 1 to 5 variables for the text form: coefficients of either
    sign, so leading terms may be negative, many of them 1 or -1, and
    constants and zero among them."""
    m = draw(st.integers(1, 5))
    coefficient = st.one_of(st.sampled_from([1, -1]), strategies.rationals, st.integers(-(10**20), 10**20))
    terms = draw(st.dictionaries(strategies.exponents(m, 3), coefficient, max_size=6))
    if draw(st.integers(0, 4)) == 0:  # a constant
        terms = {(0,) * m: terms.get((0,) * m, 1)}
    return Poly(m, terms)


@given(p=printable())
@example(p=Poly.zero(4))
@example(p=Poly.constant(5, Fraction(-7, 6)))
@example(p=Poly(2, {(1, 0): -1, (0, 1): Fraction(-2, 4), (0, 0): 1}))
def test_format_matches_reference(p):
    assert format_poly(p) == reference_format(dict(p.items()))


def key_of(exp):
    return sum(e * variable_key(M, j) for j, e in enumerate(exp))


# (numerator, positive denominator, exponents), the fraction not reduced
MONOMIALS = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(1, 12), strategies.exponents(M, 3)), max_size=4
)
SIGNED = st.lists(st.tuples(st.sampled_from((1, -1)), TERMS), max_size=4)


def ref_sum(monomials, signed):
    out = {}
    for sign, terms in signed:
        out = ref_add(out, ref_clean(terms), sign)
    for num, den, exp in monomials:
        out = ref_add(out, ref_clean({exp: Fraction(num, den)}))
    return out


def check_sum(monomials, signed):
    got = sum_terms(M, [(n, d, key_of(e)) for n, d, e in monomials], [(s, Poly(M, t)) for s, t in signed])
    assert agrees(got, ref_sum(monomials, signed))


@given(monomials=MONOMIALS, signed=SIGNED)
def test_sum_terms_matches_reference(monomials, signed):
    check_sum(monomials, signed)


@given(a=TERMS, b=TERMS, c=strategies.rationals)
def test_sum_terms_cases(a, b, c):
    scalar = [(c.numerator, c.denominator, (0,) * M)]
    check_sum([], [(-1, a), (1, b)])  # the first operand negative
    check_sum(scalar, [(1, a), (-1, b), (1, a)])  # a repeated denominator, and a scalar
    check_sum(scalar, [(-1, a)])
    check_sum([], [(1, a), (-1, b), (1, b), (-1, a)])  # cancels to zero
    check_sum([(-n, d, e) for n, d, e in scalar], [(1, {(0,) * M: c})])


def test_sum_terms_of_nothing_is_zero():
    assert sum_terms(M, []) == Poly.zero(M)
    assert sum_terms(M, [(0, 5, key_of((1, 0, 0)))]) == Poly.zero(M)


@given(a=st.dictionaries(strategies.exponents(M, 2), strategies.rationals, max_size=3), k=st.integers(0, 3))
def test_pow_matches_reference(a, k):
    pa, ra = both(a)
    assert agrees(pa**k, ref_pow(ra, k))


@given(a=TERMS, t=strategies.shift_vectors(M))
def test_shift_and_partial_match_reference(a, t):
    pa, ra = both(a)
    assert agrees(pa.shift(t), ref_shift(ra, t))
    for j in range(M):
        unit = tuple(int(k == j) for k in range(M))
        assert agrees(directional(pa, unit), ref_partial(ra, j))


def ref_directional(a, vec):
    out = {}
    for j, b in enumerate(vec):
        for e, c in ref_partial(a, j).items():
            out[e] = out.get(e, 0) + c * b
    return ref_clean(out)


@given(a=TERMS, vec=strategies.shift_vectors(M), ints=st.lists(st.integers(-3, 3), min_size=M, max_size=M))
def test_directional_matches_reference(a, vec, ints):
    pa, ra = both(a)
    assert agrees(directional(pa, vec), ref_directional(ra, vec))
    assert agrees(directional(pa, ints), ref_directional(ra, ints))


# Polynomials of total degree at most 1 shift and test fixedness in closed
# form; TERMS draws them rarely, so they get strategies of their own.
UNITS = [tuple(int(k == j) for k in range(M)) for j in range(M)]
ZERO_EXP = (0,) * M


@st.composite
def linear_terms(draw):
    """Zero, a constant, or 1 to M linear terms with or without a constant."""
    used = draw(st.sets(st.integers(0, M - 1), max_size=M))
    terms = {UNITS[j]: draw(strategies.nonzero_rationals) for j in used}
    if draw(st.booleans()):
        terms[ZERO_EXP] = draw(strategies.nonzero_rationals)
    return terms


# vectors with zero entries, the zero vector among them, and integer ones
VECTORS = st.one_of(
    st.just((Fraction(0),) * M),
    st.lists(st.one_of(st.just(Fraction(0)), strategies.rationals), min_size=M, max_size=M),
    st.lists(st.integers(-3, 3), min_size=M, max_size=M),
)


@given(a=linear_terms(), t=VECTORS)
def test_linear_shift_matches_reference(a, t):
    pa, ra = both(a)
    assert agrees(pa.shift(t), ref_shift(ra, t))


# Shift vectors are built as integers over a common denominator; ints or
# Fractions over a positive den must give exactly what their quotients give,
# on the closed form for degree at most 1 and on the binomial rows.
@given(
    a=st.one_of(TERMS, linear_terms()),
    ints=st.lists(st.integers(-12, 12), min_size=M, max_size=M),
    fracs=strategies.shift_vectors(M),
    den=st.integers(1, 12),
)
def test_shift_and_directional_over_a_denominator_match_fractions(a, ints, fracs, den):
    pa, ra = both(a)
    for vec in (ints, fracs):
        quotients = [Fraction(x) / den for x in vec]
        assert pa.shift(vec, den) == pa.shift(quotients)
        assert agrees(pa.shift(vec, den), ref_shift(ra, quotients))
        assert directional(pa, vec, den) == directional(pa, quotients)
        assert agrees(directional(pa, vec, den), ref_directional(ra, quotients))


@st.composite
def shift_cases(draw):
    """A polynomial in 1 to 4 variables and a shift vector with zero entries:
    the engine's integers over a positive den, or Fractions over one."""
    m = draw(st.integers(1, 4))
    p = draw(strategies.polys(m, max_terms=8, max_degree=5))
    entry = st.integers(-12, 12) if draw(st.booleans()) else st.one_of(st.just(Fraction(0)), strategies.rationals)
    return p, draw(st.lists(entry, min_size=m, max_size=m)), draw(st.integers(1, 12))


@given(case=shift_cases())
def test_shift_gives_the_reference_rows_in_the_same_order(case):
    # the row recurrence and the one pass over the keys for every top
    # exponent give what one binomial coefficient per row entry gave,
    # down to the insertion order of the terms
    p, vec, den = case
    got, want = p.shift(vec, den), reference_shift(p, vec, den)
    assert got._den == want._den
    assert list(got._terms.items()) == list(want._terms.items())


@st.composite
def high_degree_cases(draw):
    """One to three terms in 1 to 3 variables: one variable of degree up
    to 300, the others up to 2, so that the reference stays quick, and a
    shift vector over a positive den."""
    m = draw(st.integers(1, 3))
    j, d = draw(st.integers(0, m - 1)), draw(st.integers(2, 300))

    def exponent(ej):
        e = [draw(st.integers(0, 2)) for _ in range(m)]
        e[j] = ej
        return tuple(e)

    terms = {exponent(d): draw(strategies.nonzero_rationals)}
    for _ in range(draw(st.integers(0, 2))):
        terms[exponent(draw(st.integers(0, d)))] = draw(strategies.nonzero_rationals)
    return m, terms, draw(strategies.shift_vectors(m)), draw(st.integers(1, 4))


@settings(max_examples=20)
@given(case=high_degree_cases())
@example(case=(3, {(2, 300, 1): Fraction(-7, 3), (0, 151, 2): Fraction(5)}, [Fraction(-5, 2), Fraction(3, 7), 2], 3))
def test_shift_at_high_degree_matches_reference(case):
    m, terms, vec, den = case
    got = Poly(m, terms).shift(vec, den)
    assert sorted(got.items()) == sorted(ref_shift(ref_clean(terms), [Fraction(t) / den for t in vec]).items())


@st.composite
def linear_fixing_cases(draw):
    """A polynomial of degree at most 1 and a direction; half the time the
    direction is the cross product of its linear part with a drawn vector,
    so it is orthogonal to the gradient and fixes the polynomial."""
    terms, beta = draw(linear_terms()), draw(VECTORS)
    if draw(st.booleans()):
        c = [terms.get(e, Fraction(0)) for e in UNITS]
        w = beta
        beta = (c[1] * w[2] - c[2] * w[1], c[2] * w[0] - c[0] * w[2], c[0] * w[1] - c[1] * w[0])
    return terms, beta


def ref_gradient(a):
    """Per monomial of grad a, its coefficients in the M partials."""
    partials = [ref_partial(a, j) for j in range(M)]
    return {e: [d.get(e, Fraction(0)) for d in partials] for e in set().union(*partials)}


@given(a=st.one_of(TERMS, linear_terms()))
def test_gradient_matches_reference_partials(a):
    pa, ra = both(a)
    want = {sum(x * variable_key(M, j) for j, x in enumerate(e)): row for e, row in ref_gradient(ra).items()}
    assert {k: [Fraction(x, pa._den) for x in row] for k, row in pa.gradient().items()} == want


@given(linear_fixing_cases())
def test_linear_fixedness_matches_reference(case):
    a, beta = case
    pa, ra = both(a)
    assert is_fixed_by_shift(pa, beta) == (not ref_directional(ra, beta))


@given(a=TERMS, b=TERMS)
def test_exact_div_matches_reference(a, b):
    (pa, ra), (pb, rb) = both(a), both(b)
    if not rb:
        return
    got = exact_div(pa, pb)
    want = ref_exact_div(ra, rb)
    assert (got is None) == (want is None)
    if want is not None:
        assert agrees(got, want)
    product = exact_div(pa * pb, pb)
    assert agrees(product, ra)


@given(a=TERMS)
def test_queries_match_reference(a):
    pa, ra = both(a)
    for d in range(10):
        assert agrees(homogeneous_part(pa, d), ref_homogeneous(ra, d))
    assert pa.degree() == max((sum(e) for e in ra), default=-1)
    assert pa.used_variables() == {j for e in ra for j in range(M) if e[j]}
    if not ra:
        return
    assert content_exponent(pa) == tuple(min(e[j] for e in ra) for j in range(M))
    lead = max(ra)
    assert max(e for e, _ in pa.items()) == lead
    assert pa.leading_coefficient() == ra[lead]
    assert pa.is_monic == (ra[lead] == 1)
    unit, monic = pa.make_monic()
    assert unit == ra[lead]
    assert agrees(monic, {e: c / ra[lead] for e, c in ra.items()})
    for e in list(ra) + [(5, 5, 5)]:
        assert coefficient(pa, e) == ra.get(e, 0)


def ref_compose(a, images):
    out = {}
    for e, c in a.items():
        term = {(0,) * M: c}
        for j, k in enumerate(e):
            term = ref_mul(term, ref_pow(images[j], k))
        out = ref_add(out, term)
    return out


LINEAR_IMAGES = st.lists(
    st.dictionaries(strategies.exponents(M, 1), strategies.rationals, max_size=3), min_size=M, max_size=M
)


@given(a=TERMS, images=LINEAR_IMAGES)
def test_compose_matches_reference(a, images):
    pa, ra = both(a)
    refs = [ref_clean(im) for im in images]
    assert agrees(pa.compose([Poly(M, im) for im in refs]), ref_compose(ra, refs))


@given(a=TERMS, b=TERMS)
def test_equal_along_different_paths(a, b):
    (pa, _), (pb, _) = both(a), both(b)
    for x, y in [
        ((pa + pb) - pb, pa),
        (pa * pb, pb * pa),
        (Poly(M, dict(pa.items())), pa),
        (parse_poly(format_poly(pa), M), pa),
        ((pa * 6) * Fraction(1, 6), pa),
    ]:
        assert x == y and hash(x) == hash(y)


def test_equal_polys_with_denominators_two_and_three():
    u1, u2 = Poly.variable(2, 0), Poly.variable(2, 1)
    cases = [
        ((u1 - 1) * (u1 + 1), parse_poly("u1^2 - 1", 2)),
        ((u1 * Fraction(1, 2) + u2 * Fraction(1, 3)) * 6, parse_poly("3*u1 + 2*u2", 2)),
        ((u1 + Fraction(1, 2)) - Fraction(1, 2), u1),
        (u1 * Fraction(2, 3) + u1 * Fraction(1, 3), u1),
        ((u1 + Fraction(1, 2)) * (u1 - Fraction(1, 3)), parse_poly("u1^2 + 1/6*u1 - 1/6", 2)),
        (Poly(2, {(1, 0): Fraction(3, 2), (0, 1): Fraction(3, 2)}), (u1 + u2) * Fraction(3, 2)),
    ]
    for x, y in cases:
        assert x == y and hash(x) == hash(y)
        assert format_poly(x) == format_poly(y)
    assert u1 * Fraction(1, 2) != u1 and u1 * Fraction(1, 2) != u1 * Fraction(1, 3)
    assert (u1 + Fraction(1, 2)) - u1 == Poly.constant(2, Fraction(1, 2))
    assert ((u1 + Fraction(1, 3)) - (u1 + Fraction(1, 3))) == Poly.zero(2)
    assert hash((u1 + Fraction(1, 3)) - (u1 + Fraction(1, 3))) == hash(Poly.zero(2))
