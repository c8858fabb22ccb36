import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies
from orbit_reference import coefficient, content_exponent, directional, homogeneous_part
from weylshift.parser import parse_poly
from weylshift.poly import EXPONENT_LIMIT, Poly, exact_div, format_poly, variable_key

P2 = strategies.polys(2)
P3 = strategies.polys(3, max_terms=4, max_degree=3)


def p(text, nvars=2):
    return parse_poly(text, nvars)


def unit(j, nvars):
    """The direction of u_{j+1}: its directional derivative is the partial."""
    return tuple(int(k == j) for k in range(nvars))


def at(q, point):
    """q evaluated at a point, by substituting constants for the variables."""
    return q.compose([Poly.constant(q.nvars, x) for x in point]).constant_value()


def test_constructor_drops_zero_coefficients():
    q = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert q == Poly(2, {(0, 1): Fraction(2)})
    assert len(q) == 1


def test_constructor_rejects_mixed_arity():
    with pytest.raises(ValueError):
        Poly(2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        Poly(2, {(-1, 0): Fraction(1)})


def test_constructor_reports_the_first_bad_item():
    # items are read in order, each exponent before its coefficient
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Poly(2, [((1,), "x"), ((0, 0), 1)])
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        Poly(2, [((0, 0), "x"), ((1,), 1)])
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Poly(2, [((0, -1), None)])
    with pytest.raises(TypeError):
        Poly(2, [((0, 1), None), ((0, -1), 1)])


def test_basic_queries():
    q = p("u1^2 - u2 + 1/2")
    assert q.degree() == 2
    assert max(e for e, _ in q.items()) == (2, 0)
    assert q.leading_coefficient() == 1
    assert q.is_monic
    assert coefficient(q, (0, 1)) == -1
    assert coefficient(q, (5, 5)) == 0
    assert not q.is_zero and not q.is_constant


def test_lex_order_prefers_earlier_variables():
    # u1 beats any power of u2
    q = p("u1 + u2^4")
    assert max(e for e, _ in q.items()) == (1, 0)


def test_constant_value_rejects_nonconstant():
    with pytest.raises(ValueError):
        p("u1").constant_value()
    assert p("7/3").constant_value() == Fraction(7, 3)


def test_arithmetic_examples():
    a = p("u1 + u2")
    b = p("u1 - u2")
    assert a * b == p("u1^2 - u2^2")
    assert a + b == p("2*u1")
    assert (a - a).is_zero
    assert a * 0 == Poly.zero(2)
    assert 1 - a == p("1 - u1 - u2")
    assert a ** 3 == p("u1^3 + 3*u1^2*u2 + 3*u1*u2^2 + u2^3")


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        p("u1") ** -1


def test_make_monic():
    unit, monic = p("-2*u1 + 4").make_monic()
    assert unit == -2
    assert monic == p("u1 - 2")
    with pytest.raises(ValueError):
        Poly.zero(2).make_monic()


def test_make_monic_flips_sign_only():
    q = p("-u1^3 + u2")
    unit, monic = q.make_monic()
    assert unit == -1 and monic == -q


def test_homogeneous_parts_sum_back():
    q = p("u1^2*u2 + 3*u1 - 5")
    parts = [homogeneous_part(q, d) for d in range(q.degree() + 1)]
    total = Poly.zero(2)
    for part in parts:
        total = total + part
    assert total == q
    assert homogeneous_part(q, 3) == p("u1^2*u2")


def test_content_exponent():
    assert content_exponent(p("u1^2*u2 + u1*u2^2")) == (1, 1)
    assert content_exponent(p("u1 + 1")) == (0, 0)


def test_partial_and_gradient():
    q = p("u1^2*u2 + 3*u2")
    assert directional(q, unit(0, 2)) == p("2*u1*u2")
    assert directional(q, unit(1, 2)) == p("u1^2 + 3")
    assert directional(q, (2, -1)) == p("4*u1*u2 - u1^2 - 3")


def test_shift_examples():
    q = p("u1^2")
    assert q.shift([1, 0]) == p("u1^2 - 2*u1 + 1")
    assert q.shift([Fraction(-1, 2), 0]) == p("u1^2 + u1 + 1/4")
    assert p("u2").shift([5, Fraction(1, 3)]) == p("u2 - 1/3")


def test_evaluate():
    q = p("u1^2 - u2 + 1/2")
    assert at(q, [2, 1]) == Fraction(7, 2)
    assert at(q, [Fraction(1, 2), Fraction(3, 4)]) == 0


def test_evaluate_arity_check():
    with pytest.raises(ValueError):
        at(p("u1"), [1, 2, 3])


def test_exact_div_examples():
    a = p("u1^2 - u2^2")
    assert exact_div(a, p("u1 - u2")) == p("u1 + u2")
    assert exact_div(a, p("u1 + 1")) is None
    with pytest.raises(ZeroDivisionError):
        exact_div(a, Poly.zero(2))


def test_format_examples():
    assert format_poly(p("u1^2 - u2 + 1/2")) == "u1^2 - u2 + 1/2"
    assert format_poly(p("-u1 + 1")) == "-u1 + 1"
    assert format_poly(Poly.zero(2)) == "0"
    assert format_poly(p("3/2*u1*u2^2")) == "3/2*u1*u2^2"
    assert format_poly(Poly.one(2)) == "1"


def test_hash_and_equality_agree():
    a = p("u1 + 1")
    b = p("1 + u1")
    assert a == b and hash(a) == hash(b)
    assert a != p("u1 - 1")


@given(a=P2, b=P2, c=P2)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=P3, s=strategies.shift_vectors(3), t=strategies.shift_vectors(3))
def test_shift_composes_additively(a, s, t):
    both = [x + y for x, y in zip(s, t)]
    assert a.shift(s).shift(t) == a.shift(both)
    assert a.shift([0, 0, 0]) == a


@given(a=P3, s=strategies.shift_vectors(3))
def test_partial_commutes_with_shift(a, s):
    for j in range(3):
        e = unit(j, 3)
        assert directional(a.shift(s), e) == directional(a, e).shift(s)


@given(a=P2, b=strategies.nonzero_polys(2))
def test_exact_div_roundtrip(a, b):
    q = exact_div(a * b, b)
    assert q == a


@given(a=strategies.nonzero_polys(2))
def test_make_monic_normalizes(a):
    unit, monic = a.make_monic()
    assert monic.is_monic
    assert monic * unit == a


@given(a=P2)
def test_parse_format_roundtrip(a):
    assert parse_poly(format_poly(a), 2) == a


@given(a=P3, b=P3, point=st.lists(strategies.rationals, min_size=3, max_size=3))
def test_evaluate_is_a_homomorphism(a, b, point):
    assert at(a * b, point) == at(a, point) * at(b, point)
    assert at(a + b, point) == at(a, point) + at(b, point)


def test_exponent_at_the_slot_limit_is_rejected():
    top = EXPONENT_LIMIT - 1
    assert max(e for e, _ in Poly(2, {(top, 0): 1}).items()) == (top, 0)
    with pytest.raises(ValueError):
        Poly(2, {(EXPONENT_LIMIT, 0): 1})
    with pytest.raises(ValueError):
        Poly(2, {(0, EXPONENT_LIMIT): 1})
    assert coefficient(Poly(2, {(0, top): 1}), (0, EXPONENT_LIMIT)) == 0


def test_products_never_carry_into_the_next_slot():
    top = EXPONENT_LIMIT - 1
    u1, u2 = Poly.variable(2, 0), Poly.variable(2, 1)
    high = Poly(2, {(0, top): 1})
    assert (high * Poly.constant(2, 3)).leading_coefficient() == 3
    # u2^(limit-1) * u2 would wrap to u1 if the slot carried
    with pytest.raises(ValueError):
        high * u2
    with pytest.raises(ValueError):
        Poly(2, {(top, 0): 1}) * (u1 + u2)
    half = Poly(2, {(EXPONENT_LIMIT // 2, 0): 1})
    with pytest.raises(ValueError):
        half * half
    with pytest.raises(ValueError):
        u1 ** EXPONENT_LIMIT
    with pytest.raises(ValueError):
        (u1 + 1) ** EXPONENT_LIMIT
    with pytest.raises(ValueError):
        parse_poly("u1^4294967296", 2)
    assert u2 ** top == high
    assert max(e for e, _ in directional(high, (0, 1)).items()) == (0, top - 1)


def test_exact_div_near_the_slot_limit():
    top = EXPONENT_LIMIT - 1
    a = Poly(2, {(1, top): 1})
    # the first quotient term times u2^5 would pass the limit: b cannot divide a
    assert exact_div(a, p("u1 + u2^5")) is None
    assert exact_div(a, p("u1")) == Poly(2, {(0, top): 1})


def test_exact_div_needs_the_coefficients_to_divide():
    # the leading monomials divide at every step, the coefficients do not
    assert exact_div(p("4*u1^2 + 2*u1*u2"), p("3*u1 + 2*u2")) is None
    assert exact_div(p("3*u1^2 + 2*u1*u2"), p("3*u1 + 2*u2")) == p("u1")
    assert exact_div(p("u1^2 - 1/4"), p("2*u1 - 1")) == p("1/2*u1 + 1/4")
    assert exact_div(p("6*u1 + 4*u2"), p("3/2*u1 + u2")) == p("4")


def _tabled_linear_terms(q):
    """_linear_terms as read from a table of each variable's key."""
    table = {variable_key(q.nvars, j): j for j in range(q.nvars)}
    if len(q._terms) > q.nvars + 1:
        return None
    out = []
    for k, v in q._terms.items():
        if k:
            if k not in table:
                return None
            out.append((table[k], v))
    return out


@st.composite
def keyed_polys(draw):
    """Polys in up to 200 variables whose keys are the constant, single
    variables, powers of one and products of two."""
    m = draw(st.integers(1, 200))
    j = st.integers(0, m - 1).map(lambda j: variable_key(m, j))
    key = st.one_of(
        st.just(0),
        j,
        st.tuples(j, st.integers(2, 4)).map(lambda t: t[0] * t[1]),
        st.tuples(j, j).map(sum),
    )
    keys = draw(st.lists(key, max_size=6, unique=True))
    return Poly._raw(m, {k: draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1])) for k in keys})


@given(q=keyed_polys())
def test_linear_terms_agree_with_a_table_of_variable_keys(q):
    assert q._linear_terms() == _tabled_linear_terms(q)


def test_linear_terms_of_many_variables_build_no_table():
    q = parse_poly("u1 + 1", 3000)
    tracemalloc.start()
    try:
        assert q._linear_terms() == [(0, 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
