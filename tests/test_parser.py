from fractions import Fraction

import pytest

from weylshift.parser import ParseError, parse_poly, parse_rational
from weylshift.poly import Poly


def p(text, nvars=2):
    return parse_poly(text, nvars)


def test_simple_forms():
    assert p("u1") == Poly.variable(2, 0)
    assert p("42") == Poly.constant(2, 42)
    assert p("3/4") == Poly.constant(2, Fraction(3, 4))
    assert p("u1 + u2") == Poly.variable(2, 0) + Poly.variable(2, 1)


def test_precedence():
    assert p("u1 + u2*u1^2") == p("u1") + p("u2") * p("u1") * p("u1")
    assert p("2*u1^3") == Poly.constant(2, 2) * p("u1") ** 3


def test_parenthesized_powers():
    assert p("(u1 + 1)^2") == p("u1^2 + 2*u1 + 1")
    assert p("(u1 + u2)*(u1 - u2)") == p("u1^2 - u2^2")


def test_leading_sign():
    assert p("-u1 + 1") == -p("u1") + 1
    assert p("+u1") == p("u1")
    # only one leading sign, not a general unary operator
    with pytest.raises(ParseError):
        p("--u1")
    with pytest.raises(ParseError):
        p("u1 + -u2")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError) as info:
        p("u1 u2")
    assert "trailing" in str(info.value)
    with pytest.raises(ParseError):
        p("2u1")
    with pytest.raises(ParseError):
        p("(u1)(u2)")


def test_variable_range():
    with pytest.raises(ParseError) as info:
        p("u3")
    assert "u3" in str(info.value) and "u1..u2" in str(info.value)
    assert parse_poly("u3", 3) == Poly.variable(3, 2)
    with pytest.raises(ParseError):
        p("u0")


def test_variable_needs_index():
    with pytest.raises(ParseError):
        p("u + 1")


def test_exponent_must_be_natural():
    with pytest.raises(ParseError):
        p("u1^u2")
    with pytest.raises(ParseError):
        p("u1^(2)")
    with pytest.raises(ParseError):
        p("u1^-2")


def test_rational_literals():
    assert p("1/2 + 1/2") == Poly.one(2)
    with pytest.raises(ParseError):
        p("1/0")
    # division is literal notation, not an operator
    with pytest.raises(ParseError):
        p("u1/2")


def test_error_positions():
    with pytest.raises(ParseError) as info:
        p("u1 + $")
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        p("(u1 + 1")
    assert info.value.position == 7


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        p("u1 + 1)")
    with pytest.raises(ParseError):
        p("()")


def test_nesting_depth_is_bounded():
    assert p("(" * 100 + "u1" + ")" * 100) == p("u1")
    with pytest.raises(ParseError, match="nested deeper") as info:
        p("(" * 5000 + "u1" + ")" * 5000)
    assert info.value.position == 100


def test_whitespace_is_free():
    assert p(" u1+ u2 * 3 ") == p("u1 + 3*u2")


def test_empty_input():
    with pytest.raises(ParseError):
        p("")


def test_parse_rational():
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational(" 7 ") == 7
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")
