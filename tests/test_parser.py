import glob
import re
import time
from fractions import Fraction

import pytest

from conftest import DATA, GOLDEN
from weylshift import parser
from weylshift.parser import ParseError, parse_poly, parse_rational
from weylshift.poly import Poly, format_poly


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


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("u1^\u00b2", "unexpected character '\u00b2'", 3),
        ("u\u0661 + \u0663", "variable name needs an index, like u1", 0),
        ("\u0663", "unexpected character", 0),
    ],
    ids=["superscript", "arabic-indic-variable", "arabic-indic-number"],
)
def test_only_ascii_digits_are_digits(text, message, position):
    # str.isdigit also accepts superscripts and other scripts' digits
    with pytest.raises(ParseError, match=message) as info:
        p(text)
    assert info.value.position == position


@pytest.mark.parametrize("text", ["1/u1", "1/", "2/(3)"])
def test_denominator_must_be_digits(text):
    with pytest.raises(ParseError, match="expected denominator digits") as info:
        p(text)
    assert info.value.position == 2


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


def test_degree_is_bounded_before_expansion():
    assert p("u1^500*(u2 - 1)^500").degree() == 1000
    with pytest.raises(ParseError, match="degree 1001 passes the limit") as info:
        p("u1^1001")
    assert info.value.position == 3
    with pytest.raises(ParseError, match="degree 1001 passes the limit") as info:
        p("u1^1000*u2")
    assert info.value.position == 7


def test_power_bits_are_bounded_before_expansion():
    # a constant base has degree 0, so only its bit length bounds the power
    assert p("7^33333").constant_value() == 7**33333
    assert p("(2*u1 + 1/3)^1000").degree() == 1000
    with pytest.raises(ParseError, match="a power of up to 100002 bits passes the limit 100000") as info:
        p("7^33334 + u1")
    assert info.value.position == 2
    with pytest.raises(ParseError, match="passes the limit 100000"):
        p("u1 + (1/7)^4000000")
    with pytest.raises(ParseError, match="passes the limit 100000"):
        p("(7^30000)^4")


def test_term_count_is_bounded_before_expansion():
    # each passes the degree bound; C(d + v, v) monomials bound its terms
    assert len(p("(u1 + u2 + u3)^100", 3)) == 5151  # bound 176851
    with pytest.raises(ParseError, match="up to 167668501 terms pass the limit 200000") as info:
        p("(u1 + u2 + u3)^1000", 3)
    assert info.value.position == 15
    with pytest.raises(ParseError, match="up to 302621 terms pass the limit 200000") as info:
        p("(u1 + u2 + u3)^60*(u1 + u2 + u3)^60", 3)
    assert info.value.position == 17
    # a power or product of monomials is one term, whatever its bound
    assert len(p("(u1*u2*u3*u4)^200*u1^200", 4)) == 1


def test_work_of_products_is_bounded_before_each_product():
    # each passes the term cap, but its products would multiply tens of
    # millions of term pairs; the budget stops the first that passes it
    with pytest.raises(ParseError, match="products of 44083336 term pairs pass the limit 5000000") as info:
        p("(1 + u1 + u2 + u3)^90", 3)
    assert info.value.position == 19
    with pytest.raises(ParseError, match="products of 5645460 term pairs pass the limit 5000000") as info:
        p("(1 + u1 + u2)^600")
    assert info.value.position == 14
    # the budget counts every product of one parse, powers included
    with pytest.raises(ParseError, match="products of 11216988 term pairs pass the limit 5000000") as info:
        p("(1 + u1 + u2 + u3)^25*(1 + u1 + u2 + u3)^25", 3)
    assert info.value.position == 21
    assert len(p("(1 + u1 + u2 + u3)^25*(1 + u1 + u2 + u3)^5", 3)) == 5456


def test_a_long_sum_parses_in_linear_time():
    # 5,456 terms in 188 KB of text; a sum is gathered once, so its cost
    # is linear in its length, not quadratic in its terms
    want = p("(u1 + 2*u2 - 3*u3 + 1/3)^30", 3)
    text = format_poly(want)
    start = time.process_time()
    got = p(text, 3)
    assert time.process_time() - start < 2.0
    assert got == want


@pytest.fixture(scope="module")
def formatted_texts():
    """Every string in the test data and the CLI golden files that is in
    format_poly's form, a few formatted polynomials in several variables,
    and the formatted (u1 + 2*u2 - 3*u3 + 1/3)^45: 17,296 terms in 781 KB."""
    texts = {
        format_poly(p(text, 3))
        for text in ("u1 + 4", "u2 - 1", "-2/3*u1^2*u3 + u2 - 9", "(u1 - u2)*(u3 + 7/5)")
    }
    files = glob.glob(f"{DATA}/*.json") + glob.glob(f"{GOLDEN}/cli/*.txt")
    for path in files:
        with open(path, encoding="utf-8") as handle:
            for text in re.findall(r'"([^"\\]*)"', handle.read()):
                try:
                    if format_poly(p(text, 3)) == text:
                        texts.add(text)
                except ParseError:
                    pass
    long_entry = format_poly(p("u1 + 2*u2 - 3*u3 + 1/3", 3) ** 45)
    return [*sorted(texts), long_entry]


def test_formatted_text_never_reaches_the_descent(formatted_texts, monkeypatch):
    assert len(formatted_texts) > 30 and len(formatted_texts[-1]) > 780_000
    want = [parser._Parser(text, 3).parse() for text in formatted_texts]

    def no_tokens(text):
        raise AssertionError(f"tokenized {text[:40]!r}")

    monkeypatch.setattr(parser, "_tokenize", no_tokens)
    got = [p(text, 3) for text in formatted_texts]
    assert [(q._den, list(q._terms.items())) for q in got] == [(q._den, list(q._terms.items())) for q in want]


@pytest.mark.parametrize(
    "text,outcome",
    [
        ("u1 + " * 160_000 + "(", "expected a number, variable, or parenthesized group (at position 800001)"),
        ("-u1^2*u3" + " - 5/7*u2^3*u1" * 25_000 + " +", "expected a number, variable, or parenthesized group"),
        (" + ".join(["1" * 4000] * 250), 250 * int("1" * 4000)),
        (" + ".join(["1" * 4000] * 250) + " + (", "expected a number, variable, or parenthesized group"),
    ],
    ids=["sum-then-paren", "products-then-plus", "long-literals", "long-literals-then-paren"],
)
def test_text_canonical_up_to_its_end_parses_in_bounded_time(text, outcome):
    # up to 1 MB that the canonical form matches but for its last few
    # characters: the failed match must not backtrack super-linearly, and
    # the descent then reads the text in linear time
    start = time.process_time()
    try:
        got = p(text, 3).constant_value()
    except ParseError as e:
        got = str(e)
    assert time.process_time() - start < 1.0
    assert outcome == got if isinstance(outcome, int) else outcome in got


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
