"""Differential test of parse_poly against the reference parser in
parser_reference.py.

Inputs are expression strings over u1..u3 built from the grammar: signs,
integers and a/b constants (0 and zero denominators among them),
variables in and out of range, products, sums, terms that cancel,
nested groups, and powers of numbers, variables and groups, ^0 included.
Some hold a piece that trips one bound (nesting, degree, power bits or
term count), and some have a character inserted or deleted.  Both
parsers must give the same Poly, or the same ParseError message and
position.  No input comes near the work budget, which the reference
does not have.

A third of the inputs are format_poly's text of random Polys, which
parse_poly reads without its descent, some of them mutated just off that
form or into what the descent rejects, or followed by a tail that only
the descent reads, so that parse_poly splits a prefix and descends into
the rest.  On those parse_poly must also give what the package's own
descent gives, down to the order of the terms.
"""

import re
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from parser_reference import reference_parse_poly
from weylshift.parser import ParseError, _Parser, parse_poly
from weylshift.poly import Poly, format_poly

NVARS = 3

NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "2", "12", "007"]),
    st.integers(min_value=0, max_value=10**30).map(str),
)
FRACTIONS = st.builds("{}/{}".format, st.integers(0, 30), st.integers(0, 12))
VARIABLES = st.integers(0, NVARS + 1).map("u{}".format)
# each trips one bound wherever it stands: degree, power bits, term count
# of a power and of a product, nesting
BOUNDS = st.sampled_from(
    [
        "u1^1001",
        "u2^600*u3^401",
        "7^40000",
        "(1/3)^70000",
        "(u1 + u2 + u3)^150",
        "(u1 + u2)^500*(u1 - u2)^500",
        "(" * 101 + "u1" + ")" * 101,
    ]
)
EXPONENTS = st.sampled_from(["0", "1", "2", "3"])


def _extend(children):
    return st.one_of(
        st.builds("{}^{}".format, children, EXPONENTS),
        st.builds("({})".format, children),
        st.builds("({})^{}".format, children, EXPONENTS),
        st.builds("{}*{}".format, children, children),
        st.builds("{} + {}".format, children, children),
        st.builds("{} - {}".format, children, children),
        children.map(lambda c: f"{c} - {c}"),
        st.builds("({}{})".format, st.sampled_from("+-"), children),
    )


LEAVES = st.one_of(NUMBERS, FRACTIONS, VARIABLES, VARIABLES, VARIABLES)
EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=10)


COEFFICIENTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**40), 10**40),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)),
)
FORMATTED = st.dictionaries(
    st.tuples(*[st.integers(0, 12)] * NVARS), COEFFICIENTS, max_size=8
).map(lambda terms: format_poly(Poly(NVARS, terms)))
# each set into the text as a term or a factor: variables out of range,
# zero and unreduced denominators, a number past the interpreter's limit
# on digits, degrees past the bound, a power of a power, leading zeros
PIECES = st.sampled_from(
    ["u0", "u4", "1/0", "0/0", "2/4", "0/7", "1" * 4301, "u1^1001", "u1^600*u1^401", "u1^2^3", "u01^007"]
)


@st.composite
def formatted(draw):
    """format_poly's text, sometimes mutated."""
    text = draw(FORMATTED)
    mutation = draw(st.integers(0, 5))
    if mutation == 1:  # a doubled or a missing space
        spaces = [i for i, ch in enumerate(text) if ch == " "]
        if spaces:
            at = draw(st.sampled_from(spaces))
            text = text[:at] + draw(st.sampled_from(["  ", ""])) + text[at + 1 :]
    elif mutation == 2:  # a new term, or a new factor of a term
        piece = draw(PIECES)
        ends = [m.start() for m in re.finditer(" [+-] ", text)] + [len(text)]
        at = draw(st.sampled_from([0, *ends]))
        joint = draw(st.sampled_from([" + ", " - ", "*"]))
        text = piece + joint + text if at == 0 else text[:at] + joint + piece + text[at:]
    elif mutation == 3:
        text += draw(st.sampled_from([" +", " -"]))
    elif mutation == 4:
        text = _edit(draw, text, "+-*^()/ u10")
    elif mutation == 5:  # a tail past the form, which the descent alone reads
        text += draw(st.sampled_from([" + ", " - ", "*", "^", " +", ""])) + draw(EXPRESSIONS)
    return text


def _edit(draw, text, chars):
    """text with one of chars inserted or one character deleted."""
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:at] + draw(st.sampled_from(chars)) + text[at:]
    return text[:at] + text[at + 1 :]


@st.composite
def expressions(draw):
    if draw(st.integers(0, 2)) == 0:
        return draw(formatted())
    text = draw(st.sampled_from(["", "-", "+"])) + draw(EXPRESSIONS)
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(BOUNDS) + text[at:]
    if draw(st.integers(0, 4)) == 0:
        text = _edit(draw, text, "+-*^()/ u1$")
    if draw(st.booleans()):
        text = text.replace(" ", "")
    return text


def _outcome(parse, text, terms=dict):
    try:
        p = parse(text, NVARS)
    except ParseError as e:
        return "error", str(e), e.position
    return "poly", p.nvars, p._den, terms(p._terms.items())


def _descent(text, nvars):
    return _Parser(text, nvars).parse()


@settings(max_examples=300)
@given(expressions())
@example("-u1 + 2/4*u2^0 - (u1 - 1/2)^2 + 0*u3^5")
@example("(u1 + u2)^500*(u1 - u2)^500")
@example("(u1 + 2*u2 - 3*u3 + 1/3)^4 - (u1 + 2*u2 - 3*u3 + 1/3)^2*(u1 + 2*u2 - 3*u3 + 1/3)^2")
@example("u1 + 2*u2 + 3*(u1 - 1)")
@example("u1 - 2*(")
@example("u1 + u2^2*(u3)")
@example("u1 + u2^2^3 - 1")
@example("-u1 + 1/2 +(u4)")
# variable tokens that the per-nvars table does not hold go to _power
@example("u01 + 2*u1^1*u2^0 - u3^1*u02")
@example("u1 - u0")
@example("3*u1*u4 + 1")
def test_parse_poly_matches_the_reference(text):
    assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text)


@settings(max_examples=300)
@given(formatted())
@example("-u1^12*u2 + 2/4*u3 - 1")
@example("2/4*u1 + 1/2*u2 + 3/4*u3")  # unreduced, the first term would come over 4
@example("u1^600*u1^401 + u2")
@example("u1 + 1" + "0" * 4300)
@example("u1 + 2*u2 + 3*(u1 - 1)")
@example("u1 - 2*(")
@example("u1 + u2^2*(u3)")
@example("-u1^2 - 3/4*u2 + (u1 + u2)^2 - u3")
@example("u01 + 2*u1^1*u2^0 - u3^1*u02")
@example("u1 - u0")
@example("3*u1*u4 + 1")
def test_parse_poly_matches_its_descent_on_formatted_text(text):
    # the list of terms pins their order too
    assert _outcome(parse_poly, text, list) == _outcome(_descent, text, list)
