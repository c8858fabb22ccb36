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
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from parser_reference import reference_parse_poly
from weylshift.parser import ParseError, parse_poly

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


@st.composite
def expressions(draw):
    text = draw(st.sampled_from(["", "-", "+"])) + draw(EXPRESSIONS)
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(BOUNDS) + text[at:]
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from("+-*^()/ u1$")) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    if draw(st.booleans()):
        text = text.replace(" ", "")
    return text


def _outcome(parse, text):
    try:
        p = parse(text, NVARS)
    except ParseError as e:
        return "error", str(e), e.position
    return "poly", p.nvars, p._den, p._terms


@settings(max_examples=300)
@given(expressions())
@example("-u1 + 2/4*u2^0 - (u1 - 1/2)^2 + 0*u3^5")
@example("(u1 + u2)^500*(u1 - u2)^500")
@example("(u1 + 2*u2 - 3*u3 + 1/3)^4 - (u1 + 2*u2 - 3*u3 + 1/3)^2*(u1 + 2*u2 - 3*u3 + 1/3)^2")
def test_parse_poly_matches_the_reference(text):
    assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text)
