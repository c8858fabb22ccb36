"""The expression parser as it was before its one-pass sums, kept as the
reference.

Every number, variable and power here is a Poly, each '*' is a Poly
product, each '^' a Poly power, and a sum adds its terms one at a time,
copying the whole accumulator for each.  It has the nesting, degree,
power-bit and term-count bounds of the package's parser, but no budget
on the work of its products.  It shares no code with the package's
parser beyond Poly and ParseError.  test_parser_reference.py compares
parse_poly with it: the same Poly, or the same ParseError message and
position.
"""

from fractions import Fraction
from math import comb

from weylshift.parser import ParseError
from weylshift.poly import Poly

_OPS = set("+-*^()/")

# Each level of parentheses costs four Python frames; this keeps a parse
# far inside the interpreter's recursion limit.
_MAX_NESTING = 100

# Expansion and shifting cost grow with the degree (a shift builds one
# binomial row per exponent), so every power and product is bounded before
# it is expanded.  The test data, the benchmark's inputs and the expanded
# 30-loop staircase (degree 90) stay below 100.
_MAX_DEGREE = 1000

# A power of a constant has degree 0, so a power's bit length is bounded
# too: no power in the test data or the benchmark's inputs passes 1,000.
_MAX_POWER_BITS = 100_000

# The degree bound leaves room for (u1 + u2 + u3)^1000 and its 501,501
# terms, so a power's or product's term count is bounded too, before it is
# expanded: see _check_terms.
_MAX_TERMS = 200_000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "u":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable name needs an index, like u1", i)
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)

    def expr(self) -> Poly:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self) -> Poly:
        acc, deg = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs, rhs_deg = self.factor()
                deg += rhs_deg
                _check_degree(deg, at)
                if len(acc) * len(rhs) > _MAX_TERMS:  # a product of a and b terms has at most a*b
                    _check_terms(deg, (acc, rhs), at)
                acc = acc * rhs
            else:
                return acc

    def factor(self) -> tuple[Poly, int]:
        """The factor and its degree, with 0 for the zero polynomial."""
        base, deg = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, at = self.take()
            if kind != "int":
                raise ParseError("exponent must be a natural number", at)
            k = _natural(val, at)
            deg *= k
            _check_degree(deg, at)
            width = max((max(abs(c.numerator), c.denominator).bit_length() for _, c in base.items()), default=0)
            if k * width > _MAX_POWER_BITS:
                raise ParseError(f"a power of up to {k * width} bits passes the limit {_MAX_POWER_BITS}", at)
            if len(base) > 1:  # a power of a monomial is a monomial
                _check_terms(deg, (base,), at)
            base = base ** k
        return base, deg

    def base(self) -> tuple[Poly, int]:
        kind, val, at = self.take()
        if kind == "int":
            num = _natural(val, at)
            kind2, _, _ = self.peek()
            if kind2 == "op" and self.peek()[1] == "/":
                self.take()
                kind3, val3, at3 = self.take()
                if kind3 != "int":
                    raise ParseError("expected denominator digits", at3)
                den = _natural(val3, at3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                return Poly.constant(self.nvars, Fraction(num, den)), 0
            return Poly.constant(self.nvars, num), 0
        if kind == "var":
            index = _natural(val[1:], at)
            if not 1 <= index <= self.nvars:
                raise ParseError(
                    f"variable {val} out of range, expected u1..u{self.nvars}", at
                )
            return Poly.variable(self.nvars, index - 1), 1
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner, max(inner.degree(), 0)
        raise ParseError("expected a number, variable, or parenthesized group", at)


def _natural(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer digits
        raise ParseError(f"a number of {len(digits)} digits is too long", at) from None


def _check_degree(degree: int, at: int) -> None:
    if degree > _MAX_DEGREE:
        raise ParseError(f"degree {degree} passes the limit {_MAX_DEGREE}", at)


def _check_terms(degree: int, operands: tuple[Poly, ...], at: int) -> None:
    """Reject a power or product of the given degree before it is expanded
    when its bound on the term count passes _MAX_TERMS: the number
    C(d + v, v) of monomials of degree at most d in the v variables its
    operands use."""
    v = len(set().union(*(p.used_variables() for p in operands)))
    bound = comb(degree + v, v)
    if bound > _MAX_TERMS:
        raise ParseError(f"up to {bound} terms pass the limit {_MAX_TERMS}", at)


def reference_parse_poly(text: str, nvars: int) -> Poly:
    """Parse an expression string into a Poly in nvars variables."""
    p = _Parser(text, nvars)
    result = p.expr()
    kind, val, at = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", at)
    return result
