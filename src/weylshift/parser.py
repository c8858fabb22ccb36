"""Recursive-descent parser for polynomial expression strings.

Grammar (whitespace ignored, no implicit multiplication):

    expr   := sign? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' natural)?
    base   := rational | variable | '(' expr ')'

A variable is the letter 'u' followed by a 1-based index, a rational is
'a' or 'a/b' with decimal digit strings.  The single optional leading sign
keeps parse and format mutually inverse on canonical forms whose leading
coefficient is negative.

One pass builds a sum.  A term stays a monomial (numerator, denominator,
packed key) while its factors are numbers, variables and their powers,
so a product of monomials is one multiply and one key add, and a power
of one is a power of its coefficient and a multiple of its key.  A term
becomes a Poly only when it meets a parenthesized group, and from there
multiplies as Polys do.  A sum gathers all its terms, monomials and
Polys, and normalises once (poly.sum_terms), so its cost is linear in
its length.

Every power and product is bounded before it is taken: by nesting
depth, degree, the bits of a power of a constant, the term count of the
result, and the term pairs that all the products of one parse multiply.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd

from .poly import Poly, sum_terms, variable_key


class ParseError(ValueError):
    """Syntax or range error, with a 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*^()/")
# ASCII only: str.isdigit also takes superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")

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

# The term cap bounds the size of a power, not the work of reaching it: the
# squarings of (1 + u1 + u2 + u3)^90 reach a product of 43 M term pairs.
# So the term pairs of all the products one parse takes are bounded too,
# before each product.  (u1 + u2 + u3)^100 takes 1.9 M pairs and
# (u1 + 2*u2 - 3*u3 + 1/3)^45 takes 4.6 M; (1 + u1 + u2)^600 would pass
# 5.6 M with its next squaring and stops there, after 1.0 M.
_MAX_PAIRS = 5_000_000


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "u":
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                raise ParseError("variable name needs an index, like u1", i)
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# (numerator, positive denominator, packed key), as poly.sum_terms takes it
Monomial = tuple[int, int, int]


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.depth = 0
        self.pairs = 0  # term pairs multiplied so far, against _MAX_PAIRS

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
        """The sum of the terms, normalised once."""
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        monomials: list[Monomial] = []
        polys: list[tuple[int, Poly]] = []
        while True:
            t = self.term()
            if isinstance(t, Poly):
                polys.append((sign, t))
            else:
                monomials.append((sign * t[0], t[1], t[2]))
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return sum_terms(self.nvars, monomials, polys)
            self.take()
            sign = -1 if val == "-" else 1

    def term(self) -> Monomial | Poly:
        acc, deg = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind != "op" or val != "*":
                return acc
            self.take()
            rhs, rhs_deg = self.factor()
            deg += rhs_deg
            _check_degree(deg, at)
            if isinstance(acc, tuple) and isinstance(rhs, tuple):
                acc = (acc[0] * rhs[0], acc[1] * rhs[1], acc[2] + rhs[2])
                continue
            acc, rhs = self.poly(acc), self.poly(rhs)
            if len(acc) * len(rhs) > _MAX_TERMS:  # a product of a and b terms has at most a*b
                _check_terms(deg, (acc, rhs), at)
            acc = self.product(acc, rhs, at)

    def factor(self) -> tuple[Monomial | Poly, int]:
        """The factor and its degree, with 0 for the zero polynomial."""
        base, deg = self.base()
        kind, val, _ = self.peek()
        if kind != "op" or val != "^":
            return base, deg
        self.take()
        kind, val, at = self.take()
        if kind != "int":
            raise ParseError("exponent must be a natural number", at)
        k = _natural(val, at)
        deg *= k
        _check_degree(deg, at)
        width = _width(base)
        if k * width > _MAX_POWER_BITS:
            raise ParseError(f"a power of up to {k * width} bits passes the limit {_MAX_POWER_BITS}", at)
        if isinstance(base, Poly):
            if len(base) > 1:  # a power of a monomial is a monomial
                _check_terms(deg, (base,), at)
            return self.power(base, k, at), deg
        num, den, key = base
        return (num**k, den**k, key * k), deg

    def base(self) -> tuple[Monomial | Poly, int]:
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
                g = gcd(num, den)
                return (num // g, den // g, 0), 0
            return (num, 1, 0), 0
        if kind == "var":
            index = _natural(val[1:], at)
            if not 1 <= index <= self.nvars:
                raise ParseError(
                    f"variable {val} out of range, expected u1..u{self.nvars}", at
                )
            return (1, 1, variable_key(self.nvars, index - 1)), 1
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner, max(inner.degree(), 0)
        raise ParseError("expected a number, variable, or parenthesized group", at)

    def poly(self, x: Monomial | Poly) -> Poly:
        return x if isinstance(x, Poly) else sum_terms(self.nvars, (x,))

    def product(self, a: Poly, b: Poly, at: int) -> Poly:
        """a * b, once the term pairs of every product so far, these
        included, stay within _MAX_PAIRS."""
        self.pairs += len(a) * len(b)
        if self.pairs > _MAX_PAIRS:
            raise ParseError(f"products of {self.pairs} term pairs pass the limit {_MAX_PAIRS}", at)
        return a * b

    def power(self, base: Poly, k: int, at: int) -> Poly:
        """base ** k by square-and-multiply, each product within the budget."""
        result = None
        while k:
            if k & 1:
                result = base if result is None else self.product(result, base, at)
            k >>= 1
            if k:
                base = self.product(base, base, at)
        return Poly.one(self.nvars) if result is None else result


def _natural(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer digits
        raise ParseError(f"a number of {len(digits)} digits is too long", at) from None


def _width(base: Monomial | Poly) -> int:
    """The bit length of base's widest numerator or denominator, with 0
    for zero."""
    if isinstance(base, Poly):
        return max((max(abs(c.numerator), c.denominator).bit_length() for _, c in base.items()), default=0)
    num, den, _ = base
    return max(num, den).bit_length() if num else 0


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


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse an expression string into a Poly in nvars variables."""
    p = _Parser(text, nvars)
    result = p.expr()
    kind, val, at = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", at)
    return result


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'a', '-a', or 'a/b' into a Fraction (used for matrix entries)."""
    stripped = text.strip()
    if not _RATIONAL.match(stripped):
        raise ParseError(f"bad rational literal {text!r}", 0)
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ParseError(f"bad rational literal {text!r}: zero denominator", 0) from None
