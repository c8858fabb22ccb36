"""Parser for polynomial expression strings.

Grammar (whitespace ignored, no implicit multiplication):

    expr   := sign? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' natural)?
    base   := rational | variable | '(' expr ')'

A variable is the letter 'u' followed by a 1-based index, a rational is
'a' or 'a/b' with decimal digit strings.  The single optional leading sign
keeps parse and format mutually inverse on canonical forms whose leading
coefficient is negative.

Text in format_poly's canonical form, a flat sum of monomials with single
spaces around '+' and '-', takes a short path.  Every problem file the
tool writes holds such text, and expanded entries are long.  One regular
expression tests the whole text for that form; on a match, the text is
split on spaces and '*' into (numerator, denominator, packed key)
monomials, one per term in text order, and they are summed with one
poly.sum_terms call.  A variable token u<i> is looked up in a table
built once per nvars, for up to 64 variables, and any other factor is
read once per text.  So both paths give the same Poly, down to the order
of its terms.  Where the descent would raise (a variable out of range, a
degree past the bound, a zero denominator, a number too long to read),
the short path steps aside and the descent raises its ParseError at its
position.  Text that keeps that form only up
to a point, say up to a parenthesized group, has its longest canonical
prefix of whole terms split the same way.  The descent reads only the
rest, going on from the prefix's monomials, with positions counted from
the start of the text, so a long sum with a short odd tail is read once.

All other text goes to a recursive descent over tokens: parentheses,
powers of numbers, other spacing, a leading '+'.  It is the only reader
of parenthesised groups, which factored entries and hand-written files
use.  It builds every number, variable, power and product as a Poly, and
a sum gathers its terms, after the monomials of a split prefix, and
normalises once (poly.sum_terms), so its cost is linear in its length.
It has no monomial fast path: the text it reads is short, such as a
configuration's generator, so a product of monomials is a Poly multiply
and counts one term pair against the budget below.

Every power and product is bounded before it is taken: by nesting
depth, degree, the bits of a power of a constant, the term count of the
result, and the term pairs that all the products of one parse multiply.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import comb, gcd
from typing import Sequence

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

# Expansion and shifting cost grow with the degree (a shift of a polynomial
# of degree 2 or more builds one binomial row per exponent), so every power
# and product is bounded before it is expanded.  The test data, the
# benchmark's inputs and the expanded 30-loop staircase (degree 90) stay
# below 100.
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


def _tokenize(text: str, start: int = 0) -> list[tuple[str, str, int]]:
    """The tokens of text from position start on, each with its position in
    the whole text."""
    tokens: list[tuple[str, str, int]] = []
    i, n = start, len(text)
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
    def __init__(self, text: str, nvars: int, start: int = 0):
        self.tokens = _tokenize(text, start)
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

    def parse(self, monomials: Sequence[Monomial] = ()) -> Poly:
        """The text from the parser's start on as one expression; with the
        monomials of the text before it, the sum that goes on from them."""
        result = self.expr(monomials)
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", at)
        return result

    def expr(self, before: Sequence[Monomial] = ()) -> Poly:
        """The sum of the monomials before and the terms, normalised once."""
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        terms: list[tuple[int, Poly]] = []
        while True:
            terms.append((sign, self.term()))
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return sum_terms(self.nvars, before, terms)
            self.take()
            sign = -1 if val == "-" else 1

    def term(self) -> Poly:
        acc, deg = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind != "op" or val != "*":
                return acc
            self.take()
            rhs, rhs_deg = self.factor()
            deg += rhs_deg
            _check_degree(deg, at)
            if len(acc) * len(rhs) > _MAX_TERMS:  # a product of a and b terms has at most a*b
                _check_terms(deg, (acc, rhs), at)
            acc = self.product(acc, rhs, at)

    def factor(self) -> tuple[Poly, int]:
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
        if len(base) > 1:  # a power of a monomial is a monomial
            _check_terms(deg, (base,), at)
        return self.power(base, k, at), deg

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


def _width(base: Poly) -> int:
    """The bit length of base's widest numerator or denominator, with 0
    for zero."""
    return max((max(abs(c.numerator), c.denominator).bit_length() for _, c in base.items()), default=0)


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


# format_poly's form: a flat sum of terms a, a/b, a*M, a/b*M or M, where a
# monomial M is u<i> or u<i>^<e> joined by '*', and every '+' or '-' but a
# leading '-' stands between single spaces.  Each repeat starts at a
# character that no digit run can take, so a failed match backtracks in
# linear time.
_NUMBER = r"[0-9]+(?:/[0-9]+)?"
_MONOMIAL = r"u[0-9]+(?:\^[0-9]+)?(?:\*u[0-9]+(?:\^[0-9]+)?)*"
_TERM = rf"(?:{_NUMBER}(?:\*{_MONOMIAL})?|{_MONOMIAL})"
_CANONICAL = re.compile(rf"-?{_TERM}(?: [+-] {_TERM})*")


def _canonical_terms(text: str, nvars: int) -> list[Monomial] | None:
    """The signed monomials of text in _CANONICAL's form, one per term in
    text order, each the value the descent gives its term; None where
    the descent raises instead:
    a variable out of range, a degree past _MAX_DEGREE, a zero
    denominator or a number past the interpreter's limit on digits."""
    sign = 1
    if text[0] == "-":
        sign, text = -1, text[1:]
    pieces = text.split(" ")
    signs = [sign, *(-1 if op == "-" else 1 for op in pieces[1::2])]
    # "u<i>" or "u<i>^<e>" -> (key, degree)
    powers = dict(_variables(nvars)) if nvars <= _TABLE_VARIABLES else {}
    monomials: list[Monomial] = []
    try:
        for sign, term in zip(signs, pieces[::2]):
            factors = term.split("*")
            num = den = 1
            if factors[0][0] != "u":
                a, _, b = factors.pop(0).partition("/")
                num = int(a)
                if b:
                    den = int(b)
                    if den == 0:
                        return None
                    g = gcd(num, den)
                    num, den = num // g, den // g
            key = deg = 0
            for f in factors:
                power = powers.get(f)
                if power is None:
                    power = powers[f] = _power(f, nvars)
                key += power[0]
                deg += power[1]
            if deg > _MAX_DEGREE:
                return None
            monomials.append((sign * num, den, key))
    except ValueError:  # out of range (see _power) or past the limit on digits
        return None
    return monomials


# Keys take 33 bits a variable, so a table of every variable grows with
# the square of nvars.  Only rings of up to _TABLE_VARIABLES variables get
# one, so the cache holds at most that many small tables; in a larger ring
# every token is read by _power.
_TABLE_VARIABLES = 64


@cache
def _variables(nvars: int) -> dict[str, tuple[int, int]]:
    """The key and degree of each token 'u<i>' for i up to nvars, as _power
    gives them; called for nvars up to _TABLE_VARIABLES only."""
    return {f"u{j + 1}": (variable_key(nvars, j), 1) for j in range(nvars)}


def _power(factor: str, nvars: int) -> tuple[int, int]:
    """The key and degree of 'u<i>' or 'u<i>^<e>'; ValueError for a
    variable out of range, as for a number past the limit on digits."""
    name, _, e = factor.partition("^")
    index, k = int(name[1:]), int(e or 1)
    if not 1 <= index <= nvars:
        raise ValueError(factor)
    return variable_key(nvars, index - 1) * k, k


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse an expression string into a Poly in nvars variables.  Text in
    format_poly's form is split, not tokenized, and so is the longest
    prefix of any other text that is in that form and ends before ' +' or
    ' -': the descent reads only the rest, going on from the prefix's
    terms.  A prefix followed by anything else may end inside a term, as
    in '2*(u1)' or 'u2^2^3', so its last term is left to the descent.  Both
    give the Poly the descent alone gives, and the prefix falls to the
    descent wherever that raises."""
    match = _CANONICAL.match(text)
    end = match.end() if match else 0
    if 0 < end < len(text) and not text.startswith((" +", " -"), end):
        end = max(text.rfind(" + ", 0, end), text.rfind(" - ", 0, end), 0)
    monomials = _canonical_terms(text[:end], nvars) if end else None
    if monomials is None:
        return _Parser(text, nvars).parse()
    if end == len(text):
        return sum_terms(nvars, monomials)
    return _Parser(text, nvars, end).parse(monomials)


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
