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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Poly


class ParseError(ValueError):
    """Syntax or range error, with a 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*^()/")

# Each level of parentheses costs four Python frames; this keeps a parse
# far inside the interpreter's recursion limit.
_MAX_NESTING = 100


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
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Poly:
        base = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, at = self.take()
            if kind != "int":
                raise ParseError("exponent must be a natural number", at)
            base = base ** int(val)
        return base

    def base(self) -> Poly:
        kind, val, at = self.take()
        if kind == "int":
            num = int(val)
            kind2, _, _ = self.peek()
            if kind2 == "op" and self.peek()[1] == "/":
                self.take()
                kind3, val3, at3 = self.take()
                if kind3 != "int":
                    raise ParseError("expected denominator digits", at3)
                den = int(val3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                return Poly.constant(self.nvars, Fraction(num, den))
            return Poly.constant(self.nvars, num)
        if kind == "var":
            index = int(val[1:])
            if not 1 <= index <= self.nvars:
                raise ParseError(
                    f"variable {val} out of range, expected u1..u{self.nvars}", at
                )
            return Poly.variable(self.nvars, index - 1)
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a number, variable, or parenthesized group", at)


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
