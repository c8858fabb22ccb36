"""Exact sparse multivariate polynomials over the rationals.

A polynomial in m variables u1..um is stored as a mapping from exponent
tuples of length m to nonzero Fraction coefficients; the zero polynomial
has an empty mapping.  Monomials are compared lexicographically with
u1 > u2 > ... > um, which plain tuple comparison implements directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp!r} for {nvars} variables")
            c = Fraction(c)
            if c:
                acc = clean.get(exp, _ZERO) + c
                if acc:
                    clean[exp] = acc
                else:
                    clean.pop(exp, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    # internal fast path: caller guarantees a clean dict it will not touch again
    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "Poly":
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Poly":
        v = Fraction(value)
        return cls._raw(nvars, {(0,) * nvars: v} if v else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial u_{index+1}; index is 0-based."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = tuple(1 if k == index else 0 for k in range(nvars))
        return cls._raw(nvars, {exp: _ONE})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, exp: Exponent) -> Fraction:
        return self._terms.get(tuple(exp), _ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    @property
    def is_one(self) -> bool:
        return len(self._terms) == 1 and self._terms.get((0,) * self.nvars) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self._terms.get((0,) * self.nvars, _ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def leading_monomial(self) -> Exponent:
        """Largest exponent tuple in lex order (u1 dominant)."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms)

    def leading_coefficient(self) -> Fraction:
        return self._terms[self.leading_monomial()]

    @property
    def is_monic(self) -> bool:
        return bool(self._terms) and self.leading_coefficient() == 1

    def make_monic(self) -> tuple[Fraction, "Poly"]:
        """Split off the lex-leading coefficient c, returning (c, p/c)."""
        c = self.leading_coefficient()
        if c == 1:
            return _ONE, self
        inv = 1 / c
        return c, Poly._raw(self.nvars, {e: a * inv for e, a in self._terms.items()})

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly._raw(self.nvars, {e: c for e, c in self._terms.items() if sum(e) == d})

    def used_variables(self) -> set[int]:
        out: set[int] = set()
        for e in self._terms:
            out.update(j for j, k in enumerate(e) if k)
        return out

    def content_exponent(self) -> Exponent:
        """Componentwise minimum exponent over all terms (monomial content)."""
        if not self._terms:
            raise ValueError("zero polynomial")
        its = iter(self._terms)
        acc = list(next(its))
        for e in its:
            for j, k in enumerate(e):
                if k < acc[j]:
                    acc[j] = k
        return tuple(acc)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = self._coerce(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e, _ZERO) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return Poly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return Poly.zero(self.nvars)
            return Poly._raw(self.nvars, {e: c * f for e, c in self._terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponent, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(e, _ZERO) + ca * cb
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return Poly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _coerce(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to u_{index+1} (0-based)."""
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            k = e[index]
            if k:
                e2 = e[:index] + (k - 1,) + e[index + 1 :]
                acc = out.get(e2, _ZERO) + c * k
                if acc:
                    out[e2] = acc
                else:
                    out.pop(e2, None)
        return Poly._raw(self.nvars, out)

    def gradient(self) -> tuple["Poly", ...]:
        return tuple(self.partial(j) for j in range(self.nvars))

    def shift(self, offsets: Sequence[Scalar]) -> "Poly":
        """Return p(u1 - t1, ..., um - tm) for t = offsets, expanded exactly."""
        if len(offsets) != self.nvars:
            raise ValueError("offset length mismatch")
        offs = [Fraction(t) for t in offsets]
        if not any(offs):
            return self
        # binomial rows: (u_j - t_j)^e = sum_k C(e,k) (-t_j)^(e-k) u_j^k
        rows: dict[tuple[int, int], list[Fraction]] = {}
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._terms.items():
            parts: list[tuple[Exponent, Fraction]] = [(exp, c)]
            for j, t in enumerate(offs):
                ej = exp[j]
                if not t or not ej:
                    continue
                row = rows.get((j, ej))
                if row is None:
                    row = [comb(ej, k) * (-t) ** (ej - k) for k in range(ej + 1)]
                    rows[(j, ej)] = row
                nxt: list[tuple[Exponent, Fraction]] = []
                for e, a in parts:
                    for k, b in enumerate(row):
                        nxt.append((e[:j] + (k,) + e[j + 1 :], a * b))
                parts = nxt
            for e, a in parts:
                acc = out.get(e, _ZERO) + a
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return Poly._raw(self.nvars, out)

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute images[j] for u_{j+1}; images live in a common ring."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        target = images[0].nvars
        if any(q.nvars != target for q in images):
            raise ValueError("images disagree on variable count")
        powers: list[dict[int, Poly]] = [{0: Poly.one(target)} for _ in range(self.nvars)]

        def power(j: int, k: int) -> Poly:
            cache = powers[j]
            if k not in cache:
                top = max(cache)
                acc = cache[top]
                for e in range(top + 1, k + 1):
                    acc = acc * images[j]
                    cache[e] = acc
            return cache[k]

        result = Poly.zero(target)
        for exp, c in self._terms.items():
            term = Poly.constant(target, c)
            for j, k in enumerate(exp):
                if k:
                    term = term * power(j, k)
            result = result + term
        return result

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        pt = [Fraction(x) for x in point]
        total = _ZERO
        for exp, c in self._terms.items():
            v = c
            for j, e in enumerate(exp):
                if e:
                    v *= pt[j] ** e
            total += v
        return total

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {format_poly(self)!r})"


def format_poly(p: Poly) -> str:
    """Canonical text form: terms in descending lex order, explicit '*'."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for exp in sorted(p._terms, reverse=True):
        c = p._terms[exp]
        mono = "*".join(
            f"u{j + 1}^{e}" if e > 1 else f"u{j + 1}" for j, e in enumerate(exp) if e
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"{' - ' if c < 0 else ' + '}{body}")
    return "".join(pieces)


def exact_div(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b under lex division, or None when b does not divide a.

    Single-divisor multivariate long division: the moment the leading term
    of the remainder is not divisible by the leading term of b the division
    cannot finish with zero remainder, so None is returned immediately.
    """
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return a
    eb = b.leading_monomial()
    cb = b._terms[eb]
    rem = dict(a._terms)
    quot: dict[Exponent, Fraction] = {}
    while rem:
        le = max(rem)
        qe = tuple(x - y for x, y in zip(le, eb))
        if any(e < 0 for e in qe):
            return None
        qc = rem[le] / cb
        quot[qe] = qc
        for e, c in b._terms.items():
            e2 = tuple(x + y for x, y in zip(qe, e))
            acc = rem.get(e2, _ZERO) - qc * c
            if acc:
                rem[e2] = acc
            else:
                rem.pop(e2, None)
    return Poly._raw(a.nvars, quot)


def divides(b: Poly, a: Poly) -> bool:
    return exact_div(a, b) is not None


def merge_factors(factors: Iterable[tuple[Poly, int]]) -> dict[Poly, int]:
    """The multiset of (factor, multiplicity) pairs: multiplicities of a
    repeated factor are summed, and factors keep their first-seen order."""
    merged: dict[Poly, int] = {}
    for q, mult in factors:
        merged[q] = merged.get(q, 0) + mult
    return merged
