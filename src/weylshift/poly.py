"""Exact sparse multivariate polynomials over the rationals.

A polynomial in m variables u1..um is stored as integer numerators over
one positive common denominator: a mapping from packed exponents to
nonzero int numerators, and the denominator.

Packed layout: the exponent tuple (e1, ..., em) is the single int
sum(e_j << SLOT*(m-j)), with SLOT = 33 bits per variable and u1 in the
most significant slot.  Each slot holds an exponent below
EXPONENT_LIMIT = 2**32 in its low 32 bits; the top bit of every slot is
a guard that a valid key leaves clear.  Adding two valid keys cannot
carry out of a slot, so the product of two monomials is one int add,
and an exponent that reaches the limit sets a guard bit and raises
ValueError instead of wrapping into the next slot.  Comparing packed
keys as ints is the lexicographic order with u1 > u2 > ... > um.

Canonical form: the gcd of the denominator and all numerators is 1, and
zero is the empty mapping over 1.  Equal polynomials therefore have
equal fields, so == and hash are exact.

The public interface speaks Fractions and exponent tuples; the packed
keys never leave this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

EXPONENT_LIMIT = 1 << 32
_BITS = 32
_SLOT = _BITS + 1
_MASK = EXPONENT_LIMIT - 1

_ZERO = Fraction(0)
_ONE = Fraction(1)


@cache
def _guard(nvars: int) -> int:
    """The guard bits of every slot of an nvars-variable key."""
    return sum(1 << (_SLOT * j + _BITS) for j in range(nvars))


def _pack(exp: Sequence[int], nvars: int) -> int:
    if len(exp) != nvars or any(e < 0 for e in exp):
        raise ValueError(f"bad exponent tuple {tuple(exp)!r} for {nvars} variables")
    key = 0
    for e in exp:
        if e >= EXPONENT_LIMIT:
            raise ValueError(f"exponent {e} is not below the limit {EXPONENT_LIMIT}")
        key = (key << _SLOT) | e
    return key


def _unpack(key: int, nvars: int) -> Exponent:
    out = [0] * nvars
    for j in range(nvars - 1, -1, -1):
        out[j] = key & _MASK
        key >>= _SLOT
    return tuple(out)


def _degree(key: int) -> int:
    d = 0
    while key:
        d += key & _MASK
        key >>= _SLOT
    return d


def _slot_maxima(keys: Iterable[int], nvars: int) -> list[int]:
    """Per variable, the largest exponent among the keys."""
    keys = list(keys)
    return [
        max((k >> (_SLOT * (nvars - 1 - j))) & _MASK for k in keys) for j in range(nvars)
    ]


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms", "_den", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        coeffs: dict[int, Fraction] = {}
        for exp, c in items:
            key = _pack(tuple(exp), nvars)
            coeffs[key] = coeffs.get(key, _ZERO) + Fraction(c)
        den = lcm(*(c.denominator for c in coeffs.values()))
        nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
        _init(self, nvars, *_reduced(nums, den))

    # internal fast path: caller guarantees canonical fields it will not touch again
    @classmethod
    def _raw(cls, nvars: int, terms: dict[int, int], den: int = 1) -> "Poly":
        p = object.__new__(cls)
        _init(p, nvars, terms, den)
        return p

    @classmethod
    def _normal(cls, nvars: int, terms: dict[int, int], den: int) -> "Poly":
        """From numerators that may include zeros and a positive den that
        may share a factor with all of them."""
        if 0 in terms.values():
            terms = {k: v for k, v in terms.items() if v}
        return cls._raw(nvars, *_reduced(terms, den))

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
        if not v:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {0: v.numerator}, v.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial u_{index+1}; index is 0-based."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        return cls._raw(nvars, {1 << (_SLOT * (nvars - 1 - index)): 1})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        m, den = self.nvars, self._den
        return ((_unpack(k, m), Fraction(v, den)) for k, v in self._terms.items())

    def coefficient(self, exp: Exponent) -> Fraction:
        try:
            key = _pack(tuple(exp), self.nvars)
        except ValueError:
            return _ZERO
        v = self._terms.get(key)
        return _ZERO if v is None else Fraction(v, self._den)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        t = self._terms
        return not t or (len(t) == 1 and 0 in t)

    @property
    def is_one(self) -> bool:
        return self._den == 1 and self._terms == {0: 1}

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(self._terms.get(0, 0), self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(_degree, self._terms))

    def leading_monomial(self) -> Exponent:
        """Largest exponent tuple in lex order (u1 dominant)."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return _unpack(max(self._terms), self.nvars)

    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return Fraction(self._terms[max(self._terms)], self._den)

    @property
    def is_monic(self) -> bool:
        return bool(self._terms) and self._terms[max(self._terms)] == self._den

    def make_monic(self) -> tuple[Fraction, "Poly"]:
        """Split off the lex-leading coefficient c, returning (c, p/c)."""
        c = self.leading_coefficient()
        if c == 1:
            return _ONE, self
        # p/c = (numerators / den) / (lead / den) = numerators / lead
        lead = self._terms[max(self._terms)]
        sign = -1 if lead < 0 else 1
        terms = {k: sign * v for k, v in self._terms.items()}
        return c, Poly._raw(self.nvars, *_reduced(terms, sign * lead))

    def homogeneous_part(self, d: int) -> "Poly":
        terms = {k: v for k, v in self._terms.items() if _degree(k) == d}
        return Poly._raw(self.nvars, *_reduced(terms, self._den))

    def used_variables(self) -> set[int]:
        m = self.nvars
        mask = reduce(or_, self._terms, 0)
        return {j for j in range(m) if (mask >> (_SLOT * (m - 1 - j))) & _MASK}

    def content_exponent(self) -> Exponent:
        """Componentwise minimum exponent over all terms (monomial content)."""
        if not self._terms:
            raise ValueError("zero polynomial")
        m = self.nvars
        return tuple(
            min((k >> (_SLOT * (m - 1 - j))) & _MASK for k in self._terms) for j in range(m)
        )

    # ------------------------------------------------------------------
    # arithmetic

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other."""
        if not other._terms:
            return self
        if not self._terms:
            return other if sign > 0 else -other
        da, db = self._den, other._den
        if da == db:
            out = dict(self._terms)
            fb = sign
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            da *= fa
            out = {k: v * fa for k, v in self._terms.items()}
        get = out.get
        for k, v in other._terms.items():
            out[k] = get(k, 0) + v * fb
        return Poly._normal(self.nvars, out, da)

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {k: -v for k, v in self._terms.items()}, self._den)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other: Scalar) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.nvars)
            n = other.numerator
            terms = {k: v * n for k, v in self._terms.items()}
            return Poly._raw(self.nvars, *_reduced(terms, self._den * other.denominator))
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        pairs = list(b.items())
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in pairs:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        if reduce(or_, out, 0) & _guard(self.nvars):
            raise ValueError(f"a product reached the exponent limit {EXPONENT_LIMIT}")
        return Poly._normal(self.nvars, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        if k > 1 and self._terms:
            top = max(_slot_maxima(self._terms, self.nvars))
            if top * k >= EXPONENT_LIMIT:
                raise ValueError(f"power {k} takes an exponent past the limit {EXPONENT_LIMIT}")
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
        return self.nvars == other.nvars and self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, self._den, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to u_{index+1} (0-based)."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range for {self.nvars} variables")
        s = _SLOT * (self.nvars - 1 - index)
        step = 1 << s
        # lowering one exponent is injective on the terms it keeps
        out = {}
        for k, v in self._terms.items():
            e = (k >> s) & _MASK
            if e:
                out[k - step] = v * e
        return Poly._raw(self.nvars, *_reduced(out, self._den))

    def directional(self, vec: Sequence[Scalar]) -> "Poly":
        """The directional derivative <grad p, vec>, in one pass over the
        terms, with vec's entries brought over one denominator."""
        if len(vec) != self.nvars:
            raise ValueError("direction length mismatch")
        scale = lcm(*(b.denominator for b in vec))
        steps = [
            (_SLOT * (self.nvars - 1 - j), b.numerator * (scale // b.denominator))
            for j, b in enumerate(vec)
            if b
        ]
        out: dict[int, int] = {}
        for k, v in self._terms.items():
            for s, b in steps:
                e = (k >> s) & _MASK
                if e:
                    key = k - (1 << s)
                    out[key] = out.get(key, 0) + v * e * b
        return Poly._normal(self.nvars, out, self._den * scale)

    def gradient(self) -> tuple["Poly", ...]:
        return tuple(self.partial(j) for j in range(self.nvars))

    def shift(self, offsets: Sequence[Scalar]) -> "Poly":
        """Return p(u1 - t1, ..., um - tm) for t = offsets, expanded exactly."""
        m = self.nvars
        if len(offsets) != m:
            raise ValueError("offset length mismatch")
        terms, den = self._terms, self._den
        for j, t in enumerate(offsets):
            if not t:
                continue
            s = _SLOT * (m - 1 - j)
            top = max([(k >> s) & _MASK for k in terms], default=0)
            if not top:
                continue
            # with t = -a/b: b^top * (u - t)^e = sum_k C(e,k) a^(e-k) b^(top-e+k) u^k
            a, b = -t.numerator, t.denominator
            pb = [1] * (top + 1)
            for i in range(1, top + 1):
                pb[i] = pb[i - 1] * b
            rows: dict[int, list[tuple[int, int]]] = {}
            out: dict[int, int] = {}
            get = out.get
            for key, c in terms.items():
                e = (key >> s) & _MASK
                row = rows.get(e)
                if row is None:
                    row = rows[e] = [
                        (k << s, comb(e, k) * a ** (e - k) * pb[top - e + k]) for k in range(e + 1)
                    ]
                base = key - (e << s)
                for step, r in row:
                    nk = base + step
                    out[nk] = get(nk, 0) + c * r
            terms, den = out, den * pb[top]
        if terms is self._terms:
            return self
        return Poly._normal(m, terms, den)

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
        for exp, c in self.items():
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
        for exp, c in self.items():
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


def _init(p: Poly, nvars: int, terms: dict[int, int], den: int) -> None:
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_hash", None)


def _reduced(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Nonzero numerators over a positive den, divided by their common
    factor with den; zero comes back over 1."""
    if not terms:
        return terms, 1
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return {k: v // g for k, v in terms.items()}, den // g
    return terms, den


def format_poly(p: Poly) -> str:
    """Canonical text form: terms in descending lex order, explicit '*'."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for key in sorted(p._terms, reverse=True):
        c = Fraction(p._terms[key], p._den)
        mono = "*".join(
            f"u{j + 1}^{e}" if e > 1 else f"u{j + 1}"
            for j, e in enumerate(_unpack(key, p.nvars))
            if e
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


def monomial_index(polys: Sequence[Poly]) -> dict[int, int]:
    """The row of each monomial that any of polys uses, in ascending lex
    order: the rows of `coefficient_rows(polys)`."""
    return {k: r for r, k in enumerate(sorted(set().union(*(p._terms for p in polys))))}


def coefficient_rows(polys: Sequence[Poly]) -> list[list[Fraction]]:
    """The coefficients of polys over their joint monomials: one row per
    monomial that any of them uses, in ascending lex order, and one column
    per polynomial."""
    cols = [(p._terms, p._den) for p in polys]
    return [
        [_ZERO if k not in terms else Fraction(terms[k], den) for terms, den in cols]
        for k in monomial_index(polys)
    ]


def numerators_on(p: Poly, index: Mapping[int, int]) -> tuple[list[int], int] | None:
    """p's coefficients on the rows of a `monomial_index`, as integer
    numerators over p's denominator; None when p uses a monomial that the
    index has no row for."""
    out = [0] * len(index)
    for k, num in p._terms.items():
        row = index.get(k)
        if row is None:
            return None
        out[row] = num
    return out, p._den


def exact_div(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b under lex division, or None when b does not divide a.

    Single-divisor multivariate long division: the moment the leading term
    of the remainder is not divisible by the leading term of b the division
    cannot finish with zero remainder, so None is returned immediately.

    The division runs on integer numerators.  With b's numerators divided
    by their content, b is primitive, so by Gauss's lemma a quotient that
    exists has integer numerators too, and a leading coefficient that does
    not divide exactly also proves that b does not divide a.  The remainder's
    keys sit in a max-heap; keys cancelled from it are skipped when popped.
    """
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return a
    m = a.nvars
    guard = _guard(m)
    divisor = b._terms
    content = gcd(*divisor.values())
    lead = max(divisor)
    cb = divisor[lead] // content
    rest = [(k, v // content) for k, v in divisor.items() if k != lead]
    # a quotient term whose product with this key overflows cannot divide a
    reach = _pack(_slot_maxima(divisor, m), m)
    rem = dict(a._terms)
    heap = [-k for k in rem]
    heapify(heap)
    quot: dict[int, int] = {}
    while rem:
        top = -heappop(heap)
        c = rem.pop(top, None)
        if c is None:
            continue
        # each slot of top keeps its guard bit exactly when it is at least lead's
        qk = (top | guard) - lead
        if qk & guard != guard:
            return None
        qk ^= guard
        if (qk + reach) & guard:
            return None
        qc, r = divmod(c, cb)
        if r:
            return None
        quot[qk] = qc
        for k, v in rest:
            nk = qk + k
            d = qc * v
            old = rem.get(nk)
            if old is None:
                rem[nk] = -d
                heappush(heap, -nk)
            elif old == d:
                del rem[nk]
            else:
                rem[nk] = old - d
    # a = A/da and b = content*B/db with A = Q*B, so a/b = Q*db / (da*content)
    db = b._den
    return Poly._raw(m, *_reduced({k: v * db for k, v in quot.items()}, a._den * content))


def merge_factors(factors: Iterable[tuple[Poly, int]]) -> dict[Poly, int]:
    """The multiset of (factor, multiplicity) pairs: multiplicities of a
    repeated factor are summed, and factors keep their first-seen order."""
    merged: dict[Poly, int] = {}
    for q, mult in factors:
        merged[q] = merged.get(q, 0) + mult
    return merged
