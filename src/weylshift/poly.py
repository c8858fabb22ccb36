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

sum_terms is the one place sums are formed: the constructor, + and -,
compose and the parser all add their terms through it.

Poly.gradient is the one derivative: every fixedness test, pairing
matrix and change of coordinates reads its rows.

The public interface speaks Fractions and exponent tuples.  The packed
keys leave this module as monomial keys for the parser, which multiplies
monomials by adding keys and sums them with sum_terms, as the keys of
gradient rows, and for the consistency engine, which moves exponents
slot by slot into fewer variables.  FactoredPoly holds a nonzero
polynomial as a unit times distinct monic factors with multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import or_
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]
_Key = TypeVar("_Key", bound=Hashable)

EXPONENT_LIMIT = 1 << 32
_BITS = 32
_SLOT = _BITS + 1
_MASK = EXPONENT_LIMIT - 1

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


def variable_key(nvars: int, index: int) -> int:
    """The packed key of u_{index+1}; index is 0-based.  A monomial's key
    is the sum of its variables' keys, each times its exponent."""
    return 1 << (_SLOT * (nvars - 1 - index))


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


@cache
def _linear_keys(nvars: int) -> dict[int, int]:
    """The key of each variable u_{j+1} of degree 1, mapped to j."""
    return {variable_key(nvars, j): j for j in range(nvars)}


def _slot_maxima(keys: Iterable[int], nvars: int) -> list[int]:
    """Per variable, the largest exponent among the keys."""
    return list(map(max, zip(*(_unpack(k, nvars) for k in keys))))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms", "_den", "_hash", "_text")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        p = sum_terms(nvars, _monomials(items, nvars))
        _init(self, nvars, p._terms, p._den)

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
        return cls._raw(nvars, {variable_key(nvars, index): 1})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        m, den = self.nvars, self._den
        return ((_unpack(k, m), Fraction(v, den)) for k, v in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        t = self._terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(self._terms.get(0, 0), self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(_degree, self._terms))

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
        return (_ONE, self) if c == 1 else (c, self * (1 / c))

    def homogeneous_parts(self) -> dict[int, "Poly"]:
        """The nonzero homogeneous part of each degree, from one pass."""
        parts: dict[int, dict[int, int]] = {}
        for k, v in self._terms.items():
            parts.setdefault(_degree(k), {})[k] = v
        return {d: Poly._raw(self.nvars, *_reduced(t, self._den)) for d, t in parts.items()}

    def used_variables(self) -> set[int]:
        mask = reduce(or_, self._terms, 0)
        return {j for j, e in enumerate(_unpack(mask, self.nvars)) if e}

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        return self._sum(1, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {k: -v for k, v in self._terms.items()}, self._den)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self._sum(1, other, -1)

    def __rsub__(self, other: Scalar) -> "Poly":
        return self._sum(-1, other, 1)

    def _sum(self, sign: int, other: "Poly | Scalar", other_sign: int) -> "Poly":
        """sign * self + other_sign * other, for a Poly or a scalar other."""
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return sum_terms(self.nvars, (), ((sign, self), (other_sign, other)))
        c = Fraction(other)
        return sum_terms(self.nvars, ((other_sign * c.numerator, c.denominator, 0),), ((sign, self),))

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            terms = {k: v * other.numerator for k, v in self._terms.items()}
            return Poly._normal(self.nvars, terms, self._den * other.denominator)
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

    def gradient(self) -> dict[int, list[int]]:
        """Per monomial of grad p, by packed key, the integer numerators of
        dp/du1, ..., dp/dum over p's denominator, from one pass over the
        terms; each entry comes from one term, so no row is zero."""
        m = self.nvars
        slots = [(j, _SLOT * (m - 1 - j)) for j in range(m)]
        out: dict[int, list[int]] = {}
        for k, v in self._terms.items():
            for j, s in slots:
                e = (k >> s) & _MASK
                if e:
                    key = k - (1 << s)
                    row = out.get(key)
                    if row is None:
                        row = out[key] = [0] * m
                    row[j] = v * e
        return out

    def _linear_terms(self) -> list[tuple[int, int]] | None:
        """(j, numerator over den) for each term in u_{j+1} alone, when p has
        total degree at most 1; None otherwise, at once when p has more
        terms than such a polynomial can."""
        if len(self._terms) > self.nvars + 1:
            return None
        slots = _linear_keys(self.nvars)
        out = []
        for k, v in self._terms.items():
            if k:
                j = slots.get(k)
                if j is None:
                    return None
                out.append((j, v))
        return out

    def shift(self, offsets: Sequence[Scalar], den: int = 1) -> "Poly":
        """Return p(u1 - t1, ..., um - tm) for t = offsets / den, offsets ints
        or Fractions and den a positive int, expanded exactly: p - <grad p, t>
        when p has degree at most 1, so only the constant term moves, and
        otherwise one pass of binomial rows per moved variable."""
        m = self.nvars
        if len(offsets) != m:
            raise ValueError("offset length mismatch")
        linear = self._linear_terms()
        if linear is not None:  # the drop is a constant: one monomial at key 0
            scale = lcm(*(offsets[j].denominator for j, _ in linear))
            num = sum(v * offsets[j].numerator * (scale // offsets[j].denominator) for j, v in linear)
            return sum_terms(m, ((-num, self._den * scale * den, 0),), ((1, self),)) if num else self
        terms, tden = self._terms, self._den
        for j, t in enumerate(offsets):
            if not t:
                continue
            s = _SLOT * (m - 1 - j)
            top = max([(k >> s) & _MASK for k in terms], default=0)
            if not top:
                continue
            # with t = -a/b in lowest terms: b^top * (u - t)^e = sum_k C(e,k) a^(e-k) b^(top-e+k) u^k
            g = gcd(t.numerator, t.denominator * den)
            a, b = -t.numerator // g, t.denominator * den // g
            pb = [b**i for i in range(top + 1)]
            rows = {}
            out = {}
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
            terms, tden = out, tden * pb[top]
        if terms is self._terms:
            return self
        return Poly._normal(m, terms, tden)

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute images[j] for u_{j+1}; images live in a common ring."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        target = images[0].nvars
        if any(q.nvars != target for q in images):
            raise ValueError("images disagree on variable count")
        powers = [[Poly.one(target)] for _ in images]  # powers[j][k] = images[j]**k
        terms = []
        for exp, c in self.items():
            term = Poly.constant(target, c)
            for j, k in enumerate(exp):
                if k:
                    row = powers[j]
                    while len(row) <= k:
                        row.append(row[-1] * images[j])
                    term = term * row[k]
            terms.append((1, term))
        return sum_terms(target, (), terms)

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
    """Canonical text form: terms in descending lex order, explicit '*'.
    The text is kept on p, so each polynomial is formatted once."""
    text = getattr(p, "_text", None)  # unset until the first call
    if text is None:
        text = _format(p)
        object.__setattr__(p, "_text", text)
    return text


def _format(p: Poly) -> str:
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


def sum_terms(
    nvars: int,
    monomials: Iterable[tuple[int, int, int]],
    polys: Iterable[tuple[int, Poly]] = (),
) -> Poly:
    """The sum of signed monomials and polynomials, normalised once.

    polys are (sign, Poly) pairs with sign 1 or -1.  A monomial is
    (numerator, positive denominator, key), with a key made from
    variable_key whose exponents stay below EXPONENT_LIMIT.  Numerators
    are gathered per denominator, monomials first, so that the parser's
    split prefix of a text sums in the order its descent would; the
    first polynomial over a new denominator is copied whole, and then
    all are brought over the lcm of the denominators."""
    parts: dict[int, dict[int, int]] = {}
    for num, den, key in monomials:
        part = parts.get(den)
        if part is None:
            part = parts[den] = {}
        if num:  # a zero term adds no key, as a zero polynomial adds none
            part[key] = part.get(key, 0) + num
    for sign, p in polys:
        part = parts.get(p._den)
        if part is None:
            parts[p._den] = dict(p._terms) if sign > 0 else (-p)._terms
            continue
        get = part.get
        for k, v in p._terms.items():
            part[k] = get(k, 0) + sign * v
    den = lcm(*parts)
    groups = iter(parts.items())
    d, terms = next(groups, (1, {}))
    if d != den:
        terms = {k: v * (den // d) for k, v in terms.items()}
    get = terms.get
    for d, part in groups:
        scale = den // d
        for k, v in part.items():
            terms[k] = get(k, 0) + v * scale
    return Poly._normal(nvars, terms, den)


def _monomials(items: Iterable[tuple[Exponent, Scalar]], nvars: int) -> Iterator[tuple[int, int, int]]:
    """sum_terms' monomials, each exponent checked before its coefficient."""
    for exp, c in items:
        key = _pack(tuple(exp), nvars)
        c = Fraction(c)
        yield c.numerator, c.denominator, key


def numerators_on(p: Poly, index: Mapping[int, int]) -> tuple[list[int], int]:
    """p's coefficients on the rows that index gives monomials by packed
    key, as integer numerators over p's denominator; monomials without a
    row are left out."""
    out = [0] * len(index)
    for k, num in p._terms.items():
        row = index.get(k)
        if row is not None:
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


def merge_factors(factors: Iterable[tuple[_Key, int]]) -> dict[_Key, int]:
    """The multiset of (factor, multiplicity) pairs: multiplicities of a
    repeated factor, or of a repeated key that stands for one, are summed,
    and factors keep their first-seen order."""
    merged: dict[_Key, int] = {}
    for q, mult in factors:
        merged[q] = merged.get(q, 0) + mult
    return merged


@dataclass(frozen=True)
class FactoredPoly:
    """unit * product of monic factors with positive multiplicities."""

    nvars: int
    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def __post_init__(self):
        if not self.unit:
            raise ValueError("unit must be nonzero")
        seen = set()
        for q, mult in self.factors:
            if q.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if not q.is_monic or q.is_constant:
                raise ValueError("factors must be monic and nonconstant")
            if q in seen:
                raise ValueError("factors must be pairwise distinct")
            seen.add(q)

    # internal fast path: caller guarantees monic, nonconstant, distinct factors
    @classmethod
    def _raw(cls, nvars: int, factors: tuple[tuple[Poly, int], ...], unit: Fraction = _ONE) -> "FactoredPoly":
        f = object.__new__(cls)
        f.__dict__.update(nvars=nvars, unit=unit, factors=factors)
        return f

    @classmethod
    def from_factors(cls, nvars, factors, unit=_ONE) -> "FactoredPoly":
        return cls(nvars, Fraction(unit), tuple((q, int(m)) for q, m in factors))

    @property
    def is_one(self) -> bool:
        return self.unit == 1 and not self.factors

    def expand(self) -> Poly:
        acc = None
        for q, mult in self.factors:
            if mult > 1:
                q = q**mult
            acc = q if acc is None else acc * q
        if acc is None:
            return Poly.constant(self.nvars, self.unit)
        return acc if self.unit == 1 else acc * self.unit
