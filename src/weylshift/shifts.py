"""Shift systems: a family of commuting additive shift automorphisms.

A system is an m x n rational matrix alpha.  Column i defines the
automorphism sending each variable u_j to u_j - alpha[j][i]; applying it
to a polynomial p yields p shifted by the column vector, and the integer
point k of Z^n acts by the shift `vector(k, range(n))` over den.  The
work here builds shift vectors in integers, over the system's common
denominator (twice it for half-steps), and hands them to `Poly.shift`
with that denominator.  The directions that move a polynomial, the HNF
bases of stabilizer lattices and the normal forms that decide orbit
membership, with each form's stabilizer, live here; each pairs one
`Poly.gradient` per polynomial with every integer vector it asks about.
A polynomial of degree 1, every factor of the gl_n-type examples, has
one integer form, `linear_form`, for both the consistency engine and
`orbit_forms`: a shift changes only its constant, and `linear_key` keys
the shifted polynomial exactly.  Its normal form is found in integers
end to end: its one-row step is read in closed form, a pull-back by a
half-step and the reduction change only its constant, and `linear_poly`
builds one normal form per orbit in a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .intlinalg import IntegerSystem, IntVec, _echelon, hnf, integer_kernel
from .poly import Poly, Scalar, numerators_on, variable_key


@dataclass(frozen=True)
class ShiftSystem:
    """m variables, n shift directions; alpha has m rows and n columns of
    Fractions.  from_rows converts rows of ints or other rationals.

    Construction also sets den, the least positive common denominator of
    alpha, and columns, column i of alpha times den as ints; they follow
    from alpha and take no part in == or hash."""

    alpha: tuple[tuple[Fraction, ...], ...]
    den: int = field(init=False, repr=False, compare=False)
    columns: tuple[IntVec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.alpha or not self.alpha[0]:
            raise ValueError("need at least one variable and one shift")
        if any(len(r) != self.nshifts for r in self.alpha):
            raise ValueError("alpha rows must all have the same length")
        # lists, not generator expressions: with those, a long run of verify
        # calls held a few hundred KiB more resident memory (Python 3.11)
        den = lcm(*[a.denominator for row in self.alpha for a in row])
        object.__setattr__(self, "den", den)
        scaled = [[a.numerator * (den // a.denominator) for a in row] for row in self.alpha]
        object.__setattr__(self, "columns", tuple(zip(*scaled)))

    @property
    def nvars(self) -> int:
        return len(self.alpha)

    @property
    def nshifts(self) -> int:
        return len(self.alpha[0])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "ShiftSystem":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    def column(self, i: int) -> tuple[Fraction, ...]:
        """Shift vector of direction i (0-based)."""
        return tuple(row[i] for row in self.alpha)

    def vector(self, coeffs: Sequence[int], indices: Sequence[int]) -> IntVec:
        """den times the combination sum_k coeffs[k] * column(indices[k]),
        for integer coeffs: the shift by coeffs over indices, over den."""
        return _combine(coeffs, [self.columns[i] for i in indices], self.nvars)


def half_shift(sys: ShiftSystem, i: int, sign: int, p: Poly) -> Poly:
    """Apply the half-step of direction i: p shifted by sign * column(i)/2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return p.shift([sign * a for a in sys.columns[i]], 2 * sys.den)


def is_fixed_by_shift(q: Poly, beta: Sequence[Scalar]) -> bool:
    """Gradient criterion: q is invariant under every multiple of the shift
    beta exactly when <grad q, beta> is the zero polynomial, that is when
    beta pairs to zero with every row of q's gradient."""
    if len(beta) != q.nvars:
        raise ValueError("direction length mismatch")
    return not any(sum(map(mul, row, beta)) for row in q.gradient().values())


def moving_directions(sys: ShiftSystem, polys: Sequence[Poly], exclude: Sequence[int] = ()) -> list[int]:
    """The directions outside `exclude` whose column moves some q of
    `polys`, in increasing order; every other direction fixes them all.
    Scaling a column keeps what it fixes, so the integer ones are tested,
    each against the gradient rows of every q, taken once."""
    rows = [row for q in polys for row in q.gradient().values()]
    return [
        i
        for i, col in enumerate(sys.columns)
        if i not in exclude and any(sum(map(mul, row, col)) for row in rows)
    ]


def stabilizer_lattice(sys: ShiftSystem, q: Poly, indices: Sequence[int]) -> tuple[IntVec, ...]:
    """HNF basis of the lattice of integer vectors k (over the given
    directions) whose combined shift fixes q, computed via the gradient
    criterion.  The lattice is saturated and its HNF basis is unique, so
    the basis identifies it and its length is its rank.  The integer
    columns have the same kernel as alpha's."""
    indices = list(indices)
    _, matrix = _pairings(q, [sys.columns[i] for i in indices], 1)
    return integer_kernel(matrix, len(indices))


def _pairings(p: Poly, vectors: Sequence[IntVec], den: int) -> tuple[dict[int, int], list[list[Fraction]]]:
    """The row of each monomial, by packed key, at which some pairing
    <grad p, w / den> with the integer vectors w is nonzero, and the rows:
    each such monomial's pairings, one column per vector, in ascending lex
    order."""
    gradient, pden = p.gradient(), p._den * den
    rows = {}
    for key in sorted(gradient):
        pairs = [sum(map(mul, gradient[key], w)) for w in vectors]
        if any(pairs):
            rows[key] = [Fraction(a, pden) for a in pairs]
    return {key: r for r, key in enumerate(rows)}, list(rows.values())


# One step of `orbit_forms`: the monomial rows of the pairings, their
# integer system, and the directions still free after the step.
_Step = tuple[dict[int, int], IntegerSystem, tuple[IntVec, ...]]

# The top form of a degree-1 polynomial as integers: (j, numerator) for
# each term in u_{j+1}, by j, and the denominator, over their gcd.
_Top = tuple[tuple[tuple[int, int], ...], int]

# The one step of a degree-1 query, by its top form: the scale of the
# pairing row, its echelon pivot (0 when every direction fixes the top),
# the combination of directions giving the pivot, and the stabilizer.
_Line = tuple[int, int, IntVec, tuple[IntVec, ...]]


def orbit_forms(
    sys: ShiftSystem,
    polys: Sequence[Poly],
    indices: Sequence[int],
    pulls: Sequence[int | None] | None = None,
) -> list[tuple[Poly, IntVec, tuple[IntVec, ...]]]:
    """For each q, (r, k, stab) with q shifted by the integer k over the
    given directions equal to r, the same r for every q of one orbit, and
    stab a basis, not always in HNF, of q's stabilizer over them.  With
    pulls, each q whose pull i is not None stands for its pull-back by half
    of direction i, `half_shift(sys, i, -1, q)`, and the triples are that
    pull-back's.

    r is found one degree at a time from the top: shifting by sum_j t_j
    free[j] changes the degree d-1 part by -sum_j t_j <grad(top), shift of
    free[j]>, so that part is reduced modulo the integer span of those
    pairings.  Each step is factored once per call, keyed by the top form
    and the free directions; those it leaves free fix every degree down
    to d, so the next step works one degree lower, and the directions
    free after degree 1 fix q: they are stab.  q is split by degree once,
    and again at each step after one that shifted it.

    A q of degree 1 is worked in integers and shifts no Poly: its top
    form is its `linear_form`'s, and its constant, pulled back, its
    `linear_key`'s.  The pairings make one row, read once per top by
    `_line_step`, so t is one multiple of the pivot's combination, found
    as `IntegerSystem.reduce` finds it, and r is the top plus the residual
    constant.  r is built from that key by `linear_poly` once per orbit in
    the call, and every q of the orbit gets that same Poly.
    """
    indices = tuple(indices)
    s = len(indices)
    identity = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
    steps: dict[tuple, _Step] = {}
    lines: dict[_Top, _Line] = {}
    built: dict[tuple, Poly] = {}
    forms = []
    zero = Poly.zero(sys.nvars)
    # pulling back by half of direction i shifts by -column(i) over 2 * den
    backs = [tuple(-a for a in col) for col in sys.columns] if pulls else None
    still = (0,) * sys.nvars
    for q, pull in zip(polys, pulls or [None] * len(polys), strict=True):
        if q.is_zero:
            raise ValueError("orbit queries need nonzero polynomials")
        form = linear_form(q, 2 * sys.den)
        if form is not None:
            # c/d is q's constant, pulled back, and after the step the normal form's
            key = top, c, d = linear_key(form, still if pull is None else backs[pull])
            line = lines.get(top)
            if line is None:
                line = lines[top] = _line_step(sys, top, indices, identity)
            scale, pivot, combo, stab = line
            t = c * scale // (d * pivot) if pivot else 0
            if t:
                c, d = c * scale - t * d * pivot, d * scale
                h = gcd(c, d)
                key = (top, c // h, d // h)
            r = built.get(key)
            if r is None:
                r = built[key] = linear_poly(sys.nvars, key)
            forms.append((r, tuple(t * a for a in combo), stab))
            continue
        if pull is not None:
            q = half_shift(sys, pull, -1, q)
        k = (0,) * s
        free = identity
        parts = q.homogeneous_parts()
        for d in range(max(parts), 0, -1):
            parts = parts or q.homogeneous_parts()
            top = parts.get(d)
            if top is None:
                continue
            key = (top, free)
            step = steps.get(key)
            if step is None:
                step = steps[key] = _orbit_step(sys, top, indices, free)
            rows, system, next_free = step
            t, _ = system.reduce(*numerators_on(parts.get(d - 1, zero), rows))
            shift = _combine(t, free, s)
            if any(shift):
                k = tuple(a + b for a, b in zip(k, shift))
                q = q.shift(sys.vector(shift, indices), sys.den)
                parts = {}  # split again if a step is left
            free = next_free
            if not free:
                break
        forms.append((q, k, free))
    return forms


def same_orbit(sys: ShiftSystem, q: Poly, q2: Poly, indices: Sequence[int]) -> IntVec | None:
    """One integer k over the given directions with q shifted by k equal to
    q2, or None when their normal forms differ and there is none."""
    (r, k, _), (r2, k2, _) = orbit_forms(sys, (q, q2), indices)
    return tuple(a - b for a, b in zip(k, k2)) if r == r2 else None


def _orbit_step(sys: ShiftSystem, top: Poly, indices: tuple[int, ...], free: tuple[IntVec, ...]) -> _Step:
    """The factored degree d-1 pairings of `orbit_forms` for a top form."""
    rows, matrix = _pairings(top, [sys.vector(w, indices) for w in free], sys.den)
    system = IntegerSystem(matrix, len(free))
    return rows, system, tuple(_combine(c, free, len(indices)) for c in system.kernel)


def _line_step(sys: ShiftSystem, top: _Top, indices: tuple[int, ...], identity: tuple[IntVec, ...]) -> _Line:
    """The step of `orbit_forms` for a degree-1 top form, keyed by its
    integer numerators and denominator, with every direction free: the
    one-row system of `_orbit_step` in closed form.  The row pairs the
    top with each column over the denominators' product; its scale is
    that product over the gcd g of it and the pairings, and its integer
    entries are the pairings over g.  The echelon form of [entries | I]
    gives the pivot and its combination, and the HNF of its other rows
    the stabilizer, as `IntegerSystem` finds them."""
    terms, den = top
    pairs = [sum([v * sys.columns[i][j] for j, v in terms]) for i in indices]
    if not any(pairs):  # every direction fixes the top
        return 1, 0, (0,) * len(indices), identity
    g = gcd(den * sys.den, *pairs)
    (pivot, *combo), *rest = _echelon([[a // g, *e] for a, e in zip(pairs, identity)], 1)
    return den * sys.den // g, pivot, tuple(combo), hnf([row[1:] for row in rest])


def linear_form(q: Poly, den: int) -> tuple | None:
    """For q = (sum_j n_j u_j + c) / d of degree 1, its top form, the pairs
    (j, n_j), c * den and d * den: enough to key q shifted by any integer
    vector over den.  None for any other q."""
    terms = q._linear_terms()
    if not terms:
        return None
    d = q._den
    g = gcd(d, *[v for _, v in terms])
    return (tuple(sorted((j, v // g) for j, v in terms)), d // g), terms, q._terms.get(0, 0) * den, d * den


def linear_key(form: tuple, vec: Sequence[int]) -> tuple[_Top, int, int]:
    """The key of the q of a linear_form shifted by vec over its den: the top
    form and the new constant (c * den - <n, vec>) / (d * den), reduced.
    Equal keys are equal polynomials, however each q was scaled."""
    top, terms, c, d = form
    c -= sum([v * vec[j] for j, v in terms])
    g = gcd(c, d)
    return top, c // g, d // g


def linear_poly(nvars: int, key: tuple[_Top, int, int]) -> Poly:
    """The Poly of a degree-1 key: its top form plus its constant."""
    (terms, tden), c, d = key
    den = lcm(tden, d)
    out = {0: c * (den // d)}
    out.update((variable_key(nvars, j), v * (den // tden)) for j, v in terms)
    return Poly._normal(nvars, out, den)


def _combine(coeffs: Sequence[int], rows: Sequence[IntVec], width: int) -> IntVec:
    """The integer combination sum_j coeffs[j] * rows[j]."""
    out = [0] * width
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)

