"""Checkers for the shift-system consistency equations.

A tuple (p_1, ..., p_n) is checked against a ShiftSystem either in the
symmetric form (binary + ternary product identities) or in the
non-symmetric form; applying the half-step of each direction to its own
entry translates between the two.  Every check runs one engine on
FactoredPoly entries, an expanded entry as its leading coefficient times
its monic self, and lists each form's identities on the tuple as given.
The engine compares the multisets of shifted factors on the two sides of
each identity, and expands only the identities where they differ.  A
shifted factor of degree 1, the only kind in the gl_n-type and linear
staircase solutions, is compared by its integer key from `shifts`, its
top form and its constant, so no Poly is built for it unless its
identity fails.  Which directions move an entry is read from each
factor's gradient, once per engine call (`shifts.moving_directions`).

An expanded tuple is checked in the fewest variables its entries depend
on.  Let V be the translations that fix every entry, and L the reduced
row echelon basis, with pivot columns J, of V's annihilator: the span of
the rows of each entry's `Poly.gradient`, one per monomial of grad p, so
V itself is never built.  Then u minus Lu placed on the columns J lies
in V, so each entry p(u) is P(Lu), where P is p with every variable
outside J set to 0.  Shifting p by t is shifting P by Lt and L is onto,
so an identity holds in u exactly when it holds in y = Lu.  The same
directions move each entry, since grad p is L^T grad P, and a witness
D(y) is D(Lu) in u.  L is found in integers: `intlinalg.integer_rref`
reads each distinct gradient direction, a row over its content, once,
and row i of L is its integer row i over that row's pivot.  The system
in y comes from integer dot products with the columns, and the Fraction
forms (Lu)_i are built only to carry a failing identity's witness back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import mul
from typing import Sequence

from .intlinalg import integer_rref, over_pivots
from .poly import EXPONENT_LIMIT, FactoredPoly, Poly, merge_factors, sum_terms, variable_key
from .shifts import ShiftSystem, half_shift, linear_form, linear_key, linear_poly, moving_directions


@dataclass(frozen=True)
class CheckFailure:
    relation: str
    indices: tuple[int, ...]
    witness: Poly | None
    one_based: bool = True  # entry indices display 1-based, grid coordinates as-is

    def describe(self) -> str:
        offset = 1 if self.one_based else 0
        where = ",".join(str(i + offset) for i in self.indices)
        tail = "" if self.witness is None else f": {self.witness}"
        return f"{self.relation} fails at ({where}){tail}"


@dataclass(frozen=True)
class CheckReport:
    failures: tuple[CheckFailure, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.passed:
            return "all checks passed"
        return "\n".join(f.describe() for f in self.failures)

    def merged(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.failures + other.failures)


@dataclass(frozen=True)
class SolutionTuple:
    sys: ShiftSystem
    polys: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.polys) != self.sys.nshifts:
            raise ValueError("need one polynomial per shift direction")
        if any(p.nvars != self.sys.nvars for p in self.polys):
            raise ValueError("variable count mismatch")
        if any(p.is_zero for p in self.polys):
            raise ValueError("entries must be nonzero")


def _negated(vec):
    return tuple(-v for v in vec)


def _entries(sol: SolutionTuple) -> list[FactoredPoly]:
    """Each expanded entry as its value when it is constant, and otherwise
    as its leading coefficient times its monic self, built unchecked."""
    out = []
    for p in sol.polys:
        if p.is_constant:
            out.append(FactoredPoly._raw(p.nvars, (), p.constant_value()))
        else:
            lead, monic = p.make_monic()
            out.append(FactoredPoly._raw(p.nvars, ((monic, 1),), lead))
    return out


# An identity is (relation, indices, lhs, rhs); a side is a list of
# (entry, shift vector) pairs and stands for the product of those entries
# shifted by those vectors.  A kind lists its identities from the
# half-columns and the moving set of each entry: the directions that move
# some factor of it.  Half-column i is the integer column i of the system
# over twice its denominator, and every shift vector is read over that; a
# whole column a_i is twice it.  The non-symmetric kinds skip what the
# symmetric ones skip, since a translate is moved by the same directions.


def _binary(halves, moving):
    """Pairwise identity: for i != j the product of the two entries agrees
    after shifting each by plus or minus half the other's direction."""
    for i, j in combinations(range(len(halves)), 2):
        if j in moving[i] or i in moving[j]:
            hi, hj = halves[i], halves[j]
            yield "binary", (i, j), [(i, hj), (j, hi)], [(i, _negated(hj)), (j, _negated(hi))]


def _ternary(halves, moving):
    """Triple identity on p_k over the half-sums of two other directions
    i < j, grouped by k."""
    for k, dirs in enumerate(moving):
        for i, j in combinations(sorted(dirs - {k}), 2):
            plus = tuple(a + b for a, b in zip(halves[i], halves[j]))
            minus = tuple(a - b for a, b in zip(halves[i], halves[j]))
            lhs = [(k, plus), (k, _negated(plus))]
            yield "ternary", (i, j, k), lhs, [(k, minus), (k, _negated(minus))]


def _nonsym_binary(halves, moving):
    """Non-symmetric binary (i, j): p_i(u-s) p_j(u-s) = p_i(u-a_i) p_j(u-a_j), s = a_i + a_j."""
    for _, (i, j), _, _ in _binary(halves, moving):
        ai, aj = (tuple(2 * a for a in halves[x]) for x in (i, j))
        s = tuple(a + b for a, b in zip(ai, aj))
        yield "nonsym-binary", (i, j), [(i, s), (j, s)], [(i, ai), (j, aj)]


def _nonsym_ternary(halves, moving):
    """Non-symmetric ternary (i, j, k): p_k(u-s) p_k(u) = p_k(u-a_i) p_k(u-a_j), s = a_i + a_j."""
    for _, (i, j, k), _, _ in _ternary(halves, moving):
        ai, aj = (tuple(2 * a for a in halves[x]) for x in (i, j))
        s = tuple(a + b for a, b in zip(ai, aj))
        yield "nonsym-ternary", (i, j, k), [(k, s), (k, (0,) * len(s))], [(k, ai), (k, aj)]


def _movable(forms) -> list[Poly]:
    """The factors of one entry whose moving sets make up the entry's: each
    factor past degree 1, and one factor of each degree-1 top form, since
    a translate is moved by the same directions."""
    return list({form[0] if form else q: q for q, _, form in forms}.values())


def _decide(sys: ShiftSystem, entries: Sequence[FactoredPoly], *kinds) -> list[CheckFailure]:
    """The failing identities of each kind, in report order.

    An identity that a zero directional derivative proves is not listed.
    Direction i moves entry k when <grad q, a_i> is not zero for some
    factor q of p_k (shifts.moving_directions); otherwise p_k is invariant
    under every multiple of a_i.
    - Binary (i, j) is skipped when j does not move p_i and i does not
      move p_j: both sides are then p_i * p_j.
    - Ternary (i, j, k) is skipped when i or j does not move p_k: if i
      does not, both sides are p_k(u + a_j/2) * p_k(u - a_j/2), and
      likewise for j.  A constant entry has no factors, so no direction
      moves it and both sides are its square.

    Equal multisets of shifted factors on the two sides prove a listed
    identity; factors need not be irreducible, so otherwise the witness,
    the expanded left side minus the expanded right side, decides it.  A
    side's unit is the product of its entries' units.

    Each factor is read once per entry.  A shifted factor of degree 1 is
    keyed by integers, not built (`shifts.linear_key`), and two keys are
    equal exactly when the shifted factors are.  Any other factor's key is
    the shifted Poly itself.  Only an identity whose key multisets differ
    builds one Poly per distinct degree-1 key of its sides
    (`shifts.linear_poly`) to expand them.
    """
    den = 2 * sys.den
    forms = [[(q, m, linear_form(q, den)) for q, m in e.factors] for e in entries]
    moving = [set(moving_directions(sys, _movable(f))) for f in forms]

    def keys(side) -> dict[Poly | tuple, int]:
        return merge_factors(
            (q.shift(vec, den) if form is None else linear_key(form, vec), m)
            for k, vec in side
            for q, m, form in forms[k]
        )

    def expand(side, keyed) -> Poly:
        polys = tuple((key if isinstance(key, Poly) else linear_poly(sys.nvars, key), m) for key, m in keyed.items())
        unit = prod(entries[k].unit for k, _ in side)
        # shifts of monic factors under distinct keys: monic, nonconstant and distinct
        return FactoredPoly._raw(sys.nvars, polys, unit).expand()

    failures = []
    for kind in kinds:
        for relation, indices, lhs, rhs in kind(sys.columns, moving):
            left, right = keys(lhs), keys(rhs)
            if left == right:
                continue
            diff = expand(lhs, left) - expand(rhs, right)
            if not diff.is_zero:
                failures.append(CheckFailure(relation, indices, diff))
    return failures


_EXPONENT = EXPONENT_LIMIT - 1


def _slots(m: int) -> list[int]:
    """Per variable, the shift s with exponent k >> s & _EXPONENT in key k."""
    return [variable_key(m, j).bit_length() - 1 for j in range(m)]


def linear_forms(rows: Sequence[Sequence[Fraction]]) -> tuple[Poly, ...]:
    """The linear form sum_j row[j] u_j of each row, in len(row) variables."""
    return tuple(
        sum_terms(len(row), [(a.numerator, a.denominator, variable_key(len(row), j)) for j, a in enumerate(row) if a])
        for row in rows
    )


def _fewest_variables(sol: SolutionTuple) -> tuple[SolutionTuple, list[int], list[list[int]]]:
    """sol in the coordinates y = Lu of the module docstring, with the pivot
    columns J and the rows of L as `integer_rref` keeps them: row i of L is
    integer row i over its pivot.  Each distinct gradient direction is read
    once.  sol itself and no rows when its entries depend on every variable
    or on none."""
    m = sol.sys.nvars

    def directions():
        """Each gradient row over its content, once."""
        seen = set()
        for p in sol.polys:
            for row in p.gradient().values():
                g = gcd(*row)
                key = tuple([x // g for x in row])
                if key not in seen:
                    seen.add(key)
                    yield key

    cols, rows = integer_rref(directions(), m)
    if not 0 < len(cols) < m:
        return sol, cols, []
    den = sol.sys.den
    alpha = tuple(
        tuple(Fraction(sum(map(mul, row, col)), row[j] * den) for col in sol.sys.columns) for j, row in zip(cols, rows)
    )
    slots, r = _slots(m), len(cols)
    outside = sum(_EXPONENT << s for j, s in enumerate(slots) if j not in cols)
    # the slots of a run of consecutive pivot columns all move right by one
    # distance: per distance, the mask of the slots it moves
    runs: dict[int, int] = {}
    for j, t in zip(cols, _slots(r)):
        runs[slots[j] - t] = runs.get(slots[j] - t, 0) | _EXPONENT << slots[j]

    def restricted(p: Poly) -> Poly:
        """P: the terms of p with no exponent outside cols, each slot moved."""
        kept = ((k, c) for k, c in p._terms.items() if not k & outside)
        return Poly._normal(r, {sum([(k & mask) >> d for d, mask in runs.items()]): c for k, c in kept}, p._den)

    return SolutionTuple(ShiftSystem(alpha), tuple(map(restricted, sol.polys))), cols, rows


def _check_expanded(sol: SolutionTuple, *kinds) -> CheckReport:
    """The failing identities of each kind on an expanded tuple, decided in
    its fewest variables.  The forms Lu, which carry each witness back to
    u, are built only when some identity fails."""
    sol, cols, rows = _fewest_variables(sol)
    found = _decide(sol.sys, _entries(sol), *kinds)
    if found and rows:
        forms = linear_forms(over_pivots(cols, rows))
        found = [CheckFailure(f.relation, f.indices, f.witness.compose(forms)) for f in found]
    return CheckReport(tuple(found))


def check_binary(sol: SolutionTuple) -> CheckReport:
    """The binary identity of every pair of directions."""
    return _check_expanded(sol, _binary)


def check_ternary(sol: SolutionTuple) -> CheckReport:
    """The ternary identity of every triple; vacuously true when the system
    has fewer than three directions."""
    return _check_expanded(sol, _ternary)


def check_symmetric(sol: SolutionTuple) -> CheckReport:
    """The binary and then the ternary identities, from one engine call;
    the same report as check_binary followed by check_ternary."""
    return _check_expanded(sol, _binary, _ternary)


def check_factored(sys: ShiftSystem, entries: Sequence[FactoredPoly]) -> CheckReport:
    """The binary and then the ternary identities of a factored tuple; the
    same report as check_symmetric on the expanded tuple."""
    return CheckReport(tuple(_decide(sys, entries, _binary, _ternary)))


def check_nonsymmetric(sol: SolutionTuple) -> CheckReport:
    """The binary and then the ternary identities of the non-symmetric form,
    on the tuple as given."""
    return _check_expanded(sol, _nonsym_binary, _nonsym_ternary)


def symmetrize(sol: SolutionTuple) -> SolutionTuple:
    """Shift entry i by half its own direction; takes the non-symmetric form
    of the equations to the symmetric one."""
    return SolutionTuple(
        sol.sys,
        tuple(half_shift(sol.sys, i, +1, p) for i, p in enumerate(sol.polys)),
    )


def unsymmetrize(sol: SolutionTuple) -> SolutionTuple:
    return SolutionTuple(
        sol.sys,
        tuple(half_shift(sol.sys, i, -1, p) for i, p in enumerate(sol.polys)),
    )
