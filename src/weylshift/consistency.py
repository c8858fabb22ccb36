"""Checkers for the shift-system consistency equations.

A tuple (p_1, ..., p_n) is checked against a ShiftSystem either in the
symmetric form (binary + ternary product identities) or in the
non-symmetric form; applying the half-step of each direction to its own
entry translates between the two.  Every check runs one engine on entries
given as a unit and factors: an expanded entry is its own single factor,
and the non-symmetric form is the symmetric one on the symmetrized tuple,
with each witness shifted back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence

from .poly import Poly, merge_factors
from .shifts import ShiftSystem, half_shift


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


def _halves(sys: ShiftSystem) -> list[tuple]:
    return [tuple(a / 2 for a in sys.column(i)) for i in range(sys.nshifts)]


class _Entry(NamedTuple):
    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]


def _entries(sol: SolutionTuple) -> list[_Entry]:
    """Each expanded entry as its own single factor, or as its value when
    it is constant."""
    return [
        _Entry(p.constant_value(), ()) if p.is_constant else _Entry(Fraction(1), ((p, 1),))
        for p in sol.polys
    ]


# An identity is (relation, indices, lhs, rhs); a side is a list of
# (entry, shift vector) pairs and stands for the product of those entries
# shifted by those vectors.


def _binary(sys: ShiftSystem, entries):
    """Pairwise identity: for i != j the product of the two entries agrees
    after shifting each by plus or minus half the other's direction."""
    halves = _halves(sys)
    n = sys.nshifts
    for i in range(n):
        for j in range(i + 1, n):
            hi, hj = halves[i], halves[j]
            yield "binary", (i, j), [(i, hj), (j, hi)], [(i, _negated(hj)), (j, _negated(hi))]


def _ternary(sys: ShiftSystem, entries):
    """Triple identity on p_k over the half-sums of two other directions
    i < j, grouped by k."""
    halves = _halves(sys)
    n = sys.nshifts
    for k in range(n):
        if not entries[k].factors:  # a constant entry: both sides are its square
            continue
        for i in range(n):
            for j in range(i + 1, n):
                if k in (i, j):
                    continue
                plus = tuple(a + b for a, b in zip(halves[i], halves[j]))
                minus = tuple(a - b for a, b in zip(halves[i], halves[j]))
                lhs = [(k, plus), (k, _negated(plus))]
                yield "ternary", (i, j, k), lhs, [(k, minus), (k, _negated(minus))]


def _decide(sys: ShiftSystem, entries: Sequence, *kinds) -> list[CheckFailure]:
    """The failing identities of each kind, in report order.

    Each entry needs `unit` and `factors`, pairs of a nonconstant polynomial
    and a positive multiplicity whose product times the nonzero unit is the
    entry.  Equal multisets of shifted factors on the two sides prove an
    identity; factors need not be irreducible, so otherwise the witness,
    unit times the product of the shifted factors on the left minus the
    same on the right, decides it.
    """
    shifted: dict[tuple, list[tuple[Poly, int]]] = {}

    def moved(side) -> list[tuple[Poly, int]]:
        out = []
        for k, vec in side:
            got = shifted.get((k, vec))
            if got is None:
                got = shifted[k, vec] = [(q.shift(vec), m) for q, m in entries[k].factors]
            out += got
        return out

    def product(side, factors) -> Poly:
        acc = None
        for q, m in factors:
            if m > 1:
                q = q**m
            acc = q if acc is None else acc * q
        unit = prod(entries[k].unit for k, _ in side)
        if acc is None:
            return Poly.constant(sys.nvars, unit)
        return acc if unit == 1 else acc * unit

    failures = []
    for kind in kinds:
        for relation, indices, lhs, rhs in kind(sys, entries):
            left, right = moved(lhs), moved(rhs)
            if merge_factors(left) == merge_factors(right):
                continue
            diff = product(lhs, left) - product(rhs, right)
            if not diff.is_zero:
                failures.append(CheckFailure(relation, indices, diff))
    return failures


def check_binary(sol: SolutionTuple) -> CheckReport:
    """The binary identity of every pair of directions."""
    return CheckReport(tuple(_decide(sol.sys, _entries(sol), _binary)))


def check_ternary(sol: SolutionTuple) -> CheckReport:
    """The ternary identity of every triple; vacuously true when the system
    has fewer than three directions."""
    return CheckReport(tuple(_decide(sol.sys, _entries(sol), _ternary)))


def check_factored(sys: ShiftSystem, entries: Sequence) -> CheckReport:
    """The binary and then the ternary identities of a factored tuple, each
    entry read through its `unit` and `factors`; the same report as
    check_binary followed by check_ternary on the expanded tuple."""
    return CheckReport(tuple(_decide(sys, entries, _binary, _ternary)))


def check_nonsymmetric(sol: SolutionTuple) -> CheckReport:
    """The non-symmetric form of the equations: the symmetric identities of
    the symmetrized tuple, each witness shifted back.  Binary (i, j) is
    moved by (a_i + a_j)/2 and ternary (i, j, k) by (a_i + a_j)/2 - a_k/2."""
    sys = sol.sys
    halves = _halves(sys)
    failures = []
    for f in _decide(sys, _entries(symmetrize(sol)), _binary, _ternary):
        i, j = f.indices[:2]
        vec = [a + b for a, b in zip(halves[i], halves[j])]
        if f.relation == "ternary":
            vec = [v - c for v, c in zip(vec, halves[f.indices[2]])]
        failures.append(CheckFailure("nonsym-" + f.relation, f.indices, f.witness.shift(vec)))
    return CheckReport(tuple(failures))


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
