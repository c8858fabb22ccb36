"""Checkers for the shift-system consistency equations.

A tuple (p_1, ..., p_n) is checked against a ShiftSystem either in the
symmetric form (binary + ternary product identities) or in the
non-symmetric form; applying the half-step of each direction to its own
entry translates between the two.  Every check runs one engine on
FactoredPoly entries: an expanded entry is its leading coefficient times
its monic self, and the non-symmetric form is the symmetric one on the
symmetrized tuple, with each witness shifted back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Sequence

from .poly import FactoredPoly, Poly, merge_factors
from .shifts import ShiftSystem, half_shift, moving_directions


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


def _entries(sol: SolutionTuple) -> list[FactoredPoly]:
    """Each expanded entry as its value when it is constant, and otherwise
    as its leading coefficient times its monic self."""
    out = []
    for p in sol.polys:
        if p.is_constant:
            out.append(FactoredPoly(p.nvars, p.constant_value(), ()))
        else:
            lead, monic = p.make_monic()
            out.append(FactoredPoly(p.nvars, lead, ((monic, 1),)))
    return out


# An identity is (relation, indices, lhs, rhs); a side is a list of
# (entry, shift vector) pairs and stands for the product of those entries
# shifted by those vectors.  A kind lists its identities from the
# half-columns and the moving set of each entry: the directions that move
# some factor of it.


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
    """
    halves = _halves(sys)
    moving = [set(moving_directions(sys, [q for q, _ in e.factors])) for e in entries]

    def moved(side) -> list[tuple[Poly, int]]:
        return [(q.shift(vec), m) for k, vec in side for q, m in entries[k].factors]

    def expand(side, merged: dict[Poly, int]) -> Poly:
        unit = prod(entries[k].unit for k, _ in side)
        return FactoredPoly(sys.nvars, unit, tuple(merged.items())).expand()

    failures = []
    for kind in kinds:
        for relation, indices, lhs, rhs in kind(halves, moving):
            left, right = merge_factors(moved(lhs)), merge_factors(moved(rhs))
            if left == right:
                continue
            diff = expand(lhs, left) - expand(rhs, right)
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


def check_symmetric(sol: SolutionTuple) -> CheckReport:
    """The binary and then the ternary identities, from one engine call;
    the same report as check_binary followed by check_ternary."""
    return check_factored(sol.sys, _entries(sol))


def check_factored(sys: ShiftSystem, entries: Sequence[FactoredPoly]) -> CheckReport:
    """The binary and then the ternary identities of a factored tuple; the
    same report as check_symmetric on the expanded tuple."""
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
