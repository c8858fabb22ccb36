"""Checkers for the shift-system consistency equations.

A tuple (p_1, ..., p_n) is checked against a ShiftSystem either in the
symmetric form (binary + ternary product identities) or in the
non-symmetric form; applying the half-step of each direction to its own
entry translates between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    @property
    def is_monic(self) -> bool:
        return all(p.is_monic for p in self.polys)


def _pairs(n: int):
    return ((i, j) for i in range(n) for j in range(i + 1, n))


def _triples(n: int):
    """(i, j, k) with i < j and k outside {i, j}, grouped by k."""
    return (
        (i, j, k)
        for k in range(n)
        for i in range(n)
        if i != k
        for j in range(i + 1, n)
        if j != k
    )


def _ternary_vectors(sys: ShiftSystem, i: int, j: int):
    plus = tuple((a + b) / 2 for a, b in zip(sys.column(i), sys.column(j)))
    minus = tuple((a - b) / 2 for a, b in zip(sys.column(i), sys.column(j)))
    return plus, minus


def _negated(vec):
    return tuple(-v for v in vec)


def _binary_diff(sys: ShiftSystem, i: int, j: int, pi: Poly, pj: Poly) -> Poly:
    """lhs - rhs of the binary identity (i, j) on the expanded entries."""
    lhs = half_shift(sys, j, +1, pi) * half_shift(sys, i, +1, pj)
    rhs = half_shift(sys, j, -1, pi) * half_shift(sys, i, -1, pj)
    return lhs - rhs


def _ternary_diff(sys: ShiftSystem, i: int, j: int, pk: Poly) -> Poly:
    """lhs - rhs of the ternary identity (i, j, k) on the expanded entry p_k."""
    plus, minus = _ternary_vectors(sys, i, j)
    lhs = pk.shift(plus) * pk.shift(_negated(plus))
    rhs = pk.shift(minus) * pk.shift(_negated(minus))
    return lhs - rhs


def check_binary(sol: SolutionTuple) -> CheckReport:
    """Pairwise identity: for i != j the product of the two entries agrees
    after shifting each by plus or minus half the other's direction."""
    sys, p = sol.sys, sol.polys
    failures = []
    for i, j in _pairs(sys.nshifts):
        diff = _binary_diff(sys, i, j, p[i], p[j])
        if not diff.is_zero:
            failures.append(CheckFailure("binary", (i, j), diff))
    return CheckReport(tuple(failures))


def check_ternary(sol: SolutionTuple) -> CheckReport:
    """Triple identity on p_k over the half-sums of two other directions.

    Vacuously true when the system has fewer than three directions.
    """
    sys, p = sol.sys, sol.polys
    failures = []
    for i, j, k in _triples(sys.nshifts):
        if p[k].is_constant:  # both sides are p_k squared
            continue
        diff = _ternary_diff(sys, i, j, p[k])
        if not diff.is_zero:
            failures.append(CheckFailure("ternary", (i, j, k), diff))
    return CheckReport(tuple(failures))


def check_factored(sys: ShiftSystem, entries: Sequence) -> CheckReport:
    """The binary and then the ternary identities of a factored tuple,
    decided on factors where they can be; the same report as
    check_binary followed by check_ternary on the expanded tuple.

    Each entry needs `factors`, pairs of a nonconstant polynomial and a
    positive multiplicity whose product times a nonzero unit is the entry,
    and `expand()`, which returns the entry.  Both sides of an identity
    carry the same units, so equal multisets of shifted factors prove it
    exactly.  Factors need not be irreducible, so a mismatch is confirmed
    by expanding that one identity, which also gives the witness.
    """
    halves = [tuple(a / 2 for a in sys.column(i)) for i in range(sys.nshifts)]
    shifted: dict[tuple, list[tuple[Poly, int]]] = {}
    expanded: dict[int, Poly] = {}

    def moved(k: int, vec: tuple) -> list[tuple[Poly, int]]:
        key = (k, vec)
        got = shifted.get(key)
        if got is None:
            got = shifted[key] = [(q.shift(vec), m) for q, m in entries[k].factors]
        return got

    def entry(k: int) -> Poly:
        if k not in expanded:
            expanded[k] = entries[k].expand()
        return expanded[k]

    failures = []
    for i, j in _pairs(sys.nshifts):
        hi, hj = halves[i], halves[j]
        lhs = moved(i, hj) + moved(j, hi)
        rhs = moved(i, _negated(hj)) + moved(j, _negated(hi))
        if merge_factors(lhs) == merge_factors(rhs):
            continue
        diff = _binary_diff(sys, i, j, entry(i), entry(j))
        if not diff.is_zero:
            failures.append(CheckFailure("binary", (i, j), diff))
    for i, j, k in _triples(sys.nshifts):
        if not entries[k].factors:  # a constant entry: both sides are its square
            continue
        plus, minus = _ternary_vectors(sys, i, j)
        lhs = moved(k, plus) + moved(k, _negated(plus))
        rhs = moved(k, minus) + moved(k, _negated(minus))
        if merge_factors(lhs) == merge_factors(rhs):
            continue
        diff = _ternary_diff(sys, i, j, entry(k))
        if not diff.is_zero:
            failures.append(CheckFailure("ternary", (i, j, k), diff))
    return CheckReport(tuple(failures))


def check_nonsymmetric(sol: SolutionTuple) -> CheckReport:
    """The non-symmetric form of the equations, checked by direct expansion."""
    sys, p = sol.sys, sol.polys
    failures = []
    for i in range(sys.nshifts):
        for j in range(i + 1, sys.nshifts):
            both = [a + b for a, b in zip(sys.column(i), sys.column(j))]
            lhs = (p[i] * p[j]).shift(both)
            rhs = p[i].shift(sys.column(i)) * p[j].shift(sys.column(j))
            diff = lhs - rhs
            if not diff.is_zero:
                failures.append(CheckFailure("nonsym-binary", (i, j), diff))
    for j in range(sys.nshifts):
        if p[j].is_constant:  # both sides are p_j squared
            continue
        for i in range(sys.nshifts):
            if i == j:
                continue
            for k in range(i + 1, sys.nshifts):
                if k == j:
                    continue
                both = [a + b for a, b in zip(sys.column(i), sys.column(k))]
                lhs = p[j].shift(both) * p[j]
                rhs = p[j].shift(sys.column(i)) * p[j].shift(sys.column(k))
                diff = lhs - rhs
                if not diff.is_zero:
                    failures.append(CheckFailure("nonsym-ternary", (i, k, j), diff))
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
