"""Shift systems: a family of commuting additive shift automorphisms.

A system is an m x n rational matrix alpha.  Column i defines the
automorphism sending each variable u_j to u_j - alpha[j][i]; applying it
to a polynomial p yields p shifted by the column vector.  The Z^n action,
stabilizer lattices, and orbit membership queries all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .intlinalg import IntVec, divisors, integer_kernel, lattice_contains, solve_integer
from .poly import Poly, Scalar, coefficient_rows


@dataclass(frozen=True)
class ShiftSystem:
    """m variables, n shift directions; alpha has m rows and n columns."""

    nvars: int
    nshifts: int
    alpha: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.nvars < 1 or self.nshifts < 1:
            raise ValueError("need at least one variable and one shift")
        if len(self.alpha) != self.nvars or any(len(r) != self.nshifts for r in self.alpha):
            raise ValueError("alpha must be nvars x nshifts")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "ShiftSystem":
        alpha = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not alpha:
            raise ValueError("empty matrix")
        return cls(len(alpha), len(alpha[0]), alpha)

    def column(self, i: int) -> tuple[Fraction, ...]:
        """Shift vector of direction i (0-based)."""
        return tuple(self.alpha[j][i] for j in range(self.nvars))

    def combo(self, coeffs: Sequence[Scalar], indices: Sequence[int] | None = None) -> tuple[Fraction, ...]:
        """Linear combination sum_k coeffs[k] * column(indices[k])."""
        idx = range(self.nshifts) if indices is None else indices
        vec = [Fraction(0)] * self.nvars
        for c, i in zip(coeffs, idx, strict=True):
            if c:
                col = self.column(i)
                for j in range(self.nvars):
                    vec[j] += Fraction(c) * col[j]
        return tuple(vec)


def half_shift(sys: ShiftSystem, i: int, sign: int, p: Poly) -> Poly:
    """Apply the half-step of direction i: p shifted by sign * column(i)/2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return p.shift([sign * a / 2 for a in sys.column(i)])


def zn_action(sys: ShiftSystem, k: Sequence[int], p: Poly) -> Poly:
    """Apply the integer point k of Z^n: shift p by sum_i k_i * column(i)."""
    return p.shift(sys.combo(k))


def is_fixed_by_shift(q: Poly, beta: Sequence[Scalar]) -> bool:
    """Gradient criterion: q is invariant under every multiple of the shift
    beta exactly when <grad q, beta> is the zero polynomial."""
    if len(beta) != q.nvars:
        raise ValueError("direction length mismatch")
    acc = Poly.zero(q.nvars)
    for j, b in enumerate(beta):
        b = Fraction(b)
        if b:
            acc = acc + q.partial(j) * b
    return acc.is_zero


@dataclass(frozen=True)
class StabilizerLattice:
    """Saturated integer lattice in Z^ambient_rank, basis in HNF."""

    ambient_rank: int
    basis: tuple[IntVec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        if not self.basis:
            return not any(vec)
        return lattice_contains(self.basis, vec)

    def reduce(self, vec: Sequence[int]) -> IntVec:
        """Canonical coset representative of vec modulo the lattice."""
        v = list(map(int, vec))
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            q = v[p] // row[p]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)


def _pairing_polys(sys: ShiftSystem, q: Poly, indices: Sequence[int]) -> list[Poly]:
    grads = q.gradient()
    out = []
    for i in indices:
        col = sys.column(i)
        acc = Poly.zero(q.nvars)
        for j, b in enumerate(col):
            if b:
                acc = acc + grads[j] * b
        out.append(acc)
    return out


def stabilizer_lattice(sys: ShiftSystem, q: Poly, indices: Sequence[int]) -> StabilizerLattice:
    """Lattice of integer vectors k (over the given directions) whose
    combined shift fixes q, computed via the gradient criterion."""
    indices = list(indices)
    matrix = coefficient_rows(_pairing_polys(sys, q, indices))
    basis = integer_kernel(matrix, len(indices))
    return StabilizerLattice(len(indices), basis)


class OrbitUndecided(Exception):
    """Raised when orbit membership cannot be settled within the search radius."""


def same_orbit(
    sys: ShiftSystem,
    q: Poly,
    q2: Poly,
    indices: Sequence[int],
    radius: int = 64,
) -> IntVec | None:
    """Find integer k over the given directions with q shifted by k equal to q2.

    Returns one such k, or None when membership is provably impossible.
    Raises OrbitUndecided when the degenerate fallback search exhausts its
    radius without a verdict.  Both polynomials are expected monic.
    """
    indices = list(indices)
    if q.is_zero or q2.is_zero:
        raise ValueError("orbit queries need nonzero polynomials")
    d = q.degree()
    if q2.degree() != d:
        return None
    top = q.homogeneous_part(d)
    if q2.homogeneous_part(d) != top:
        return None
    s = len(indices)
    if d == 0:
        return (0,) * s if q == q2 else None

    # Necessary linear condition on the degree d-1 coefficients:
    #   sum_i k_i <grad(top), column(i)> = (d-1 part of q) - (d-1 part of q2)
    pairings = _pairing_polys(sys, top, indices)
    target = q.homogeneous_part(d - 1) - q2.homogeneous_part(d - 1)
    rows = coefficient_rows(pairings + [target])
    matrix = [row[:-1] for row in rows]
    rhs = [row[-1] for row in rows]
    particular, kernel = solve_integer(matrix, rhs, s)
    if particular is None:
        return None

    stab = stabilizer_lattice(sys, q, indices)
    if kernel == stab.basis:
        # candidates form a single coset of the stabilizer: one check settles it
        if q.shift(sys.combo(particular, indices)) == q2:
            return particular
        return None

    # Degenerate: the top-degree condition does not pin the coset.  Walk the
    # solution set out to the radius, skipping stabilizer duplicates.
    return _fallback_search(sys, q, q2, indices, particular, kernel, stab, radius)


def _fallback_search(
    sys: ShiftSystem,
    q: Poly,
    q2: Poly,
    indices: Sequence[int],
    particular: IntVec,
    kernel: tuple[IntVec, ...],
    stab: StabilizerLattice,
    radius: int,
) -> IntVec | None:
    point = tuple(Fraction(7 + 3 * j, 2) for j in range(q.nvars))
    want = q2.evaluate(point)

    seen: set[IntVec] = set()
    dims = len(kernel)
    coeff_boxes: Iterable[tuple[int, ...]]
    if dims == 0:
        coeff_boxes = [()]
    else:
        coeff_boxes = itertools.product(range(-radius, radius + 1), repeat=dims)
    for coeffs in coeff_boxes:
        k = list(particular)
        for c, row in zip(coeffs, kernel):
            if c:
                k = [a + c * b for a, b in zip(k, row)]
        if any(abs(v) > radius for v in k):
            continue
        rep = stab.reduce(k)
        if rep in seen:
            continue
        seen.add(rep)
        vec = sys.combo(k, indices)
        # cheap screen: compare one exact evaluation before expanding the shift
        if q.evaluate([x - t for x, t in zip(point, vec)]) != want:
            continue
        if q.shift(vec) == q2:
            return tuple(k)
    raise OrbitUndecided(
        f"orbit membership unresolved within radius {radius} over directions {list(indices)}"
    )


@dataclass(frozen=True)
class OrbitId:
    """An orbit anchor: monic generator, the directions acting on it, and
    the stabilizer of the generator over those directions."""

    generator: Poly
    index_set: tuple[int, ...]
    stabilizer: StabilizerLattice

    @classmethod
    def build(cls, sys: ShiftSystem, generator: Poly, indices: Sequence[int]) -> "OrbitId":
        idx = tuple(sorted(indices))
        if not generator.is_monic:
            raise ValueError("orbit generator must be monic")
        return cls(generator, idx, stabilizer_lattice(sys, generator, idx))


def validate_generator(q: Poly) -> None:
    """Reject obviously reducible orbit generators.

    Catches nontrivial monomial content and univariate polynomials of
    degree at least 2 with a rational root.  Everything subtler is the
    caller's responsibility.
    """
    if q.is_zero or q.is_constant:
        raise ValueError("orbit generator must be nonconstant")
    content = q.content_exponent()
    if any(content):
        if not (len(q) == 1 and sum(q.leading_monomial()) == 1):
            raise ValueError("generator has a monomial factor, hence is reducible")
    used = q.used_variables()
    if len(used) == 1 and q.degree() >= 2:
        j = next(iter(used))
        if _univariate_rational_roots(q, j):
            raise ValueError("univariate generator has a rational root, hence is reducible")


def _univariate_rational_roots(q: Poly, j: int) -> list[Fraction]:
    """Rational roots of a polynomial using only variable j, with the
    candidates drawn from the rational root theorem."""
    coeffs: dict[int, Fraction] = {}
    for e, c in q.items():
        coeffs[e[j]] = c
    deg = max(coeffs)
    scale = lcm(*[c.denominator for c in coeffs.values()])
    ints = {k: int(c * scale) for k, c in coeffs.items()}
    lead = ints[deg]
    low = min(k for k in ints)
    # factor out u^low first; 0 is a root when low > 0
    roots: list[Fraction] = []
    const = ints.get(low, 0)
    for p in divisors(abs(const)):
        for qd in divisors(abs(lead)):
            for cand in (Fraction(p, qd), Fraction(-p, qd)):
                if cand in roots:
                    continue
                val = sum(Fraction(c) * cand ** (k - low) for k, c in ints.items())
                if val == 0:
                    roots.append(cand)
    if low > 0:
        roots.append(Fraction(0))
    return roots
