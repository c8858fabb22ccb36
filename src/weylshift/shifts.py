"""Shift systems: a family of commuting additive shift automorphisms.

A system is an m x n rational matrix alpha.  Column i defines the
automorphism sending each variable u_j to u_j - alpha[j][i]; applying it
to a polynomial p yields p shifted by the column vector, and the integer
point k of Z^n acts by the shift `combo(k)`.  Stabilizer lattices and orbit
membership queries live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlinalg import IntegerSystem, IntVec, integer_kernel, lattice_contains
from .poly import Poly, Scalar, coefficient_rows, monomial_index, numerators_on


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
                c = Fraction(c)
                for j, row in enumerate(self.alpha):
                    vec[j] += c * row[i]
        return tuple(vec)


def half_shift(sys: ShiftSystem, i: int, sign: int, p: Poly) -> Poly:
    """Apply the half-step of direction i: p shifted by sign * column(i)/2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return p.shift([sign * a / 2 for a in sys.column(i)])


def is_fixed_by_shift(q: Poly, beta: Sequence[Scalar]) -> bool:
    """Gradient criterion: q is invariant under every multiple of the shift
    beta exactly when <grad q, beta> is the zero polynomial."""
    return q.directional(beta).is_zero


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


def stabilizer_lattice(sys: ShiftSystem, q: Poly, indices: Sequence[int]) -> StabilizerLattice:
    """Lattice of integer vectors k (over the given directions) whose
    combined shift fixes q, computed via the gradient criterion."""
    indices = list(indices)
    matrix = coefficient_rows([q.directional(sys.column(i)) for i in indices])
    basis = integer_kernel(matrix, len(indices))
    return StabilizerLattice(len(indices), basis)


# One step of an orbit query, for a top form over some free directions:
# the monomial rows of the degree d-1 conditions, their integer system, and
# the directions still free after the step.
_Step = tuple[dict[int, int], IntegerSystem, tuple[IntVec, ...]]


def same_orbit(
    sys: ShiftSystem,
    q: Poly,
    q2: Poly,
    indices: Sequence[int],
    memo: dict[tuple, _Step] | None = None,
) -> IntVec | None:
    """Find integer k over the given directions with q shifted by k equal to q2.

    Returns one such k, or None when there is none.  The solutions form a
    coset of the stabilizer lattice, found one degree at a time: matching
    the degree d-1 parts is an affine integer condition on k, and every
    direction left free by it fixes the top form of degree d, so the common
    top form is dropped from both sides and the free directions are tried
    on the rest, one degree lower.

    The condition's matrix depends only on the top form, the index set and
    the free directions, so it is factored once into an `IntegerSystem`
    and each query back-substitutes its own right-hand side.  `memo` keeps
    those factored steps for the queries of one call on one shift system:
    a caller that asks many queries about the same anchors, such as
    `decompose`, passes the same dict to each of them.  Without it the
    steps live for this query only.
    """
    indices = tuple(indices)
    if q.is_zero or q2.is_zero:
        raise ValueError("orbit queries need nonzero polynomials")
    memo = {} if memo is None else memo
    s = len(indices)
    k = (0,) * s
    free = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
    while q != q2:
        d = q.degree()
        if q2.degree() != d:
            return None
        top = q.homogeneous_part(d)
        if q2.homogeneous_part(d) != top:
            return None
        key = (top, indices, free)
        step = memo.get(key)
        if step is None:
            step = memo[key] = _orbit_step(sys, top, indices, free)
        rows, system, next_free = step
        # shifting by sum_j t_j free[j] must match the degree d-1 parts:
        #   sum_j t_j <grad(top), shift of free[j]> = (d-1 part of q) - (d-1 part of q2)
        rhs = numerators_on(q.homogeneous_part(d - 1) - q2.homogeneous_part(d - 1), rows)
        t = None if rhs is None else system.solve(*rhs)
        if t is None:
            return None
        shift = _combine(t, free, s)
        k = tuple(a + b for a, b in zip(k, shift))
        q = q.shift(sys.combo(shift, indices)) - top
        q2 = q2 - top
        free = next_free
    return k


def _orbit_step(sys: ShiftSystem, top: Poly, indices: tuple[int, ...], free: tuple[IntVec, ...]) -> _Step:
    """The factored degree d-1 condition of `same_orbit` for a top form."""
    pairings = [top.directional(sys.combo(w, indices)) for w in free]
    system = IntegerSystem(coefficient_rows(pairings), len(free))
    return monomial_index(pairings), system, tuple(_combine(c, free, len(indices)) for c in system.kernel)


def _combine(coeffs: Sequence[int], rows: Sequence[IntVec], width: int) -> IntVec:
    """The integer combination sum_j coeffs[j] * rows[j]."""
    out = [0] * width
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


@dataclass(frozen=True)
class OrbitId:
    """An orbit anchor: monic generator, the directions acting on it, and
    the stabilizer of the generator over those directions."""

    generator: Poly
    index_set: tuple[int, ...]
    stabilizer: StabilizerLattice
