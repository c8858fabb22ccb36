"""Shift systems: a family of commuting additive shift automorphisms.

A system is an m x n rational matrix alpha.  Column i defines the
automorphism sending each variable u_j to u_j - alpha[j][i]; applying it
to a polynomial p yields p shifted by the column vector.  The Z^n action,
stabilizer lattices, and orbit membership queries all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlinalg import IntVec, integer_kernel, lattice_contains, solve_integer
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


def _directional(q: Poly, vec: Sequence[Scalar]) -> Poly:
    """The directional derivative <grad q, vec>."""
    acc = Poly.zero(q.nvars)
    for j, b in enumerate(vec):
        if b:
            acc = acc + q.partial(j) * Fraction(b)
    return acc


def is_fixed_by_shift(q: Poly, beta: Sequence[Scalar]) -> bool:
    """Gradient criterion: q is invariant under every multiple of the shift
    beta exactly when <grad q, beta> is the zero polynomial."""
    if len(beta) != q.nvars:
        raise ValueError("direction length mismatch")
    return _directional(q, beta).is_zero


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
    matrix = coefficient_rows([_directional(q, sys.column(i)) for i in indices])
    basis = integer_kernel(matrix, len(indices))
    return StabilizerLattice(len(indices), basis)


def same_orbit(sys: ShiftSystem, q: Poly, q2: Poly, indices: Sequence[int]) -> IntVec | None:
    """Find integer k over the given directions with q shifted by k equal to q2.

    Returns one such k, or None when there is none.  The solutions form a
    coset of the stabilizer lattice, found one degree at a time: matching
    the degree d-1 parts is an affine integer condition on k, and every
    direction left free by it fixes the top form of degree d, so the common
    top form is dropped from both sides and the free directions are tried
    on the rest, one degree lower.
    """
    indices = list(indices)
    if q.is_zero or q2.is_zero:
        raise ValueError("orbit queries need nonzero polynomials")
    s = len(indices)
    k = (0,) * s
    free = [tuple(int(a == b) for b in range(s)) for a in range(s)]
    while q != q2:
        d = q.degree()
        if q2.degree() != d:
            return None
        top = q.homogeneous_part(d)
        if q2.homogeneous_part(d) != top:
            return None
        # shifting by sum_j t_j free[j] must match the degree d-1 parts:
        #   sum_j t_j <grad(top), shift of free[j]> = (d-1 part of q) - (d-1 part of q2)
        pairings = [_directional(top, sys.combo(w, indices)) for w in free]
        target = q.homogeneous_part(d - 1) - q2.homogeneous_part(d - 1)
        rows = coefficient_rows(pairings + [target])
        t, kernel = solve_integer([row[:-1] for row in rows], [row[-1] for row in rows], len(free))
        if t is None:
            return None
        step = _combine(t, free, s)
        k = tuple(a + b for a, b in zip(k, step))
        q = q.shift(sys.combo(step, indices)) - top
        q2 = q2 - top
        free = [_combine(c, free, s) for c in kernel]
    return k


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

    @classmethod
    def build(cls, sys: ShiftSystem, generator: Poly, indices: Sequence[int]) -> "OrbitId":
        idx = tuple(sorted(indices))
        if not generator.is_monic:
            raise ValueError("orbit generator must be monic")
        return cls(generator, idx, stabilizer_lattice(sys, generator, idx))
