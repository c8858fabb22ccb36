"""Shift systems: a family of commuting additive shift automorphisms.

A system is an m x n rational matrix alpha.  Column i defines the
automorphism sending each variable u_j to u_j - alpha[j][i]; applying it
to a polynomial p yields p shifted by the column vector, and the integer
point k of Z^n acts by the shift `combo(k, range(n))`.  The directions that
move a polynomial, stabilizer lattices and the normal forms that decide
orbit membership live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlinalg import IntegerSystem, IntVec, integer_kernel
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

    def combo(self, coeffs: Sequence[Scalar], indices: Sequence[int]) -> tuple[Fraction, ...]:
        """Linear combination sum_k coeffs[k] * column(indices[k])."""
        vec = [Fraction(0)] * self.nvars
        for c, i in zip(coeffs, indices, strict=True):
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


def moving_directions(sys: ShiftSystem, polys: Sequence[Poly], exclude: Sequence[int] = ()) -> list[int]:
    """The directions outside `exclude` whose column moves some q of
    `polys`, in increasing order; every other direction fixes them all."""
    return [
        i
        for i, col in enumerate(zip(*sys.alpha))
        if i not in exclude and not all(is_fixed_by_shift(q, col) for q in polys)
    ]


@dataclass(frozen=True)
class StabilizerLattice:
    """Saturated integer lattice, basis in HNF."""

    basis: tuple[IntVec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def stabilizer_lattice(sys: ShiftSystem, q: Poly, indices: Sequence[int]) -> StabilizerLattice:
    """Lattice of integer vectors k (over the given directions) whose
    combined shift fixes q, computed via the gradient criterion."""
    indices = list(indices)
    matrix = coefficient_rows([q.directional(sys.column(i)) for i in indices])
    basis = integer_kernel(matrix, len(indices))
    return StabilizerLattice(basis)


# One step of `orbit_forms`: the monomial rows of the pairings, their
# integer system, and the directions still free after the step.
_Step = tuple[dict[int, int], IntegerSystem, tuple[IntVec, ...]]


def orbit_forms(
    sys: ShiftSystem, polys: Sequence[Poly], indices: Sequence[int]
) -> list[tuple[Poly, IntVec]]:
    """For each q, (r, k) with q shifted by the integer k over the given
    directions equal to r, the same r for every q of one orbit.

    r is found one degree at a time from the top: shifting by sum_j t_j
    free[j] changes the degree d-1 part by -sum_j t_j <grad(top), shift of
    free[j]>, so that part is reduced modulo the integer span of those
    pairings.  Each step is factored once per call, keyed by the top form
    and the free directions; those it leaves free fix every degree down
    to d, so the next step works one degree lower.
    """
    indices = tuple(indices)
    s = len(indices)
    identity = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
    steps: dict[tuple, _Step] = {}
    forms = []
    for q in polys:
        if q.is_zero:
            raise ValueError("orbit queries need nonzero polynomials")
        k = (0,) * s
        free = identity
        for d in range(q.degree(), 0, -1):
            top = q.homogeneous_part(d)
            if top.is_zero:
                continue
            key = (top, free)
            step = steps.get(key)
            if step is None:
                step = steps[key] = _orbit_step(sys, top, indices, free)
            rows, system, next_free = step
            t, _ = system.reduce(*numerators_on(q.homogeneous_part(d - 1), rows))
            shift = _combine(t, free, s)
            if any(shift):
                k = tuple(a + b for a, b in zip(k, shift))
                q = q.shift(sys.combo(shift, indices))
            free = next_free
            if not free:
                break
        forms.append((q, k))
    return forms


def same_orbit(sys: ShiftSystem, q: Poly, q2: Poly, indices: Sequence[int]) -> IntVec | None:
    """One integer k over the given directions with q shifted by k equal to
    q2, or None when their normal forms differ and there is none."""
    (r, k), (r2, k2) = orbit_forms(sys, (q, q2), indices)
    return tuple(a - b for a, b in zip(k, k2)) if r == r2 else None


def _orbit_step(sys: ShiftSystem, top: Poly, indices: tuple[int, ...], free: tuple[IntVec, ...]) -> _Step:
    """The factored degree d-1 pairings of `orbit_forms` for a top form."""
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

