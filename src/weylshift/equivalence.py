"""Equivalence of shift systems with solution tuples under ring automorphisms.

An automorphism is supplied as explicit variable images together with the
images of its inverse; the constructor verifies both round trips.  Checking
equivalence of two pairs means verifying that the automorphism intertwines
the two shift actions on every variable and sends each entry to a nonzero
scalar multiple of its counterpart.

Invertible matrices act on pairs: g sends (alpha, p) to (g alpha, p o g^{-1}),
and the substitution by g^{-1} witnesses the equivalence.  Composing the
actions of g and h gives the action of g h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .consistency import CheckFailure, CheckReport, SolutionTuple, linear_forms
from .intlinalg import matmul, rational_inverse
from .poly import Poly
from .shifts import ShiftSystem

Matrix = Sequence[Sequence[Fraction | int]]


def _with_inverse(g: Matrix) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """g with Fraction entries, and its inverse."""
    rows = [[Fraction(c) for c in row] for row in g]
    ginv = rational_inverse(rows)
    if ginv is None:
        raise ValueError("matrix is singular")
    return rows, ginv


@dataclass(frozen=True)
class AutomorphismSpec:
    """Variable images of a polynomial ring automorphism and of its inverse.

    Both composites are checked to be the identity substitution, so a
    constructed instance is always a genuine automorphism.
    """

    forward: tuple[Poly, ...]
    inverse: tuple[Poly, ...]

    def __post_init__(self):
        m = len(self.forward)
        if m == 0 or len(self.inverse) != m:
            raise ValueError("need matching nonempty forward and inverse images")
        if any(p.nvars != m for p in itertools.chain(self.forward, self.inverse)):
            raise ValueError("images must live in the ring they map")
        for j in range(m):
            var = Poly.variable(m, j)
            if self.forward[j].compose(self.inverse) != var:
                raise ValueError("forward after inverse is not the identity")
            if self.inverse[j].compose(self.forward) != var:
                raise ValueError("inverse after forward is not the identity")

    @property
    def nvars(self) -> int:
        return len(self.forward)


def linear_automorphism(g: Matrix) -> AutomorphismSpec:
    """The automorphism witnessing the action of g: substitution by g^{-1}."""
    rows, ginv = _with_inverse(g)
    return AutomorphismSpec(linear_forms(ginv), linear_forms(rows))


def check_equivalence(
    psi: AutomorphismSpec, a: SolutionTuple, b: SolutionTuple
) -> CheckReport:
    """Does psi carry the pair a onto the pair b?

    Two failure families: "intertwine" at (direction, variable) when psi
    composed with the source shift differs from the target shift composed
    with psi, and "scalar-multiple" at (entry,) when psi of the entry is
    not a nonzero rational multiple of the target entry.
    """
    if a.sys.nvars != psi.nvars or b.sys.nvars != psi.nvars:
        raise ValueError("variable count mismatch")
    if a.sys.nshifts != b.sys.nshifts:
        raise ValueError("shift count mismatch")
    m, n = psi.nvars, a.sys.nshifts
    failures: list[CheckFailure] = []
    for i in range(n):
        col_b = b.sys.column(i)
        for j in range(m):
            lhs = psi.forward[j] - a.sys.alpha[j][i]
            rhs = psi.forward[j].shift(col_b)
            if lhs != rhs:
                failures.append(CheckFailure("intertwine", (i, j), lhs - rhs))
    for i in range(n):
        # entries are nonzero, and so are their images under an automorphism
        image = a.polys[i].compose(psi.forward)
        target = b.polys[i]
        diff = image - target * (image.leading_coefficient() / target.leading_coefficient())
        if not diff.is_zero:
            failures.append(CheckFailure("scalar-multiple", (i,), diff))
    return CheckReport(tuple(failures))


def apply_linear(g: Matrix, sol: SolutionTuple) -> SolutionTuple:
    """Image of the pair under g: alpha becomes g alpha, entries compose
    with the substitution by g^{-1}."""
    m = sol.sys.nvars
    if len(g) != m or any(len(r) != m for r in g):
        raise ValueError("matrix must be square of the variable count")
    rows, ginv = _with_inverse(g)
    sys2 = ShiftSystem(matmul(rows, sol.sys.alpha))
    images = linear_forms(ginv)
    polys2 = tuple(p.compose(images) for p in sol.polys)
    return SolutionTuple(sys2, polys2)
