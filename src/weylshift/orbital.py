"""Factor solutions into pieces supported on single shift orbits.

Every factor of entry i is pulled back by half of direction i; grouping
the pulled-back factors by orbit splits the solution into entrywise
divisors that are again solutions, one per orbit, and the grouping is
recoverable from the factor lists alone.  Entry units play no part: a
nonzero unit on an entry cancels on both sides of both identities, so the
pieces are monic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from .consistency import (
    CheckFailure,
    CheckReport,
    SolutionTuple,
    check_factored,
)
from .intlinalg import IntVec, divisors
from .poly import FactoredPoly, Poly, exact_div, merge_factors
from .shifts import ShiftSystem, half_shift, moving_directions, orbit_forms


class StructureError(ValueError):
    """The input lacks the orbit or grid structure that an operation needs."""


@dataclass(frozen=True)
class FactoredSolution:
    sys: ShiftSystem
    entries: tuple[FactoredPoly, ...]

    def __post_init__(self):
        if len(self.entries) != self.sys.nshifts:
            raise ValueError("need one entry per shift direction")
        if any(e.nvars != self.sys.nvars for e in self.entries):
            raise ValueError("variable count mismatch")

    def expand(self) -> SolutionTuple:
        return SolutionTuple(self.sys, tuple(e.expand() for e in self.entries))


@dataclass(frozen=True)
class OrbitalPiece:
    """A solution whose factors all lie on the orbit of `generator` under
    the directions `indices`."""

    generator: Poly
    indices: tuple[int, ...]
    solution: FactoredSolution


def decompose(sol: FactoredSolution) -> list[OrbitalPiece]:
    """Split the monic factors of a factored solution into its orbital
    pieces; the entries' units are dropped.

    The anchor of each piece is the pulled-back first factor of its lowest
    nonconstant entry, so the output order and anchors are deterministic.
    """
    return [piece for piece, *_ in _place(sol)]


def _place(sol: FactoredSolution) -> list[tuple[OrbitalPiece, list[list[IntVec]], tuple[IntVec, ...]]]:
    """The pieces of `decompose`, each with the integer offsets over all
    directions that shift its anchor onto its pulled-back factors, listed
    per entry in factor order, and a basis of its anchor's stabilizer
    over all directions, as `orbit_forms` found them.

    Every factor is pulled back once and every normal form is found in
    one `orbit_forms` call: a factor whose base shifts by k onto the form
    that the anchor reaches by k_anchor is the anchor shifted by
    k_anchor - k.
    """
    sys = sol.sys
    full = tuple(range(sys.nshifts))
    placed = [(i, f, half_shift(sys, i, -1, f[0])) for i, e in enumerate(sol.entries) for f in e.factors]
    forms = orbit_forms(sys, [base for *_, base in placed], full)
    # keyed by the orbit's normal form; the first factor seen is the anchor
    groups: dict[Poly, tuple[Poly, IntVec, tuple[IntVec, ...], list[list[tuple[Poly, int]]], list[list[IntVec]]]] = {}
    for (i, factor, base), (form, k, stab) in zip(placed, forms):
        if form not in groups:
            groups[form] = (base, k, stab, [[] for _ in full], [[] for _ in full])
        _, k_anchor, _, factors, offsets = groups[form]
        factors[i].append(factor)
        offsets[i].append(tuple(a - b for a, b in zip(k_anchor, k)))
    return [
        (
            OrbitalPiece(anchor, full, FactoredSolution(sys, tuple(
                FactoredPoly.from_factors(sys.nvars, bucket) for bucket in factors
            ))),
            offsets,
            stab,
        )
        for anchor, _, stab, factors, offsets in groups.values()
    ]


def _offsets(
    piece: OrbitalPiece, which: Iterable[int], indices: Sequence[int]
) -> list[tuple[int, Poly, IntVec | None]]:
    """Each factor of the entries `which` as its entry index, its
    pull-back by half that entry's direction, and the offset over
    `indices` that shifts the monic generator onto the pull-back, or None
    off the generator's orbit; one `orbit_forms` call finds every form."""
    sys, entries = piece.solution.sys, piece.solution.entries
    bases = [(i, half_shift(sys, i, -1, q)) for i in which for q, _ in entries[i].factors]
    (gen_form, k0, _), *forms = orbit_forms(
        sys, [piece.generator.make_monic()[1]] + [base for _, base in bases], indices
    )
    return [
        (i, base, tuple(a - b for a, b in zip(k0, k)) if form == gen_form else None)
        for (i, base), (form, k, _) in zip(bases, forms)
    ]


def verify_orbital(piece: OrbitalPiece) -> CheckReport:
    """Membership of every factor in the piece's orbit, then the full
    binary and ternary checks, decided on the factors."""
    sys, entries = piece.solution.sys, piece.solution.entries
    gen_monic = piece.generator.make_monic()[1]
    failures = tuple(
        CheckFailure("membership", (i,), base - gen_monic)
        for i, base, offset in _offsets(piece, range(sys.nshifts), piece.indices)
        if offset is None
    )
    return CheckReport(failures).merged(check_factored(sys, entries))


def support_pair(piece: OrbitalPiece) -> tuple[int, int] | None:
    """The two indices carrying nonconstant entries, or None for a piece
    with at most one nonconstant entry.

    Raises StructureError when the piece cannot arise from a genuine
    orbital solution: more than two nonconstant entries, a constant entry
    whose direction moves the generator, or a support direction that
    fixes it.  An entry outside the support is constant, and the binary
    identity between such an entry k and a nonconstant entry of the piece
    holds only when direction k fixes the generator.
    """
    support = [i for i, e in enumerate(piece.solution.entries) if not e.is_one]
    if len(support) > 2:
        raise StructureError(
            f"{len(support)} nonconstant entries; an orbital piece supports at most two"
        )
    moving = moving_directions(piece.solution.sys, [piece.generator])
    off = [k for k in moving if k not in support]
    if off:
        raise StructureError(
            f"entry {off[0] + 1} is constant but direction {off[0] + 1} moves the generator"
        )
    if len(support) < 2:
        return None
    fixed = [k for k in support if k not in moving]
    if fixed:
        raise StructureError(
            f"support direction {fixed[0] + 1} fixes the generator; "
            "the piece is not rank-two supported"
        )
    return (support[0], support[1])


# ----------------------------------------------------------------------
# light factorization helpers, enough for products of linear shifts and
# univariate entries of degree at most 4


def factor_entry(p: Poly) -> FactoredPoly | None:
    """Try to factor p into monic irreducibles.

    Extracts monomial content and rational linear shifts (u_j - c) in any
    variable, then finishes a univariate remainder of degree at most 4.
    Returns None when a nonconstant remainder resists those tools.
    """
    if p.is_zero:
        raise ValueError("cannot factor zero")
    unit, p = p.make_monic()
    factors: list[tuple[Poly, int]] = []
    content = p.content_exponent()
    if any(content):
        shifted = {tuple(e - c for e, c in zip(exp, content)): coeff for exp, coeff in p.items()}
        for j, c in enumerate(content):
            if c:
                factors.append((Poly.variable(p.nvars, j), c))
        p = Poly(p.nvars, shifted)
    for j in sorted(p.used_variables()):
        roots, p = _rational_roots(p, j)
        var = Poly.variable(p.nvars, j)
        factors.extend((var - c, mult) for c, mult in roots)
    if p.is_constant:
        unit = unit * p.constant_value()
    else:
        used = p.used_variables()
        if len(used) != 1 or p.degree() > 4:
            return None
        factors.extend(_factor_univariate(p, next(iter(used))))
    return FactoredPoly.from_factors(p.nvars, merge_factors(factors).items(), unit)


def _rational_roots(p: Poly, j: int) -> tuple[list[tuple[Fraction, int]], Poly]:
    """Divide every factor (u_j - c) with rational c out of p.

    Candidates come from one coefficient slice of p viewed as a polynomial
    in u_j.  Dividing p by (u_j - c) divides that slice by it too, so the
    first slice's candidates cover every cofactor, and one at which that
    slice does not vanish is no root of p: one walk divides each candidate
    the slice keeps out as often as it goes, and stops once the slice is
    constant in u_j.  Returns each root c with its multiplicity, in the
    order of `_root_candidates` (0 first), and the cofactor.
    """
    slices: dict[tuple, dict[int, Fraction]] = {}
    for e, c in p.items():
        rest = e[:j] + e[j + 1 :]
        slices.setdefault(rest, {})[e[j]] = c
    coeffs = slices[min(slices)]
    top = deg = max(coeffs)
    roots: list[tuple[Fraction, int]] = []
    if deg == 0:
        return roots, p
    scale = lcm(*[c.denominator for c in coeffs.values()])
    ints = {k: int(c * scale) for k, c in coeffs.items()}
    low = min(ints)
    candidates = [Fraction(0)] if low > 0 else []
    candidates += _root_candidates(ints[deg], ints[low])
    var = Poly.variable(p.nvars, j)
    for cand in candidates:
        a, b = cand.numerator, cand.denominator
        if sum(c * a**k * b ** (top - k) for k, c in ints.items()):
            continue  # b^top times the slice at a/b is not zero
        lin = var - cand
        mult = 0
        while (q := exact_div(p, lin)) is not None:
            p, mult = q, mult + 1
        if mult:
            roots.append((cand, mult))
            deg -= mult
            if deg == 0:
                break
    return roots, p


def _factor_univariate(p: Poly, j: int) -> list[tuple[Poly, int]]:
    """Factor a monic univariate polynomial of degree <= 4 with no rational
    roots into irreducibles; only the quartic case can split further.  A
    square comes back as the same quadratic twice."""
    if p.degree() <= 3:
        return [(p, 1)]
    coeff = {k: Fraction(0) for k in range(5)}
    for e, c in p.items():
        coeff[e[j]] = c
    b3, b2, b1, b0 = coeff[3], coeff[2], coeff[1], coeff[0]
    # resolvent cubic for a monic quartic split into two monic quadratics
    # (x^2 + a x + b)(x^2 + c x + d) with y = b + d
    var = Poly.variable(p.nvars, j)
    resolvent = (
        var ** 3
        - var * var * b2
        + var * (b3 * b1 - 4 * b0)
        - (b3 * b3 * b0 - 4 * b2 * b0 + b1 * b1)
    )
    for y, _ in _rational_roots(resolvent, j)[0]:
        # a + c = b3, ac = b2 - y: roots of z^2 - b3 z + (b2 - y)
        disc = b3 * b3 - 4 * (b2 - y)
        root = _fraction_sqrt(disc)
        if root is None:
            continue
        a = (b3 + root) / 2
        c = (b3 - root) / 2
        # b + d = y, with ad + bc = b1 disambiguating b and d
        if a != c:
            d = (b1 - c * y) / (a - c)
            b = y - d
        else:
            half = _fraction_sqrt(y * y - 4 * b0)
            if half is None:
                continue
            b = (y + half) / 2
            d = y - b
        qa = var * var + var * a + b
        qb = var * var + var * c + d
        if qa * qb == p:
            return [(qa, 1), (qb, 1)]
    return [(p, 1)]


def _root_candidates(lead: int, const: int) -> list[Fraction]:
    """By the rational root theorem, every rational root of an integer
    polynomial with leading coefficient lead and lowest nonzero coefficient
    const is some +-num/den with num dividing const and den dividing lead.
    These come without repeats, ordered by num, then den, then sign."""
    dens = divisors(abs(lead))
    return list(dict.fromkeys(
        Fraction(sign * num, den)
        for num in divisors(abs(const))
        for den in dens
        for sign in (1, -1)
    ))


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
