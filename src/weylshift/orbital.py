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

from .consistency import (
    CheckFailure,
    CheckReport,
    SolutionTuple,
    check_factored,
)
from .intlinalg import divisors
from .poly import Poly, exact_div, merge_factors
from .shifts import (
    OrbitId,
    ShiftSystem,
    half_shift,
    is_fixed_by_shift,
    same_orbit,
    stabilizer_lattice,
)


class StructureError(ValueError):
    """A structural conclusion about orbital pieces failed on this input."""


@dataclass(frozen=True)
class FactoredPoly:
    """unit * product of monic factors with positive multiplicities."""

    nvars: int
    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def __post_init__(self):
        if not self.unit:
            raise ValueError("unit must be nonzero")
        seen = set()
        for q, mult in self.factors:
            if q.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if not q.is_monic or q.is_constant:
                raise ValueError("factors must be monic and nonconstant")
            if q in seen:
                raise ValueError("factors must be pairwise distinct")
            seen.add(q)

    @classmethod
    def one(cls, nvars: int) -> "FactoredPoly":
        return cls(nvars, Fraction(1), ())

    @classmethod
    def from_factors(cls, nvars, factors, unit=Fraction(1)) -> "FactoredPoly":
        return cls(nvars, Fraction(unit), tuple((q, int(m)) for q, m in factors))

    @property
    def is_one(self) -> bool:
        return self.unit == 1 and not self.factors

    def expand(self) -> Poly:
        acc = Poly.constant(self.nvars, self.unit)
        for q, mult in self.factors:
            acc = acc * q ** mult
        return acc


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
    orbit: OrbitId
    solution: FactoredSolution


def decompose(sol: FactoredSolution) -> list[OrbitalPiece]:
    """Split the monic factors of a factored solution into its orbital
    pieces; the entries' units are dropped.

    The anchor of each piece is the pulled-back first factor of its lowest
    nonconstant entry, so the output order and anchors are deterministic.
    """
    sys = sol.sys
    full = tuple(range(sys.nshifts))
    anchors: list[Poly] = []
    groups: list[list[list[tuple[Poly, int]]]] = []
    memo: dict = {}
    for i, entry in enumerate(sol.entries):
        for q, mult in entry.factors:
            base = half_shift(sys, i, -1, q)
            home = None
            for g, anchor in enumerate(anchors):
                if same_orbit(sys, anchor, base, full, memo) is not None:
                    home = g
                    break
            if home is None:
                anchors.append(base)
                groups.append([[] for _ in range(sys.nshifts)])
                home = len(anchors) - 1
            groups[home][i].append((q, mult))
    pieces = []
    for anchor, bucket in zip(anchors, groups):
        entries = tuple(
            FactoredPoly.from_factors(sys.nvars, bucket[i]) for i in range(sys.nshifts)
        )
        orbit = OrbitId(anchor, full, stabilizer_lattice(sys, anchor, full))
        pieces.append(OrbitalPiece(orbit, FactoredSolution(sys, entries)))
    return pieces


def verify_orbital(piece: OrbitalPiece) -> CheckReport:
    """Membership of every factor in the piece's orbit, then the full
    binary and ternary checks, decided on the factors."""
    sys = piece.solution.sys
    indices = piece.orbit.index_set
    gen_monic = piece.orbit.generator.make_monic()[1]
    failures: list[CheckFailure] = []
    memo: dict = {}
    for i, entry in enumerate(piece.solution.entries):
        for q, _ in entry.factors:
            base = half_shift(sys, i, -1, q)
            if same_orbit(sys, gen_monic, base, indices, memo) is None:
                failures.append(CheckFailure("membership", (i,), base - gen_monic))
    report = CheckReport(tuple(failures))
    return report.merged(check_factored(sys, piece.solution.entries))


def support_pair(piece: OrbitalPiece) -> tuple[int, int] | None:
    """The two indices carrying nonconstant entries, or None for a piece
    with at most one nonconstant entry.

    Raises StructureError when the piece cannot arise from a genuine
    orbital solution: more than two nonconstant entries, a constant entry
    whose direction moves the generator, or a support direction that
    fixes it.
    """
    sys = piece.solution.sys
    q0 = piece.orbit.generator
    support = [i for i, e in enumerate(piece.solution.entries) if not e.is_one]
    if len(support) > 2:
        raise StructureError(
            f"{len(support)} nonconstant entries; an orbital piece supports at most two"
        )
    for k in range(sys.nshifts):
        if k in support:
            continue
        if not is_fixed_by_shift(q0, sys.column(k)):
            raise StructureError(
                f"entry {k + 1} is constant but direction {k + 1} moves the generator"
            )
    if len(support) < 2:
        return None
    for k in support:
        if is_fixed_by_shift(q0, sys.column(k)):
            raise StructureError(
                f"support direction {k + 1} fixes the generator; "
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
        while True:
            root = _linear_shift_root(p, j)
            if root is None:
                break
            lin = Poly.variable(p.nvars, j) - Poly.constant(p.nvars, root)
            mult = 0
            while True:
                q = exact_div(p, lin)
                if q is None:
                    break
                p, mult = q, mult + 1
            factors.append((lin, mult))
    if p.is_constant:
        unit = unit * p.constant_value()
    else:
        used = p.used_variables()
        if len(used) != 1 or p.degree() > 4:
            return None
        sub = _factor_univariate(p, next(iter(used)))
        if sub is None:
            return None
        factors.extend(sub)
    return FactoredPoly.from_factors(p.nvars, merge_factors(factors).items(), unit)


def _linear_shift_root(p: Poly, j: int) -> Fraction | None:
    """A rational c with (u_j - c) dividing p, if one exists.

    Candidates come from one coefficient slice of p viewed as a polynomial
    in u_j, then each is confirmed by exact division.
    """
    slices: dict[tuple, dict[int, Fraction]] = {}
    for e, c in p.items():
        rest = e[:j] + e[j + 1 :]
        slices.setdefault(rest, {})[e[j]] = c
    probe = min(slices)
    coeffs = slices[probe]
    deg = max(coeffs)
    if deg == 0:
        return None
    scale = lcm(*[c.denominator for c in coeffs.values()])
    ints = {k: int(c * scale) for k, c in coeffs.items()}
    low = min(ints)
    candidates = [Fraction(0)] if low > 0 else []
    candidates += _root_candidates(ints[deg], ints[low])
    lin_template = Poly.variable(p.nvars, j)
    for cand in candidates:
        if exact_div(p, lin_template - Poly.constant(p.nvars, cand)) is not None:
            return cand
    return None


def _factor_univariate(p: Poly, j: int) -> list[tuple[Poly, int]] | None:
    """Factor a monic univariate polynomial of degree <= 4 with no rational
    roots into irreducibles; only the quartic case can split further.  A
    square comes back as the same quadratic twice."""
    deg = p.degree()
    if deg <= 3:
        return [(p, 1)]
    if deg > 4:
        return None
    coeff = {k: Fraction(0) for k in range(5)}
    for e, c in p.items():
        coeff[e[j]] = c
    b3, b2, b1, b0 = coeff[3], coeff[2], coeff[1], coeff[0]
    # resolvent cubic for a monic quartic split into two monic quadratics
    # (x^2 + a x + b)(x^2 + c x + d) with y = b + d
    resolvent = [
        Fraction(1),
        -b2,
        b3 * b1 - 4 * b0,
        -(b3 * b3 * b0 - 4 * b2 * b0 + b1 * b1),
    ]
    for y in _cubic_rational_roots(resolvent):
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
        var = Poly.variable(p.nvars, j)
        one = Poly.one(p.nvars)
        qa = var * var + var * a + one * b
        qb = var * var + var * c + one * d
        if qa * qb == p:
            return [(qa, 1), (qb, 1)]
    return [(p, 1)]


def _cubic_rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Rational roots of a cubic given by [lead, ..., const]."""
    scale = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return []
    roots = []
    if ints[-1] == 0:
        roots.append(Fraction(0))
        while ints[-1] == 0:
            ints = ints[:-1]
    n = len(ints)
    for cand in _root_candidates(ints[0], ints[-1]):
        if sum(c * cand ** (n - 1 - k) for k, c in enumerate(ints)) == 0:
            roots.append(cand)
    return roots


def _root_candidates(lead: int, const: int) -> list[Fraction]:
    """By the rational root theorem, every rational root of an integer
    polynomial with leading coefficient lead and lowest nonzero coefficient
    const is some +-num/den with num dividing const and den dividing lead.
    These come without repeats, ordered by num, then den, then sign."""
    return list(dict.fromkeys(
        Fraction(sign * num, den)
        for num in divisors(abs(const))
        for den in divisors(abs(lead))
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
