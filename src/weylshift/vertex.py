"""Edge-multiplicity configurations on a doubled integer grid.

Orbit elements live on a plane indexed by two shift directions i and j.
Doubling the coordinates makes every object integral: faces sit at
(even, even), half-step images of faces in direction i at (odd, even),
in direction j at (even, odd), and corners at (odd, odd).  A configuration
assigns finite multiplicities to the two half-step families, identified
modulo twice the stabilizer of the base generator.  The conservation law
at each corner (x, y),

    M(x, y+1) + M(x+1, y) = M(x, y-1) + M(x-1, y),

is exactly what makes the decoded entry pair a solution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .consistency import CheckFailure, CheckReport
from .orbital import (
    FactoredPoly,
    FactoredSolution,
    OrbitalPiece,
    StructureError,
    decompose,
    support_pair,
)
from .poly import Poly, merge_factors
from .shifts import (
    OrbitId,
    ShiftSystem,
    StabilizerLattice,
    half_shift,
    is_fixed_by_shift,
    same_orbit,
    stabilizer_lattice,
)

Key = tuple[int, int]


def canonical_key(lattice: StabilizerLattice, key: Key) -> Key:
    """Coset representative of key modulo twice the lattice.

    Rank 1 with generator (r, s), r >= 1: slide x into [0, 2r); when r = 0
    slide y into [0, 2s).  Rank 0 leaves keys alone.
    """
    x, y = key
    if lattice.rank == 0:
        return (x, y)
    r, s = lattice.basis[0]
    if r:
        t = x // (2 * r)
        return (x - 2 * r * t, y - 2 * s * t)
    t = y // (2 * s)
    return (x, y - 2 * s * t)


@dataclass(frozen=True)
class VertexConfig:
    """Finite multiplicity assignment on the doubled grid of one orbit."""

    sys: ShiftSystem
    generator: Poly
    pair: tuple[int, int]
    lattice: StabilizerLattice
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def build(
        cls,
        sys: ShiftSystem,
        generator: Poly,
        pair: Sequence[int],
        edges: Iterable[tuple[int, int, int]] | Mapping[Key, int],
        lattice: StabilizerLattice | None = None,
    ) -> "VertexConfig":
        i, j = pair
        if not 0 <= i < j < sys.nshifts:
            raise ValueError("pair must be two distinct direction indices in order")
        if generator.is_zero:
            raise ValueError("generator must be nonzero")
        if lattice is None:
            lattice = stabilizer_lattice(sys, generator, (i, j))
        if lattice.rank > 1:
            raise ValueError("both directions fix the generator; no grid geometry")
        items = edges.items() if isinstance(edges, Mapping) else ((k[:2], k[2]) for k in edges)
        merged: dict[Key, int] = {}
        for key, mult in items:
            mult = int(mult)
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult == 0:
                continue
            ck = canonical_key(lattice, (int(key[0]), int(key[1])))
            merged[ck] = merged.get(ck, 0) + mult
        packed = tuple((x, y, m) for (x, y), m in sorted(merged.items()))
        return cls(sys, generator, (i, j), lattice, packed)

    @property
    def multiplicities(self) -> dict[Key, int]:
        return {(x, y): m for x, y, m in self.edges}

    @property
    def orbit(self) -> OrbitId:
        return OrbitId(self.generator, self.pair, self.lattice)

    def multiplicity(self, key: Key) -> int:
        ck = canonical_key(self.lattice, key)
        for x, y, m in self.edges:
            if (x, y) == ck:
                return m
        return 0

    @property
    def is_empty(self) -> bool:
        return not self.edges


def _moving_directions(sys: ShiftSystem, generator: Poly, pair: Sequence[int]) -> list[int]:
    """Directions outside the pair that move the generator.

    The decoded entries outside the pair are 1, and the binary identity
    between such an entry k and a nonconstant entry of the pair holds only
    when direction k fixes the generator.
    """
    return [
        k
        for k in range(sys.nshifts)
        if k not in pair and not is_fixed_by_shift(generator, sys.column(k))
    ]


def validate(config: VertexConfig) -> CheckReport:
    """Directions outside the pair, key parity, canonical form, and the
    corner conservation law."""
    failures = [
        CheckFailure("off-pair-fixed", (k,), None)
        for k in _moving_directions(config.sys, config.generator, config.pair)
    ]
    mults = config.multiplicities
    for (x, y), _ in mults.items():
        if (x + y) % 2 == 0:
            failures.append(CheckFailure("parity", (x, y), None, one_based=False))
        if canonical_key(config.lattice, (x, y)) != (x, y):
            failures.append(CheckFailure("canonical", (x, y), None, one_based=False))
    if failures:
        return CheckReport(tuple(failures))

    def m(key: Key) -> int:
        return mults.get(canonical_key(config.lattice, key), 0)

    corners: set[Key] = set()
    for (x, y) in mults:
        if x % 2:  # direction-i edge: corners above and below
            corners.add(canonical_key(config.lattice, (x, y + 1)))
            corners.add(canonical_key(config.lattice, (x, y - 1)))
        else:  # direction-j edge: corners left and right
            corners.add(canonical_key(config.lattice, (x + 1, y)))
            corners.add(canonical_key(config.lattice, (x - 1, y)))
    for (x, y) in sorted(corners):
        lhs = m((x, y + 1)) + m((x + 1, y))
        rhs = m((x, y - 1)) + m((x - 1, y))
        if lhs != rhs:
            failures.append(CheckFailure("conservation", (x, y), None, one_based=False))
    return CheckReport(tuple(failures))


def decode(config: VertexConfig) -> OrbitalPiece:
    """Expand the configuration into an orbital piece.

    Each edge (x, y) with multiplicity mu contributes the generator shifted
    by (x/2) column(i) + (y/2) column(j), raised to mu, to entry i when x
    is odd and to entry j when y is odd.  A generator with leading
    coefficient c contributes c^mu to the entry's unit, so the expanded
    entries are exact products of shifts of the generator itself.
    """
    report = validate(config)
    if not report.passed:
        raise ValueError("invalid configuration: " + report.describe())
    sys = config.sys
    i, j = config.pair
    col_i, col_j = sys.column(i), sys.column(j)
    lead, gen_monic = config.generator.make_monic()
    buckets: dict[int, list[tuple[Poly, int]]] = {i: [], j: []}
    for x, y, mult in config.edges:
        vec = [Fraction(x, 2) * a + Fraction(y, 2) * b for a, b in zip(col_i, col_j)]
        factor = gen_monic.shift(vec)
        buckets[i if x % 2 else j].append((factor, mult))
    entries = []
    for k in range(sys.nshifts):
        placed = buckets.get(k, [])
        unit = lead ** sum(mult for _, mult in placed)
        entries.append(FactoredPoly.from_factors(sys.nvars, placed, unit))
    orbit = OrbitId(config.generator, config.pair, config.lattice)
    return OrbitalPiece(orbit, FactoredSolution(sys, tuple(entries)))


def encode(piece: OrbitalPiece) -> VertexConfig:
    """Locate every factor of an orbital piece on the doubled grid.

    The factor q of entry i sits at (2a+1, 2b) where (a, b) shifts the
    generator onto the pulled-back factor; entry j factors land on
    (2a, 2b+1).  Conservation failure afterwards means the input was not
    a solution.
    """
    pair = support_pair(piece)
    if pair is None:
        raise StructureError("piece supports at most one direction; nothing to encode")
    sys = piece.solution.sys
    q0 = piece.orbit.generator
    q0_monic = q0.make_monic()[1]
    i, j = pair
    edges: dict[Key, int] = {}
    memo: dict = {}
    for idx, odd_first in ((i, True), (j, False)):
        for q, mult in piece.solution.entries[idx].factors:
            base = half_shift(sys, idx, -1, q)
            k = same_orbit(sys, q0_monic, base, (i, j), memo)
            if k is None:
                raise StructureError(
                    f"factor of entry {idx + 1} does not sit on the orbit over the pair"
                )
            a, b = k
            key = (2 * a + 1, 2 * b) if odd_first else (2 * a, 2 * b + 1)
            edges[key] = edges.get(key, 0) + mult
    config = VertexConfig.build(sys, q0, (i, j), edges)
    report = validate(config)
    if not report.passed:
        raise StructureError("conservation fails; the piece is not a solution")
    return config


@dataclass(frozen=True)
class ClassifiedOrbit:
    orbit: OrbitId
    pair: tuple[int, int]
    config: VertexConfig


@dataclass(frozen=True)
class ClassificationRecord:
    items: tuple[ClassifiedOrbit, ...]


def _same_product(parts: Sequence[FactoredPoly], whole: FactoredPoly) -> bool:
    """Whether the product of `parts` equals `whole`.

    Equal units and equal factor multisets decide it without expanding;
    factors need not be irreducible, so only a mismatch is expanded.
    """
    unit = Fraction(1)
    for part in parts:
        unit *= part.unit
    joined = merge_factors(f for part in parts for f in part.factors)
    if unit == whole.unit and joined == merge_factors(whole.factors):
        return True
    product = Poly.one(whole.nvars)
    for part in parts:
        product = product * part.expand()
    return product == whole.expand()


def classify(sol: FactoredSolution) -> ClassificationRecord:
    """Decompose a factored solution and encode every piece.

    As a final audit each piece must decode back to itself and the pieces
    must multiply back to the monic part of the input, entry by entry (the
    entries' units cancel in both identities and are dropped); a piece with
    trivial support is rejected since it has no grid picture.
    """
    pieces = decompose(sol)
    items = []
    for piece in pieces:
        config = encode(piece)
        roundtrip = decode(config)
        pairs = zip(roundtrip.solution.entries, piece.solution.entries)
        if not all(_same_product([got], want) for got, want in pairs):
            raise StructureError("decode(encode(piece)) changed the piece")
        items.append(ClassifiedOrbit(config.orbit, config.pair, config))
    for k, entry in enumerate(sol.entries):
        monic = FactoredPoly(entry.nvars, Fraction(1), entry.factors)
        if not _same_product([piece.solution.entries[k] for piece in pieces], monic):
            raise StructureError("pieces do not multiply back to the input")
    return ClassificationRecord(tuple(items))


def random_config(
    sys: ShiftSystem,
    generator: Poly,
    pair: Sequence[int],
    loops: int,
    seed: int,
    spread: int = 3,
) -> VertexConfig:
    """Superpose `loops` random monotone staircases closed on the cylinder.

    The restricted stabilizer must have rank 1 with a strictly positive
    generator (r, s); each staircase interleaves s up-steps (crossing
    direction-i edges) and r right-steps (crossing direction-j edges)
    uniformly at random, starting at a random corner.
    """
    i, j = pair
    if not 0 <= i < j < sys.nshifts:
        raise ValueError("pair must be two distinct direction indices in order")
    moving = _moving_directions(sys, generator, (i, j))
    if moving:
        raise ValueError(
            f"direction {moving[0] + 1} lies outside the pair and moves the generator"
        )
    lattice = stabilizer_lattice(sys, generator, (i, j))
    if lattice.rank != 1:
        raise ValueError("random staircases need a rank-1 restricted stabilizer")
    r, s = lattice.basis[0]
    if r < 1 or s < 1:
        raise ValueError("stabilizer generator must have positive components")
    rng = random.Random(seed)
    edges: dict[Key, int] = {}
    for _ in range(loops):
        word = ["up"] * s + ["right"] * r
        rng.shuffle(word)
        x = 2 * rng.randint(-spread, spread) + 1
        y = 2 * rng.randint(-spread, spread) + 1
        for step in word:
            if step == "up":
                key = (x, y + 1)
                y += 2
            else:
                key = (x + 1, y)
                x += 2
            ck = canonical_key(lattice, key)
            edges[ck] = edges.get(ck, 0) + 1
    return VertexConfig.build(sys, generator, (i, j), edges, lattice)


def same_config(a: VertexConfig, b: VertexConfig) -> bool:
    """Equality after aligning the base generators along the orbit."""
    if a.sys != b.sys or a.pair != b.pair:
        return False
    lead_a, gen_a = a.generator.make_monic()
    lead_b, gen_b = b.generator.make_monic()
    if lead_a != lead_b:
        return False
    k = same_orbit(a.sys, gen_a, gen_b, a.pair)
    if k is None:
        return False
    if a.lattice != b.lattice:
        return False
    dx, dy = 2 * k[0], 2 * k[1]
    moved: dict[Key, int] = {}
    for (x, y), mult in b.multiplicities.items():
        ck = canonical_key(a.lattice, (x + dx, y + dy))
        moved[ck] = moved.get(ck, 0) + mult
    return moved == a.multiplicities
