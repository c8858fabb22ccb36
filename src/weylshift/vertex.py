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
from typing import Iterable, Mapping, Sequence

from .consistency import CheckFailure, CheckReport
from .intlinalg import IntVec, hnf
from .orbital import (
    FactoredSolution,
    OrbitalPiece,
    StructureError,
    _offsets,
    _place,
    support_pair,
)
from .parser import _MAX_DEGREE
from .poly import FactoredPoly, Poly
from .shifts import ShiftSystem, moving_directions, stabilizer_lattice

Key = tuple[int, int]
Edges = Iterable[tuple[int, int, int]] | Mapping[Key, int]


def canonical_key(lattice: tuple[IntVec, ...], key: Key) -> Key:
    """Coset representative of key modulo twice the lattice, given by its
    HNF basis.

    Rank 1 with generator (r, s), r >= 1: slide x into [0, 2r); when r = 0
    slide y into [0, 2s).  Rank 0 leaves keys alone.
    """
    x, y = key
    if not lattice:
        return (x, y)
    r, s = lattice[0]
    if r:
        t = x // (2 * r)
        return (x - 2 * r * t, y - 2 * s * t)
    t = y // (2 * s)
    return (x, y - 2 * s * t)


def corners(key: Key) -> tuple[Key, Key]:
    """The corners an edge leaves and enters: below and above a
    direction-i edge (x odd), left and right of a direction-j edge."""
    x, y = key
    if x % 2:
        return (x, y - 1), (x, y + 1)
    return (x - 1, y), (x + 1, y)


@dataclass(frozen=True)
class VertexConfig:
    """Finite multiplicity assignment on the doubled grid of one orbit;
    `lattice` is the HNF basis of the generator's stabilizer over the pair."""

    sys: ShiftSystem
    generator: Poly
    pair: tuple[int, int]
    lattice: tuple[IntVec, ...]
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def build(
        cls,
        sys: ShiftSystem,
        generator: Poly,
        pair: Sequence[int],
        edges: Edges,
    ) -> "VertexConfig":
        i, j = pair
        if not 0 <= i < j < sys.nshifts:
            raise ValueError("pair must be two distinct direction indices in order")
        if generator.is_zero:
            raise ValueError("generator must be nonzero")
        return cls._on_lattice(sys, generator, (i, j), stabilizer_lattice(sys, generator, (i, j)), edges)

    @classmethod
    def _on_lattice(
        cls, sys: ShiftSystem, generator: Poly, pair: tuple[int, int], lattice: tuple[IntVec, ...], edges: Edges
    ) -> "VertexConfig":
        """`build` given the HNF basis of the generator's stabilizer over the pair."""
        if len(lattice) > 1:
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
        return cls(sys, generator, pair, lattice, packed)

    @property
    def multiplicities(self) -> dict[Key, int]:
        return {(x, y): m for x, y, m in self.edges}


def validate(config: VertexConfig) -> CheckReport:
    """Directions outside the pair, key parity, canonical form, and the
    corner conservation law."""
    failures = [
        CheckFailure("off-pair-fixed", (k,), None)
        for k in moving_directions(config.sys, [config.generator], config.pair)
    ]
    for x, y, _ in config.edges:
        if (x + y) % 2 == 0:
            failures.append(CheckFailure("parity", (x, y), None, one_based=False))
        if canonical_key(config.lattice, (x, y)) != (x, y):
            failures.append(CheckFailure("canonical", (x, y), None, one_based=False))
    return CheckReport(tuple(failures) or _conservation(config))


def _conservation(config: VertexConfig) -> tuple[CheckFailure, ...]:
    """The corners at which the corner conservation law fails."""
    balance: dict[Key, int] = {}
    for x, y, mult in config.edges:
        first, second = (canonical_key(config.lattice, c) for c in corners((x, y)))
        balance[first] = balance.get(first, 0) + mult
        balance[second] = balance.get(second, 0) - mult
    return tuple(
        CheckFailure("conservation", corner, None, one_based=False)
        for corner in sorted(balance)
        if balance[corner]
    )


def decode(config: VertexConfig) -> OrbitalPiece:
    """Expand the configuration into an orbital piece.

    Each edge (x, y) with multiplicity mu contributes the generator shifted
    by (x/2) column(i) + (y/2) column(j), raised to mu, to entry i when x
    is odd and to entry j when y is odd.  A generator with leading
    coefficient c contributes c^mu to the entry's unit, so the expanded
    entries are exact products of shifts of the generator itself.  No
    entry may pass the parser's degree bound.
    """
    report = validate(config)
    if not report.passed:
        raise StructureError("invalid configuration: " + report.describe())
    sys = config.sys
    i, j = config.pair
    lead, gen_monic = config.generator.make_monic()
    buckets: dict[int, list[tuple[Poly, int]]] = {i: [], j: []}
    for x, y, mult in config.edges:
        factor = gen_monic.shift(sys.vector((x, y), (i, j)), 2 * sys.den)
        buckets[i if x % 2 else j].append((factor, mult))
    entries = []
    for k in range(sys.nshifts):
        placed = buckets.get(k, [])
        total = sum(mult for _, mult in placed)
        if (degree := total * gen_monic.degree()) > _MAX_DEGREE:
            raise StructureError(f"decoded entry {k + 1} has degree {degree}, past the limit {_MAX_DEGREE}")
        entries.append(FactoredPoly.from_factors(sys.nvars, placed, lead ** total))
    return OrbitalPiece(config.generator, config.pair, FactoredSolution(sys, tuple(entries)))


def encode(piece: OrbitalPiece) -> VertexConfig:
    """Locate every factor of an orbital piece on the doubled grid.

    The factor q of entry i sits at (2a+1, 2b) where (a, b) shifts the
    generator onto the pulled-back factor; entry j factors land on
    (2a, 2b+1).  The lattice is the HNF of the generator's stabilizer
    over the pair, from the same orbit search.  Conservation failure
    afterwards means the input was not a solution.
    """
    pair = _support(piece)
    offsets: dict[int, list[IntVec]] = {idx: [] for idx in pair}
    stab, placed = _offsets(piece, pair, pair)
    for idx, _, offset in placed:
        if offset is None:
            raise StructureError(f"factor of entry {idx + 1} does not sit on the orbit over the pair")
        offsets[idx].append(offset)
    return _placed_config(piece, pair, offsets, hnf(stab))


def _support(piece: OrbitalPiece) -> tuple[int, int]:
    pair = support_pair(piece)
    if pair is None:
        raise StructureError("piece supports at most one direction; nothing to encode")
    return pair


def _placed_config(
    piece: OrbitalPiece,
    pair: tuple[int, int],
    offsets: Mapping[int, Sequence[tuple[int, int]]],
    lattice: tuple[IntVec, ...],
) -> VertexConfig:
    """The configuration of a piece whose generator the shift by
    offsets[idx][n] over the pair carries onto the pulled-back n-th factor
    of entry idx; lattice is the HNF basis of the generator's stabilizer
    over the pair.  Only conservation is checked: `support_pair` proved
    the off-pair check, and placing gives canonical keys of odd parity."""
    i, _ = pair
    edges: dict[Key, int] = {}
    for idx in pair:
        for (_, mult), (a, b) in zip(piece.solution.entries[idx].factors, offsets[idx], strict=True):
            key = (2 * a + 1, 2 * b) if idx == i else (2 * a, 2 * b + 1)
            edges[key] = edges.get(key, 0) + mult
    config = VertexConfig._on_lattice(piece.solution.sys, piece.generator, pair, lattice, edges)
    if _conservation(config):
        raise StructureError("conservation fails; the piece is not a solution")
    return config


def classify(sol: FactoredSolution) -> tuple[VertexConfig, ...]:
    """Decompose a factored solution and encode every piece: one
    configuration per piece, generated and ordered as in `decompose`, so
    reordering the input's factors leaves the record unchanged.

    Each factor is placed on its grid from the offset over all directions
    that decomposing found for it, and the placement is exact by
    construction.  The pieces split each entry's monic factors between
    them, so they multiply back to the input.  `support_pair` proves that
    every direction outside the pair fixes the generator, so the pair
    components of an offset place the factor, and they differ from the
    ones `encode` finds over the pair only by a stabilizer element, which
    `canonical_key` removes; each edge therefore decodes to the factor it
    was placed from.  For the same reason the stabilizer over the pair is
    the projection onto it of the one over all directions that placing
    found, and its HNF is the configuration's lattice.  The tests check
    all three against `encode`, `decode` and `stabilizer_lattice`.
    A piece with trivial support is rejected since it has no grid
    picture, and a non-solution fails conservation.
    """
    configs = []
    for piece, offsets, stab in _place(sol):
        i, j = pair = _support(piece)
        on_pair = {idx: [(k[i], k[j]) for k in offsets[idx]] for idx in pair}
        configs.append(_placed_config(piece, pair, on_pair, hnf([(k[i], k[j]) for k in stab])))
    return tuple(configs)


# random_config starts each staircase at a corner (2a+1, 2b+1) with a and b
# drawn from [-SPREAD, SPREAD]
SPREAD = 3


def random_config(
    sys: ShiftSystem,
    generator: Poly,
    pair: Sequence[int],
    loops: int,
    seed: int,
) -> VertexConfig:
    """Superpose `loops` random monotone staircases closed on the cylinder.

    The restricted stabilizer must have rank 1 with a strictly positive
    generator (r, s); each staircase interleaves s up-steps (crossing
    direction-i edges) and r right-steps (crossing direction-j edges)
    uniformly at random, starting at a random corner.  An entry of the
    decoded piece has degree at most loops * max(r, s) * deg(generator),
    which must stay within the parser's degree bound.
    """
    i, j = pair
    if not 0 <= i < j < sys.nshifts:
        raise StructureError("pair must be two distinct direction indices in order")
    if loops < 0:
        raise StructureError("the number of loops must be nonnegative")
    moving = moving_directions(sys, [generator], (i, j))
    if moving:
        raise StructureError(
            f"direction {moving[0] + 1} lies outside the pair and moves the generator"
        )
    lattice = stabilizer_lattice(sys, generator, (i, j))
    if len(lattice) != 1:
        raise StructureError("random staircases need a rank-1 restricted stabilizer")
    r, s = lattice[0]
    if r < 1 or s < 1:
        raise StructureError("stabilizer generator must have positive components")
    degree = loops * max(r, s) * generator.degree()
    if degree > _MAX_DEGREE:
        raise StructureError(
            f"{loops} loops give decoded entries of degree {degree}, past the limit {_MAX_DEGREE}"
        )
    rng = random.Random(seed)
    edges: dict[Key, int] = {}
    for _ in range(loops):
        word = ["up"] * s + ["right"] * r
        rng.shuffle(word)
        x = 2 * rng.randint(-SPREAD, SPREAD) + 1
        y = 2 * rng.randint(-SPREAD, SPREAD) + 1
        for step in word:
            if step == "up":
                key = (x, y + 1)
                y += 2
            else:
                key = (x + 1, y)
                x += 2
            edges[key] = edges.get(key, 0) + 1
    return VertexConfig._on_lattice(sys, generator, (i, j), lattice, edges)
