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
from math import prod
from typing import Iterable, Mapping, Sequence

from .consistency import CheckFailure, CheckReport
from .orbital import (
    FactoredSolution,
    OrbitalPiece,
    StructureError,
    decompose,
    support_pair,
)
from .parser import _MAX_DEGREE
from .poly import FactoredPoly, Poly, merge_factors
from .shifts import (
    ShiftSystem,
    StabilizerLattice,
    half_shift,
    moving_directions,
    orbit_forms,
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


def corners(key: Key) -> tuple[Key, Key]:
    """The corners an edge leaves and enters: below and above a
    direction-i edge (x odd), left and right of a direction-j edge."""
    x, y = key
    if x % 2:
        return (x, y - 1), (x, y + 1)
    return (x - 1, y), (x + 1, y)


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
    ) -> "VertexConfig":
        i, j = pair
        if not 0 <= i < j < sys.nshifts:
            raise ValueError("pair must be two distinct direction indices in order")
        if generator.is_zero:
            raise ValueError("generator must be nonzero")
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
    if failures:
        return CheckReport(tuple(failures))
    balance: dict[Key, int] = {}
    for x, y, mult in config.edges:
        first, second = (canonical_key(config.lattice, c) for c in corners((x, y)))
        balance[first] = balance.get(first, 0) + mult
        balance[second] = balance.get(second, 0) - mult
    return CheckReport(tuple(
        CheckFailure("conservation", corner, None, one_based=False)
        for corner in sorted(balance)
        if balance[corner]
    ))


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
        raise StructureError("invalid configuration: " + report.describe())
    sys = config.sys
    i, j = config.pair
    lead, gen_monic = config.generator.make_monic()
    buckets: dict[int, list[tuple[Poly, int]]] = {i: [], j: []}
    for x, y, mult in config.edges:
        factor = gen_monic.shift(sys.combo((Fraction(x, 2), Fraction(y, 2)), (i, j)))
        buckets[i if x % 2 else j].append((factor, mult))
    entries = []
    for k in range(sys.nshifts):
        placed = buckets.get(k, [])
        unit = lead ** sum(mult for _, mult in placed)
        entries.append(FactoredPoly.from_factors(sys.nvars, placed, unit))
    return OrbitalPiece(config.generator, config.pair, FactoredSolution(sys, tuple(entries)))


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
    sys, entries = piece.solution.sys, piece.solution.entries
    q0 = piece.generator
    q0_monic = q0.make_monic()[1]
    i, j = pair
    placed = [(idx, m, half_shift(sys, idx, -1, q)) for idx in pair for q, m in entries[idx].factors]
    (gen_form, k0), *forms = orbit_forms(sys, [q0_monic] + [base for *_, base in placed], pair)
    edges: dict[Key, int] = {}
    for (idx, mult, _), (form, k) in zip(placed, forms):
        if form != gen_form:
            raise StructureError(f"factor of entry {idx + 1} does not sit on the orbit over the pair")
        a, b = k0[0] - k[0], k0[1] - k[1]
        key = (2 * a + 1, 2 * b) if idx == i else (2 * a, 2 * b + 1)
        edges[key] = edges.get(key, 0) + mult
    config = VertexConfig.build(sys, q0, (i, j), edges)
    report = validate(config)
    if not report.passed:
        raise StructureError("conservation fails; the piece is not a solution")
    return config


def _same_product(parts: Sequence[FactoredPoly], whole: FactoredPoly) -> bool:
    """Whether the product of `parts` equals `whole`.

    Equal units and equal factor multisets decide it without expanding;
    factors need not be irreducible, so only a mismatch is expanded.
    """
    joined = FactoredPoly.from_factors(
        whole.nvars,
        merge_factors(f for part in parts for f in part.factors).items(),
        prod(part.unit for part in parts),
    )
    if joined.unit == whole.unit and dict(joined.factors) == dict(whole.factors):
        return True
    return joined.expand() == whole.expand()


def classify(sol: FactoredSolution) -> tuple[VertexConfig, ...]:
    """Decompose a factored solution and encode every piece: one
    configuration per piece, in the order of `decompose`.

    As a final audit each piece must decode back to itself and the pieces
    must multiply back to the monic part of the input, entry by entry (the
    entries' units cancel in both identities and are dropped); a piece with
    trivial support is rejected since it has no grid picture.
    """
    pieces = decompose(sol)
    configs = []
    for piece in pieces:
        config = encode(piece)
        roundtrip = decode(config)
        pairs = zip(roundtrip.solution.entries, piece.solution.entries)
        if not all(_same_product([got], want) for got, want in pairs):
            raise StructureError("decode(encode(piece)) changed the piece")
        configs.append(config)
    for k, entry in enumerate(sol.entries):
        monic = FactoredPoly(entry.nvars, Fraction(1), entry.factors)
        if not _same_product([piece.solution.entries[k] for piece in pieces], monic):
            raise StructureError("pieces do not multiply back to the input")
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
    if lattice.rank != 1:
        raise StructureError("random staircases need a rank-1 restricted stabilizer")
    r, s = lattice.basis[0]
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
    return VertexConfig.build(sys, generator, (i, j), edges)


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
