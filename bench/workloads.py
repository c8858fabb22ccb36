"""Seeded inputs for the three workloads, written as problem files.

Every workload is a fixed list of operation classes.  The seed draws the
constants, staircase shapes and integer matrices inside each class, so
every seed gives a round of the same make-up and nearly the same cost.
Building the files uses weylshift's own library (decode, expand,
symmetrized_solution); the outputs are then checked by `oracle`, which
does not.  Each operation is a JSON-able dict: its `kind`, its CLI
`argv`, the `check` that applies to its output, the seed of the oracle's
`points`, and for classify the superposed `configs`.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

STAIRCASE = "staircase.json"
GL3 = "gl3.json"

# Monic generators in u1 and w = u2 + u3.  Directions 3 and 4 of the
# staircase system fix u1 and w, so each generator is fixed by every
# direction outside the pair (1, 2), where its stabilizer is (3, 2).  The
# 1/3 terms, and offsets k + 1/3, keep every coefficient of every shifted
# copy nonzero: a coefficient that vanishes for some shifts and not others
# makes operations of one class differ in cost by a fifth.
STAIRCASE_FAMILIES = {
    "lin": "u1 + u2 + u3",
    "quad": "u1^2 + 1/3*u1 + u2 + u3",
    "wall": "u1 - (u2 + u3)^2 + 1/3*(u2 + u3)",
    "cubic": "u1^3 - u1 - (u2 + u3)^2",
}
STAIRCASE_LATTICE = (3, 2)

# Linear generators on the gl3 system, each with its pair.  The third
# direction fixes the generator and the stabilizer on the pair is (1, 1).
# Two generators of one family share an orbit exactly when their offsets
# differ by an integer, so distinct fractional parts give distinct orbits;
# nonzero ones keep the constant term of every shifted copy nonzero.
GL3_FAMILIES = {"a": ("u1", [1, 2]), "b": ("u2", [2, 3]), "d": ("u1 + u2", [1, 3])}
GL3_LATTICE = (1, 1)
FRACTIONAL_PARTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4)]

# Operation classes of one round.  The counts put the median and the 90th
# percentile near the middle of large classes of nearly one cost (lin1
# and lin2 for verify, gl3-6 and stair2 for classify), not on a boundary
# between classes; the classes above the median have no corrupted
# copies, whose cost differs.  Single operations of 1 s or more (a 2-loop
# `quad` or a 3-loop staircase) are left out: the cost of one varies by a
# quarter with the seed, which alone moves ops_per_s by several percent.
# (label, generator family, loops, count, of which corrupted)
VERIFY_STAIRCASES = [
    ("lin1", "lin", 1, 39, 9),
    ("quad1", "quad", 1, 9, 0),
    ("wall1", "wall", 1, 1, 0),
    ("lin2", "lin", 2, 9, 0),
]
# (label, (columns, entry sizes), count, of which corrupted); a matrix has
# one row per two sizes
VERIFY_BETAS = [("beta-small", (3, (1, 2, 2, 3)), 5, 2), ("beta-mid", (4, (1, 1, 2, 2, 3, 3)), 5, 2)]
# verify-expanded only: (label, family, loops, count) and (label, matrix, count)
NONSYM_STAIRCASES = [("nonsym-lin1", "lin", 1, 3), ("nonsym-lin2", "lin", 2, 3)]
NONSYM_BETAS = [("nonsym-beta-small", (3, (1, 2, 2, 3)), 3), ("nonsym-beta-mid", (4, (1, 1, 2, 2, 3, 3)), 3)]
# classify-orbits: decodes, then superpositions of 1-loop orbits as
# (label, families, count): on gl3, on gl3 supplied expanded, and on the
# staircase system.
DECODE_STAIRCASES = 8
DECODE_GL3 = 8
CLASSIFY_GL3 = [("gl3-6", "aabbdd", 14), ("gl3-9", "aaabbbddd", 9)]
CLASSIFY_EXPANDED = [("exp2", "ab", 3), ("exp3", "aab", 2)]
CLASSIFY_STAIRCASES = [("stair2", ("lin", "quad"), 12)]

CORRUPTION = Fraction(1, 7)


def system_doc(data_dir: str, name: str) -> dict:
    with open(os.path.join(data_dir, name), encoding="utf-8") as handle:
        doc = json.load(handle)
    return {"m": doc["m"], "n": doc["n"], "alpha": doc["alpha"]}


def with_offset(base: str, c: Fraction) -> str:
    if c == 0:
        return base
    return f"{base} {'-' if c < 0 else '+'} {abs(c)}"


def staircase_edges(rng: random.Random, lattice: tuple[int, int], loops: int) -> list[list[int]]:
    """Superpose `loops` random monotone staircases of s up-steps and r
    right-steps on the doubled grid, for the stabilizer (r, s), each
    starting at an odd vertex in [-1, 3]^2; each closes on the cylinder.
    Keys are left unreduced."""
    r, s = lattice
    edges: dict[tuple[int, int], int] = {}
    for _ in range(loops):
        word = ["up"] * s + ["right"] * r
        rng.shuffle(word)
        x = 2 * rng.randint(-1, 1) + 1
        y = 2 * rng.randint(-1, 1) + 1
        for step in word:
            if step == "up":
                key = (x, y + 1)
                y += 2
            else:
                key = (x + 1, y)
                x += 2
            edges[key] = edges.get(key, 0) + 1
    return [[x, y, m] for (x, y), m in sorted(edges.items())]


def staircase_config(rng: random.Random, family: str, loops: int) -> dict:
    c = rng.randint(-1, 1) + Fraction(1, 3)
    return {
        "generator": with_offset(STAIRCASE_FAMILIES[family], c),
        "pair": [1, 2],
        "edges": staircase_edges(rng, STAIRCASE_LATTICE, loops),
    }


def gl3_config(rng: random.Random, family: str, offset: Fraction, loops: int) -> dict:
    base, pair = GL3_FAMILIES[family]
    return {"generator": with_offset(base, -offset), "pair": pair, "edges": staircase_edges(rng, GL3_LATTICE, loops)}


def random_beta(rng: random.Random, cols: int, magnitudes: tuple[int, ...]) -> list[list[int]]:
    """Rows with one positive and one negative entry, as multiquiver
    accepts, in random columns; the entries' sizes are `magnitudes`
    shuffled, so every matrix has the same number of linear factors."""
    sizes = list(magnitudes)
    rng.shuffle(sizes)
    beta = []
    for r in range(len(sizes) // 2):
        row = [0] * cols
        i, j = rng.sample(range(cols), 2)
        row[i], row[j] = sizes[2 * r], -sizes[2 * r + 1]
        beta.append(row)
    return beta


class _Writer:
    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.count = 0

    def write(self, doc: dict) -> tuple[str, int]:
        """Write a problem file; return its path and the seed of the
        oracle's points for it."""
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
        return path, self.seed * 100003 + self.count


def _decoded(sysdoc: dict, configs: list[dict]):
    """Entrywise product of the decoded configurations, as a FactoredSolution."""
    from weylshift import problemfile as pf
    from weylshift.orbital import FactoredPoly, FactoredSolution
    from weylshift.vertex import decode

    loaded = pf.load_obj(dict(sysdoc, configs={f"c{k}": c for k, c in enumerate(configs)}))
    parts = [decode(config).solution for config in loaded.configs.values()]
    entries = []
    for k in range(loaded.sys.nshifts):
        factors = [f for part in parts for f in part.entries[k].factors]
        entries.append(FactoredPoly.from_factors(loaded.sys.nvars, factors))
    return FactoredSolution(loaded.sys, tuple(entries))


def _corrupt(obj: dict, rng: random.Random) -> dict:
    """Add 1/7 to one factor of a nonconstant entry, or to the entry itself."""
    obj = json.loads(json.dumps(obj))
    if obj["form"] == "factored":
        entry = rng.choice([e for e in obj["entries"] if e["factors"]])
        factor = rng.choice(entry["factors"])
        factor[0] = f"{factor[0]} + {CORRUPTION}"
    else:
        k = rng.choice([k for k, p in enumerate(obj["polys"]) if "u" in p])
        obj["polys"][k] = f"{obj['polys'][k]} + {CORRUPTION}"
    return obj


def _op(kind: str, verb: str, writer: _Writer, doc: dict, **extra) -> dict:
    path, points = writer.write(doc)
    return dict(kind=kind, argv=[verb, path], check=verb, points=points, **extra)


def build_verify(sysdocs: dict, seed: int, workdir: str, expanded: bool) -> list[dict]:
    """The same seeded tuples for both verify workloads: factored, or
    expanded in sym form plus the nonsym tuples."""
    from weylshift import problemfile as pf
    from weylshift.consistency import unsymmetrize
    from weylshift.multiquiver import build_solution, symmetrized_solution

    rng = random.Random(seed * 31 + 1)
    stair = sysdocs[STAIRCASE]
    tuples = []  # (label, factored solution, corrupted)
    for label, family, loops, count, corrupted in VERIFY_STAIRCASES:
        for k in range(count):
            tuples.append((label, _decoded(stair, [staircase_config(rng, family, loops)]), k < corrupted))
    for label, shape, count, corrupted in VERIFY_BETAS:
        for k in range(count):
            tuples.append((label, symmetrized_solution(random_beta(rng, *shape)), k < corrupted))
    nonsym = []  # (label, full-shift SolutionTuple)
    for label, family, loops, count in NONSYM_STAIRCASES:
        for _ in range(count):
            sym = _decoded(stair, [staircase_config(rng, family, loops)]).expand()
            nonsym.append((label, unsymmetrize(sym)))
    for label, shape, count in NONSYM_BETAS:
        for _ in range(count):
            nonsym.append((label, build_solution(random_beta(rng, *shape))))

    corrupt_rng = random.Random(seed * 31 + 2)
    writer = _Writer(workdir, seed)
    ops = []
    for label, fs, corrupted in tuples:
        obj = pf.solution_obj(fs.expand(), "sym") if expanded else pf.factored_obj(fs)
        if corrupted:
            obj = _corrupt(obj, corrupt_rng)
            label += "-bad"
        ops.append(_op(label, "verify", writer, pf.file_obj(fs.sys, tuples={"t": obj})))
    if expanded:
        for label, sol in nonsym:
            doc = pf.file_obj(sol.sys, tuples={"t": pf.solution_obj(sol, "nonsym")})
            ops.append(_op(label, "verify", writer, doc))
    return ops


def _gl3_orbits(rng: random.Random, families: str, fractional) -> list[dict]:
    """One 1-loop configuration per letter of `families`, on pairwise
    distinct orbits.  With one loop no two edges merge, so every tuple of a
    class has the same number of factors."""
    used: dict[str, list] = {}
    configs = []
    for family in families:
        frac = rng.choice([f for f in fractional if f not in used.setdefault(family, [])])
        used[family].append(frac)
        configs.append(gl3_config(rng, family, frac + rng.randint(-1, 1), 1))
    return configs


def _classify_op(kind: str, writer: _Writer, sysdoc: dict, configs: list[dict], expanded: bool) -> dict:
    from weylshift import problemfile as pf

    fs = _decoded(sysdoc, configs)
    obj = pf.solution_obj(fs.expand(), "sym") if expanded else pf.factored_obj(fs)
    return _op(kind, "classify", writer, dict(sysdoc, tuples={"t": obj}), configs=configs)


def build_classify(sysdocs: dict, seed: int, workdir: str) -> list[dict]:
    rng = random.Random(seed * 31 + 3)
    writer = _Writer(workdir, seed)
    ops = []
    stair, gl3 = sysdocs[STAIRCASE], sysdocs[GL3]
    for _ in range(DECODE_STAIRCASES):
        config = staircase_config(rng, rng.choice(list(STAIRCASE_FAMILIES)), rng.randint(1, 2))
        ops.append(_op("decode-stair", "decode", writer, dict(stair, configs={"c": config})))
    for _ in range(DECODE_GL3):
        offset = rng.randint(-3, 3) + rng.choice(FRACTIONAL_PARTS)
        config = gl3_config(rng, rng.choice(list(GL3_FAMILIES)), offset, rng.randint(1, 3))
        ops.append(_op("decode-gl3", "decode", writer, dict(gl3, configs={"c": config})))
    for label, families, count in CLASSIFY_GL3:
        for _ in range(count):
            configs = _gl3_orbits(rng, families, FRACTIONAL_PARTS)
            ops.append(_classify_op(label, writer, gl3, configs, False))
    for label, families, count in CLASSIFY_EXPANDED:
        for _ in range(count):
            configs = _gl3_orbits(rng, families, FRACTIONAL_PARTS[:3])
            ops.append(_classify_op(label, writer, gl3, configs, True))
    for label, families, count in CLASSIFY_STAIRCASES:
        for _ in range(count):
            configs = [staircase_config(rng, f, 1) for f in families]
            ops.append(_classify_op(label, writer, stair, configs, False))
    return ops


BY_NAME = {
    "verify-factored": lambda sysdocs, seed, workdir: build_verify(sysdocs, seed, workdir, False),
    "verify-expanded": lambda sysdocs, seed, workdir: build_verify(sysdocs, seed, workdir, True),
    "classify-orbits": build_classify,
}
