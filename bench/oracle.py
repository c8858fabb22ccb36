"""Independent checks of weylshift's CLI output.

Expression strings from problem files are evaluated by Python's own
evaluator on Fractions at seeded rational points.  Nothing here imports
weylshift: the parser, Poly and the checkers under test are never used.
A polynomial identity is taken to hold when both sides agree at every
point; random points with large numerators make a false agreement
practically impossible, and a disagreement is a proof of failure.
"""

from __future__ import annotations

import functools
import json
import random
import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence

Point = tuple[Fraction, ...]

POINTS = 2  # seeded points at which every identity is evaluated

_TOKEN = re.compile(r"\s*(?:u(\d+)|(\d+)(?:\s*/\s*(\d+))?|(\^)|([-+*()]))")


@functools.cache
def compile_expr(text: str, m: int):
    """Translate a problem-file expression into Python source and compile it.

    A literal `a/b` becomes one Fraction, as in the problem-file grammar;
    `^` becomes `**`; variable `uK` becomes `x[K-1]`.
    """
    out, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot read expression {text!r} at {pos}")
        var, num, den, caret, op = match.groups()
        if var is not None:
            index = int(var)
            if not 1 <= index <= m:
                raise ValueError(f"variable u{index} out of range in {text!r}")
            out.append(f"x[{index - 1}]")
        elif num is not None:
            out.append(f"F({num},{den or 1})")
        elif caret is not None:
            out.append("**")
        else:
            out.append(op)
        pos = match.end()
    return compile("".join(out), "<expr>", "eval")


def evaluate(text: str, point: Point) -> Fraction:
    value = eval(compile_expr(text, len(point)), {"__builtins__": {}, "F": Fraction}, {"x": point})
    return Fraction(value)


def rational(value) -> Fraction:
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


def seeded_points(seed: int, m: int) -> list[Point]:
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997)) for _ in range(m))
        for _ in range(POINTS)
    ]


def columns(doc: dict) -> list[tuple[Fraction, ...]]:
    alpha = [[rational(v) for v in row] for row in doc["alpha"]]
    return [tuple(row[i] for row in alpha) for i in range(doc["n"])]


def moved(point: Point, *terms: tuple[Fraction, Sequence[Fraction]]) -> Point:
    """point + sum of coefficient * vector."""
    out = list(point)
    for coeff, vec in terms:
        for t, v in enumerate(vec):
            out[t] += coeff * v
    return tuple(out)


def entry_functions(obj: dict) -> list[Callable[[Point], Fraction]]:
    """One evaluator per entry of a tuple object, in any of the three forms."""
    if obj.get("form", "sym") == "factored":
        funcs = []
        for entry in obj["entries"]:
            unit = rational(entry.get("unit", 1))
            factors = [(text, int(mult)) for text, mult in entry.get("factors", [])]

            def value(pt, unit=unit, factors=factors):
                acc = unit
                for text, mult in factors:
                    acc *= evaluate(text, pt) ** mult
                return acc

            funcs.append(value)
        return funcs
    return [lambda pt, text=text: evaluate(text, pt) for text in obj["polys"]]


# ----------------------------------------------------------------------
# verify


def expected_failures(doc: dict, name: str, points: Iterable[Point]) -> tuple[str, set]:
    """The form `verify` uses and the exact set of failing identities,
    each as (relation, 1-based indices as the CLI prints them)."""
    obj = doc["tuples"][name]
    form = "nonsym" if obj.get("form", "sym") == "nonsym" else "sym"
    funcs = entry_functions(obj)
    cols = columns(doc)
    n = doc["n"]
    cache: dict[tuple[int, Point], Fraction] = {}

    def p(k: int, pt: Point) -> Fraction:
        key = (k, pt)
        if key not in cache:
            cache[key] = funcs[k](pt)
        return cache[key]

    half = Fraction(1, 2)
    failures: set[tuple[str, tuple[int, ...]]] = set()
    for pt in points:
        for i in range(n):
            for j in range(i + 1, n):
                ai, aj = cols[i], cols[j]
                if form == "sym":
                    lhs = p(i, moved(pt, (-half, aj))) * p(j, moved(pt, (-half, ai)))
                    rhs = p(i, moved(pt, (half, aj))) * p(j, moved(pt, (half, ai)))
                    rel = "binary"
                else:
                    both = moved(pt, (-1, ai), (-1, aj))
                    lhs = p(i, both) * p(j, both)
                    rhs = p(i, moved(pt, (-1, ai))) * p(j, moved(pt, (-1, aj)))
                    rel = "nonsym-binary"
                if lhs != rhs:
                    failures.add((rel, (i + 1, j + 1)))
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    if k in (i, j):
                        continue
                    ai, aj = cols[i], cols[j]
                    if form == "sym":
                        plus = moved((0,) * len(pt), (half, ai), (half, aj))
                        minus = moved((0,) * len(pt), (half, ai), (-half, aj))
                        lhs = p(k, moved(pt, (-1, plus))) * p(k, moved(pt, (1, plus)))
                        rhs = p(k, moved(pt, (-1, minus))) * p(k, moved(pt, (1, minus)))
                        rel = "ternary"
                    else:
                        lhs = p(k, moved(pt, (-1, ai), (-1, aj))) * p(k, pt)
                        rhs = p(k, moved(pt, (-1, ai))) * p(k, moved(pt, (-1, aj)))
                        rel = "nonsym-ternary"
                    if lhs != rhs:
                        failures.add((rel, (i + 1, j + 1, k + 1)))
    return form, failures


_VERDICT = re.compile(r"tuple (\S+) \((sym|nonsym) form\): (PASS|FAIL)$")
_FAILURE = re.compile(r"\s+(\S+) fails at \(([\d,]+)\)")


def check_verify(doc: dict, name: str, expected: tuple[str, set], code: int, stdout: str) -> str | None:
    """None when the CLI's verdict, exit code and failure set are right,
    otherwise a one-line reason."""
    form, failures = expected
    lines = stdout.splitlines()
    head = _VERDICT.match(lines[0]) if lines else None
    if head is None:
        return f"unreadable verify output {stdout[:80]!r}"
    want_verdict = "FAIL" if failures else "PASS"
    if head.group(1) != name or head.group(2) != form or head.group(3) != want_verdict:
        return f"verdict line {lines[0]!r}, expected {form} {want_verdict}"
    if code != (1 if failures else 0):
        return f"exit code {code} for a {want_verdict}"
    got = set()
    for line in lines[1:]:
        match = _FAILURE.match(line)
        if match is None:
            return f"unreadable failure line {line[:80]!r}"
        got.add((match.group(1), tuple(int(v) for v in match.group(2).split(","))))
    if got != failures:
        return f"failing identities {sorted(got)}, expected {sorted(failures)}"
    return None


# ----------------------------------------------------------------------
# decode and classify


def edge_factor_value(gen: str, cols, pair, x: int, y: int, pt: Point) -> Fraction:
    """The generator at pt shifted back by x/2 column(i) + y/2 column(j)."""
    ci, cj = cols[pair[0] - 1], cols[pair[1] - 1]
    return evaluate(gen, moved(pt, (-Fraction(x, 2), ci), (-Fraction(y, 2), cj)))


def check_decode(doc: dict, code: int, stdout: str, points: Iterable[Point]) -> str | None:
    """Each decoded entry equals, at every point, the product over the
    configuration's edges of the generator at the shifted point."""
    if code != 0:
        return f"decode exit code {code}"
    out = json.loads(stdout)
    if [[rational(v) for v in row] for row in out["alpha"]] != [
        [rational(v) for v in row] for row in doc["alpha"]
    ]:
        return "decode changed the shift matrix"
    cols = columns(doc)
    if set(out["tuples"]) != set(doc["configs"]):
        return f"decoded tuples {sorted(out['tuples'])}, expected {sorted(doc['configs'])}"
    for cname, config in doc["configs"].items():
        funcs = entry_functions(out["tuples"][cname])
        pair = config["pair"]
        for pt in points:
            want = [Fraction(1)] * doc["n"]
            for x, y, mult in config["edges"]:
                k = pair[0] - 1 if x % 2 else pair[1] - 1
                want[k] *= edge_factor_value(config["generator"], cols, pair, x, y, pt) ** mult
            got = [f(pt) for f in funcs]
            if got != want:
                bad = next(k for k in range(doc["n"]) if got[k] != want[k])
                return f"{cname}: decoded entry {bad + 1} disagrees with the edge product"
    return None


def _canonical(edges, lattice) -> dict[tuple[int, int], int]:
    """Multiset of edges reduced modulo twice a rank-0 or rank-1 lattice."""
    out: dict[tuple[int, int], int] = {}
    for x, y, mult in edges:
        if lattice:
            r, s = lattice[0]
            t = x // (2 * r) if r else y // (2 * s)
            x, y = x - 2 * r * t, y - 2 * s * t
        out[(x, y)] = out.get((x, y), 0) + mult
    return out


def _matches(piece: dict, config: dict, cols, points) -> bool:
    """Whether an even translation carries the piece onto the input
    configuration, with the piece's generator equal to the moved input
    generator."""
    if piece["pair"] != config["pair"] or not piece["edges"]:
        return False
    lattice = piece["lattice"]
    if len(lattice) > 1:
        return False
    want = _canonical(config["edges"], lattice)
    x0, y0, _ = piece["edges"][0]
    for x, y, _ in config["edges"]:
        dx, dy = x - x0, y - y0
        if dx % 2 or dy % 2:
            continue
        if _canonical([(a + dx, b + dy, m) for a, b, m in piece["edges"]], lattice) != want:
            continue
        ci, cj = cols[piece["pair"][0] - 1], cols[piece["pair"][1] - 1]
        if all(
            evaluate(piece["generator"], pt)
            == evaluate(config["generator"], moved(pt, (-Fraction(dx, 2), ci), (-Fraction(dy, 2), cj)))
            for pt in points
        ):
            return True
    return False


def check_classify(doc: dict, configs: list[dict], code: int, stdout: str, points) -> str | None:
    """One piece per superposed orbit, each matching one input configuration
    up to a translation modulo twice its stated lattice, with its stated
    lattice fixing its generator."""
    if code != 0:
        return f"classify exit code {code}"
    pieces = json.loads(stdout)["pieces"]
    if len(pieces) != len(configs):
        return f"{len(pieces)} pieces for {len(configs)} superposed orbits"
    cols = columns(doc)
    unmatched = list(range(len(configs)))
    for piece in pieces:
        ci, cj = cols[piece["pair"][0] - 1], cols[piece["pair"][1] - 1]
        for r, s in piece["lattice"]:
            for pt in points:
                if evaluate(piece["generator"], moved(pt, (-r, ci), (-s, cj))) != evaluate(piece["generator"], pt):
                    return f"stated lattice {piece['lattice']} moves {piece['generator']}"
        home = next((k for k in unmatched if _matches(piece, configs[k], cols, points)), None)
        if home is None:
            return f"piece on {piece['generator']} matches no input configuration"
        unmatched.remove(home)
    return None
