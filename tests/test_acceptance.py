"""Acceptance gate: one timed, printed verdict per advertised guarantee.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they happen; without -s pytest shows them for failing tests only.  Every
comparison in this file is exact, there are no numeric tolerances.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import data_path, golden_path
from multiquiver_reference import factor_by_residue
from weylshift.consistency import (
    check_binary,
    check_nonsymmetric,
    check_ternary,
    symmetrize,
)
from weylshift.equivalence import (
    apply_linear,
    check_equivalence,
    linear_automorphism,
)
from weylshift.intlinalg import integer_kernel, matmul, rational_inverse
from weylshift.multiquiver import (
    build_solution,
    expected_piece_count,
    symmetrized_solution,
)
from weylshift.orbital import (
    FactoredPoly,
    FactoredSolution,
    decompose,
    factor_entry,
    support_pair,
    verify_orbital,
)
from weylshift.parser import parse_poly
from weylshift.poly import Poly
from weylshift.problemfile import load_path
from weylshift.shifts import (
    ShiftSystem,
    is_fixed_by_shift,
    same_orbit,
    stabilizer_lattice,
)
from weylshift.svg import render_svg
from weylshift.vertex import decode, encode, random_config


@contextmanager
def criterion(number, label, bound):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < bound, f"{elapsed:.2f}s exceeds the {bound}s budget"
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_staircase_products():
    doc = load_path(data_path("staircase.json"))
    with criterion(1, "staircase picture decodes to the displayed products", 1.0):
        piece = decode(doc.configs["fig"])
        assert [len(e.factors) for e in piece.solution.entries] == [2, 3, 0, 0]
        got = piece.solution.expand()
        want = doc.tuples["main"].as_factored().expand()
        assert got.polys == want.polys
        one = Poly.constant(3, 1)
        assert got.polys[2] == one and got.polys[3] == one
        assert check_binary(got).passed
        assert check_ternary(got).passed


def test_criterion_2_round_trip_and_stabilizers():
    doc = load_path(data_path("staircase.json"))
    fig = doc.configs["fig"]
    with criterion(2, "encode inverts decode and the stabilizers are right", 1.0):
        back = encode(decode(fig))
        # encode keeps the piece's generator, so it gives back the figure
        assert back == fig
        f = fig.generator
        assert stabilizer_lattice(doc.sys, f, (0, 1)) == ((3, 2),)
        assert stabilizer_lattice(doc.sys, f, (2, 3)) == ((1, 0), (0, 1))


def test_criterion_3_rank_two_pipeline():
    alpha = [[-1, 1, 0], [0, -1, 1]]
    gl3 = load_path(data_path("gl3.json"))
    with criterion(3, "rank-two pipeline from matrix to pieces", 1.0):
        sol = build_solution(alpha)
        expected = tuple(parse_poly(s, 2) for s in ("u1 - 1", "u1*(u2 - 1)", "u2"))
        assert sol.polys == expected
        assert check_nonsymmetric(sol).passed
        sym = symmetrize(sol)
        assert check_binary(sym).passed
        assert check_ternary(sym).passed
        entries = tuple(factor_entry(p) for p in sym.polys)
        assert all(e is not None for e in entries)
        pieces = decompose(FactoredSolution(sym.sys, entries))
        assert len(pieces) == 2
        assert {support_pair(p) for p in pieces} == {(0, 1), (1, 2)}
        # the tuple as printed elsewhere has a sign slip and must fail
        alt = gl3.tuples["gl3_alt"].as_solution()
        report = check_binary(alt)
        assert not report.passed
        fail = next(f for f in report.failures if f.indices == (0, 1))
        assert fail.witness is not None and not fail.witness.is_zero


def _unit_vector(m, a):
    vec = [0] * m
    vec[a] = 1
    return vec


def _random_orbit_instance(rng, q, fixing, mover, r, s, m, n, loops):
    """Random shift matrix whose restricted stabilizer on a chosen pair
    is exactly the lattice spanned by (r, s); decode a random picture on
    that orbit and require both consistency checks to pass."""
    i = rng.randrange(n - 1)
    j = rng.randrange(i + 1, n)
    cols = []
    for d in range(n):
        combo = [0] * m
        for vec in fixing:
            c = rng.randint(-2, 2)
            for t in range(m):
                combo[t] += c * vec[t]
        if d == i:
            col = [s * mover[t] + combo[t] for t in range(m)]
        elif d == j:
            col = [-r * mover[t] + combo[t] for t in range(m)]
        else:
            col = combo
        cols.append(col)
    rows = [[cols[d][t] for d in range(n)] for t in range(m)]
    sys = ShiftSystem.from_rows(rows)
    assert stabilizer_lattice(sys, q, (i, j)) == ((r, s),)
    config = random_config(sys, q, (i, j), loops=loops, seed=rng.randrange(10**6))
    sol = decode(config).solution.expand()
    assert check_binary(sol).passed
    assert check_ternary(sol).passed


def _embedded_cubic(a, b, c):
    ub, uc, ua = Poly.variable(3, b), Poly.variable(3, c), Poly.variable(3, a)
    wall = ub + uc
    return wall * wall - (ua * ua * ua - ua + Poly.constant(3, 1))


def test_criterion_4_binary_implies_ternary_corpus():
    rng = random.Random(20260825)
    spans = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, 3), (3, 1))
    with criterion(4, "200 random decoded tuples pass both checks", 60.0):
        count = 0
        for _ in range(185):
            m = rng.choice((2, 3))
            n = rng.choice((3, 4))
            a = rng.randrange(m)
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            base = Poly.variable(m, a) + Poly.constant(m, c)
            q = base if rng.random() < 0.6 else base * base
            fixing = [_unit_vector(m, b) for b in range(m) if b != a]
            r, s = rng.choice(spans)
            _random_orbit_instance(
                rng, q, fixing, _unit_vector(m, a), r, s, m, n,
                loops=rng.randint(1, 4),
            )
            count += 1
        for _ in range(18):
            n = rng.choice((3, 4))
            a, b, c = rng.sample(range(3), 3)
            q = _embedded_cubic(a, b, c)
            fixing = [[int(t == b) - int(t == c) for t in range(3)]]
            r, s = rng.choice(((1, 1), (1, 2), (2, 1)))
            _random_orbit_instance(
                rng, q, fixing, _unit_vector(3, a), r, s, 3, n, loops=1
            )
            count += 1
        assert count >= 200


def _poly_in_forms(rng, m, basis):
    forms = []
    for vec in basis:
        acc = Poly.zero(m)
        for k, c in enumerate(vec):
            if c:
                acc = acc + Poly.variable(m, k) * Fraction(c)
        forms.append(acc)
    q = Poly.constant(m, Fraction(rng.randint(-3, 3)))
    for form in forms[:2]:
        power = form
        for _ in range(rng.randint(0, 1)):
            power = power * form
        q = q + power * Fraction(rng.randint(-3, 3))
    return q


def _random_poly(rng, m):
    q = Poly.constant(m, Fraction(rng.randint(-5, 5)))
    for _ in range(rng.randint(1, 3)):
        term = Poly.constant(m, Fraction(rng.randint(-5, 5)))
        for k in range(m):
            for _ in range(rng.randint(0, 2)):
                term = term * Poly.variable(m, k)
        q = q + term
    return q


def test_criterion_5_fixedness_oracle():
    rng = random.Random(4074)
    with criterion(5, "fixedness test agrees with literal shifting", 5.0):
        checked = fixed_seen = moved_seen = 0
        for _ in range(60):
            m = rng.choice((2, 3))
            beta = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2))) for _ in range(m)]
            if all(x == 0 for x in beta):
                beta[0] = Fraction(1)
            perp = integer_kernel([beta], m)
            planted = _poly_in_forms(rng, m, perp)
            moved_idx = max(range(m), key=lambda k: abs(beta[k]))
            candidates = [planted, planted + Poly.variable(m, moved_idx), _random_poly(rng, m)]
            for q in candidates:
                if q.is_zero:
                    continue
                truth = q.shift(beta) == q
                assert is_fixed_by_shift(q, beta) is truth
                seven = [7 * x for x in beta]
                assert (q.shift(seven) == q) is truth
                checked += 1
                fixed_seen += truth
                moved_seen += not truth
        assert checked >= 100
        assert fixed_seen >= 20 and moved_seen >= 20


def _entrywise_product(parts):
    sys = parts[0].sys
    entries = []
    for idx in range(sys.nshifts):
        unit = Fraction(1)
        factors = []
        for fs in parts:
            entry = fs.entries[idx]
            unit *= entry.unit
            factors.extend(entry.factors)
        entries.append(FactoredPoly.from_factors(sys.nvars, factors, unit))
    return FactoredSolution(sys, tuple(entries))


def test_criterion_6_orbital_factorization():
    with criterion(6, "pieces recombine exactly and stay on separate orbits", 30.0):
        corpus = []
        sym = symmetrize(build_solution([[-1, 1, 0], [0, -1, 1]]))
        entries = tuple(factor_entry(p) for p in sym.polys)
        corpus.append((FactoredSolution(sym.sys, entries), 2))
        for beta, k in (
            ([[2, -2]], 2), ([[2, -4]], 2), ([[4, -2]], 2), ([[2, -6]], 2),
            ([[6, -4]], 2), ([[3, -3]], 3), ([[6, -3]], 3), ([[3, -6]], 3),
        ):
            corpus.append((symmetrized_solution(beta), k))
        sys2 = ShiftSystem.from_rows([[1, -1], [1, -1]])
        gens = {
            "u1": parse_poly("u1", 2),
            "u2": parse_poly("u2", 2),
            "u1s": parse_poly("u1 - 1/3", 2),
            "u1h": parse_poly("u1 + 1/2", 2),
            "sq": parse_poly("u1^2", 2),
        }
        for names, seeds in (
            (("u1", "u2"), (11, 12)),
            (("u1", "u1s"), (13, 14)),
            (("sq", "u2"), (15, 16)),
            (("u1", "u2", "u1s"), (17, 18, 19)),
            (("u1", "u1h", "u2"), (20, 21, 22)),
        ):
            parts = [
                decode(random_config(sys2, gens[name], (0, 1), loops=2, seed=seed)).solution
                for name, seed in zip(names, seeds)
            ]
            corpus.append((_entrywise_product(parts), len(parts)))
        for fs, expected in corpus:
            pieces = decompose(fs)
            assert len(pieces) == expected
            rebuilt = _entrywise_product([p.solution for p in pieces])
            for built, original in zip(rebuilt.entries, fs.entries):
                assert built.expand() == original.expand()
            for piece in pieces:
                assert verify_orbital(piece).passed
            full = tuple(range(fs.sys.nshifts))
            for x in range(len(pieces)):
                for y in range(x + 1, len(pieces)):
                    apart = same_orbit(
                        fs.sys,
                        pieces[x].generator,
                        pieces[y].generator,
                        full,
                    )
                    assert apart is None


def _factor_fingerprints(pieces):
    prints = set()
    for piece in pieces:
        marks = []
        for i, entry in enumerate(piece.solution.entries):
            assert entry.unit == 1
            marks.extend((i, q, mult) for q, mult in entry.factors)
        prints.add(frozenset(marks))
    return prints


def test_criterion_7_multiquiver_counting():
    rng = random.Random(7451)
    with criterion(7, "piece counts match the row gcd total on 50 matrices", 30.0):
        for _ in range(50):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(2, 4)
            beta = []
            for _ in range(nrows):
                row = [0] * ncols
                i, j = rng.sample(range(ncols), 2)
                row[i] = rng.randint(1, 6)
                row[j] = -rng.randint(1, 6)
                beta.append(row)
            pieces = decompose(symmetrized_solution(beta))
            want = expected_piece_count(beta)
            assert len(pieces) == want
            arithmetic = factor_by_residue(beta)
            assert len(arithmetic) == want
            assert _factor_fingerprints(pieces) == _factor_fingerprints(arithmetic)


def _random_invertible(rng, m):
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        if rational_inverse(rows) is not None:
            return rows


def test_criterion_8_equivalence_action():
    rng = random.Random(8319)
    gl3 = load_path(data_path("gl3.json"))
    stair = load_path(data_path("staircase.json"))
    passing = gl3.tuples["gl3_sym"].as_solution()
    failing = gl3.tuples["gl3_alt"].as_solution()
    big = stair.tuples["main_monic"].as_solution()
    with criterion(8, "linear action preserves verdicts and composes", 10.0):
        checked = 0
        for sol, verdict, trials in ((passing, True, 10), (failing, False, 8), (big, True, 2)):
            for _ in range(trials):
                g = _random_invertible(rng, sol.sys.nvars)
                moved = apply_linear(g, sol)
                assert check_binary(moved).passed is verdict
                psi = linear_automorphism(g)
                assert check_equivalence(psi, sol, moved).passed
                checked += 1
        assert checked >= 20
        for _ in range(5):
            g = _random_invertible(rng, 2)
            h = _random_invertible(rng, 2)
            once = apply_linear(g, apply_linear(h, passing))
            combined = apply_linear(matmul(g, h), passing)
            assert once.sys.alpha == combined.sys.alpha
            assert once.polys == combined.polys


def test_criterion_9_svg_golden():
    doc = load_path(data_path("staircase.json"))
    with criterion(9, "picture bytes match the committed file", 1.0):
        with open(golden_path("staircase.svg"), "rb") as handle:
            golden = handle.read()
        assert render_svg(doc.configs["fig"]).encode("utf-8") == golden
