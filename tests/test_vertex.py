import random
from collections import Counter
from fractions import Fraction
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orbit_reference import combo
from vertex_reference import reference_conservation
from weylshift import problemfile as pf
from weylshift.consistency import check_binary, check_factored, check_ternary
from weylshift.orbital import (
    FactoredPoly,
    FactoredSolution,
    OrbitalPiece,
    StructureError,
    decompose,
)
from weylshift.parser import parse_poly
from weylshift.poly import Poly, merge_factors
from weylshift.shifts import ShiftSystem, half_shift, orbit_forms, same_orbit, stabilizer_lattice
from weylshift.vertex import (
    VertexConfig,
    canonical_key,
    classify,
    corners,
    decode,
    encode,
    random_config,
    validate,
)

GL3 = ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 1]])
STAIR = ShiftSystem.from_rows([[2, -3, 0, 0], [4, -5, 1, -3], [-2, 2, -1, 3]])
F = parse_poly("(u2 + u3)^2 - (u1^3 - u1 + 1)", 3)

LAT32 = ((3, 2),)


def gl3_config(edges):
    return VertexConfig.build(GL3, Poly.variable(2, 0), (0, 1), edges)


def _fp(*exprs):
    return FactoredPoly.from_factors(2, [(parse_poly(s, 2), 1) for s in exprs])


def test_canonical_key():
    assert canonical_key(LAT32, (6, 3)) == (0, -1)
    assert canonical_key(LAT32, (1, 0)) == (1, 0)
    assert canonical_key(LAT32, (-1, 0)) == (5, 4)
    assert canonical_key(LAT32, (7, 8)) == (1, 4)
    vertical = ((0, 1),)
    assert canonical_key(vertical, (4, 7)) == (4, 1)
    assert canonical_key((), (9, -9)) == (9, -9)


def test_build_merges_and_canonicalizes():
    cfg = gl3_config([(1, 0, 1), (3, 2, 2), (2, 1, 0)])
    # (3, 2) is (1, 0) plus twice the stabilizer generator (1, 1)
    assert cfg.edges == ((1, 0, 3),)
    assert cfg.multiplicities == {(1, 0): 3}
    assert canonical_key(cfg.lattice, (5, 4)) == (1, 0)


def test_build_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        gl3_config([(1, 0, -1)])
    with pytest.raises(ValueError, match="pair"):
        VertexConfig.build(GL3, Poly.variable(2, 0), (1, 0), [])
    with pytest.raises(ValueError, match="nonzero"):
        VertexConfig.build(GL3, Poly.zero(2), (0, 1), [])
    both_fix = ShiftSystem.from_rows([[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="no grid geometry"):
        VertexConfig.build(both_fix, Poly.variable(2, 0), (0, 1), [])


def test_build_accepts_nonmonic_generator(staircase_config):
    assert staircase_config.generator == F
    assert staircase_config.lattice == ((3, 2),)
    assert staircase_config.edges == (
        (0, -1, 1),
        (1, 0, 1),
        (2, 1, 1),
        (3, 2, 1),
        (4, 3, 1),
    )


def test_validate_figure_and_empty(staircase_config):
    assert validate(staircase_config).passed
    assert validate(gl3_config([])).passed


def test_validate_parity():
    report = validate(gl3_config([(0, 2, 1)]))
    assert not report.passed
    assert report.failures[0].relation == "parity"
    assert "(0,2)" in report.describe()


def test_validate_canonical_form():
    # the constructor canonicalizes, so plant a raw key by hand
    cfg = VertexConfig(GL3, Poly.variable(2, 0), (0, 1), ((1, 1),), ((3, 2, 1),))
    report = validate(cfg)
    assert any(f.relation == "canonical" for f in report.failures)


def test_validate_conservation_failure(staircase_config):
    # removing the (1, 0) edge starves the corner at (1, 1)
    edges = [e for e in staircase_config.edges if (e[0], e[1]) != (1, 0)]
    broken = VertexConfig.build(STAIR, F, (0, 1), edges)
    report = validate(broken)
    assert not report.passed
    assert all(f.relation == "conservation" for f in report.failures)
    assert (1, 1) in {f.indices for f in report.failures}


def test_corners_of_an_edge():
    # the edge leaves its first corner upward or rightward and enters its second
    assert corners((1, 0)) == ((1, -1), (1, 1))
    assert corners((0, 1)) == ((-1, 1), (1, 1))
    assert corners((-3, 4)) == ((-3, 3), (-3, 5))


@st.composite
def grid_configs(draw):
    """Canonical odd-parity configurations over a drawn lattice: closed
    staircases, which conserve, plus random edges of multiplicity 1-3."""
    basis = draw(st.sampled_from([None, (1, 1), (3, 2), (2, 1), (1, 0), (0, 1)]))
    lattice = () if basis is None else (basis,)
    edges: dict = {}

    def add(key, mult):
        key = canonical_key(lattice, key)
        edges[key] = edges.get(key, 0) + mult

    loops = 0 if basis is None else draw(st.integers(0, 3))
    for _ in range(loops):
        r, s = basis
        x = 2 * draw(st.integers(-3, 3)) + 1
        y = 2 * draw(st.integers(-3, 3)) + 1
        for step in draw(st.permutations(["up"] * s + ["right"] * r)):
            if step == "up":
                add((x, y + 1), 1)
                y += 2
            else:
                add((x + 1, y), 1)
                x += 2
    extra = draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-3, 3), st.integers(1, 3)), max_size=5
    ))
    for x, half, mult in extra:
        add((x, 2 * half + (x + 1) % 2), mult)
    packed = tuple((x, y, m) for (x, y), m in sorted(edges.items()))
    config = VertexConfig(GL3, Poly.variable(2, 0), (0, 1), lattice, packed)
    return config, not extra


@settings(max_examples=300, deadline=None)
@given(grid_configs())
def test_validate_matches_the_corner_by_corner_reference(case):
    config, staircases_only = case
    got = [(f.relation, f.indices) for f in validate(config).failures]
    assert got == [(f.relation, f.indices) for f in reference_conservation(config)]
    if staircases_only:
        assert got == []


def test_validate_off_pair_directions():
    # directions 3 and 4 move this generator, whose decoded entries there
    # would be constant 1 and so fail the binary identities with the pair
    gen = parse_poly("u1 + u2 + 2*u3", 3)
    cfg = VertexConfig.build(STAIR, gen, (0, 1), [(2, 1, 1), (4, 1, 1), (5, 2, 1)])
    report = validate(cfg)
    assert [(f.relation, f.indices) for f in report.failures] == [
        ("off-pair-fixed", (2,)),
        ("off-pair-fixed", (3,)),
    ]
    assert report.describe() == "off-pair-fixed fails at (3)\noff-pair-fixed fails at (4)"
    with pytest.raises(ValueError, match="off-pair-fixed fails at"):
        decode(cfg)
    with pytest.raises(ValueError, match="direction 3 lies outside the pair"):
        random_config(STAIR, gen, (0, 1), loops=1, seed=5)


def test_decode_gl3_pair(gl3_file):
    piece = decode(gl3_file.configs["u1_orbit"])
    expanded = piece.solution.expand()
    half = parse_poly("u1 + 1/2", 2)
    assert expanded.polys == (half, half, Poly.one(2))
    assert check_binary(expanded).passed
    assert check_ternary(expanded).passed


def test_decode_reproduces_displayed_products(staircase_file, staircase_config):
    piece = decode(staircase_config)
    want = staircase_file.tuples["main"].as_solution()
    assert piece.solution.expand().polys == want.polys
    # the non-monic generator contributes its leading unit per factor
    assert piece.solution.entries[0].unit == 1
    assert piece.solution.entries[1].unit == -1


def test_decode_empty_config():
    piece = decode(gl3_config([]))
    assert all(e.is_one for e in piece.solution.entries)


def test_decode_rejects_invalid():
    with pytest.raises(ValueError, match="invalid configuration"):
        decode(gl3_config([(1, 0, 1)]))


def test_encode_decode_roundtrip(staircase_config):
    piece = decode(staircase_config)
    assert encode(piece) == staircase_config


def test_encode_needs_two_supported_directions():
    # direction 2 never moves anything, so a single-entry piece is legal
    # but has no two-direction grid picture
    sys = ShiftSystem.from_rows([[1, 0]])
    entries = (
        FactoredPoly.from_factors(1, [(parse_poly("u1 - 1/2", 1), 1)]),
        FactoredPoly.from_factors(1, ()),
    )
    piece = OrbitalPiece(Poly.variable(1, 0), (0, 1), FactoredSolution(sys, entries))
    with pytest.raises(StructureError, match="nothing to encode"):
        encode(piece)


def test_encode_rejects_off_orbit_factors():
    entries = (
        _fp("u1 - 1/2"),
        _fp("u2 + 1/2"),
        FactoredPoly.from_factors(2, ()),
    )
    piece = OrbitalPiece(Poly.variable(2, 0), (0, 1), FactoredSolution(GL3, entries))
    with pytest.raises(StructureError, match="does not sit on the orbit"):
        encode(piece)


def test_encode_rejects_nonsolutions():
    entries = (
        _fp("u1 - 1/2", "u1 - 3/2"),
        _fp("u1 - 1/2"),
        FactoredPoly.from_factors(2, ()),
    )
    piece = OrbitalPiece(Poly.variable(2, 0), (0, 1), FactoredSolution(GL3, entries))
    with pytest.raises(StructureError, match="conservation fails"):
        encode(piece)


def test_classify_gl3(gl3_file):
    configs = classify(gl3_file.tuples["gl3_sym"].as_factored())
    assert [config.pair for config in configs] == [(0, 1), (1, 2)]
    for config in configs:
        assert validate(config).passed
        assert config.lattice == ((1, 1),)
        assert config.edges


def test_classify_staircase_matches_figure(staircase_file, staircase_config):
    (config,) = classify(staircase_file.tuples["main_monic"].as_factored())
    assert config.pair == (0, 1)
    # the figure's decoded tuple gives the same record
    assert classify(decode(staircase_config).solution) == (config,)
    # its generator is the normal form of the figure's monic generator,
    # and the figure's edges move by twice the shift between the two
    k = same_orbit(STAIR, F.make_monic()[1], config.generator, (0, 1))
    assert k is not None
    moved = VertexConfig.build(
        STAIR, config.generator, (0, 1), [(x - 2 * k[0], y - 2 * k[1], m) for x, y, m in staircase_config.edges]
    )
    assert moved.edges == config.edges


# gl3 generators with the pair that moves each; the third direction fixes
# each one, and offsets with distinct fractional parts give distinct orbits
GL3_FAMILIES = [("u1", (0, 1)), ("u2", (1, 2)), ("u1 + u2", (0, 2))]
FRACTIONAL = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4)]
SEEDS = st.integers(0, 10**6)


def _superpose(sys, configs):
    """The entrywise product of the decoded configurations, which lie on
    pairwise distinct orbits."""
    parts = [decode(config).solution.entries for config in configs]
    return FactoredSolution(sys, tuple(
        FactoredPoly.from_factors(
            sys.nvars,
            [f for part in parts for f in part[k].factors],
            prod(part[k].unit for part in parts),
        )
        for k in range(sys.nshifts)
    ))


def _gl3_orbit(family, offset, loops, seed):
    base, pair = GL3_FAMILIES[family]
    return random_config(GL3, parse_poly(base, 2) - Poly.constant(2, offset), pair, loops, seed)


@st.composite
def gl3_superpositions(draw):
    """gl3 superpositions of 1-4 orbits of 1-3 loops each."""
    orbits = draw(st.lists(
        st.tuples(st.sampled_from(range(3)), st.sampled_from(FRACTIONAL)),
        min_size=1, max_size=4, unique=True,
    ))
    configs = [
        _gl3_orbit(family, frac + draw(st.integers(-2, 2)), draw(st.integers(1, 3)), draw(SEEDS))
        for family, frac in orbits
    ]
    return _superpose(GL3, configs)


@st.composite
def cubic_superpositions(draw):
    """Two 1-2-loop staircase orbits of F whose u1 offsets have distinct
    fractional parts."""
    fracs = draw(st.lists(st.sampled_from(FRACTIONAL), min_size=2, max_size=2, unique=True))
    configs = [
        random_config(STAIR, F.shift((frac + draw(st.integers(-1, 1)), 0, 0)), (0, 1), draw(st.integers(1, 2)), draw(SEEDS))
        for frac in fracs
    ]
    return _superpose(STAIR, configs)


# the staircase generators lin and quad; lin's orbits keep the constant
# modulo 2, so offsets with distinct fractional parts give distinct orbits,
# and every direction that keeps quad's u1 part keeps its constant, so
# distinct offsets do
LIN = parse_poly("u1 + u2 + u3", 3)
QUAD = parse_poly("u1^2 + 1/3*u1 + u2 + u3", 3)


@st.composite
def lin_quad_superpositions(draw):
    """Staircase superpositions of 1-2 orbits of lin and 0-2 of quad, of
    1-2 loops each."""
    lin = draw(st.lists(st.sampled_from(FRACTIONAL), min_size=1, max_size=2, unique=True))
    quad = draw(st.lists(st.sampled_from(FRACTIONAL), max_size=2, unique=True))
    generators = [LIN - Poly.constant(3, frac + draw(st.integers(-1, 1))) for frac in lin]
    generators += [QUAD - Poly.constant(3, frac) for frac in quad]
    configs = [
        random_config(STAIR, generator, (0, 1), draw(st.integers(1, 2)), draw(SEEDS))
        for generator in generators
    ]
    return _superpose(STAIR, configs)


superpositions = st.one_of(gl3_superpositions(), cubic_superpositions())


@settings(max_examples=60, deadline=None)
@given(superpositions)
def test_classify_matches_encode_of_each_piece(sol):
    configs = classify(sol)
    assert configs == tuple(encode(piece) for piece in decompose(sol))
    # the configs decode back to exactly the input's monic factors
    decoded = [decode(config).solution.entries for config in configs]
    for k, entry in enumerate(sol.entries):
        placed = merge_factors(f for entries in decoded for f in entries[k].factors)
        assert placed == merge_factors(entry.factors)
    assert all(e.unit == 1 for entries in decoded for e in entries)


@pytest.mark.parametrize("n", range(3, 7))
def test_gl_n_superpositions_pass_and_classify_back(n):
    # the gl_n system, alpha = beta with a_i = e_{i-1} - e_i; u_j + c lives
    # on the pair (j, j+1), the other directions fix it, and distinct
    # fractional parts of c give distinct orbits
    sys = ShiftSystem.from_rows([[-1 if i == j else int(i == j + 1) for i in range(n)] for j in range(n - 1)])
    rng = random.Random(n)
    configs = [
        random_config(sys, Poly.variable(n - 1, j) + frac + rng.randint(-2, 2), (j, j + 1), rng.randint(1, 2), rng.randrange(10**6))
        for j in range(n - 1)
        for frac in rng.sample(FRACTIONAL, rng.randint(1, 2))
    ]
    sol = _superpose(sys, configs)
    assert check_factored(sys, sol.entries).passed
    # each config comes back anchored at its generator's orbit normal form r,
    # its edges moved by twice the shift k that carries the generator to r
    forms = orbit_forms(sys, [config.generator for config in configs], range(n))
    anchored = [
        VertexConfig.build(sys, r, (i, j), [(x - 2 * k[i], y - 2 * k[j], mult) for x, y, mult in config.edges])
        for config, (r, k, _) in zip(configs, forms)
        for i, j in [config.pair]
    ]
    assert classify(sol) == tuple(sorted(anchored, key=lambda config: str(config.generator)))


def _record_bytes(sol):
    return pf.dumps({"pieces": [pf.config_obj(config) for config in classify(sol)]})


@settings(max_examples=40, deadline=None)
@given(st.one_of(gl3_superpositions(), lin_quad_superpositions()), st.randoms(use_true_random=False))
def test_classify_record_does_not_depend_on_factor_order(sol, rng):
    shuffled = []
    for entry in sol.entries:
        factors = list(entry.factors)
        rng.shuffle(factors)
        shuffled.append(FactoredPoly.from_factors(sol.sys.nvars, factors, entry.unit))
    record = _record_bytes(sol)
    assert _record_bytes(FactoredSolution(sol.sys, tuple(shuffled))) == record
    # each generator is its orbit's normal form, and they come in text order
    generators = [config.generator for config in classify(sol)]
    full = range(sol.sys.nshifts)
    assert [form for form, *_ in orbit_forms(sol.sys, generators, full)] == generators
    assert [str(g) for g in generators] == sorted(str(g) for g in generators)


def _counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_classify_places_every_factor_once(monkeypatch):
    import weylshift.orbital as orbital
    import weylshift.shifts as shifts
    import weylshift.vertex as vertex

    configs = [
        _gl3_orbit(family, frac, 1, seed)
        for seed, (family, frac) in enumerate((f, x) for f in range(3) for x in FRACTIONAL[1:4])
    ]
    sol = _superpose(GL3, configs)
    calls = Counter()
    wrappers = {
        "orbit_forms": _counting(calls, "orbit_forms", shifts.orbit_forms),
        "half_shift": _counting(calls, "half_shift", shifts.half_shift),
        "decode": _counting(calls, "decode", vertex.decode),
        "stabilizer_lattice": _counting(calls, "stabilizer_lattice", shifts.stabilizer_lattice),
        "moving_directions": _counting(calls, "moving_directions", shifts.moving_directions),
    }
    for module in (orbital, shifts, vertex):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert len(classify(sol)) == 9
    assert calls["orbit_forms"] == 1
    # every factor has degree 1, so orbit_forms pulls each back in integers
    assert sum(len(entry.factors) for entry in sol.entries) == 18
    assert calls["half_shift"] == 0
    assert calls["decode"] == 0
    # each piece's stabilizer comes from the orbit search
    assert calls["stabilizer_lattice"] == 0
    # support_pair asks once per piece which directions move the generator
    assert calls["moving_directions"] == 9


def test_place_builds_one_shifted_form_per_orbit(monkeypatch):
    # every factor of a gl3 superposition has degree 1, so orbit_forms
    # pulls each back and finds its normal form in integers, shifting no
    # Poly, and builds one form per orbit for all its factors; offsets of
    # 2 to 4 keep every pulled-back factor off its normal form
    import weylshift.orbital as orbital

    configs = [
        _gl3_orbit(family, frac + 2 + family, 1, seed)
        for seed, (family, frac) in enumerate((f, x) for f in range(3) for x in FRACTIONAL[1:4])
    ]
    sol = _superpose(GL3, configs)
    inside, shifted, outside = [], [], []
    poly_shift = Poly.shift

    def counted_orbit_forms(*args):
        inside.append(True)
        try:
            return orbit_forms(*args)
        finally:
            inside.pop()

    def counted_shift(self, *args):
        (shifted if inside else outside).append(self)
        return poly_shift(self, *args)

    monkeypatch.setattr(orbital, "orbit_forms", counted_orbit_forms)
    monkeypatch.setattr(Poly, "shift", counted_shift)
    placed = orbital._place(sol)
    assert len(placed) == 9
    assert sum(len(entry.factors) for entry in sol.entries) == 18
    assert shifted == [] and outside == []
    # each offset shifts the piece's generator onto its factor's pull-back
    full = range(sol.sys.nshifts)
    for piece, offsets, _ in placed:
        for i, entry in enumerate(piece.solution.entries):
            for (q, _), k in zip(entry.factors, offsets[i], strict=True):
                assert poly_shift(piece.generator, sol.sys.vector(k, full), sol.sys.den) == half_shift(GL3, i, -1, q)


def test_place_checks_no_factor_again(monkeypatch):
    # every factor _place hands a piece comes from a validated entry, so
    # the pieces' entries are built unchecked, and each is the entry that
    # the checking constructor builds
    import weylshift.orbital as orbital

    configs = [_gl3_orbit(family, frac, 1, seed) for seed, (family, frac) in enumerate([(0, 1), (1, 2), (2, 3)])]
    sol = _superpose(GL3, configs)
    checked = []
    post_init = FactoredPoly.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(FactoredPoly, "__post_init__", counted)
    placed = orbital._place(sol)
    assert checked == []
    monkeypatch.undo()
    for piece, _, _ in placed:
        for entry in piece.solution.entries:
            assert entry == FactoredPoly.from_factors(entry.nvars, entry.factors)


def test_classify_formats_each_generator_once(monkeypatch):
    # _place sorts the pieces by generator text and config_obj writes it:
    # the generator keeps its text, so it is formatted once
    import weylshift.poly as poly

    configs = [_gl3_orbit(family, frac, 1, seed) for seed, (family, frac) in enumerate([(0, 1), (1, 2), (2, 3)])]
    sol = _superpose(GL3, configs)
    formatted = Counter()
    format_terms = poly._format

    def counted(p):
        formatted[p] += 1
        return format_terms(p)

    monkeypatch.setattr(poly, "_format", counted)
    objs = [pf.config_obj(config) for config in classify(sol)]
    assert [obj["generator"] for obj in objs] == ["u1", "u1 + u2", "u2"]
    assert sorted(formatted.values()) == [1, 1, 1]


def test_encode_reads_its_lattice_from_the_orbit_search(monkeypatch, gl3_file, staircase_file, staircase_config):
    import weylshift.orbital as orbital
    import weylshift.shifts as shifts
    import weylshift.vertex as vertex

    pieces = [
        *decompose(gl3_file.tuples["gl3_sym"].as_factored()),
        *decompose(staircase_file.tuples["main_monic"].as_factored()),
        decode(staircase_config),
    ]
    calls = Counter()
    for name in ("orbit_forms", "stabilizer_lattice"):
        wrapper = _counting(calls, name, getattr(shifts, name))
        for module in (orbital, shifts, vertex):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    ranks = []
    for piece in pieces:
        calls.clear()
        config = encode(piece)
        assert calls == {"orbit_forms": 1}
        assert config.lattice == stabilizer_lattice(piece.solution.sys, piece.generator, config.pair)
        ranks.append(len(config.lattice))
    assert ranks == [1, 1, 1, 1]


def test_random_config_computes_the_stabilizer_once(monkeypatch):
    import weylshift.vertex as vertex

    calls = []

    def counted(*args):
        calls.append(args)
        return stabilizer_lattice(*args)

    monkeypatch.setattr(vertex, "stabilizer_lattice", counted)
    cfg = random_config(STAIR, F, (0, 1), loops=2, seed=3)
    assert len(calls) == 1
    assert cfg.lattice == stabilizer_lattice(STAIR, F, (0, 1)) == ((3, 2),)


def test_random_config_is_reproducible():
    a = random_config(STAIR, F, (0, 1), loops=3, seed=11)
    b = random_config(STAIR, F, (0, 1), loops=3, seed=11)
    assert a == b
    c = random_config(STAIR, F, (0, 1), loops=3, seed=12)
    assert c != a


def test_random_config_loops_conserve():
    for loops in (0, 1, 4):
        cfg = random_config(STAIR, F, (0, 1), loops=loops, seed=5)
        assert validate(cfg).passed
        total = sum(m for _, _, m in cfg.edges)
        assert total == 5 * loops  # r + s = 5 edges per closed staircase
    assert not random_config(STAIR, F, (0, 1), loops=0, seed=1).edges


def test_random_config_decodes_to_solutions():
    for seed in range(4):
        cfg = random_config(GL3, Poly.variable(2, 0), (0, 1), loops=2, seed=seed)
        expanded = decode(cfg).solution.expand()
        assert check_binary(expanded).passed
        assert check_ternary(expanded).passed


def test_random_config_loops_are_bounded():
    # a staircase of the (3, 2) lattice puts 3 factors of the linear
    # generator into entry 1, so 333 loops reach degree 999 and 334 pass 1000
    u1 = Poly.variable(3, 0)
    assert validate(random_config(STAIR, u1, (0, 1), loops=333, seed=1)).passed
    with pytest.raises(StructureError, match="334 loops give decoded entries of degree 1002"):
        random_config(STAIR, u1, (0, 1), loops=334, seed=1)
    with pytest.raises(StructureError, match="nonnegative"):
        random_config(STAIR, u1, (0, 1), loops=-1, seed=1)


def test_random_config_needs_positive_rank_one_stabilizer():
    grid = ShiftSystem.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="rank-1"):
        random_config(grid, parse_poly("u1^2 + u2", 2), (0, 1), loops=1, seed=0)
    with pytest.raises(ValueError, match="positive components"):
        random_config(grid, Poly.variable(2, 0), (0, 1), loops=1, seed=0)


def test_add_configs_preserves_solutions(staircase_config):
    # the configuration with every multiplicity doubled
    c = staircase_config
    doubled = VertexConfig.build(
        c.sys, c.generator, c.pair, {k: 2 * m for k, m in c.multiplicities.items()}
    )
    assert validate(doubled).passed
    got = decode(doubled).solution.expand()
    base = decode(staircase_config).solution.expand()
    assert got.polys == tuple(p * p for p in base.polys)


def _record(config):
    return classify(decode(config).solution)


def test_classify_record_of_an_evenly_translated_config(staircase_config):
    # the generator moved by (1, 1) over the pair and the edges moved back
    # by twice that describe the same solution, so they classify alike
    gen2 = F.shift(combo(STAIR, [1, 1], indices=(0, 1)))
    moved = VertexConfig.build(
        STAIR,
        gen2,
        (0, 1),
        [(x - 2, y - 2, m) for x, y, m in staircase_config.edges],
    )
    assert _record(moved) == _record(staircase_config)

    different = VertexConfig.build(
        STAIR, gen2, (0, 1), [(x, y, m) for x, y, m in staircase_config.edges]
    )
    assert _record(different) != _record(staircase_config)


def test_classify_record_of_unrelated_configs_differ():
    a = random_config(GL3, Poly.variable(2, 0), (0, 1), loops=1, seed=0)
    b = random_config(GL3, Poly.variable(2, 1), (1, 2), loops=1, seed=0)
    # same pair, generator off the orbit
    c = random_config(GL3, parse_poly("u1 + 1/2", 2), (0, 1), loops=1, seed=0)
    assert len({_record(a), _record(b), _record(c)}) == 3
