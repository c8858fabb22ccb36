import pytest

from weylshift.consistency import check_binary, check_ternary
from weylshift.orbital import (
    FactoredPoly,
    FactoredSolution,
    OrbitalPiece,
    StructureError,
)
from weylshift.parser import parse_poly
from weylshift.poly import Poly
from weylshift.shifts import ShiftSystem, StabilizerLattice
from weylshift.vertex import (
    VertexConfig,
    canonical_key,
    classify,
    decode,
    encode,
    _same_product,
    random_config,
    same_config,
    validate,
)

GL3 = ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 1]])
STAIR = ShiftSystem.from_rows([[2, -3, 0, 0], [4, -5, 1, -3], [-2, 2, -1, 3]])
F = parse_poly("(u2 + u3)^2 - (u1^3 - u1 + 1)", 3)

LAT32 = StabilizerLattice(((3, 2),))


def gl3_config(edges):
    return VertexConfig.build(GL3, Poly.variable(2, 0), (0, 1), edges)


def _fp(*exprs):
    return FactoredPoly.from_factors(2, [(parse_poly(s, 2), 1) for s in exprs])


def test_canonical_key():
    assert canonical_key(LAT32, (6, 3)) == (0, -1)
    assert canonical_key(LAT32, (1, 0)) == (1, 0)
    assert canonical_key(LAT32, (-1, 0)) == (5, 4)
    assert canonical_key(LAT32, (7, 8)) == (1, 4)
    vertical = StabilizerLattice(((0, 1),))
    assert canonical_key(vertical, (4, 7)) == (4, 1)
    assert canonical_key(StabilizerLattice(()), (9, -9)) == (9, -9)


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
    assert staircase_config.lattice.basis == ((3, 2),)
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
    cfg = VertexConfig(GL3, Poly.variable(2, 0), (0, 1), StabilizerLattice(((1, 1),)), ((3, 2, 1),))
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
        assert config.lattice.basis == ((1, 1),)
        assert config.edges


def test_classify_staircase_matches_figure(staircase_file, staircase_config):
    (config,) = classify(staircase_file.tuples["main_monic"].as_factored())
    assert config.pair == (0, 1)
    assert config.edges == staircase_config.edges
    # the classified anchor is the monic form of the figure's generator
    fig_monic = VertexConfig.build(
        STAIR, F.make_monic()[1], (0, 1), staircase_config.edges
    )
    assert same_config(config, fig_monic)


def _regroup_decode(decode_fn):
    """decode, with the first two factors of every entry that has two
    multiplied into one reducible factor: the same products, other
    multisets of factors."""

    def regrouping(config):
        piece = decode_fn(config)
        entries = []
        for e in piece.solution.entries:
            if len(e.factors) >= 2:
                (q1, m1), (q2, m2), *rest = e.factors
                factors = [(q1 * q2, 1), (q1, m1 - 1), (q2, m2 - 1), *rest]
                e = FactoredPoly.from_factors(e.nvars, [f for f in factors if f[1]], e.unit)
            entries.append(e)
        return OrbitalPiece(
            piece.generator, piece.indices, FactoredSolution(piece.solution.sys, tuple(entries))
        )

    return regrouping


def test_classify_audit_expands_only_on_a_mismatch(monkeypatch, staircase_file):
    import weylshift.vertex as vertex

    fs = staircase_file.tuples["main_monic"].as_factored()
    want = classify(fs)
    monkeypatch.setattr(vertex, "decode", _regroup_decode(decode))
    assert classify(fs) == want  # the multisets differ, the products agree


def test_classify_audit_rejects_a_changed_piece(monkeypatch, gl3_file):
    import weylshift.vertex as vertex

    def dropping(config):
        piece = decode(config)
        first, *rest = piece.solution.entries
        smaller = FactoredPoly.from_factors(first.nvars, first.factors[1:], first.unit)
        return OrbitalPiece(
            piece.generator, piece.indices, FactoredSolution(piece.solution.sys, (smaller, *rest))
        )

    monkeypatch.setattr(vertex, "decode", dropping)
    with pytest.raises(StructureError, match="changed the piece"):
        classify(gl3_file.tuples["gl3_sym"].as_factored())


def test_same_product_on_several_parts():
    whole = _fp("u1^2 - 1")
    assert _same_product([_fp("u1 - 1"), _fp("u1 + 1")], whole)
    assert _same_product([_fp("u1 + 1", "u1 - 1")], whole)
    assert not _same_product([_fp("u1 - 1"), _fp("u1 + 2")], whole)
    assert not _same_product([_fp("u1 - 1"), _fp("u1 + 1")], FactoredPoly.from_factors(2, whole.factors, -1))
    assert _same_product([], FactoredPoly.from_factors(2, ()))


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


def test_same_config_alignment(staircase_config):
    shift_vec = STAIR.combo([1, 1], indices=(0, 1))
    gen2 = F.shift(shift_vec)
    moved = VertexConfig.build(
        STAIR,
        gen2,
        (0, 1),
        [(x - 2, y - 2, m) for x, y, m in staircase_config.edges],
    )
    assert same_config(staircase_config, moved)
    assert same_config(moved, staircase_config)

    different = VertexConfig.build(
        STAIR, gen2, (0, 1), [(x, y, m) for x, y, m in staircase_config.edges]
    )
    assert not same_config(staircase_config, different)


def test_same_config_rejects_unrelated():
    a = gl3_config([(1, 0, 1)])
    b = VertexConfig.build(GL3, Poly.variable(2, 1), (1, 2), [(1, 0, 1)])
    assert not same_config(a, b)
    # same pair, generator off the orbit
    c = VertexConfig.build(GL3, parse_poly("u1 + 1/2", 2), (0, 1), [(1, 0, 1)])
    assert not same_config(a, c)
