from fractions import Fraction

import pytest

from weylshift.consistency import check_binary, check_ternary, symmetrize
from weylshift.multiquiver import (
    build_solution,
    expected_piece_count,
    factor_by_residue,
    residue_families,
    symmetrized_solution,
    system_of,
    validate_beta,
)
from weylshift.orbital import decompose
from weylshift.parser import parse_poly
from weylshift.poly import Poly


def expanded_pieces(pieces):
    """Anchor-free fingerprint: the expanded entry tuple of each piece."""
    return {tuple(e.expand() for e in p.solution.entries) for p in pieces}


def test_validate_beta():
    assert validate_beta([[2, -4], [0, 1]]).passed
    assert not validate_beta([[1, 2]]).passed  # two positive entries
    assert not validate_beta([[-1, -2, 3]]).passed
    assert not validate_beta([[1], [2, 3]]).passed  # ragged
    report = validate_beta([["2", -4]])
    assert not report.passed and report.failures[0].relation == "beta-integer"


def test_validate_beta_bounds_each_column_by_the_degree_it_builds():
    # entry i is a product of sum_j |beta[j][i]| linear factors
    assert validate_beta([[800, -800]]).passed
    assert validate_beta([[600, -1], [-400, 1]]).passed
    report = validate_beta([[1001, -1]])
    assert [(f.relation, f.indices) for f in report.failures] == [("beta-degree", (0,))]
    report = validate_beta([[601, -1], [-400, 1]])
    assert [(f.relation, f.indices) for f in report.failures] == [("beta-degree", (0,))]
    with pytest.raises(ValueError, match="beta-degree"):
        build_solution([[1001, -1]])


def test_system_of():
    sys = system_of([[2, -4]])
    assert sys.nvars == 1 and sys.nshifts == 2
    assert sys.column(1) == (Fraction(-4),)
    assert all(type(x) is Fraction for row in sys.alpha for x in row)


def test_build_solution_gl3(gl3_file):
    t = build_solution([list(r) for r in gl3_file.beta])
    assert t.polys == gl3_file.tuples["gl3_raw"].as_solution().polys


def test_build_solution_runs():
    t = build_solution([[2, -2]])
    assert t.polys[0] == parse_poly("u1^2 + u1", 1)
    assert t.polys[1] == parse_poly("u1^2 - 3*u1 + 2", 1)
    with pytest.raises(ValueError):
        build_solution([[1, 2]])


def test_symmetrized_solution_is_centered():
    fs = symmetrized_solution([[2, -2]])
    quarter = parse_poly("u1^2 - 1/4", 1)
    assert fs.expand().polys == (quarter, quarter)
    assert all(e.unit == 1 for e in fs.entries)


def test_symmetrized_agrees_with_half_shifted_plain_form():
    for beta in ([[2, -2]], [[3, -1]], [[-1, 2, 0], [3, 0, -3]]):
        m = len(beta)
        built = symmetrized_solution(beta).expand()
        plain = symmetrize(build_solution(beta))
        half = [Fraction(-1, 2)] * m
        assert built.polys == tuple(p.shift(half) for p in plain.polys)


def test_residue_families_two_classes():
    fams = residue_families([[2, -4]])
    assert len(fams) == 1
    fam = fams[0]
    assert fam.modulus == 2 and not fam.one_sided and len(fam.pieces) == 2

    # classes pair the centered factors so that each piece solves the system
    for piece in fam.pieces:
        expanded = piece.solution.expand()
        assert check_binary(expanded).passed

    # the two pieces multiply back to the full symmetrized solution
    full = symmetrized_solution([[2, -4]]).expand()
    for i in range(2):
        prod = Poly.one(1)
        for piece in fam.pieces:
            prod = prod * piece.solution.entries[i].expand()
        assert prod == full.polys[i]


def test_residue_grouping_matches_decompose():
    for beta in ([[2, -4]], [[6, -4]], [[-1, 1, 0], [0, -1, 1]]):
        by_residue = factor_by_residue(beta)
        by_orbit = decompose(symmetrized_solution(beta))
        assert len(by_residue) == len(by_orbit) == expected_piece_count(beta)
        assert expanded_pieces(by_residue) == expanded_pieces(by_orbit)


def test_expected_piece_count():
    assert expected_piece_count([[2, -4]]) == 2
    assert expected_piece_count([[-1, 1, 0], [0, -1, 1]]) == 2
    assert expected_piece_count([[2, -2], [3, -3]]) == 5
    assert expected_piece_count([[5, 0]]) == 5


def test_zero_row_rejected():
    with pytest.raises(ValueError, match="row 2 is zero"):
        residue_families([[1, -1], [0, 0]])


def test_single_nonzero_row_is_one_sided():
    fams = residue_families([[3, 0]])
    assert fams[0].one_sided
    assert len(fams[0].pieces) == 3
    for piece in fams[0].pieces:
        entries = piece.solution.entries
        assert entries[1].is_one
        assert sum(m for _, m in entries[0].factors) == 1


def test_multi_row_solution_checks_out():
    beta = [[2, -2], [3, -3]]
    fs = symmetrized_solution(beta)
    expanded = fs.expand()
    assert check_binary(expanded).passed
    assert check_ternary(expanded).passed
    pieces = decompose(fs)
    assert len(pieces) == expected_piece_count(beta) == 5
