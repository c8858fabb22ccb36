import json
import re
from fractions import Fraction

import pytest

from multiquiver_reference import factor_by_residue, residue_families
from weylshift.cli import main
from weylshift.consistency import check_binary, check_nonsymmetric, check_ternary, symmetrize
from weylshift.multiquiver import (
    build_solution,
    expected_piece_count,
    symmetrized_solution,
    system_of,
    validate_beta,
)
from weylshift.orbital import decompose, support_pair
from weylshift.parser import parse_poly
from weylshift.poly import Poly
from weylshift.shifts import same_orbit


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
        # the reference names each orbit by its residue label, decompose by
        # its normal form; the two name one orbit
        sys = system_of(beta)
        full = tuple(range(sys.nshifts))
        generators = {tuple(e.expand() for e in p.solution.entries): p.generator for p in by_orbit}
        for piece in by_residue:
            generator = generators[tuple(e.expand() for e in piece.solution.entries)]
            assert same_orbit(sys, piece.generator, generator, full) is not None


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
    pieces = decompose(symmetrized_solution([[3, 0]]))
    assert expanded_pieces(pieces) == expanded_pieces(fams[0].pieces)
    for piece in pieces:
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


def _gl_beta(n):
    """Row j is -1 at column j and +1 at column j + 1."""
    return [[-1 if i == j else 1 if i == j + 1 else 0 for i in range(n)] for j in range(n - 1)]


@pytest.mark.parametrize("n", range(3, 9))
def test_gl_n_family(tmp_path, capsys, n):
    # the rank-one orbits of the primitive quotients of U(gl_n), alpha = beta
    beta = _gl_beta(n)
    m = n - 1
    u = [Poly.variable(m, j) for j in range(m)]
    closed = [u[0] - 1] + [u[i - 1] * (u[i] - 1) for i in range(1, n - 1)] + [u[n - 2]]
    sol = build_solution(beta)
    assert sol.polys == tuple(closed)
    assert check_nonsymmetric(sol).passed
    pieces = decompose(symmetrized_solution(beta))
    assert len(pieces) == n - 1
    assert sorted(support_pair(p) for p in pieces) == [(j, j + 1) for j in range(n - 1)]
    path = tmp_path / "gl.json"
    path.write_text(json.dumps({"m": m, "n": n, "alpha": beta, "beta": beta}))
    assert main(["multiquiver", "--beta", str(path)]) == 0
    rows = re.findall(r"^row (\d+): (.*)$", capsys.readouterr().out, re.MULTILINE)
    assert rows == [(str(j), "modulus 1, 1 piece(s)") for j in range(1, n)]
