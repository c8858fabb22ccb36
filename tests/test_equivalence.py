"""Automorphism specs, the linear action on pairs, and equivalence checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

import strategies as st_local
from conftest import data_path
from hypothesis import strategies as st

from weylshift.consistency import SolutionTuple, check_binary
from weylshift.equivalence import (
    AutomorphismSpec,
    apply_linear,
    check_equivalence,
    linear_automorphism,
)
from weylshift.intlinalg import matmul
from weylshift.parser import parse_poly
from weylshift.poly import Poly
from weylshift.problemfile import load_path
from weylshift.shifts import ShiftSystem


def u(m, j):
    return Poly.variable(m, j)


def identity(m):
    images = tuple(u(m, j) for j in range(m))
    return AutomorphismSpec(images, images)


def test_identity_spec():
    psi = identity(3)
    assert psi.nvars == 3
    p = parse_poly("u1*u3 - 2*u2", 3)
    assert p.compose(psi.forward) == p


def test_spec_rejects_non_inverse():
    good = (u(2, 0) + u(2, 1), u(2, 1))
    with pytest.raises(ValueError):
        AutomorphismSpec(good, (u(2, 0), u(2, 1)))


def test_spec_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        AutomorphismSpec((u(2, 0),), (u(2, 0), u(2, 1)))
    with pytest.raises(ValueError):
        AutomorphismSpec((), ())


def test_triangular_substitution_round_trip():
    # u1 -> u1 + u2^2 is invertible even though it is not linear
    fwd = (u(2, 0) + u(2, 1) * u(2, 1), u(2, 1))
    inv = (u(2, 0) - u(2, 1) * u(2, 1), u(2, 1))
    psi = AutomorphismSpec(fwd, inv)
    p = parse_poly("u1^2 + u2", 2)
    assert p.compose(psi.forward).compose(psi.inverse) == p


def test_from_matrix_and_singular():
    # the witness of g substitutes by g^{-1}: here u1 -> u1 + u2
    psi = linear_automorphism([[1, -1], [0, 1]])
    assert u(2, 0).compose(psi.forward) == u(2, 0) + u(2, 1)
    with pytest.raises(ValueError):
        linear_automorphism([[1, 2], [2, 4]])


def test_check_identity_on_itself(gl3_file):
    sol = gl3_file.tuples["gl3_sym"].as_solution()
    report = check_equivalence(identity(2), sol, sol)
    assert report.passed


def test_scaling_example_one_variable():
    # g = [[1/2]] halves the shift lengths and the automorphism u -> 2u
    # carries the original entries onto the rescaled ones
    sys_a = ShiftSystem.from_rows([[2, -2]])
    p = parse_poly("u1^2 - 1", 1)
    a = SolutionTuple(sys_a, (p, p))
    g = [[Fraction(1, 2)]]
    b = apply_linear(g, a)
    assert b.sys.alpha == ((Fraction(1), Fraction(-1)),)
    assert all(type(x) is Fraction for x in b.sys.alpha[0])
    assert b.polys[0] == parse_poly("4*u1^2 - 1", 1)
    assert check_equivalence(linear_automorphism(g), a, b).passed


def test_scalar_multiples_of_entries_still_pass(gl3_file):
    sol = gl3_file.tuples["gl3_sym"].as_solution()
    scaled = SolutionTuple(sol.sys, (sol.polys[0] * 3, sol.polys[1], sol.polys[2] * Fraction(-1, 7)))
    assert check_equivalence(identity(2), sol, scaled).passed


def test_intertwine_failure_tagged(gl3_file):
    sol = gl3_file.tuples["gl3_sym"].as_solution()
    other = SolutionTuple(ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 2]]), sol.polys)
    report = check_equivalence(identity(2), sol, other)
    assert not report.passed
    assert {f.relation for f in report.failures} == {"intertwine"}
    assert any(f.indices == (2, 1) for f in report.failures)


def test_equiv_file_pass():
    doc = load_path(data_path("equiv_ok.json"))
    report = check_equivalence(doc.psi, doc.pair_a, doc.pair_b)
    assert report.passed


def test_equiv_file_fail_with_witness():
    doc = load_path(data_path("equiv_bad.json"))
    report = check_equivalence(doc.psi, doc.pair_a, doc.pair_b)
    assert not report.passed
    (fail,) = report.failures
    assert fail.relation == "scalar-multiple"
    assert fail.indices == (1,)
    assert fail.witness == Poly.constant(1, 2)
    assert "scalar-multiple fails at (2): 2" in report.describe()


def test_check_symmetric_under_inversion():
    doc = load_path(data_path("equiv_ok.json"))
    fwd = check_equivalence(doc.psi, doc.pair_a, doc.pair_b)
    inverted = AutomorphismSpec(doc.psi.inverse, doc.psi.forward)
    back = check_equivalence(inverted, doc.pair_b, doc.pair_a)
    assert fwd.passed and back.passed


def test_apply_linear_rejects_bad_matrix(gl3_file):
    sol = gl3_file.tuples["gl3_sym"].as_solution()
    with pytest.raises(ValueError):
        apply_linear([[1, 0]], sol)
    with pytest.raises(ValueError):
        apply_linear([[1, 1], [1, 1]], sol)


def test_apply_linear_permutation(gl3_file):
    sol = gl3_file.tuples["gl3_sym"].as_solution()
    g = [[0, 1], [1, 0]]
    out = apply_linear(g, sol)
    assert out.sys.alpha == (sol.sys.alpha[1], sol.sys.alpha[0])
    # entries pick up the variable swap: u1 - 1/2 becomes u2 - 1/2
    assert out.polys[0] == parse_poly("u2 - 1/2", 2)
    assert check_equivalence(linear_automorphism(g), sol, out).passed


def test_apply_linear_preserves_binary_verdict(gl3_file):
    ok = gl3_file.tuples["gl3_sym"].as_solution()
    bad = gl3_file.tuples["gl3_alt"].as_solution()
    g = [[1, 1], [0, 1]]
    assert check_binary(apply_linear(g, ok)).passed
    assert not check_binary(apply_linear(g, bad)).passed


def test_apply_linear_group_law(gl3_file):
    sol = gl3_file.tuples["gl3_sym"].as_solution()
    g = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    h = [[Fraction(3), Fraction(0)], [Fraction(1), Fraction(1)]]
    once = apply_linear(g, apply_linear(h, sol))
    combined = apply_linear(matmul(g, h), sol)
    assert once.sys.alpha == combined.sys.alpha
    assert once.polys == combined.polys


@settings(max_examples=40)
@given(p=st_local.nonzero_polys(2), data=st.data())
def test_linear_action_respects_substitution(p, data):
    # the witnessing automorphism really is substitution by g^{-1}
    entries = data.draw(
        st.lists(st.sampled_from([-2, -1, 1, 2, 3]), min_size=4, max_size=4)
    )
    g = [[Fraction(entries[0]), Fraction(entries[1])],
         [Fraction(entries[2]), Fraction(entries[3])]]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if det == 0:
        g[0][0] = g[0][0] + 5
    sys_a = ShiftSystem.from_rows([[1, 0], [0, 1]])
    sol = SolutionTuple(sys_a, (p, p))
    out = apply_linear(g, sol)
    psi = linear_automorphism(g)
    assert out.polys[0] == p.compose(psi.forward)
