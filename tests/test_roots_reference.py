"""Differential test of factor_entry's root search against the reference
in roots_reference.py.

Inputs are products of shifted linear factors u_j - c in 1 to 3
variables, with repeated roots, root 0, negative roots and denominators
2 and 3, a rational unit, and sometimes an irreducible quadratic
u_j^2 + c or a factor u_j + u_k + c that no linear shift divides.
"""

from fractions import Fraction
from math import isqrt

import hypothesis.strategies as st
from hypothesis import given

from roots_reference import reference_rational_roots
from weylshift.orbital import _MAX_ROOT_BOUND, _rational_roots
from weylshift.poly import Poly


def allowance():
    """The trial divisions of a whole factor_entry call."""
    return [isqrt(_MAX_ROOT_BOUND)]


ROOTS = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 2, 3]),
)


@st.composite
def root_products(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    variables = [Poly.variable(m, j) for j in range(m)]
    p = Poly.constant(m, draw(st.sampled_from([1, -1, 2, Fraction(-3, 2), 6])))
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        u = variables[draw(st.integers(min_value=0, max_value=m - 1))]
        p = p * (u - draw(ROOTS)) ** draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        u = variables[draw(st.integers(min_value=0, max_value=m - 1))]
        p = p * (u * u + draw(st.sampled_from([1, 2, Fraction(1, 3)])))
    if m > 1 and draw(st.booleans()):
        j, k = draw(st.permutations(range(m)))[:2]
        p = p * (variables[j] + variables[k] + draw(ROOTS))
    return p


@given(root_products())
def test_rational_roots_match_reference(p):
    for j in sorted(p.used_variables()):
        assert _rational_roots(p, j, allowance()) == reference_rational_roots(p, j)


def test_rational_roots_repeated_and_zero():
    u = Poly.variable(1, 0)
    p = u ** 2 * (u + Fraction(1, 2)) ** 3 * (u - 2) * (u * u + 1)
    roots, rest = _rational_roots(p, 0, allowance())
    assert roots == [(0, 2), (Fraction(-1, 2), 3), (2, 1)]
    assert rest == u * u + 1
    assert (roots, rest) == reference_rational_roots(p, 0)
