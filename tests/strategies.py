"""Shared hypothesis strategies for exact polynomial data."""

from fractions import Fraction

import hypothesis.strategies as st

from weylshift.poly import Poly

rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)

nonzero_rationals = rationals.filter(bool)


def exponents(nvars: int, max_degree: int = 4):
    return st.tuples(
        *[st.integers(min_value=0, max_value=max_degree) for _ in range(nvars)]
    )


def polys(nvars: int, max_terms: int = 5, max_degree: int = 4):
    return st.dictionaries(
        exponents(nvars, max_degree), rationals, max_size=max_terms
    ).map(lambda terms: Poly(nvars, terms))


def nonzero_polys(nvars: int, max_terms: int = 5, max_degree: int = 4):
    return polys(nvars, max_terms, max_degree).filter(lambda p: not p.is_zero)


def shift_vectors(nvars: int):
    return st.lists(rationals, min_size=nvars, max_size=nvars)


@st.composite
def betas(draw):
    """Matrices whose rows carry at most one positive and one negative entry."""
    cols = draw(st.integers(min_value=2, max_value=4))
    rows = draw(st.integers(min_value=1, max_value=3))
    beta = []
    for _ in range(rows):
        row = [0] * cols
        i, j = draw(st.permutations(range(cols)))[:2]
        row[i] = draw(st.integers(min_value=0, max_value=3))
        row[j] = -draw(st.integers(min_value=0, max_value=3))
        beta.append(row)
    return beta
