"""The root search of factor_entry as it was before its single pass, kept
as the reference.

After each root it finds, this search rebuilds the coefficient slice of
the cofactor, its divisors and its candidate list, and tries every
candidate again from the first.  It shares no code with the package's
search beyond Poly and exact_div.  test_roots_reference.py compares
orbital._rational_roots with it: the roots, their multiplicities, their
order and the cofactor must agree.
"""

from fractions import Fraction
from math import isqrt, lcm

from weylshift.poly import Poly, exact_div


def reference_rational_roots(p, j):
    """Every (c, multiplicity) with (u_j - c) dividing p, and the cofactor."""
    roots = []
    var = Poly.variable(p.nvars, j)
    while True:
        root = _linear_shift_root(p, j)
        if root is None:
            return roots, p
        lin = var - Poly.constant(p.nvars, root)
        mult = 0
        while True:
            q = exact_div(p, lin)
            if q is None:
                break
            p, mult = q, mult + 1
        roots.append((root, mult))


def _linear_shift_root(p, j):
    """The first candidate c, in the order of _root_candidates, with
    (u_j - c) dividing p; None when there is none."""
    slices = {}
    for e, c in p.items():
        rest = e[:j] + e[j + 1 :]
        slices.setdefault(rest, {})[e[j]] = c
    coeffs = slices[min(slices)]
    deg = max(coeffs)
    if deg == 0:
        return None
    scale = lcm(*[c.denominator for c in coeffs.values()])
    ints = {k: int(c * scale) for k, c in coeffs.items()}
    low = min(ints)
    candidates = [Fraction(0)] if low > 0 else []
    candidates += _root_candidates(ints[deg], ints[low])
    var = Poly.variable(p.nvars, j)
    for cand in candidates:
        if exact_div(p, var - Poly.constant(p.nvars, cand)) is not None:
            return cand
    return None


def _root_candidates(lead, const):
    """+-num/den with num dividing const and den dividing lead, without
    repeats, ordered by num, then den, then sign."""
    dens = _divisors(abs(lead))
    return list(dict.fromkeys(
        Fraction(sign * num, den)
        for num in _divisors(abs(const))
        for den in dens
        for sign in (1, -1)
    ))


def _divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))
