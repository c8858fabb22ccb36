"""Differential tests of Poly against a minimal reference.

The reference stores a polynomial as {exponent tuple: nonzero Fraction}
and does every operation the direct way, so it shares no code with the
packed integer core it checks.
"""

from fractions import Fraction
from math import comb

import hypothesis.strategies as st
from hypothesis import given

import strategies
from weylshift.parser import parse_poly
from weylshift.poly import Poly, exact_div, format_poly

M = 3
TERMS = st.dictionaries(
    strategies.exponents(M, 3), strategies.rationals, max_size=5
)


# ----------------------------------------------------------------------
# the reference


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return ref_clean(out)


def ref_pow(a, k):
    out = {(0,) * M: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_shift(a, offsets):
    """p(u - t), one variable at a time by the binomial theorem."""
    out = dict(a)
    for j, t in enumerate(offsets):
        nxt = {}
        for e, c in out.items():
            for k in range(e[j] + 1):
                e2 = e[:j] + (k,) + e[j + 1 :]
                nxt[e2] = nxt.get(e2, Fraction(0)) + c * comb(e[j], k) * (-t) ** (e[j] - k)
        out = ref_clean(nxt)
    return out


def ref_partial(a, j):
    out = {}
    for e, c in a.items():
        if e[j]:
            out[e[:j] + (e[j] - 1,) + e[j + 1 :]] = c * e[j]
    return out


def ref_exact_div(a, b):
    lb = max(b)
    rem, quot = dict(a), {}
    while rem:
        le = max(rem)
        qe = tuple(x - y for x, y in zip(le, lb))
        if min(qe) < 0:
            return None
        qc = rem[le] / b[lb]
        quot[qe] = qc
        rem = ref_add(rem, ref_mul({qe: qc}, b), -1)
    return quot


def ref_homogeneous(a, d):
    return {e: c for e, c in a.items() if sum(e) == d}


def ref_format(a):
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, reverse=True):
        c = a[e]
        mono = "*".join(f"u{j + 1}^{k}" if k > 1 else f"u{j + 1}" for j, k in enumerate(e) if k)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if pieces:
            pieces.append(f"{' - ' if c < 0 else ' + '}{body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return "".join(pieces)


def both(terms):
    return Poly(M, terms), ref_clean(terms)


def agrees(p, ref):
    """Same terms (items() in any order), same printed form, and equal to
    the Poly rebuilt from the reference, hash included."""
    rebuilt = Poly(M, ref)
    return (
        sorted(p.items()) == sorted(ref.items())
        and format_poly(p) == ref_format(ref)
        and p == rebuilt
        and hash(p) == hash(rebuilt)
    )


# ----------------------------------------------------------------------
# differential properties


@given(a=TERMS, b=TERMS)
def test_ring_operations_match_reference(a, b):
    (pa, ra), (pb, rb) = both(a), both(b)
    assert agrees(pa, ra)
    assert agrees(pa + pb, ref_add(ra, rb))
    assert agrees(pa - pb, ref_add(ra, rb, -1))
    assert agrees(pa * pb, ref_mul(ra, rb))
    assert agrees(-pa, ref_add({}, ra, -1))


@given(a=TERMS, c=strategies.rationals)
def test_scalar_operations_match_reference(a, c):
    pa, ra = both(a)
    scaled = {e: v * c for e, v in ra.items()} if c else {}
    assert agrees(pa * c, scaled)
    assert agrees(c * pa, scaled)
    assert agrees(pa + c, ref_add(ra, ref_clean({(0,) * M: c})))
    assert agrees(c - pa, ref_add(ref_clean({(0,) * M: c}), ra, -1))


@given(a=st.dictionaries(strategies.exponents(M, 2), strategies.rationals, max_size=3), k=st.integers(0, 3))
def test_pow_matches_reference(a, k):
    pa, ra = both(a)
    assert agrees(pa**k, ref_pow(ra, k))


@given(a=TERMS, t=strategies.shift_vectors(M))
def test_shift_and_partial_match_reference(a, t):
    pa, ra = both(a)
    assert agrees(pa.shift(t), ref_shift(ra, t))
    for j in range(M):
        assert agrees(pa.partial(j), ref_partial(ra, j))


def ref_directional(a, vec):
    out = {}
    for j, b in enumerate(vec):
        for e, c in ref_partial(a, j).items():
            out[e] = out.get(e, 0) + c * b
    return ref_clean(out)


@given(a=TERMS, vec=strategies.shift_vectors(M), ints=st.lists(st.integers(-3, 3), min_size=M, max_size=M))
def test_directional_matches_reference(a, vec, ints):
    pa, ra = both(a)
    assert agrees(pa.directional(vec), ref_directional(ra, vec))
    assert agrees(pa.directional(ints), ref_directional(ra, ints))


@given(a=TERMS, b=TERMS)
def test_exact_div_matches_reference(a, b):
    (pa, ra), (pb, rb) = both(a), both(b)
    if not rb:
        return
    got = exact_div(pa, pb)
    want = ref_exact_div(ra, rb)
    assert (got is None) == (want is None)
    if want is not None:
        assert agrees(got, want)
    product = exact_div(pa * pb, pb)
    assert agrees(product, ra)


@given(a=TERMS)
def test_queries_match_reference(a):
    pa, ra = both(a)
    for d in range(10):
        assert agrees(pa.homogeneous_part(d), ref_homogeneous(ra, d))
    assert pa.degree() == max((sum(e) for e in ra), default=-1)
    if not ra:
        return
    lead = max(ra)
    assert pa.leading_monomial() == lead
    assert pa.leading_coefficient() == ra[lead]
    assert pa.is_monic == (ra[lead] == 1)
    unit, monic = pa.make_monic()
    assert unit == ra[lead]
    assert agrees(monic, {e: c / ra[lead] for e, c in ra.items()})
    for e in list(ra) + [(5, 5, 5)]:
        assert pa.coefficient(e) == ra.get(e, 0)


@given(a=TERMS, b=TERMS)
def test_equal_along_different_paths(a, b):
    (pa, _), (pb, _) = both(a), both(b)
    for x, y in [
        ((pa + pb) - pb, pa),
        (pa * pb, pb * pa),
        (Poly(M, dict(pa.items())), pa),
        (parse_poly(format_poly(pa), M), pa),
        ((pa * 6) * Fraction(1, 6), pa),
    ]:
        assert x == y and hash(x) == hash(y)


def test_equal_polys_with_denominators_two_and_three():
    u1, u2 = Poly.variable(2, 0), Poly.variable(2, 1)
    cases = [
        ((u1 - 1) * (u1 + 1), parse_poly("u1^2 - 1", 2)),
        ((u1 * Fraction(1, 2) + u2 * Fraction(1, 3)) * 6, parse_poly("3*u1 + 2*u2", 2)),
        ((u1 + Fraction(1, 2)) - Fraction(1, 2), u1),
        (u1 * Fraction(2, 3) + u1 * Fraction(1, 3), u1),
        ((u1 + Fraction(1, 2)) * (u1 - Fraction(1, 3)), parse_poly("u1^2 + 1/6*u1 - 1/6", 2)),
        (Poly(2, {(1, 0): Fraction(3, 2), (0, 1): Fraction(3, 2)}), (u1 + u2) * Fraction(3, 2)),
    ]
    for x, y in cases:
        assert x == y and hash(x) == hash(y)
        assert format_poly(x) == format_poly(y)
    assert u1 * Fraction(1, 2) != u1 and u1 * Fraction(1, 2) != u1 * Fraction(1, 3)
    assert (u1 + Fraction(1, 2)) - u1 == Poly.constant(2, Fraction(1, 2))
    assert ((u1 + Fraction(1, 3)) - (u1 + Fraction(1, 3))) == Poly.zero(2)
    assert hash((u1 + Fraction(1, 3)) - (u1 + Fraction(1, 3))) == hash(Poly.zero(2))
