"""Orbit membership by pairwise search, as it was before normal forms, and
the orbit engine's derivatives one directional Poly per vector, kept as the
reference, with the Poly and ShiftSystem helpers they read that the
package does not use.

`reference_same_orbit` solves for the shift carrying one polynomial onto
another, one degree at a time: matching the degree d-1 parts of the two is
an affine integer condition on the shift, and the directions it leaves
free fix the common top form, which is dropped from both sides.
`reference_decompose` tests each factor against every earlier anchor with
it.  Neither computes a normal form; test_shifts.py and test_orbital.py
compare the package's normal forms with them.

`reference_moving_directions`, `reference_stabilizer_lattice`,
`reference_orbit_forms` and `reference_line_step` build one `directional`
Poly per vector and read the matrices off those Polys' coefficients; the
package pairs one `Poly.gradient` with every vector instead, and a
degree-1 top in closed form, and test_shifts.py checks that the two give
the same answers.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from weylshift.intlinalg import IntegerSystem, integer_kernel
from weylshift.orbital import FactoredPoly
from weylshift.poly import Poly, numerators_on
from weylshift.shifts import half_shift


def directional(p, vec, den=1):
    """The directional derivative <grad p, vec / den>, with vec's entries
    brought over one denominator."""
    if len(vec) != p.nvars:
        raise ValueError("direction length mismatch")
    scale = lcm(*(b.denominator for b in vec))
    ints = [b.numerator * (scale // b.denominator) for b in vec]
    terms = {k: sum(map(mul, row, ints)) for k, row in p.gradient().items()}
    return Poly._normal(p.nvars, terms, p._den * scale * den)


def coefficient(p, exp):
    """The coefficient of u^exp in p; 0 for a monomial p does not hold."""
    return dict(p.items()).get(tuple(exp), Fraction(0))


def combo(sys, coeffs, indices):
    """The shift sum_k coeffs[k] * column(indices[k]) of sys: its integer
    `vector` over the coefficients' common denominator, divided."""
    cden = lcm(*(c.denominator for c in coeffs))
    vec = sys.vector([c.numerator * (cden // c.denominator) for c in coeffs], indices)
    return tuple(Fraction(n, cden * sys.den) for n in vec)


def homogeneous_part(p, d):
    """The homogeneous part of p of degree d."""
    return p.homogeneous_parts().get(d, Poly.zero(p.nvars))


def content_exponent(p):
    """Componentwise minimum exponent over all terms (monomial content)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return tuple(map(min, zip(*(e for e, _ in p.items()))))


def monomial_index(polys):
    """The row of each monomial that any of polys uses, in ascending lex
    order: the rows of `coefficient_rows(polys)`."""
    return {k: r for r, k in enumerate(sorted(set().union(*(p._terms for p in polys))))}


def coefficient_rows(polys):
    """The coefficients of polys over their joint monomials: one row per
    monomial that any of them uses, in ascending lex order, and one column
    per polynomial."""
    return [[Fraction(p._terms.get(k, 0), p._den) for p in polys] for k in monomial_index(polys)]


def reference_moving_directions(sys, polys, exclude=()):
    """The directions outside exclude along which some q has a nonzero
    directional derivative."""
    return [
        i
        for i in range(sys.nshifts)
        if i not in exclude and any(not directional(q, sys.column(i)).is_zero for q in polys)
    ]


def reference_stabilizer_lattice(sys, q, indices):
    """The integer kernel of the directional derivatives along the columns."""
    indices = list(indices)
    return integer_kernel(coefficient_rows([directional(q, sys.columns[i]) for i in indices]), len(indices))


def reference_orbit_forms(sys, polys, indices):
    """`shifts.orbit_forms` one polynomial at a time, with each step's
    pairings built by `_step`."""
    indices = tuple(indices)
    s = len(indices)
    forms = []
    for q in polys:
        if q.is_zero:
            raise ValueError("orbit queries need nonzero polynomials")
        k = (0,) * s
        free = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
        for d in range(q.degree(), 0, -1):
            top = homogeneous_part(q, d)
            if top.is_zero:
                continue
            rows, system, next_free = _step(sys, top, indices, free)
            t, _ = system.reduce(*numerators_on(homogeneous_part(q, d - 1), rows))
            shift = _combine(t, free, s)
            if any(shift):
                k = tuple(a + b for a, b in zip(k, shift))
                q = q.shift(combo(sys, shift, indices))
            free = next_free
            if not free:
                break
        forms.append((q, k, free))
    return forms


def reference_line_step(sys, top, indices):
    """The one-row step of a degree-1 top form, every direction free, as
    `IntegerSystem` finds it: the row's scale, its pivot and the
    combination of directions giving it (1, 0 and zeros when every
    direction fixes the top), and the kernel's basis."""
    s = len(indices)
    free = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
    _, system, stab = _step(sys, top, tuple(indices), free)
    if not system._span:
        return 1, 0, (0,) * s, stab
    ((_, (pivot,), combo),) = system._span
    return system._scales[0], pivot, tuple(combo), stab


def reference_same_orbit(sys, q, q2, indices, memo=None):
    """Some integer k over the given directions with q shifted by k equal
    to q2, or None.  `memo` keeps the factored steps across queries."""
    indices = tuple(indices)
    if q.is_zero or q2.is_zero:
        raise ValueError("orbit queries need nonzero polynomials")
    memo = {} if memo is None else memo
    s = len(indices)
    k = (0,) * s
    free = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
    while q != q2:
        d = q.degree()
        if q2.degree() != d:
            return None
        top = homogeneous_part(q, d)
        if homogeneous_part(q2, d) != top:
            return None
        key = (top, indices, free)
        step = memo.get(key)
        if step is None:
            step = memo[key] = _step(sys, top, indices, free)
        rows, system, next_free = step
        rhs = _numerators(homogeneous_part(q, d - 1) - homogeneous_part(q2, d - 1), rows)
        t = None if rhs is None else system.solve(*rhs)
        if t is None:
            return None
        shift = _combine(t, free, s)
        k = tuple(a + b for a, b in zip(k, shift))
        q = q.shift(combo(sys, shift, indices)) - top
        q2 = q2 - top
        free = next_free
    return k


def reference_decompose(sol):
    """(anchor, entries) per orbital piece: each pulled-back factor joins
    the first earlier anchor on its orbit, or becomes an anchor itself."""
    sys = sol.sys
    full = tuple(range(sys.nshifts))
    anchors, groups, memo = [], [], {}
    for i, entry in enumerate(sol.entries):
        for q, mult in entry.factors:
            base = half_shift(sys, i, -1, q)
            home = next(
                (g for g, a in enumerate(anchors) if reference_same_orbit(sys, a, base, full, memo) is not None),
                None,
            )
            if home is None:
                anchors.append(base)
                groups.append([[] for _ in range(sys.nshifts)])
                home = -1
            groups[home][i].append((q, mult))
    return [
        (anchor, tuple(FactoredPoly.from_factors(sys.nvars, bucket) for bucket in buckets))
        for anchor, buckets in zip(anchors, groups)
    ]


def _step(sys, top, indices, free):
    pairings = [directional(top, combo(sys, w, indices)) for w in free]
    system = IntegerSystem(coefficient_rows(pairings), len(free))
    return monomial_index(pairings), system, tuple(_combine(c, free, len(indices)) for c in system.kernel)


def _numerators(p, rows):
    """p's numerators on the rows and its denominator, or None when p uses
    a monomial the rows do not hold."""
    if any(key not in rows for key in p._terms):
        return None
    return numerators_on(p, rows)


def _combine(coeffs, rows, width):
    out = [0] * width
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)
