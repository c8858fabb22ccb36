"""`Poly.shift` with each binomial row entry computed on its own, kept as
the reference for the package's row recurrence.

`reference_shift` moves one variable at a time, reading that variable's
top exponent in a pass of its own, and writes the row of u^e as
C(e, k) a^(e-k) b^(top-e+k) with `math.comb` and a power of a per entry.
The package reads every moved variable's top in one pass and takes each
row entry from the last by exact integer steps; test_poly_reference.py
checks that the two give the same denominator and the same terms in the
same insertion order.
"""

from math import comb, gcd, lcm

from weylshift.poly import _MASK, _SLOT, Poly, sum_terms


def reference_shift(p, offsets, den=1):
    """p(u1 - t1, ..., um - tm) for t = offsets / den, as Poly.shift."""
    m = p.nvars
    if len(offsets) != m:
        raise ValueError("offset length mismatch")
    linear = p._linear_terms()
    if linear is not None:  # the drop is a constant: one monomial at key 0
        scale = lcm(*(offsets[j].denominator for j, _ in linear))
        num = sum(v * offsets[j].numerator * (scale // offsets[j].denominator) for j, v in linear)
        return sum_terms(m, ((-num, p._den * scale * den, 0),), ((1, p),)) if num else p
    terms, tden = p._terms, p._den
    for j, t in enumerate(offsets):
        if not t:
            continue
        s = _SLOT * (m - 1 - j)
        top = max([(k >> s) & _MASK for k in terms], default=0)
        if not top:
            continue
        # with t = -a/b in lowest terms: b^top * (u - t)^e = sum_k C(e,k) a^(e-k) b^(top-e+k) u^k
        g = gcd(t.numerator, t.denominator * den)
        a, b = -t.numerator // g, t.denominator * den // g
        pb = [b**i for i in range(top + 1)]
        rows = {}
        out = {}
        for key, c in terms.items():
            e = (key >> s) & _MASK
            row = rows.get(e)
            if row is None:
                row = rows[e] = [(k << s, comb(e, k) * a ** (e - k) * pb[top - e + k]) for k in range(e + 1)]
            base = key - (e << s)
            for step, r in row:
                nk = base + step
                out[nk] = out.get(nk, 0) + c * r
        terms, tden = out, tden * pb[top]
    if terms is p._terms:
        return p
    return Poly._normal(m, terms, tden)
