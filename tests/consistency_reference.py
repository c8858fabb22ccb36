"""The expanding consistency checkers, kept as references.

Each identity is expanded in full on the entries and the two sides are
subtracted, with no factors, no memo and no shared engine, the way the
package checked them before its single identity engine.  The
differential tests in test_consistency_reference.py compare the
package's checkers with these; the reports must agree failure by
failure, witnesses included.
"""

from weylshift.consistency import CheckFailure, CheckReport, SolutionTuple
from weylshift.shifts import half_shift


def _pairs(n):
    return ((i, j) for i in range(n) for j in range(i + 1, n))


def _triples(n):
    """(i, j, k) with i < j and k outside {i, j}, grouped by k."""
    return (
        (i, j, k)
        for k in range(n)
        for i in range(n)
        if i != k
        for j in range(i + 1, n)
        if j != k
    )


def reference_binary(sol: SolutionTuple) -> CheckReport:
    sys, p = sol.sys, sol.polys
    failures = []
    for i, j in _pairs(sys.nshifts):
        lhs = half_shift(sys, j, +1, p[i]) * half_shift(sys, i, +1, p[j])
        rhs = half_shift(sys, j, -1, p[i]) * half_shift(sys, i, -1, p[j])
        diff = lhs - rhs
        if not diff.is_zero:
            failures.append(CheckFailure("binary", (i, j), diff))
    return CheckReport(tuple(failures))


def reference_ternary(sol: SolutionTuple) -> CheckReport:
    sys, p = sol.sys, sol.polys
    failures = []
    for i, j, k in _triples(sys.nshifts):
        if p[k].is_constant:  # both sides are p_k squared
            continue
        ci, cj = sys.column(i), sys.column(j)
        plus = tuple((a + b) / 2 for a, b in zip(ci, cj))
        minus = tuple((a - b) / 2 for a, b in zip(ci, cj))
        lhs = p[k].shift(plus) * p[k].shift([-v for v in plus])
        rhs = p[k].shift(minus) * p[k].shift([-v for v in minus])
        diff = lhs - rhs
        if not diff.is_zero:
            failures.append(CheckFailure("ternary", (i, j, k), diff))
    return CheckReport(tuple(failures))


def reference_nonsymmetric(sol: SolutionTuple) -> CheckReport:
    sys, p = sol.sys, sol.polys
    failures = []
    for i in range(sys.nshifts):
        for j in range(i + 1, sys.nshifts):
            both = [a + b for a, b in zip(sys.column(i), sys.column(j))]
            lhs = (p[i] * p[j]).shift(both)
            rhs = p[i].shift(sys.column(i)) * p[j].shift(sys.column(j))
            diff = lhs - rhs
            if not diff.is_zero:
                failures.append(CheckFailure("nonsym-binary", (i, j), diff))
    for j in range(sys.nshifts):
        if p[j].is_constant:  # both sides are p_j squared
            continue
        for i in range(sys.nshifts):
            if i == j:
                continue
            for k in range(i + 1, sys.nshifts):
                if k == j:
                    continue
                both = [a + b for a, b in zip(sys.column(i), sys.column(k))]
                lhs = p[j].shift(both) * p[j]
                rhs = p[j].shift(sys.column(i)) * p[j].shift(sys.column(k))
                diff = lhs - rhs
                if not diff.is_zero:
                    failures.append(CheckFailure("nonsym-ternary", (i, k, j), diff))
    return CheckReport(tuple(failures))


def reference_symmetric(sol: SolutionTuple) -> CheckReport:
    """The binary report followed by the ternary one."""
    return reference_binary(sol).merged(reference_ternary(sol))
