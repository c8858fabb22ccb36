"""Solutions attached to integer matrices with sign-separated rows.

Each row of an integer matrix beta may carry at most one positive and one
negative entry.  Row j, column i contributes a falling or rising product
of integer shifts of u_j to entry i; the resulting tuple satisfies the
non-symmetric consistency equations.  Its symmetrized form is built from
linear factors, each in one u_j, so every orbital piece of it (see
`orbital.decompose`) lies on an orbit of one row: a nonzero row j gives
as many pieces as the gcd of its entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .consistency import CheckFailure, CheckReport, SolutionTuple
from .orbital import FactoredSolution
from .parser import _MAX_DEGREE
from .poly import FactoredPoly, Poly, merge_factors
from .shifts import ShiftSystem


def validate_beta(beta) -> CheckReport:
    """Shape, sign and size check: integer entries, each row at most one
    positive and one negative entry, and no column's absolute values, the
    degree of the entry it builds, summing past the parser's degree bound."""
    failures = []
    if not beta or not beta[0] or any(len(row) != len(beta[0]) for row in beta):
        return CheckReport((CheckFailure("beta-shape", (), None),))
    for j, row in enumerate(beta):
        if any(not isinstance(v, int) for v in row):
            failures.append(CheckFailure("beta-integer", (j,), None))
            continue
        pos = sum(1 for v in row if v > 0)
        neg = sum(1 for v in row if v < 0)
        if pos > 1 or neg > 1:
            failures.append(CheckFailure("beta-signs", (j,), None))
    for i, column in enumerate(zip(*beta)):
        if all(isinstance(v, int) for v in column) and sum(map(abs, column)) > _MAX_DEGREE:
            failures.append(CheckFailure("beta-degree", (i,), None))
    return CheckReport(tuple(failures))


def system_of(beta) -> ShiftSystem:
    return ShiftSystem.from_rows(beta)


def _require_valid(beta) -> None:
    report = validate_beta(beta)
    if not report.passed:
        raise ValueError("invalid matrix: " + report.describe())


def build_solution(beta) -> SolutionTuple:
    """Entry i is the product over rows j of an integer-shift run in u_j:
    u_j (u_j + 1) ... (u_j + b - 1) for b > 0, the empty product for b = 0,
    and (u_j - 1) ... (u_j - |b|) for b < 0."""
    _require_valid(beta)
    sys = system_of(beta)
    m, n = sys.nvars, sys.nshifts
    entries = []
    for i in range(n):
        factors = []
        for j in range(m):
            b = beta[j][i]
            shifts = range(b) if b > 0 else range(-1, b - 1, -1)
            factors += [(Poly.variable(m, j) + t, 1) for t in shifts]
        entries.append(FactoredPoly.from_factors(m, factors).expand())
    return SolutionTuple(sys, tuple(entries))


def _run_factors(m: int, j: int, b: int) -> list[Poly]:
    """Linear factors of the symmetrized run for entry (j, i) with value b:
    (u_j - w)(u_j - w + 1) ... (u_j + w) where w = (|b| - 1)/2."""
    if b == 0:
        return []
    w = Fraction(abs(b) - 1, 2)
    uj = Poly.variable(m, j)
    return [uj - (-w + t) for t in range(abs(b))]


def symmetrized_solution(beta) -> FactoredSolution:
    """The symmetrized tuple, built directly from centered runs.

    Agrees with symmetrize(build_solution(beta)) after shifting every
    variable by one half; the runs here are centered around u_j instead of
    starting at it, which keeps the linear factors residue-aligned.
    """
    _require_valid(beta)
    sys = system_of(beta)
    m, n = sys.nvars, sys.nshifts
    entries = []
    for i in range(n):
        factors: list[tuple[Poly, int]] = []
        for j in range(m):
            for lin in _run_factors(m, j, beta[j][i]):
                factors.append((lin, 1))
        entries.append(FactoredPoly.from_factors(m, merge_factors(factors).items()))
    return FactoredSolution(sys, tuple(entries))


def expected_piece_count(beta) -> int:
    """Sum over rows of the gcd of the row's nonzero entries."""
    return sum(gcd(*row) for row in beta)
