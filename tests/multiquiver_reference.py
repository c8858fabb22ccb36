"""The arithmetic residue grouping of a multiquiver solution, kept as the
reference.

For row j with nonzero entries the shifts of u_j generated by the columns
are the multiples of gamma_j = gcd of the row; a linear factor (u_j - l)
of entry i of the symmetrized solution sits on the orbit labelled by
(l - beta[j][i]/2) mod gamma_j.  No orbit search is made: test_acceptance.py
and test_multiquiver.py compare these groups with `orbital.decompose`.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from orbit_reference import coefficient
from weylshift.multiquiver import _run_factors, system_of, validate_beta
from weylshift.orbital import FactoredSolution, OrbitalPiece
from weylshift.poly import FactoredPoly, Poly, merge_factors


@dataclass(frozen=True)
class ResidueFamily:
    """Orbital pieces contributed by one row, one per residue class."""

    row: int
    modulus: int
    pieces: tuple[OrbitalPiece, ...]
    one_sided: bool


def factor_by_residue(beta):
    """The pieces of every row's residue family, row by row."""
    return [p for fam in residue_families(beta) for p in fam.pieces]


def residue_families(beta):
    """One family per row, its pieces in increasing class label, each
    anchored at u_j minus its label.  Rows with a single nonzero entry are
    one-sided; zero rows are rejected."""
    report = validate_beta(beta)
    if not report.passed:
        raise ValueError("invalid matrix: " + report.describe())
    sys = system_of(beta)
    m, n = sys.nvars, sys.nshifts
    full = tuple(range(n))
    families = []
    for j in range(m):
        nonzero = [i for i in range(n) if beta[j][i]]
        if not nonzero:
            raise ValueError(f"row {j + 1} is zero; it contributes no solution data")
        gamma = gcd(*beta[j])
        # class label -> entry index -> linear factors
        classes = {}
        for i in nonzero:
            half = Fraction(beta[j][i], 2)
            for lin in _run_factors(m, j, beta[j][i]):
                root = -coefficient(lin, (0,) * m)
                classes.setdefault((root - half) % gamma, {}).setdefault(i, []).append(lin)
        pieces = []
        for label in sorted(classes):
            bucket = classes[label]
            entries = tuple(
                FactoredPoly.from_factors(m, merge_factors([(q, 1) for q in bucket.get(i, [])]).items())
                for i in range(n)
            )
            pieces.append(OrbitalPiece(Poly.variable(m, j) - label, full, FactoredSolution(sys, entries)))
        families.append(ResidueFamily(j, gamma, tuple(pieces), len(nonzero) == 1))
    return families
