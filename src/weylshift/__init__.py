"""Exact tools for shift-twisted consistency equations over Q[u1..um].

The package builds solution tuples of the pairwise and triple consistency
identities for additive shift actions, factors them into orbital pieces,
classifies the pieces by grid configurations with a conservation law, and
verifies equivalences of pairs under ring automorphisms.
"""

from .consistency import (
    CheckFailure,
    CheckReport,
    SolutionTuple,
    check_binary,
    check_factored,
    check_nonsymmetric,
    check_ternary,
    symmetrize,
    unsymmetrize,
)
from .equivalence import (
    AutomorphismSpec,
    apply_linear,
    apply_substitution,
    check_equivalence,
    find_signed_permutation,
    linear_automorphism,
)
from .multiquiver import (
    ResidueFamily,
    build_solution,
    expected_piece_count,
    factor_by_residue,
    residue_families,
    symmetrized_solution,
    system_of,
    validate_beta,
)
from .orbital import (
    FactoredPoly,
    FactoredSolution,
    OrbitalPiece,
    StructureError,
    decompose,
    factor_entry,
    support_pair,
    verify_orbital,
)
from .parser import ParseError, parse_poly, parse_rational
from .poly import Poly, exact_div, format_poly
from .shifts import (
    OrbitId,
    ShiftSystem,
    StabilizerLattice,
    half_shift,
    is_fixed_by_shift,
    same_orbit,
    stabilizer_lattice,
)
from .svg import RenderOptions, render_svg
from .vertex import (
    ClassificationRecord,
    ClassifiedOrbit,
    VertexConfig,
    canonical_key,
    classify,
    decode,
    encode,
    random_config,
    same_config,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AutomorphismSpec",
    "CheckFailure",
    "CheckReport",
    "ClassificationRecord",
    "ClassifiedOrbit",
    "FactoredPoly",
    "FactoredSolution",
    "OrbitId",
    "OrbitalPiece",
    "ParseError",
    "Poly",
    "RenderOptions",
    "ResidueFamily",
    "ShiftSystem",
    "SolutionTuple",
    "StabilizerLattice",
    "StructureError",
    "VertexConfig",
    "apply_linear",
    "apply_substitution",
    "build_solution",
    "canonical_key",
    "check_binary",
    "check_factored",
    "check_equivalence",
    "check_nonsymmetric",
    "check_ternary",
    "classify",
    "decode",
    "decompose",
    "encode",
    "exact_div",
    "expected_piece_count",
    "factor_by_residue",
    "factor_entry",
    "find_signed_permutation",
    "format_poly",
    "half_shift",
    "is_fixed_by_shift",
    "linear_automorphism",
    "parse_poly",
    "parse_rational",
    "random_config",
    "render_svg",
    "residue_families",
    "same_config",
    "same_orbit",
    "stabilizer_lattice",
    "support_pair",
    "symmetrize",
    "symmetrized_solution",
    "system_of",
    "unsymmetrize",
    "validate",
    "validate_beta",
    "verify_orbital",
]
