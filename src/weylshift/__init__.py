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
    check_symmetric,
    check_ternary,
    symmetrize,
    unsymmetrize,
)
from .equivalence import (
    AutomorphismSpec,
    apply_linear,
    check_equivalence,
    linear_automorphism,
)
from .multiquiver import (
    build_solution,
    expected_piece_count,
    symmetrized_solution,
    system_of,
    validate_beta,
)
from .orbital import (
    FactoredSolution,
    OrbitalPiece,
    StructureError,
    decompose,
    factor_entry,
    support_pair,
    verify_orbital,
)
from .parser import ParseError, parse_poly, parse_rational
from .poly import FactoredPoly, Poly, exact_div, format_poly
from .shifts import (
    ShiftSystem,
    half_shift,
    is_fixed_by_shift,
    same_orbit,
    stabilizer_lattice,
)
from .svg import render_svg
from .vertex import (
    VertexConfig,
    canonical_key,
    classify,
    decode,
    encode,
    random_config,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AutomorphismSpec",
    "CheckFailure",
    "CheckReport",
    "FactoredPoly",
    "FactoredSolution",
    "OrbitalPiece",
    "ParseError",
    "Poly",
    "ShiftSystem",
    "SolutionTuple",
    "StructureError",
    "VertexConfig",
    "apply_linear",
    "build_solution",
    "canonical_key",
    "check_binary",
    "check_factored",
    "check_equivalence",
    "check_nonsymmetric",
    "check_symmetric",
    "check_ternary",
    "classify",
    "decode",
    "decompose",
    "encode",
    "exact_div",
    "expected_piece_count",
    "factor_entry",
    "format_poly",
    "half_shift",
    "is_fixed_by_shift",
    "linear_automorphism",
    "parse_poly",
    "parse_rational",
    "random_config",
    "render_svg",
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
