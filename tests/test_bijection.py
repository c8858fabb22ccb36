"""The paper's classification, run on a bounded box.

On gl3.json with generator u1 and pair (1, 2), the stabilizer is spanned
by (1, 1), so keys with x in {0, 1} are canonical.  Each of the ten edges
with x in {0, 1} and y in [-4, 5] names a factor: u1 shifted by
x/2 column(1) + y/2 column(2), placed in entry 1 when x is odd and in
entry 2 when y is odd.  Every subset of the edges, with multiplicity at
most 1, is then both a configuration and a factored tuple.  The tuple
solves the consistency equations exactly when the configuration keeps
the conservation law, and decode and encode carry the one to the other.
"""

from fractions import Fraction

from weylshift.consistency import check_factored
from weylshift.orbital import FactoredSolution, OrbitalPiece
from weylshift.poly import FactoredPoly, Poly
from weylshift.shifts import ShiftSystem
from weylshift.vertex import VertexConfig, decode, encode, validate

GL3 = ShiftSystem.from_rows([[-1, 1, 0], [0, -1, 1]])
U1 = Poly.variable(2, 0)
PAIR = (0, 1)
KEYS = [(x, y) for x in (0, 1) for y in range(-4, 6) if (x + y) % 2]


def _factor(x: int, y: int) -> Poly:
    # written out rather than through ShiftSystem.combo, which decode uses
    col_i, col_j = GL3.column(0), GL3.column(1)
    return U1.shift([Fraction(x, 2) * a + Fraction(y, 2) * b for a, b in zip(col_i, col_j)])


def _tuple(keys) -> tuple[FactoredPoly, ...]:
    """The entries in the order that decode lists their factors."""
    entry_i = [(_factor(x, y), 1) for x, y in keys if x % 2]
    entry_j = [(_factor(x, y), 1) for x, y in keys if y % 2]
    return tuple(FactoredPoly.from_factors(2, factors) for factors in (entry_i, entry_j, ()))


def test_solutions_and_configurations_agree_on_a_box():
    assert len(KEYS) == 10
    solutions = 0
    for bits in range(1 << len(KEYS)):
        keys = [key for b, key in enumerate(KEYS) if bits >> b & 1]
        config = VertexConfig.build(GL3, U1, PAIR, {key: 1 for key in keys})
        assert [(x, y) for x, y, _ in config.edges] == keys  # canonical and sorted
        entries = _tuple(keys)
        report = check_factored(GL3, entries)
        assert report.passed == validate(config).passed, keys
        # binary implies ternary: no tuple fails only ternary identities
        assert report.passed or any(f.relation == "binary" for f in report.failures), keys
        if not report.passed:
            continue
        solutions += 1
        if keys:
            assert decode(config).solution.entries == entries
            piece = OrbitalPiece(U1, PAIR, FactoredSolution(GL3, entries))
            assert encode(piece) == config
    assert solutions == 16
