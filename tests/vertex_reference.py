"""The corner conservation law checked corner by corner, as it was before
the one-pass balance, kept as the reference.

`reference_conservation` collects the canonical corners next to every edge
and compares, at each, the two edges entering it from below and from the
left with the two leaving it upward and to the right, each looked up by
its canonical key.  test_vertex.py compares `vertex.validate` with it.
"""

from weylshift.consistency import CheckFailure
from weylshift.vertex import canonical_key


def reference_conservation(config) -> list[CheckFailure]:
    """The conservation failures of a configuration whose keys have odd
    parity and are canonical, in sorted corner order."""
    mults = config.multiplicities

    def m(key):
        return mults.get(canonical_key(config.lattice, key), 0)

    corners = set()
    for (x, y) in mults:
        if x % 2:  # direction-i edge: corners above and below
            corners.add(canonical_key(config.lattice, (x, y + 1)))
            corners.add(canonical_key(config.lattice, (x, y - 1)))
        else:  # direction-j edge: corners left and right
            corners.add(canonical_key(config.lattice, (x + 1, y)))
            corners.add(canonical_key(config.lattice, (x - 1, y)))
    failures = []
    for (x, y) in sorted(corners):
        lhs = m((x, y + 1)) + m((x + 1, y))
        rhs = m((x, y - 1)) + m((x - 1, y))
        if lhs != rhs:
            failures.append(CheckFailure("conservation", (x, y), None, one_based=False))
    return failures
