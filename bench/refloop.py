"""Fixed stdlib reference loop used to normalise CPU time.

The loop does the kind of work the package does most, Fraction
arithmetic into a dict keyed by exponent-like tuples, and never imports
weylshift.  Dividing an operation's CPU time by the loop's CPU time,
measured right around the operation, and multiplying by NOMINAL_S cancels
most of the drift in this host's speed.  The result is still in seconds:
seconds of a machine on which one loop takes exactly NOMINAL_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.005
ROUNDS = 1000


def reference_loop() -> int:
    acc: dict[tuple[int, int, int], Fraction] = {}
    for k in range(1, ROUNDS):
        key = (k % 7, k % 5, k % 3)
        f = Fraction(k % 11 + 1, k % 13 + 2)
        acc[key] = acc.get(key, 0) + f * f
    return len(acc)


def reference_cpu_s() -> float:
    """Process CPU seconds taken by one reference loop."""
    start = time.process_time()
    reference_loop()
    return time.process_time() - start


def normalised(cpu_s: float, ref_before: float, ref_after: float) -> float:
    """cpu_s in seconds of a machine on which one loop takes NOMINAL_S,
    from loop readings taken just before and just after."""
    return cpu_s / ((ref_before + ref_after) / 2) * NOMINAL_S
