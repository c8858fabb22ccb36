"""Polynomial text the direct way, kept as the reference for `format_poly`.

`reference_format` writes each coefficient as a Fraction: its magnitude by
`str`, with a magnitude of 1 left out before a monomial, and its sign
between terms.  The package writes each coefficient from its integer
numerator and the common denominator instead, and test_poly_reference.py
checks that the two texts agree.
"""

from fractions import Fraction
from typing import Mapping


def reference_format(terms: Mapping[tuple[int, ...], Fraction]) -> str:
    """The text of the polynomial with these nonzero coefficients, by
    exponent tuple: terms in descending lex order, explicit '*'."""
    if not terms:
        return "0"
    pieces = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mono = "*".join(f"u{j + 1}^{k}" if k > 1 else f"u{j + 1}" for j, k in enumerate(e) if k)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if pieces:
            pieces.append(f"{' - ' if c < 0 else ' + '}{body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return "".join(pieces)
