"""Deterministic SVG pictures of vertex configurations.

The drawing works in the doubled coordinates of the configuration: grid
lines run through the odd coordinates (the corner lattice), faces sit at
even-even points, and each marked edge becomes a thick segment between
two corners.  All pixel positions are integers, so the output is stable
byte for byte for a given configuration and option set.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .poly import format_poly
from .vertex import VertexConfig, corners


# grid cell and margin in pixels, colours, and the label font size
CELL = 40
MARGIN = 30
GRID_COLOR = "#cccccc"
EDGE_COLOR = "#2060c0"
BOUNDARY_COLOR = "#666666"
LABEL_COLOR = "#000000"
FONT_SIZE = 12


def _odd_below(v: int) -> int:
    return v if v % 2 else v - 1


def _odd_above(v: int) -> int:
    return v if v % 2 else v + 1


def render_svg(config: VertexConfig) -> str:
    half = CELL // 2
    xs = {0}
    ys = {0}
    for x, y, _ in config.edges:
        xs.add(x)
        ys.add(y)
    boundaries: list[int] = []
    horizontal = False
    if config.lattice.rank == 1:
        r, s = config.lattice.basis[0]
        if r:
            boundaries = [0, 2 * r]
            xs.update(boundaries)
        else:
            horizontal = True
            boundaries = [0, 2 * s]
            ys.update(boundaries)
    x_lo = _odd_below(min(xs) - 1)
    x_hi = _odd_above(max(xs) + 1)
    y_lo = _odd_below(min(ys) - 1)
    y_hi = _odd_above(max(ys) + 1)

    def px(x: int) -> int:
        return MARGIN + (x - x_lo) * half

    def py(y: int) -> int:
        return MARGIN + (y_hi - y) * half

    label = format_poly(config.generator)
    grid_w = 2 * MARGIN + (x_hi - x_lo) * half
    width = max(grid_w, px(0) + 14 + 7 * len(label) + MARGIN)
    height = 2 * MARGIN + (y_hi - y_lo) * half

    def vline(x: int, color: str, extra: str = "") -> str:
        return (
            f'<line x1="{px(x)}" y1="{py(y_hi)}" x2="{px(x)}" y2="{py(y_lo)}" '
            f'stroke="{color}" stroke-width="1"{extra}/>'
        )

    def hline(y: int, color: str, extra: str = "") -> str:
        return (
            f'<line x1="{px(x_lo)}" y1="{py(y)}" x2="{px(x_hi)}" y2="{py(y)}" '
            f'stroke="{color}" stroke-width="1"{extra}/>'
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    lines += [vline(x, GRID_COLOR) for x in range(x_lo, x_hi + 1, 2)]
    lines += [hline(y, GRID_COLOR) for y in range(y_lo, y_hi + 1, 2)]
    boundary = hline if horizontal else vline
    lines += [boundary(v, BOUNDARY_COLOR, ' stroke-dasharray="6,4"') for v in boundaries]
    labels = []
    for x, y, mult in config.edges:
        (x1, y1), (x2, y2) = corners((x, y))
        lines.append(
            f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}" '
            f'stroke="{EDGE_COLOR}" stroke-width="{mult + 2}" '
            f'stroke-linecap="round"/>'
        )
        if mult > 1:
            labels.append(
                f'<text x="{px(x) + 5}" y="{py(y) - 5}" font-family="monospace" '
                f'font-size="{FONT_SIZE - 1}" fill="{EDGE_COLOR}">{mult}</text>'
            )
    lines.extend(labels)
    lines.append(
        f'<circle cx="{px(0)}" cy="{py(0)}" r="3" fill="{LABEL_COLOR}"/>'
    )
    lines.append(
        f'<text x="{px(0) + 8}" y="{py(0) + 4}" font-family="monospace" '
        f'font-size="{FONT_SIZE}" fill="{LABEL_COLOR}">{escape(label)}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
