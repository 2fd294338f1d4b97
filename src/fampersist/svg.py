"""Plain SVG rendering of Cerf diagrams (no plotting dependencies)."""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .cerf import CerfDiagram
from .family import FamilyError, _float

_WIDTH = 640
_HEIGHT = 480
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_cerf_svg(diagram: CerfDiagram,
                    strip: Optional[Tuple] = None) -> str:
    """Render curves with per-segment index labels and event dots.

    With strip=(a, b, c) the horizontal segment (a, b) x {c} is overlaid.
    Coordinates get a five percent margin on each side; the level axis
    points up, so it is flipped into SVG pixel space.  A point outside
    float range, or an extent whose width or height with its margins
    overflows or rounds to zero, raises FamilyError.
    """
    pts = [pt for c in diagram.curves for pt in c.points]
    pts += list(diagram.events)
    if strip is not None:
        a, b, c = strip
        pts += [(a, c), (b, c)]
    if not pts:
        pts = [(0, 0), (1, 1)]
    xs = [_float(t, "a plotted time") for t, _ in pts]
    ys = [_float(v, "a plotted value") for _, v in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    mx = 0.05 * (x1 - x0)
    my = 0.05 * (y1 - y0)
    width, height = x1 - x0 + 2 * mx, y1 - y0 + 2 * my
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise FamilyError("the plotted extent is outside float range")

    def px(t) -> float:
        return (float(t) - (x0 - mx)) / width * _WIDTH

    def py(v) -> float:
        return _HEIGHT - (float(v) - (y0 - my)) / height * _HEIGHT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    for n, curve in enumerate(diagram.curves):
        color = _COLORS[n % len(_COLORS)]
        coords = " ".join(f"{_fmt(px(t))},{_fmt(py(v))}"
                          for t, v in curve.points)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for seg in curve.segments:
            tx = (px(seg.start[0]) + px(seg.end[0])) / 2
            ty = (py(seg.start[1]) + py(seg.end[1])) / 2 - 6
            parts.append(f'<text x="{_fmt(tx)}" y="{_fmt(ty)}" '
                         f'font-size="11" fill="{color}" '
                         f'text-anchor="middle">{seg.index}</text>')
    for t, v in sorted(diagram.events):
        parts.append(f'<circle cx="{_fmt(px(t))}" cy="{_fmt(py(v))}" '
                     'r="4" fill="black"/>')
    if strip is not None:
        a, b, c = strip
        parts.append(f'<line x1="{_fmt(px(a))}" y1="{_fmt(py(c))}" '
                     f'x2="{_fmt(px(b))}" y2="{_fmt(py(c))}" '
                     'stroke="#ff7f0e" stroke-width="2" '
                     'stroke-dasharray="6 3"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
