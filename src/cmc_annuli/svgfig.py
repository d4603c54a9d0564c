"""Standalone SVG emission for profile families and bounding boxes.

Polylines are written in data coordinates inside a single affine group
transform, so the numbers in the file are the sampled (rho, height) pairs
themselves; axes and labels live in screen coordinates. Output is a pure
function of the inputs (no timestamps), so identical calls give identical
bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .estimates import Annulus, OuterBoundaryData, bounding_box
from .profiles import HeightProfile

if TYPE_CHECKING:
    import numpy as np

_WIDTH, _HEIGHT = 640, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 24, 24, 56
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _render(curves: list[tuple[str, np.ndarray]], x_label: str, y_label: str) -> str:
    import numpy as np

    xs = np.concatenate([c[:, 0] for _, c in curves])
    ys = np.concatenate([c[:, 1] for _, c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_pad = 0.05 * (x_hi - x_lo) or 1.0
    y_pad = 0.05 * (y_hi - y_lo) or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    sx = plot_w / (x_hi - x_lo)
    sy = plot_h / (y_hi - y_lo)
    transform = (
        f"translate({_MARGIN_LEFT},{_HEIGHT - _MARGIN_BOTTOM}) "
        f"scale({_fmt(sx)},{_fmt(-sy)}) translate({_fmt(-x_lo)},{_fmt(-y_lo)})"
    )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<!-- cmc-annuli {__version__} -->",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if y_lo < 0.0 < y_hi:
        y0 = _HEIGHT - _MARGIN_BOTTOM + sy * y_lo
        lines.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(y0)}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{_fmt(y0)}" stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>'
        )

    lines.append(f'<g transform="{transform}">')
    for index, (label, points) in enumerate(curves):
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'vector-effect="non-scaling-stroke" data-label="{label}" points="{coords}"/>'
        )
    lines.append("</g>")

    axis_font = 'font-family="sans-serif" font-size="13"'
    lines += [
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" {axis_font} '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" {axis_font} text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>',
        f'<text x="{_MARGIN_LEFT}" y="{_HEIGHT - _MARGIN_BOTTOM + 18}" {axis_font} '
        f'text-anchor="middle">{_fmt(x_lo)}</text>',
        f'<text x="{_WIDTH - _MARGIN_RIGHT}" y="{_HEIGHT - _MARGIN_BOTTOM + 18}" {axis_font} '
        f'text-anchor="middle">{_fmt(x_hi)}</text>',
        f'<text x="{_MARGIN_LEFT - 8}" y="{_HEIGHT - _MARGIN_BOTTOM + 4}" {axis_font} '
        f'text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP + 4}" {axis_font} '
        f'text-anchor="end">{_fmt(y_hi)}</text>',
    ]
    for index, (label, _) in enumerate(curves):
        color = _PALETTE[index % len(_PALETTE)]
        lines.append(
            f'<text x="{_MARGIN_LEFT + 10}" y="{_MARGIN_TOP + 18 + 16 * index}" {axis_font} '
            f'fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def family_figure(
    h,
    alphas: Sequence[float],
    rho_max: Optional[float] = None,
    n: int = 200,
) -> str:
    """SVG of height profiles for several parameters, both branches welcome."""
    profiles = [HeightProfile(h, alpha) for alpha in alphas]
    if not profiles:
        raise ValueError("need at least one profile parameter")
    if rho_max is None:
        rho_max = max(p.rho0 for p in profiles) + 2.0
    curves = [(f"α = {p.param.alpha:g}", p.sample(rho_max, n)[:, :2]) for p in profiles]
    return _render(curves, x_label="ρ", y_label="height")


def box_figure(
    h,
    annulus: Annulus,
    m: float,
    M: float,
    n: int = 256,
) -> str:
    """SVG of the two bounding envelopes over an annulus (lower one if it exists)."""
    box = bounding_box(h, annulus, OuterBoundaryData(m, M))
    table = box.sample(n)
    curves = [("upper envelope", table[:, [0, 2]])]
    if box.hole_ok:
        curves.append(("lower envelope", table[:, [0, 1]]))
    return _render(curves, x_label="ρ", y_label="height")
