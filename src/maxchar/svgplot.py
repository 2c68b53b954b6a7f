"""Tiny dependency-free SVG line plots for experiment artifacts."""

from __future__ import annotations

import math
from typing import Sequence

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # plot margins


def _si(x: float) -> str:
    return format(float(x), ".6g")


def line_plot_svg(xs: Sequence[float], ys: Sequence[float], title: str = "",
                  xlabel: str = "", ylabel: str = "") -> str:
    """One polyline on a framed canvas with a log-scale x axis and min/max
    tick labels.

    Deterministic output: fixed canvas, 6-significant-digit coordinates.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching x/y sequences of length >= 2")
    px = [math.log10(x) for x in xs]
    py = [float(y) for y in ys]
    x0, x1 = min(px), max(px)
    y0, y1 = min(py), max(py)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    y0, y1 = y0 - 0.05 * (y1 - y0), y1 + 0.05 * (y1 - y0)
    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def sx(v):
        return _ML + iw * (v - x0) / (x1 - x0)

    def sy(v):
        return _MT + ih * (1.0 - (v - y0) / (y1 - y0))

    pts = " ".join(f"{_si(sx(a))},{_si(sy(b))}" for a, b in zip(px, py))
    xlab_lo, xlab_hi = _si(10.0 ** x0), _si(10.0 ** x1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" fill="none" '
        'stroke="black" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f4e89" '
        'stroke-width="1.5"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
        f'<text x="{_ML}" y="{_H - 14}" font-size="12">{xlab_lo}</text>',
        f'<text x="{_W - _MR}" y="{_H - 14}" text-anchor="end" '
        f'font-size="12">{xlab_hi}</text>',
        f'<text x="{_W // 2}" y="{_H - 14}" text-anchor="middle" '
        f'font-size="12">{xlabel} (log scale)</text>',
        f'<text x="10" y="{_MT + 6}" font-size="12">{_si(y1)}</text>',
        f'<text x="10" y="{_MT + ih}" font-size="12">{_si(y0)}</text>',
        f'<text x="10" y="{_MT - 10}" font-size="12">{ylabel}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
