"""Tiny dependency-free SVG line charts for the command line tool.

Deliberately minimal: fixed canvas, a handful of series colors, linear
axes with a few ticks.  Output contains no timestamps or randomness, so
files are byte-identical across runs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Sequence

from .errors import LengthMismatch

__all__ = ["write_line_chart"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 36, 48


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out


def write_line_chart(
    path,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Plot one or more y-series against shared x values and save as SVG.

    A series shorter than ``xs`` is plotted over its own length, against
    the first x values.  Raises :class:`~credal.errors.LengthMismatch`
    when there are no x values or no y values to plot.
    """
    xs = [float(x) for x in xs]
    ys_all = [float(v) for ys in series.values() for v in ys]
    if not xs or not ys_all:
        raise LengthMismatch("a line chart needs at least one x value and one y value")
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys_all), max(ys_all)
    if yhi <= ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    if xhi <= xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + pw * (x - xlo) / (xhi - xlo)

    def py(y: float) -> float:
        return _MT + ph * (1.0 - (y - ylo) / (yhi - ylo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.4g}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )
    for t in _ticks(xlo, xhi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" y2="{_MT + ph + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + ph + 18}" text-anchor="middle">{t:.6g}</text>'
        )
    for t in _ticks(ylo, yhi):
        y = py(t)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{t:.6g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_ML + pw / 2:.4g}" y="{_H - 10}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MT + ph / 2:.4g}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MT + ph / 2:.4g})">{ylabel}</text>'
        )
    for i, (name, ys) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_ML + pw - 8}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
