"""Minimal self-contained SVG line charts.

Produces standalone .svg text for metric-versus-ratio curves without any
plotting dependency. Enough for the benchmark outputs: multiple series,
axes with ticks, a legend, and a title.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .graphs import atomic_write_text

PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44",
    "#66ccee", "#aa3377", "#bbbbbb", "#000000",
)
WIDTH, HEIGHT = 720, 460  # pixels


@dataclass(frozen=True)
class ChartSeries:
    label: str
    xs: tuple
    ys: tuple
    color: str | None = None
    stroke_width: float = 1.5


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def line_chart(series, title: str, x_label: str, y_label: str) -> str:
    """Render ChartSeries to a standalone SVG document of WIDTH x HEIGHT."""
    left, right, top, bottom = 64, 180, 40, 48
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom

    all_x = np.concatenate([np.asarray(s.xs, dtype=np.float64) for s in series])
    all_y = np.concatenate([np.asarray(s.ys, dtype=np.float64) for s in series])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{escape(title)}</text>',
    ]
    for tick in np.linspace(x_lo, x_hi, 5):
        x = sx(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                     f'y2="{top + plot_h + 5}" stroke="#444444"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 18}" '
                     f'text-anchor="middle">{_fmt(tick)}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        y = sy(tick)
        parts.append(f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="#444444"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle">{escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">'
                 f'{escape(y_label)}</text>')

    for i, s in enumerate(series):
        color = s.color or PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(s.xs, s.ys)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="{s.stroke_width}"/>')
        ly = top + 16 + 18 * i
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="{s.stroke_width}"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}">{escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def save_chart(path, series, **kwargs) -> None:
    atomic_write_text(path, line_chart(series, **kwargs))
