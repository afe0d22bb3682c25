"""Minimal deterministic SVG line charts.

Output bytes depend only on the input series, so golden-file tests of the
plotting path are stable.
"""
from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 45

# Fixed palette, cycled by series index.
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return format(x, ".3f")


def emit_svg(series, path, title: str, xlabel: str, ylabel: str) -> None:
    """Write a standalone SVG with one polyline per (name, xs, ys) series,
    on a log10 x axis.

    x values must be positive and sorted ascending within each series, and
    y values finite; ValueError is raised before any write.
    """
    if not series:
        raise ValueError("series must be non-empty")
    cleaned = []
    for name, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r} has mismatched x/y lengths")
        if list(xs) != sorted(float(x) for x in xs):
            raise ValueError(f"series {name!r} x values must be sorted")
        pairs = [(float(x), float(y)) for x, y in zip(xs, ys)]
        if not all(math.isfinite(y) for _, y in pairs):
            raise ValueError(f"series {name!r} has a non-finite y value")
        if any(x <= 0 for x, _ in pairs):
            raise ValueError(f"series {name!r} has a non-positive x value")
        pairs = [(math.log10(x), y) for x, y in pairs]
        cleaned.append((name, pairs))

    all_x = [x for _, pairs in cleaned for x, _ in pairs]
    all_y = [y for _, pairs in cleaned for _, y in pairs]
    if not all_x:
        all_x, all_y = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    lines = []
    lines.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                 f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    lines.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    # axes
    lines.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>')
    lines.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>')
    # tick labels at the axis extremes
    lines.append(f'<text x="{MARGIN_L}" y="{HEIGHT - MARGIN_B + 16}" '
                 f'font-size="11">1e{_fmt(x_lo)}</text>')
    lines.append(f'<text x="{WIDTH - MARGIN_R - 40}" y="{HEIGHT - MARGIN_B + 16}" '
                 f'font-size="11">1e{_fmt(x_hi)}</text>')
    lines.append(f'<text x="{MARGIN_L - 52}" y="{HEIGHT - MARGIN_B}" '
                 f'font-size="11">{_fmt(y_lo)}</text>')
    lines.append(f'<text x="{MARGIN_L - 52}" y="{MARGIN_T + 10}" '
                 f'font-size="11">{_fmt(y_hi)}</text>')
    lines.append(f'<text x="{WIDTH // 2}" y="18" font-size="13" '
                 f'text-anchor="middle">{title}</text>')
    lines.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-size="12" '
                 f'text-anchor="middle">{xlabel}</text>')
    lines.append(f'<text x="14" y="{HEIGHT // 2}" font-size="12" '
                 f'transform="rotate(-90 14 {HEIGHT // 2})" '
                 f'text-anchor="middle">{ylabel}</text>')
    for i, (name, pairs) in enumerate(cleaned):
        color = _COLORS[i % len(_COLORS)]
        if pairs:
            pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pairs)
            lines.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<text x="{WIDTH - MARGIN_R - 130}" y="{MARGIN_T + 14 + 14 * i}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    lines.append("</svg>")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
