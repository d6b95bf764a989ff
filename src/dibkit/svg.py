"""Minimal deterministic SVG line plots.

Byte-identical output for identical input: fixed viewport, fixed palette,
fixed decimal formatting, no timestamps or generated ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "emit_plot"]

_W, _H = 860.0, 560.0
_ML, _MR, _MT, _MB = 70.0, 160.0, 40.0, 55.0
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#000000",
)


@dataclass(frozen=True)
class Series:
    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _text(x: float, y: float, size: int, body: str, anchor: str = "", extra: str = "") -> str:
    anchored = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchored} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#333", extra: str = "") -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{stroke}"{extra}/>'


def emit_plot(
    series: list[Series],
    path: str,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write a fixed-viewport SVG 1.1 line chart for the given series."""
    if not series or any(len(s.x) == 0 for s in series):
        raise ValueError("every series must be nonempty")
    for s in series:  # a point is drawn only where both coordinates are finite
        if not any(math.isfinite(xv) and math.isfinite(yv) for xv, yv in zip(s.x, s.y)):
            raise ValueError(f"series {s.name!r} has no point with finite x and y")
    xs = [v for s in series for v in s.x if math.isfinite(v)]
    ys = [v for s in series for v in s.y if math.isfinite(v)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_W)}" height="{_fmt(_H)}" viewBox="0 0 {_fmt(_W)} {_fmt(_H)}">'
    )
    parts.append(f'<rect width="{_fmt(_W)}" height="{_fmt(_H)}" fill="white"/>')
    if title:
        parts.append(_text(_ML + pw / 2, 24, 16, title, "middle"))
    # axes box
    parts.append(
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        if t < x_lo - 1e-12 or t > x_hi + 1e-12:
            continue
        x = sx(t)
        parts.append(_line(x, _MT + ph, x, _MT + ph + 5))
        parts.append(_text(x, _MT + ph + 20, 12, _fmt(t), "middle"))
    for t in _nice_ticks(y_lo, y_hi):
        if t < y_lo - 1e-12 or t > y_hi + 1e-12:
            continue
        y = sy(t)
        parts.append(_line(_ML - 5, y, _ML, y))
        parts.append(_text(_ML - 9, y + 4, 12, _fmt(t), "end"))
    if x_label:
        parts.append(_text(_ML + pw / 2, _H - 12, 13, x_label, "middle"))
    if y_label:
        mid = _MT + ph / 2
        parts.append(_text(18, mid, 13, y_label, "middle", f' transform="rotate(-90 18 {_fmt(mid)})"'))
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(sx(xv))},{_fmt(sy(yv))}"
            for xv, yv in zip(s.x, s.y)
            if math.isfinite(xv) and math.isfinite(yv)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = _MT + 16 + 18 * i
        parts.append(_line(_W - _MR + 12, ly - 4, _W - _MR + 34, ly - 4, color, ' stroke-width="2"'))
        parts.append(_text(_W - _MR + 40, ly, 12, s.name))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
