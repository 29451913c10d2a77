"""Static, byte-stable SVG and CSV rendering of analysis series.

The renderer is deliberately minimal: fixed canvas, decade gridlines on
log10 axes, one polyline per series (plus an optional dashed fit curve),
and an optional dashed horizontal reference line (e.g. the parity line of
relative plots). Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from .errors import ValidationError
from .ioutil import atomic_write_text, lazy_module

np = lazy_module("numpy")

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 44, 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


@dataclass(frozen=True)
class SeriesData:
    """One plotted series: raw points plus optional fitted-curve samples."""

    label: str
    points: tuple[tuple[float, float], ...]
    curve: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not self.points:
            raise ValidationError(f"series {self.label!r} has no points")
        for x, y in list(self.points) + list(self.curve or ()):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValidationError(f"series {self.label!r} has non-finite values")


@dataclass(frozen=True)
class PlotSeries:
    """A complete figure specification."""

    title: str
    x_label: str
    y_label: str
    x_scale: Literal["log10", "linear"]
    series: tuple[SeriesData, ...]
    ref_line_y: float | None = None

    def __post_init__(self):
        if not self.series:
            raise ValidationError("a plot needs at least one series")
        if self.x_scale not in ("log10", "linear"):
            raise ValidationError(f"unknown x_scale {self.x_scale!r}")
        if self.ref_line_y is not None and not math.isfinite(self.ref_line_y):
            raise ValidationError(f"ref_line_y must be finite, got {self.ref_line_y!r}")
        if self.x_scale == "log10":
            for s in self.series:
                for x, _ in list(s.points) + list(s.curve or ()):
                    if x <= 0:
                        raise ValidationError(
                            f"series {s.label!r}: log10 axis needs positive x"
                        )


def figure(title, x_label, y_label, label, points, predict=None, x_scale="log10",
           samples=64, ref_line_y=None) -> PlotSeries:
    """One-series figure of x-sorted ``points``; the fitted curve is ``predict``
    at ``samples`` scales spaced evenly on the x axis across the points."""
    curve = None
    if predict is not None and points:
        space = np.geomspace if x_scale == "log10" else np.linspace
        xs = space(points[0][0], points[-1][0], samples)
        curve = tuple(zip(xs.tolist(), predict(xs).tolist()))
    return PlotSeries(
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_scale=x_scale,
        series=(SeriesData(label=label, points=tuple(points), curve=curve),),
        ref_line_y=ref_line_y,
    )


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _axis_x(plot: PlotSeries, x: float) -> float:
    """``x`` in axis units: its log10 on a log axis."""
    return math.log10(x) if plot.x_scale == "log10" else x


def _ranges(plot: PlotSeries) -> tuple[float, float, float, float]:
    points = [p for s in plot.series for p in list(s.points) + list(s.curve or ())]
    xs = [_axis_x(plot, x) for x, _ in points]
    ys = [y for _, y in points]
    if plot.ref_line_y is not None:
        ys.append(plot.ref_line_y)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        pad = abs(y_lo) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad


def _dash(pattern: str | None) -> str:
    return f' stroke-dasharray="{pattern}"' if pattern else ""


def _line(x1, y1, x2, y2, stroke="#333333", width=1, dash=None) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{_fmt(width)}"{_dash(dash)}/>'
    )


def _text(x, y, content: str, size=11, anchor: str | None = "middle", rotate=None) -> str:
    """``content`` at (x, y); ``rotate`` turns it that many degrees about (x, y)."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    rotate_attr = (
        f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"' if rotate else ""
    )
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor_attr} font-family="sans-serif" '
        f'font-size="{size}"{rotate_attr}>{_escape(content)}</text>'
    )


def _polyline(pixels, stroke: str, width: float, dash=None) -> str:
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pixels)
    return (
        f'<polyline fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"'
        f'{_dash(dash)} points="{points}"/>'
    )


def render_svg(plot: PlotSeries) -> str:
    """The figure as an SVG document string."""
    x_lo, x_hi, y_lo, y_hi = _ranges(plot)
    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    def gx(value: float) -> float:
        """Pixel column of ``value`` in axis units."""
        return left + (value - x_lo) / (x_hi - x_lo) * (right - left)

    def gy(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * (bottom - top)

    def pixels(points):
        return [(gx(_axis_x(plot, x)), gy(y)) for x, y in points]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH / 2, 24, plot.title, size=15),
    ]

    # Decade gridlines on a log axis; plain ticks otherwise.
    if plot.x_scale == "log10":
        for decade in range(math.ceil(x_lo), math.floor(x_hi) + 1):
            parts.append(_line(gx(decade), top, gx(decade), bottom, stroke="#dddddd"))
            parts.append(_text(gx(decade), bottom + 18, f"1e{decade}"))
    else:
        for i in range(5):
            value = x_lo + (x_hi - x_lo) * i / 4
            parts.append(_line(gx(value), bottom, gx(value), bottom + 5))
            parts.append(_text(gx(value), bottom + 18, _fmt(value)))

    for i in range(5):
        value = y_lo + (y_hi - y_lo) * i / 4
        parts.append(_line(left - 5, gy(value), left, gy(value)))
        parts.append(_text(left - 9, gy(value) + 4, _fmt(value), anchor="end"))

    # Axes frame and labels.
    parts.append(_line(left, bottom, right, bottom))
    parts.append(_line(left, top, left, bottom))
    parts.append(_text(WIDTH / 2, HEIGHT - 12, plot.x_label, size=12))
    parts.append(_text(16, HEIGHT / 2, plot.y_label, size=12, rotate=-90))

    if plot.ref_line_y is not None:
        ref_y = gy(plot.ref_line_y)
        parts.append(_line(left, ref_y, right, ref_y, stroke="#666666", dash="6 4"))

    for idx, s in enumerate(plot.series):
        color = PALETTE[idx % len(PALETTE)]
        if s.curve:
            parts.append(_polyline(pixels(s.curve), color, 1.2, dash="4 3"))
        parts.append(_polyline(pixels(s.points), color, 1.8))
        legend_y = top + 14 + 16 * idx
        parts.append(_line(right - 120, legend_y, right - 96, legend_y, stroke=color, width=1.8))
        parts.append(_text(right - 90, legend_y + 4, s.label, anchor=None))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_csv(plot: PlotSeries) -> str:
    """One row per point with a ``series`` column; full float precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["series", "x", "y"])
    for s in plot.series:
        for x, y in s.points:
            writer.writerow([s.label, repr(float(x)), repr(float(y))])
        for x, y in s.curve or ():
            writer.writerow([f"{s.label} (fit)", repr(float(x)), repr(float(y))])
    return buffer.getvalue()


def emit_plot(plot: PlotSeries, out_base: str | Path) -> dict[str, Path]:
    """Write the figure as ``<out_base>.svg`` and ``<out_base>.csv``; a caller
    that wants one file renders it with :func:`render_svg` or :func:`render_csv`.

    Each suffix is appended to the whole name, so a dot in it stays
    (``fig.a`` writes ``fig.a.svg``). Output is byte-stable for identical
    inputs; writes are atomic.
    """
    out_base = Path(out_base)
    return {fmt: atomic_write_text(out_base.with_name(f"{out_base.name}.{fmt}"), render(plot))
            for fmt, render in (("svg", render_svg), ("csv", render_csv))}
