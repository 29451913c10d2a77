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


def _ranges(plot: PlotSeries) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for s in plot.series:
        for x, y in list(s.points) + list(s.curve or ()):
            xs.append(math.log10(x) if plot.x_scale == "log10" else x)
            ys.append(y)
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


def render_svg(plot: PlotSeries) -> str:
    """The figure as an SVG document string."""
    x_lo, x_hi, y_lo, y_hi = _ranges(plot)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        value = math.log10(x) if plot.x_scale == "log10" else x
        return MARGIN_LEFT + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:g}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(plot.title)}</text>',
    ]

    # Decade gridlines on a log axis; plain ticks otherwise.
    if plot.x_scale == "log10":
        for decade in range(math.ceil(x_lo), math.floor(x_hi) + 1):
            gx = MARGIN_LEFT + (decade - x_lo) / (x_hi - x_lo) * plot_w
            parts.append(
                f'<line x1="{_fmt(gx)}" y1="{MARGIN_TOP}" x2="{_fmt(gx)}" '
                f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(gx)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                f"1e{decade}</text>"
            )
    else:
        for i in range(5):
            value = x_lo + (x_hi - x_lo) * i / 4
            gx = MARGIN_LEFT + (value - x_lo) / (x_hi - x_lo) * plot_w
            parts.append(
                f'<line x1="{_fmt(gx)}" y1="{HEIGHT - MARGIN_BOTTOM}" '
                f'x2="{_fmt(gx)}" y2="{HEIGHT - MARGIN_BOTTOM + 5}" '
                f'stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(gx)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                f"{_fmt(value)}</text>"
            )

    for i in range(5):
        value = y_lo + (y_hi - y_lo) * i / 4
        gy = py(value)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(gy)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(gy)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{_fmt(gy + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
        )

    # Axes frame.
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{WIDTH / 2:g}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(plot.x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT / 2:g})">{_escape(plot.y_label)}</text>'
    )

    if plot.ref_line_y is not None:
        gy = py(plot.ref_line_y)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(gy)}" '
            f'x2="{WIDTH - MARGIN_RIGHT}" y2="{_fmt(gy)}" stroke="#666666" '
            f'stroke-width="1" stroke-dasharray="6 4"/>'
        )

    for idx, s in enumerate(plot.series):
        color = PALETTE[idx % len(PALETTE)]
        if s.curve:
            curve_pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in s.curve)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                f'stroke-dasharray="4 3" points="{curve_pts}"/>'
            )
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in s.points)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{pts}"/>'
        )
        legend_y = MARGIN_TOP + 14 + 16 * idx
        parts.append(
            f'<line x1="{WIDTH - MARGIN_RIGHT - 120}" y1="{legend_y}" '
            f'x2="{WIDTH - MARGIN_RIGHT - 96}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 90}" y="{legend_y + 4}" '
            f'font-family="sans-serif" font-size="11">{_escape(s.label)}</text>'
        )

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


def emit_plot(
    plot: PlotSeries,
    out_base: str | Path,
    formats: tuple[str, ...] = ("svg", "csv"),
) -> dict[str, Path]:
    """Write the figure as ``<out_base>.svg`` / ``<out_base>.csv``.

    Output is byte-stable for identical inputs; writes are atomic.
    """
    out_base = Path(out_base)
    if not formats:
        raise ValidationError("no plot format given (expected svg and/or csv)")
    unknown = set(formats) - {"svg", "csv"}
    if unknown:
        raise ValidationError(f"unknown plot format(s): {sorted(unknown)}")
    written: dict[str, Path] = {}
    if "svg" in formats:
        written["svg"] = atomic_write_text(
            out_base.with_suffix(".svg"), render_svg(plot)
        )
    if "csv" in formats:
        written["csv"] = atomic_write_text(
            out_base.with_suffix(".csv"), render_csv(plot)
        )
    return written


__all__ = ["SeriesData", "PlotSeries", "figure", "render_svg", "render_csv", "emit_plot"]
