"""Compute-optimal frontier extraction from IsoFLOP sweeps.

Within each FLOP budget, the metric traces a convex slice against log
tokens; a least-squares parabola locates the compute-optimal token count
and the metric value there. Chaining the per-budget minima over budgets
gives the frontier series that downstream law fits consume.

For isolation analyses (token scaling at fixed architecture, or model-size
scaling at a fixed token count) no parabola applies: the series is the raw
(axis value, metric) points at the fixed complementary value.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .errors import FrontierError
from .ioutil import Tagged
from .store import RunSet

logger = logging.getLogger(__name__)

ScaleAxis = Literal["flops", "tokens", "params"]

#: Reject fitted minima more than this factor outside the observed token range.
EXTRAPOLATION_FACTOR = 2.0

#: A slice whose fitted rise p2 * max(u^2) is at most this fraction of
#: max |metric| has no interior minimum.
FLAT_CURVATURE_RTOL = 1e-12


@dataclass(frozen=True)
class FrontierPoint:
    """Per-budget compute-optimal point with parabola-fit diagnostics.

    ``curvature`` and ``fit_r2`` are None on the raw pass-through path
    (tokens/params axes), where nothing is fitted.
    """

    budget: float
    optimal_tokens: float
    optimal_metric: float
    curvature: float | None
    fit_r2: float | None
    n_points: int

    def __post_init__(self):
        if self.budget <= 0 or self.optimal_tokens <= 0:
            raise FrontierError("budget and optimal_tokens must be positive")
        if self.curvature is not None and self.curvature <= 0:
            raise FrontierError("fitted curvature must be positive (convex slice)")


@dataclass(frozen=True)
class FrontierSeries(Tagged):
    """Frontier points for one metric, ordered by strictly increasing scale."""

    kind = "frontier"

    metric_key: str
    scale_axis: ScaleAxis
    points: tuple[FrontierPoint, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        budgets = [p.budget for p in self.points]
        if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise FrontierError("frontier scale values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    def law_points(self) -> list[tuple[float, float]]:
        """(scale, metric) pairs for an absolute law fit."""
        return [(p.budget, p.optimal_metric) for p in self.points]

    @classmethod
    def from_dict(cls, obj: dict) -> "FrontierSeries":
        try:
            points = tuple(FrontierPoint(**p) for p in obj["points"])
            warnings = tuple(obj.get("warnings", ()))
            return super().from_dict({**obj, "points": points, "warnings": warnings})
        except (KeyError, TypeError) as exc:
            raise FrontierError(f"malformed frontier series object: {exc}") from exc


def fit_isoflop_slice(
    slice_points: Sequence[tuple[float, float]],
    budget: float,
    extrapolation_factor: float = EXTRAPOLATION_FACTOR,
) -> FrontierPoint:
    """Least-squares quadratic in x = log10(tokens) over one budget slice.

    Fits m(x) = a (x - x0)^2 + c and returns the vertex as the
    compute-optimal point.

    Raises:
        FrontierError: fewer than 3 distinct token counts, a rank-deficient
            design, no interior minimum (a <= 0, or a rise over the slice
            negligible against the metric), or a vertex outside the
            observed token range by more than the extrapolation factor.
    """
    tokens = np.asarray([p[0] for p in slice_points], dtype=float)
    metric = np.asarray([p[1] for p in slice_points], dtype=float)
    if np.any(tokens <= 0):
        raise FrontierError("token counts must be positive")
    distinct = len(np.unique(tokens))
    if distinct < 3:
        raise FrontierError(
            f"only {distinct} distinct token count(s), need 3 for a slice fit"
        )
    x = np.log10(tokens)
    xm = x.mean()
    u = x - xm
    design = np.column_stack([u * u, u, np.ones_like(u)])
    coef, _, rank, _ = np.linalg.lstsq(design, metric, rcond=None)
    if rank < 3:
        raise FrontierError("rank-deficient slice; token counts too clustered")
    p2, p1, p0 = coef
    # A curvature whose rise over the slice is rounding noise against the
    # metric counts as flat; its vertex would be meaningless.
    if p2 * float(np.max(u * u)) <= FLAT_CURVATURE_RTOL * float(np.max(np.abs(metric))):
        raise FrontierError(
            f"no interior minimum in slice at budget {budget:g} "
            f"(curvature {p2:g})"
        )
    u0 = -p1 / (2.0 * p2)
    x0 = xm + u0
    c = p0 - p1 * p1 / (4.0 * p2)
    t_lo, t_hi = tokens.min(), tokens.max()
    # Window check in log space so absurd vertices cannot overflow 10**x0.
    x_window = (
        math.log10(t_lo) - math.log10(extrapolation_factor),
        math.log10(t_hi) + math.log10(extrapolation_factor),
    )
    if not x_window[0] <= x0 <= x_window[1]:
        raise FrontierError(
            f"fitted minimum 1e{x0:.3f} tokens lies outside the allowed "
            f"window [{t_lo / extrapolation_factor:.3g}, "
            f"{t_hi * extrapolation_factor:.3g}] at budget {budget:g}"
        )
    optimal_tokens = 10.0**x0
    residuals = metric - design @ coef
    ss_res = float(residuals @ residuals)
    centered = metric - metric.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FrontierPoint(
        budget=float(budget),
        optimal_tokens=float(optimal_tokens),
        optimal_metric=float(c),
        curvature=float(p2),
        fit_r2=float(r2),
        n_points=len(tokens),
    )


def _bucket_by_budget(
    rows: list[tuple[float, float, float]], rtol: float
) -> list[tuple[float, list[tuple[float, float]]]]:
    """Greedy clustering of (flops, tokens, metric) rows by relative budget."""
    rows = sorted(rows, key=lambda r: r[0])
    buckets: list[tuple[float, list[tuple[float, float]]]] = []
    current: list[tuple[float, float, float]] = []
    anchor = None
    for row in rows:
        if anchor is None or row[0] > anchor * (1.0 + rtol):
            if current:
                buckets.append(_finish_bucket(current))
            current = [row]
            anchor = row[0]
        else:
            current.append(row)
    if current:
        buckets.append(_finish_bucket(current))
    return buckets


def _finish_bucket(
    rows: list[tuple[float, float, float]]
) -> tuple[float, list[tuple[float, float]]]:
    flops = [r[0] for r in rows]
    if min(flops) == max(flops):
        budget = flops[0]
    else:
        budget = float(np.exp(np.mean(np.log(flops))))
    return budget, [(r[1], r[2]) for r in rows]


def extract_frontier(
    runs: RunSet,
    metric_key: str,
    scale_axis: ScaleAxis = "flops",
    budget_tolerance: float = 0.05,
    fixed_axis_value: float | None = None,
    fixed_axis_tolerance: float = 0.05,
    optimum: Literal["vertex", "observed"] = "vertex",
) -> FrontierSeries:
    """Build a frontier series for one metric from internal sweep runs.

    On the flops axis, runs are bucketed by budget within ``budget_tolerance``
    (relative) and each bucket gets a parabola fit. A bucket the fit rejects
    (fewer than 3 distinct token counts, rank-deficient, non-convex, or a
    vertex outside the token window) is skipped with a warning naming the
    budget and the reason. ``optimum="observed"`` replaces the fitted vertex
    with the best observed run in the bucket.

    On the tokens/params axes the series is the raw (axis value, metric)
    points of runs whose complementary axis matches ``fixed_axis_value``
    within ``fixed_axis_tolerance``; no fit is applied.
    """
    if scale_axis not in ("flops", "tokens", "params"):
        raise FrontierError(f"unknown scale axis {scale_axis!r}")
    if optimum not in ("vertex", "observed"):
        raise FrontierError(f"unknown optimum rule {optimum!r}")
    if budget_tolerance < 0 or fixed_axis_tolerance < 0:
        raise FrontierError("tolerances must be non-negative")
    usable = [
        r for r in runs if r.source == "internal" and metric_key in r.metrics
    ]
    if not usable:
        raise FrontierError(f"no internal runs carry metric {metric_key!r}")

    if scale_axis in ("tokens", "params"):
        if fixed_axis_value is None or fixed_axis_value <= 0:
            raise FrontierError(
                f"scale_axis={scale_axis!r} requires a positive fixed value "
                f"for the complementary axis"
            )
        complementary = "params" if scale_axis == "tokens" else "tokens"
        selected = [
            r
            for r in usable
            if abs(getattr(r, complementary) - fixed_axis_value)
            <= fixed_axis_tolerance * fixed_axis_value
        ]
        if not selected:
            raise FrontierError(
                f"no runs match {complementary}={fixed_axis_value:g} within "
                f"{fixed_axis_tolerance:.0%}"
            )
        selected.sort(key=lambda r: getattr(r, scale_axis))
        axis_values = [getattr(r, scale_axis) for r in selected]
        if len(set(axis_values)) != len(axis_values):
            raise FrontierError(
                f"duplicate {scale_axis} values in isolation series; "
                f"scale values must be strictly increasing"
            )
        points = tuple(
            FrontierPoint(
                budget=float(getattr(r, scale_axis)),
                optimal_tokens=float(r.tokens),
                optimal_metric=float(r.metrics[metric_key]),
                curvature=None,
                fit_r2=None,
                n_points=1,
            )
            for r in selected
        )
        return FrontierSeries(metric_key=metric_key, scale_axis=scale_axis, points=points)

    rows = [(r.flops, float(r.tokens), r.metrics[metric_key]) for r in usable]
    warnings: list[str] = []
    points: list[FrontierPoint] = []
    for budget, slice_points in _bucket_by_budget(rows, budget_tolerance):
        try:
            point = fit_isoflop_slice(slice_points, budget)
        except FrontierError as exc:
            message = f"skipping budget {budget:.3g}: {exc}"
            warnings.append(message)
            logger.warning("%s: %s", metric_key, message)
            continue
        if optimum == "observed":
            best_tokens, best_metric = min(slice_points, key=lambda p: p[1])
            point = replace(point, optimal_tokens=float(best_tokens),
                            optimal_metric=float(best_metric))
        points.append(point)
    return FrontierSeries(
        metric_key=metric_key,
        scale_axis="flops",
        points=tuple(points),
        warnings=tuple(warnings),
    )


__all__ = [
    "FrontierPoint",
    "FrontierSeries",
    "fit_isoflop_slice",
    "extract_frontier",
    "EXTRAPOLATION_FACTOR",
    "FLAT_CURVATURE_RTOL",
]
