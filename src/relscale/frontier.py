"""Compute-optimal frontier extraction from IsoFLOP sweeps.

Within each FLOP budget, the metric traces a convex slice against log
tokens; a least-squares parabola locates the compute-optimal token count
and the metric value there. Chaining the per-budget minima over budgets
gives the frontier series that downstream law fits consume.

All slices of a metric are fitted at once: per-slice moment sums in
centred log10-token coordinates give one 3x3 normal system per slice, and
one batched elimination solves them all, with no LAPACK call.

For isolation analyses (token scaling at fixed architecture, or model-size
scaling at a fixed token count) no parabola applies: :func:`isolation_series`
returns the raw (axis value, metric) points at one value of the other axis.

:func:`extract_frontier` builds each series once per RunSet and arguments
and keeps it on that immutable set, so the commands of one session that
read the log ``store`` holds share its series: a baseline paired against
many treatments is fitted once. A rewritten log is a new set, with none.
"""

from __future__ import annotations

import logging
import math
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Literal

from .errors import FrontierError
from .ioutil import Tagged, lazy_module, normalise_numbers

if TYPE_CHECKING:
    from .plotting import PlotSeries
    from .store import RunRecord, RunSet

np = lazy_module("numpy")
plotting = lazy_module("relscale.plotting")

logger = logging.getLogger(__name__)

ScaleAxis = Literal["flops", "tokens", "params"]

#: The scale axes, each with its title in figures.
AXIS_LABELS = {"flops": "training FLOPs", "tokens": "training tokens", "params": "parameters"}

#: The order in which series, run pairs and calibration points take runs, so
#: that a report depends on a log's runs and not on their order in the file.
run_order = attrgetter("flops", "tokens", "run_id")

#: Reject fitted minima more than this factor outside the observed token range.
EXTRAPOLATION_FACTOR = 2.0

#: Default relative tolerance within which nearby flops budgets may merge.
BUDGET_TOLERANCE = 0.05

#: Isolation series keep runs within this fraction of the fixed axis value.
FIXED_AXIS_TOLERANCE = 0.05

#: A slice whose fitted rise p2 * max(u^2) is at most this fraction of
#: max |metric| has no interior minimum.
FLAT_CURVATURE_RTOL = 1e-12

#: A slice is rank-deficient (its token counts form fewer than 3 clusters)
#: when a pivot of its normal equations is at most this fraction of its
#: diagonal entry, which leaves under half the digits of a double.
CLUSTER_RTOL = math.sqrt(sys.float_info.epsilon)


@dataclass(frozen=True, slots=True)
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
            raise FrontierError(f"frontier {self.scale_axis} values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    def law_points(self) -> list[tuple[float, float]]:
        """(scale, metric) pairs for an absolute law fit."""
        return [(p.budget, p.optimal_metric) for p in self.points]

    def to_dict(self) -> dict:
        names = [f.name for f in fields(FrontierPoint)]
        return {**super().to_dict(),
                "points": [{name: getattr(p, name) for name in names} for p in self.points]}

    @classmethod
    def from_dict(cls, obj: dict) -> "FrontierSeries":
        points = tuple(FrontierPoint(**normalise_numbers(FrontierPoint, p))
                       for p in obj["points"])
        return super().from_dict({**obj, "points": points})

    def to_csv(self) -> str:
        """The points as ``frontier --csv`` writes them, each value at full precision."""
        return "budget,optimal_tokens,optimal_metric\n" + "".join(
            f"{p.budget!r},{p.optimal_tokens!r},{p.optimal_metric!r}\n" for p in self.points)

    def figure(self) -> PlotSeries:
        return plotting.figure(f"compute-optimal frontier: {self.metric_key}",
                               AXIS_LABELS[self.scale_axis], self.metric_key, self.metric_key,
                               self.law_points())


def _solve_spd(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a batch of small symmetric positive-definite systems.

    Gaussian elimination without pivoting, which is stable on these
    matrices, vectorised over the batch. It keeps the library off LAPACK,
    whose first call in a process maps a few hundred KiB of pages that stay
    resident. Returns (solution[S, P], pivots[S, P]); a pivot that is not
    clearly positive marks a system that is singular to working precision,
    whose solution is meaningless.
    """
    a = lhs.copy()
    b = rhs.copy()
    size = a.shape[-1]
    for k in range(size - 1):
        factor = a[:, k + 1:, k] / a[:, k, k, None]
        a[:, k + 1:, k:] -= factor[:, :, None] * a[:, k, None, k:]
        b[:, k + 1:] -= factor * b[:, k, None]
    x = np.empty_like(b)
    for k in reversed(range(size)):
        tail = np.einsum("sj,sj->s", a[:, k, k + 1:], x[:, k + 1:])
        x[:, k] = (b[:, k] - tail) / a[:, k, k]
    return x, np.diagonal(a, axis1=1, axis2=2).copy()


def _distinct_counts(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Number of distinct ``values`` in each slice, slice s being rows
    starts[s] up to starts[s + 1] (or the end). A set per slice, not a
    sort: a process's first ``np.lexsort`` maps pages that stay resident."""
    listed, bounds = values.tolist(), np.append(starts, len(values)).tolist()
    return np.fromiter((len(set(listed[lo:hi])) for lo, hi in zip(bounds, bounds[1:])),
                       dtype=int, count=len(starts))


_THIN = "only {} distinct token count(s), need 3 for a slice fit"


def _fit_slices(
    tokens: np.ndarray,
    metric: np.ndarray,
    starts: np.ndarray,
    budgets: Sequence[float],
) -> list[FrontierPoint | str]:
    """Fit every slice's parabola at once; slice s is rows starts[s] up to
    starts[s + 1] (or the end) of ``tokens`` and ``metric``.

    Each slice gets m = p2 u^2 + p1 u + p0 in centred coordinates
    u = log10(tokens) - mean, with the metric centred too. The 3x3 normal
    equations come from per-slice moment sums and are solved by batched
    elimination, whose pivots give the rank check. Returns, per slice, its
    vertex or the reason it has none, checked in this order: non-positive
    tokens, fewer than 3 distinct token counts, a rank-deficient design, no
    interior minimum, a vertex outside the extrapolation window.
    """
    size = len(starts)
    counts = np.diff(starts, append=len(tokens))
    ids = np.repeat(np.arange(size), counts)
    t_lo = np.minimum.reduceat(tokens, starts)
    t_hi = np.maximum.reduceat(tokens, starts)
    distinct = _distinct_counts(tokens, starts)
    x = np.log10(np.where(tokens > 0, tokens, 1.0))
    xm = np.add.reduceat(x, starts) / counts
    u = x - xm[ids]
    centre = np.add.reduceat(metric, starts) / counts
    mc = metric - centre[ids]
    u2 = u * u
    s1, s2, s3, s4, b2, b1, b0, ss_tot = np.add.reduceat(
        np.column_stack([u, u2, u2 * u, u2 * u2, mc * u2, mc * u, mc, mc * mc]),
        starts).T
    n = counts.astype(float)
    lhs = np.stack([s4, s3, s2, s3, s2, s1, s2, s1, n], axis=1).reshape(size, 3, 3)
    # Rejected slices may leave zero pivots; their values are never used.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coef, pivots = _solve_spd(lhs, np.column_stack([b2, b1, b0]))
        p2, p1, p0 = coef.T
        # Every pivot must exceed CLUSTER_RTOL times its diagonal entry
        # (else the token counts are too clustered to fix the parabola) and
        # rcond^2 times the largest pivot, with rcond = max(n, 3) * eps the
        # lstsq cut-off on singular values of the unscaled design.
        rcond = np.maximum(n, 3.0) * np.finfo(float).eps
        full_rank = np.all(
            (pivots > CLUSTER_RTOL * np.diagonal(lhs, axis1=1, axis2=2))
            & (pivots > (rcond * rcond * np.max(pivots, axis=1))[:, None]), axis=1)
        # A rise over the slice that is rounding noise against the metric
        # counts as flat; its vertex would be meaningless.
        rise = p2 * np.maximum.reduceat(u2, starts)
        curved = rise > FLAT_CURVATURE_RTOL * np.maximum.reduceat(np.abs(metric), starts)
        x0 = xm - p1 / (2.0 * p2)
        optimum = centre + p0 - p1 * p1 / (4.0 * p2)
        residual = mc - (p2[ids] * u2 + p1[ids] * u + p0[ids])
        ss_res = np.add.reduceat(residual * residual, starts)
        r2 = np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)
    # Window check in log space so absurd vertices cannot overflow 10**x0.
    margin = math.log10(EXTRAPOLATION_FACTOR)
    inside = ((np.minimum.reduceat(x, starts) - margin <= x0)
              & (x0 <= np.maximum.reduceat(x, starts) + margin))
    accepted = (t_lo > 0) & (distinct >= 3) & full_rank & curved & inside
    columns = (a.tolist() for a in (accepted, x0, optimum, p2, r2, counts))
    fits: list[FrontierPoint | str] = []
    for s, (budget, (ok, vertex, value, curvature, fit_r2, n_points)) in enumerate(
            zip(budgets, zip(*columns))):
        if ok:
            fits.append(FrontierPoint(
                budget=float(budget), optimal_tokens=10.0**vertex, optimal_metric=value,
                curvature=curvature, fit_r2=fit_r2, n_points=n_points))
        elif t_lo[s] <= 0:
            fits.append("token counts must be positive")
        elif distinct[s] < 3:
            fits.append(_THIN.format(distinct[s]))
        elif not full_rank[s]:
            fits.append("rank-deficient slice; token counts too clustered")
        elif not curved[s]:
            fits.append(f"no interior minimum in slice at budget {budget:g} "
                        f"(curvature {curvature:g})")
        else:
            fits.append(
                f"fitted minimum 1e{vertex:.3f} tokens lies outside the allowed "
                f"window [{t_lo[s] / EXTRAPOLATION_FACTOR:.3g}, "
                f"{t_hi[s] * EXTRAPOLATION_FACTOR:.3g}] at budget {budget:g}")
    return fits


def fit_isoflop_slice(slice_points: Sequence[tuple[float, float]], budget: float) -> FrontierPoint:
    """Least-squares quadratic in x = log10(tokens) over one budget slice.

    Fits m(x) = a (x - x0)^2 + c and returns the vertex as the
    compute-optimal point; the one-slice case of the batched fitter that
    :func:`extract_frontier` runs.

    Raises:
        FrontierError: non-positive token counts, fewer than 3 distinct
            token counts, a rank-deficient design (see CLUSTER_RTOL), no
            interior minimum (a <= 0, or a rise over the slice negligible
            against the metric), or a vertex outside the observed token
            range by more than EXTRAPOLATION_FACTOR.
    """
    if len(slice_points) == 0:
        raise FrontierError(_THIN.format(0))
    tokens, metric = np.array(slice_points, dtype=float).reshape(-1, 2).T
    (fit,) = _fit_slices(tokens, metric, np.zeros(1, dtype=np.intp), (budget,))
    if isinstance(fit, str):
        raise FrontierError(fit)
    return fit


def _budget_slices(
    flops: np.ndarray, tokens: np.ndarray, rtol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split rows sorted by flops into IsoFLOP slices.

    Rows of equal flops form a group, and neighbouring groups chain while
    they stay within ``rtol`` of the chain's first value. Inside a chain,
    every group with at least 3 distinct token counts is a slice of its own,
    and every other group (per-run flops jitter) joins the nearest such
    group in log flops; a chain without one stays one slice. Returns the
    first row of each slice, its budget (the rows' flops when they agree,
    their geometric mean when they do not) and whether it is such an
    unanchored chain spanning more than one flops value, which may hold
    several budgets.
    """
    first = np.ones(len(flops), dtype=bool)
    first[1:] = flops[1:] != flops[:-1]
    group_starts = np.flatnonzero(first)
    values = flops[first]
    size = len(values)
    chain_first = []
    listed = values.tolist()
    i = 0
    while i < size:
        chain_first.append(i)
        i = bisect_right(listed, listed[i] * (1.0 + rtol))
    chain = np.repeat(np.arange(len(chain_first)), np.diff(chain_first, append=size))
    index = np.arange(size)
    fittable = _distinct_counts(tokens, group_starts) >= 3
    below = np.maximum.accumulate(np.where(fittable, index, -1))
    above = np.minimum.accumulate(np.where(fittable, index, size)[::-1])[::-1]
    below_c, above_c = np.maximum(below, 0), np.minimum(above, size - 1)
    has_below = (below >= 0) & (chain[below_c] == chain)
    has_above = (above < size) & (chain[above_c] == chain)
    log_f = np.log(values)
    take_below = has_below & (~has_above | (log_f - log_f[below_c] <= log_f[above_c] - log_f))
    owner = np.where(take_below, below,
                     np.where(has_above, above, np.asarray(chain_first)[chain]))
    new_slice = np.ones(size, dtype=bool)
    new_slice[1:] = owner[1:] != owner[:-1]
    starts = group_starts[new_slice]
    ends = np.append(starts[1:], len(flops))
    mean_log = np.add.reduceat(np.log(flops), starts) / (ends - starts)
    lo, hi = flops[starts], flops[ends - 1]
    unanchored = ~(has_below | has_above)[new_slice] & (lo != hi)
    return starts, np.where(lo == hi, lo, np.exp(mean_log)), unanchored


def _usable(runs: RunSet, metric_key: str) -> list[RunRecord]:
    """The internal runs that carry ``metric_key``; there must be one."""
    usable = [r for r in runs if r.source == "internal" and metric_key in r.metrics]
    if not usable:
        raise FrontierError(f"no internal runs carry metric {metric_key!r}")
    return usable


def isolation_series(runs: RunSet, metric_key: str, scale_axis: ScaleAxis,
                     fixed_value: float | None = None) -> FrontierSeries:
    """The raw (axis value, metric) points of the internal runs at one value
    of the other axis, with no fit: those within FIXED_AXIS_TOLERANCE of
    ``fixed_value``, or, given none, all of them, whose values of the other
    axis must then span at most that tolerance. A repeated axis value is
    refused, as a series' scales must strictly increase."""
    usable = _usable(runs, metric_key)
    if scale_axis not in ("tokens", "params"):
        raise FrontierError(f"unknown scale axis {scale_axis!r} (expected 'tokens' or 'params')")
    other = "params" if scale_axis == "tokens" else "tokens"
    if fixed_value is None:
        values = [getattr(r, other) for r in usable]
        if max(values) > (1.0 + FIXED_AXIS_TOLERANCE) * min(values):
            raise FrontierError(f"a {scale_axis}-axis series needs one {other} value within "
                                f"{FIXED_AXIS_TOLERANCE:.0%} (--fixed-value), but the "
                                f"runs span {other} {min(values):g} to {max(values):g}")
    elif not 0 < fixed_value < math.inf:
        raise FrontierError(f"a {scale_axis}-axis series needs a positive finite fixed value "
                            f"for {other}, got {fixed_value!r}")
    else:
        usable = [r for r in usable
                  if abs(getattr(r, other) - fixed_value) <= FIXED_AXIS_TOLERANCE * fixed_value]
        if not usable:
            raise FrontierError(f"no runs match {other}={fixed_value:g} within "
                                f"{FIXED_AXIS_TOLERANCE:.0%}")
    points = tuple(FrontierPoint(budget=float(getattr(r, scale_axis)),
                                 optimal_tokens=float(r.tokens), curvature=None, fit_r2=None,
                                 optimal_metric=r.metrics[metric_key], n_points=1)
                   for r in sorted(usable, key=lambda r: getattr(r, scale_axis)))
    return FrontierSeries(metric_key=metric_key, scale_axis=scale_axis, points=points)


def extract_frontier(
    runs: RunSet,
    metric_key: str,
    budget_tolerance: float = BUDGET_TOLERANCE,
    optimum: Literal["vertex", "observed"] = "vertex",
) -> FrontierSeries:
    """Build the IsoFLOP frontier series for one metric from internal sweep runs.

    Runs are grouped into budget slices (see
    :func:`_budget_slices`: runs of equal flops form a budget, and budgets
    within ``budget_tolerance`` (relative) merge only where a budget has too
    few token counts to be fitted on its own), and every slice gets a
    parabola fit. A slice the fit rejects (fewer than 3 distinct token
    counts, rank-deficient, non-convex, or a vertex outside the token window)
    is skipped with a warning naming the budget and the reason. A slice
    chained from jittered flops with no fittable budget in reach, in which a
    param count repeats, gets a warning that it merges budgets; a lower
    ``budget_tolerance`` splits it.
    ``optimum="observed"`` replaces the fitted vertex with the best observed
    run in the slice. The tokens and params axes take no fit; see
    :func:`isolation_series`.

    The series is built once per ``runs`` and arguments: it is kept on the
    immutable RunSet, and a repeat call returns that same object. Every
    call logs the series' warnings, in order, so a repeat logs what the
    first call did.
    """
    if optimum not in ("vertex", "observed"):
        raise FrontierError(f"unknown optimum rule {optimum!r}")
    if not 0 <= budget_tolerance < math.inf:
        raise FrontierError(f"budget tolerance must be finite and non-negative, "
                            f"got {budget_tolerance!r}")
    # repr tells -0.0 from 0.0, which the merge warning prints differently.
    key = (metric_key, repr(budget_tolerance), optimum)
    series = runs._frontiers.get(key)
    if series is None:
        series = runs._frontiers[key] = _build_frontier(runs, metric_key, budget_tolerance,
                                                        optimum)
    for message in series.warnings:
        logger.warning("%s: %s", metric_key, message)
    return series


def _build_frontier(runs: RunSet, metric_key: str, budget_tolerance: float,
                    optimum: str) -> FrontierSeries:
    """The series :func:`extract_frontier` returns, built from ``runs``."""
    usable = sorted(_usable(runs, metric_key), key=run_order)
    flops = np.array([r.flops for r in usable])
    tokens = np.array([r.tokens for r in usable], dtype=float)
    metric = np.array([r.metrics[metric_key] for r in usable])
    starts, budgets, unanchored = _budget_slices(flops, tokens, budget_tolerance)
    budgets = budgets.tolist()
    fits = _fit_slices(tokens, metric, starts, budgets)
    ends = np.append(starts[1:], len(flops))
    warnings: list[str] = []
    if unanchored.any():
        # A width run twice in one slice means the slice holds two budgets.
        params = np.array([r.params for r in usable], dtype=float)
        repeats = unanchored & (_distinct_counts(params, starts) < ends - starts)
        warnings += [f"budget {budget:.3g}: a param count repeats in the slice, so it "
                     f"merges budgets within the {budget_tolerance:g} budget tolerance"
                     for budget in np.asarray(budgets)[repeats].tolist()]
    points: list[FrontierPoint] = []
    for point, budget, start, end in zip(fits, budgets, starts, ends):
        if isinstance(point, str):
            warnings.append(f"skipping budget {budget:.3g}: {point}")
            continue
        if optimum == "observed":
            best = start + int(np.argmin(metric[start:end]))
            point = replace(point, optimal_tokens=float(tokens[best]),
                            optimal_metric=float(metric[best]))
        points.append(point)
    return FrontierSeries(
        metric_key=metric_key,
        scale_axis="flops",
        points=tuple(points),
        warnings=tuple(warnings),
    )
