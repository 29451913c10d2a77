"""Absolute, log-linear, and relative scaling-law fits with inference.

The absolute law E(F) = alpha * F^-beta is fit by least squares of ln E on
ln F; the floored law E(F) = alpha * F^-beta + floor extends its class,
adding only ``floor`` and its rules. Each absolute fitter takes the fitted
metric's name as ``metric_key`` and its scale axis, which labels the law's
plot, as ``scale_axis``, so a law is built once; the package
exports both laws and their fitters. The relative law
G(F) = E_t(F)/E_b(F) = gamma * F^delta_beta is fit on paired errors (one
run's two metrics at its flops, or two series' values at a shared scale): in
ratio mode by regressing ln(E_t/E_b) on ln F, in difference mode by
regressing E_t - E_b on log10 F. delta_beta < 0 means the treatment
improves faster than the baseline. The gap to parity (G = 1) narrows when
sign(ln G) * delta_beta < 0: delta_beta < 0 narrows it while the treatment is
the worse metric (G > 1) and widens it where the treatment is ahead (G < 1).

Inference is resampling-based: a pair-level bootstrap for the sign and CI
of the relative slope, and a permutation test for slope-covariate Pearson
correlations. Both draw through :func:`_blocks`, which splits the resamples
into fixed-size blocks with one seed stream each; the split depends only on
the inputs, so a (input, seed, count) triple always gives the same values.

The Huber line is fit by iteratively reweighted least squares, and the
floored law (like the sigmoid calibration) by :func:`_least_squares_box`, a
box-constrained Levenberg-Marquardt solver that runs every start of a
multi-start fit as one row of a batch. :func:`_best_start` picks the winning
start of every multi-start fit, so rounding of near-equal costs does not.

Every fitter, the calibrations included, reads its inputs through :func:`_columns`,
which holds each column to one rule and names the role and value it refuses.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from .errors import FitError
from .frontier import AXIS_LABELS, FrontierSeries, _solve_spd, run_order
from .ioutil import Tagged, lazy_module

if TYPE_CHECKING:
    from .plotting import PlotSeries
    from .store import RunSet

np = lazy_module("numpy")
plotting = lazy_module("relscale.plotting")

RelativeMode = Literal["ratio", "difference"]

#: Curves whose exponents differ by less than this are treated as parallel.
PARALLEL_TOL = 1e-12

#: Frontier budgets within this fraction of each other pair up in
#: :func:`pairs_from_frontiers`.
BUDGET_MATCH_RTOL = 1e-6

#: Default bootstrap resamples and Monte Carlo permutations.
RESAMPLES = 2000
PERMUTATIONS = 10_000

#: Pairs whose log ratios (ratio mode) or differences span at most this many
#: machine epsilons, times the largest error in difference mode, are flat:
#: their slope is rounding, so :func:`fit_relative` gives it no sign or CI.
FLAT_EPS = 64

#: Maximum redraws of a degenerate bootstrap resample (all scales equal).
MAX_RESAMPLE_RETRIES = 100

#: Resample elements (rows x n) drawn per block; bounds block memory at large n.
BLOCK_ELEMENTS = 1 << 14

#: Iteration caps of the Huber IRLS loop and of the least-squares solver.
HUBER_MAX_ITER = 500
LSQ_MAX_ITER = 1000

#: Levenberg-Marquardt damping: start value, factor on a kept and on a
#: rejected step, and the cap past which a start stops.
_DAMPING_START, _DAMPING_KEPT, _DAMPING_REJECTED, _DAMPING_CAP = 1e-3, 0.3, 10.0, 1e16

#: Relative cost-gain and step-size tolerances of the solver.
_LSQ_TOL = 1e-15

#: Final costs within this fraction of the lowest are one minimum reached
#: from several starts; :func:`_best_start` takes the first of them.
START_TIE_RTOL = 1e-10

#: The rules of :func:`_columns`: refusal phrase and test (lambdas: numpy loads on use).
_RULES = {
    "positive": ("be positive and finite", lambda v: (0 < v) & (v < np.inf)),
    "finite": ("be finite", lambda v: np.isfinite(v)),
    "unit": ("lie in [0, 1]", lambda v: (0 <= v) & (v <= 1)),
}


@dataclass(frozen=True)
class _AbsoluteLaw(Tagged):
    """A law fitted to the (scale, metric) points ``series`` of ``metric_key``,
    with scales on ``scale_axis`` (``"flops"`` for reports that predate it)."""

    series: tuple[tuple[float, float], ...] = field(default=(), kw_only=True)
    metric_key: str = field(default="", kw_only=True)
    scale_axis: str = field(default="flops", kw_only=True)

    def __post_init__(self):
        if self.scale_axis not in AXIS_LABELS:
            raise FitError(f"unknown scale axis {self.scale_axis!r}")

    def figure(self) -> PlotSeries:
        return plotting.figure(f"absolute scaling: {self.metric_key}",
                               AXIS_LABELS[self.scale_axis], self.metric_key, self.metric_key,
                               self.series, self.predict)


@dataclass(frozen=True)
class PowerLawFit(_AbsoluteLaw):
    """Absolute law E(F) = alpha * F^-beta on one scale axis."""

    kind = "power_law"

    alpha: float
    beta: float
    r2: float
    n: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.alpha < math.inf:
            raise FitError(f"alpha must be positive and finite, got {self.alpha:g}")
        if self.n < 2:
            raise FitError("a power-law fit needs at least 2 points")

    def predict(self, scale):
        """E(F) = alpha * F^-beta; accepts scalars or arrays."""
        return self.alpha * scale ** (-self.beta)


@dataclass(frozen=True)
class PowerLawFloorFit(PowerLawFit):
    """Three-parameter law E(F) = alpha * F^-beta + floor: the plain law plus
    ``floor``, whose rules run before the plain law's."""

    kind = "power_law_floored"

    floor: float = field(kw_only=True)

    def __post_init__(self):
        if self.floor < 0:
            raise FitError("floor must be non-negative")
        if self.n < 3:
            raise FitError("n must be at least 3 for a floored fit")
        super().__post_init__()

    def predict(self, scale):
        return super().predict(scale) + self.floor


@dataclass(frozen=True)
class LogLinearFit(_AbsoluteLaw):
    """Linear trend of a bounded metric in log10 scale (e.g. pp per decade)."""

    kind = "loglinear"

    slope_per_decade: float
    intercept_at_ref: float
    ref_scale: float
    r2: float

    def __post_init__(self):
        super().__post_init__()
        if self.ref_scale <= 0 or not math.isfinite(self.slope_per_decade):
            raise FitError("invalid log-linear fit parameters")

    def predict(self, scale):
        return self.intercept_at_ref + self.slope_per_decade * np.log10(
            np.asarray(scale, dtype=float) / self.ref_scale
        )


#: The absolute law families; an untagged law payload is the first.
ABSOLUTE_LAWS = (PowerLawFit, PowerLawFloorFit, LogLinearFit)


@dataclass(frozen=True)
class RelativeFit(Tagged):
    """Relative law between a treatment and a baseline error series.

    Ratio mode: G(F) = gamma * F^delta_beta. Difference mode: delta_beta is
    the per-decade slope of E_t - E_b and gamma the intercept at unit scale.
    p_sign and the CI come from the pair bootstrap; None when fewer than
    3 pairs are available, or when the pairs are flat (``FLAT_EPS``). The
    law is fitted on the (scale, treatment error, baseline error) ``pairs``
    of the metrics ``treatment`` and ``baseline``, with scales on
    ``scale_axis`` (``"flops"`` for reports that predate it).
    """

    kind = "relative_fit"

    gamma: float
    delta_beta: float
    mode: RelativeMode
    p_sign: float | None
    ci_low: float | None
    ci_high: float | None
    n_pairs: int
    pairs: tuple[tuple[float, float, float], ...] = ()
    treatment: str = ""
    baseline: str = ""
    scale_axis: str = "flops"

    def __post_init__(self):
        if self.scale_axis not in AXIS_LABELS:
            raise FitError(f"unknown scale axis {self.scale_axis!r}")
        if self.mode == "ratio":
            if self.gamma <= 0:
                raise FitError("gamma must be positive in ratio mode")
            # The rule _columns holds pair errors to, without numpy: crossover loads none.
            for pair in self.pairs:
                for role, value in zip(("treatment errors", "baseline errors"), pair[1:]):
                    if not 0 < value < math.inf:
                        raise FitError(f"{role} must be positive and finite, got {value:g}")
        if self.p_sign is not None and not 0.0 <= self.p_sign <= 1.0:
            raise FitError("p_sign must lie in [0, 1]")

    @property
    def sign_significant(self) -> bool:
        """Whether the slope sign may be interpreted (bootstrap p < 0.05)."""
        return self.p_sign is not None and self.p_sign < 0.05

    def predict(self, scale):
        """Fitted relative trend: ratio gamma*F^db, or gamma + db*log10(F)."""
        scale = np.asarray(scale, dtype=float)
        if self.mode == "ratio":
            return self.gamma * scale**self.delta_beta
        return self.gamma + self.delta_beta * np.log10(scale)

    def to_dict(self) -> dict:
        """The fields, ``sign_significant``, and in ratio mode ``percent_per_decade``."""
        out = {**super().to_dict(), "sign_significant": self.sign_significant}
        if self.mode == "ratio":
            out["percent_per_decade"] = percent_per_decade(self.delta_beta)
        return out

    def figure(self) -> PlotSeries:
        ratio = self.mode == "ratio"
        return plotting.figure(
            f"relative scaling ({self.mode})", AXIS_LABELS[self.scale_axis],
            "error ratio" if ratio else "error difference",
            f"{self.treatment} vs {self.baseline}",
            [(f, t / b if ratio else t - b) for f, t, b in self.pairs],
            self.predict, ref_line_y=1.0 if ratio else 0.0,
        )


@dataclass(frozen=True)
class CrossoverResult(Tagged):
    """Scale at which two relative curves intersect."""

    kind = "crossover"

    f_star: float
    in_range: bool

    def __post_init__(self):
        if self.f_star <= 0:
            raise FitError("crossover scale must be positive")


@dataclass(frozen=True)
class CorrelationResult(Tagged):
    """Pearson correlation of relative slopes against a log-scaled covariate,
    computed on the (group, slope, covariate) triples ``groups``."""

    kind = "correlation"

    pearson_r: float
    p_value: float
    regression_slope: float
    n: int
    groups: tuple[tuple[str, float, float], ...] = ()

    def __post_init__(self):
        if abs(self.pearson_r) > 1.0 + 1e-12:
            raise FitError("|pearson_r| must not exceed 1")
        if not 0.0 <= self.p_value <= 1.0:
            raise FitError("p_value must lie in [0, 1]")

    def figure(self) -> PlotSeries:
        """The groups by covariate, with the regression line of slope on log10 covariate."""
        points = [(cov, slope) for _, slope, cov in sorted(self.groups, key=lambda g: g[2])]

        def line(xs):
            x = np.log10([cov for cov, _ in points])
            y = np.asarray([slope for _, slope in points])
            intercept = float(y.mean() - self.regression_slope * x.mean())
            return intercept + self.regression_slope * np.log10(xs)

        return plotting.figure("relative slope vs covariate", "covariate", "slope", "groups",
                               points, line, samples=32)


def _columns(points: Sequence[Sequence[float]], *roles: tuple[str, str],
             error: type[Exception] = FitError) -> list[np.ndarray]:
    """Column i of ``points`` as a float array, held to ``roles[i]``, a (name,
    rule) pair with the rule a key of ``_RULES``; the first value a rule
    refuses raises ``error`` naming the role and the value."""
    columns = []
    for i, (name, rule) in enumerate(roles):
        column = np.asarray([p[i] for p in points], dtype=float)
        phrase, accepts = _RULES[rule]
        refused = column[~accepts(column)]
        if refused.size:
            raise error(f"{name} must {phrase}, got {refused[0]:g}")
        columns.append(column)
    return columns


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept, and R^2 of y on x; errors on degenerate x."""
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0 or x.min() == x.max():  # equal x can leave x - x.mean() nonzero
        raise FitError("degenerate fit: all scale values are equal")
    slope = float(xc @ yc) / sxx
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept, _r2(y, intercept + slope * x)


def _r2(y: np.ndarray, fitted: np.ndarray) -> float:
    """R^2 of ``fitted`` values against ``y``, clamped to [0, 1]; 1 for a constant y."""
    residuals = y - fitted
    yc = y - y.mean()
    ss_tot = float(yc @ yc)
    if ss_tot == 0.0:
        return 1.0
    return min(1.0, max(0.0, 1.0 - float(residuals @ residuals) / ss_tot))


def _huber_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Robust line fit (Huber loss) by iteratively reweighted least squares.

    Residuals beyond ``scale`` (the spread of the OLS residuals) are
    down-weighted by scale/|r|. Starts from the OLS line and stops once no
    coefficient moves by more than 1e-12 of the largest one.
    """
    slope, intercept, _ = _ols(x, y)
    scale = max(float(np.std(y - (intercept + slope * x))), 1e-12)
    theta = np.array([slope, intercept])
    for _ in range(HUBER_MAX_ITER):
        w = scale / np.maximum(np.abs(y - (theta[1] + theta[0] * x)), scale)
        xm = float(w @ x) / float(w.sum())
        ym = float(w @ y) / float(w.sum())
        wxc = w * (x - xm)
        slope = float(wxc @ (y - ym)) / float(wxc @ (x - xm))
        new = np.array([slope, ym - slope * xm])
        done = np.max(np.abs(new - theta)) <= 1e-12 * np.max(np.abs(new))
        theta = new
        if done:
            break
    return float(theta[0]), float(theta[1])


def _least_squares_box(fun, x0, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Minimise half the squared residual norm from every row of ``x0`` at once.

    ``fun(theta[S, P])`` returns ``(residuals[S, n], jacobian[S, P, n])``;
    each row is an independent start, kept inside the box [lower, upper].
    Every iteration solves the Marquardt-damped normal equations of the
    parameters that move the residuals and are not held at a bound by their
    gradient, clips the step to the box, and keeps it only where it lowers
    that row's cost. Damping falls on a kept step and rises on a rejected
    one. A row stops, and is frozen, at the first of:

    * a kept step whose cost gain is at most 1e-15 of its cost;
    * a step, kept or not, of at most 1e-15 * (1 + |theta|);
    * a rejected step whose Gauss-Newton model gain, that of the unclipped
      damped step, is at most 1e-15 of its cost, while the damping is still
      at most its start value. The model then promises no more than the
      cost's rounding error, so the row sits at a minimum to working
      precision; raising the damping would only shorten the step until one
      of the other rules fires. The damping guard keeps a step shortened by
      heavy damping from passing for convergence;
    * damping past the cap;
    * LSQ_MAX_ITER iterations.

    A rejected step leaves theta where it was, so a row stopped by the third
    rule is returned exactly at its best point.

    Returns (theta[S, P], cost[S]); a row whose start gives a non-finite cost
    is returned as it started.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    theta = np.clip(np.array(x0, dtype=float), lower, upper)
    with np.errstate(all="ignore"):
        residuals, jac = fun(theta)
        cost = 0.5 * np.einsum("sn,sn->s", residuals, residuals)
        damping = np.full(len(theta), _DAMPING_START)
        live = np.isfinite(cost)
        eye = np.eye(theta.shape[1])
        for _ in range(LSQ_MAX_ITER):
            rows = np.flatnonzero(live)
            if rows.size == 0:
                break
            th, r, j, lam, c = theta[rows], residuals[rows], jac[rows], damping[rows], cost[rows]
            grad = np.einsum("spn,sn->sp", j, r)
            hess = np.einsum("spn,sqn->spq", j, j)
            curvature = np.einsum("spp->sp", hess)
            held = (
                ((th <= lower) & (grad > 0)) | ((th >= upper) & (grad < 0)) | (curvature == 0)
            )
            coupled = ~(held[:, :, None] | held[:, None, :])
            diag = np.where(held, 1.0, lam[:, None] * curvature)
            lhs = np.where(coupled, hess, 0.0) + diag[:, :, None] * eye
            step, _ = _solve_spd(lhs, np.where(held, 0.0, -grad))
            trial = np.clip(th + step, lower, upper)
            trial_r, trial_jac = fun(trial)
            trial_cost = 0.5 * np.einsum("sn,sn->s", trial_r, trial_r)
            kept = trial_cost < c
            # Gauss-Newton model gain of the damped step, -(g.p + p.H.p / 2):
            # the normal equations make it p.H.p / 2 + p.D.p, never negative
            # (held components of p are zero).
            model_gain = np.einsum(
                "sp,sp->s", step, 0.5 * np.einsum("spq,sq->sp", hess, step) + diag * step
            )
            delta = trial - th
            moved = np.sqrt(np.einsum("sp,sp->s", delta, delta))
            size = 1.0 + np.sqrt(np.einsum("sp,sp->s", th, th))
            done = np.where(
                kept,
                c - trial_cost <= _LSQ_TOL * c,
                (model_gain <= _LSQ_TOL * c) & (lam <= _DAMPING_START),
            ) | (moved <= _LSQ_TOL * size)
            better = rows[kept]
            theta[better] = trial[kept]
            residuals[better] = trial_r[kept]
            jac[better] = trial_jac[kept]
            cost[better] = trial_cost[kept]
            damping[rows] = lam = lam * np.where(kept, _DAMPING_KEPT, _DAMPING_REJECTED)
            live[rows[done | (lam > _DAMPING_CAP)]] = False
    return theta, cost


def _best_start(thetas: np.ndarray, costs: np.ndarray) -> int | None:
    """The winning row of a multi-start :func:`_least_squares_box` solve: the
    first row whose parameters and cost are finite and whose cost is within
    START_TIE_RTOL of the lowest finite cost, or None when no row is finite.
    """
    finite = np.isfinite(costs) & np.isfinite(thetas).all(axis=1)
    if not finite.any():
        return None
    lowest = costs[finite].min()
    return int(np.argmax(finite & (costs - lowest <= START_TIE_RTOL * lowest)))


def fit_power_law(
    points: Sequence[tuple[float, float]],
    scale_axis: str = "flops",
    estimator: Literal["ols", "huber"] = "ols",
    *,
    metric_key: str = "",
) -> PowerLawFit:
    """Fit E(F) = alpha * F^-beta by regression of ln E on ln F.

    R^2 is computed in log space. ``estimator="huber"`` fits the line by
    Huber loss instead of least squares (see :func:`_huber_line`); R^2 stays
    that of the least-squares line. ``metric_key`` names the fitted metric.
    """
    if len(points) < 2:
        raise FitError("a power-law fit needs at least 2 points")
    scales, errors = _columns(points, ("scale values", "positive"), ("error values", "positive"))
    x = np.log(scales)
    y = np.log(errors)
    if estimator == "huber":
        slope, intercept = _huber_line(x, y)
        _, _, r2 = _ols(x, y)
    elif estimator == "ols":
        slope, intercept, r2 = _ols(x, y)
    else:
        raise FitError(f"unknown estimator {estimator!r}")
    with np.errstate(over="ignore"):  # PowerLawFit refuses an infinite alpha
        alpha = float(np.exp(intercept))
    return PowerLawFit(
        alpha=alpha,
        beta=-slope,
        r2=r2,
        n=len(points),
        scale_axis=scale_axis,
        series=tuple(map(tuple, points)),
        metric_key=metric_key,
    )


def _floored_problem(scales: np.ndarray, errors: np.ndarray):
    """Residual function, starts and box bounds of :func:`fit_power_law_floored`.

    Parameters are (ln alpha, beta, floor); residuals are in log space.
    """
    hi = float(errors.min()) * (1.0 - 1e-9)
    log_scales = np.log(scales)
    log_errors = np.log(errors)

    def residuals(theta):
        log_alpha, beta, floor = (col[:, None] for col in theta.T)
        power = np.exp(log_alpha - beta * log_scales)
        pred = np.maximum(power + floor, 1e-300)
        jac = np.empty((len(theta), 3, len(log_scales)))
        np.divide(power, pred, out=jac[:, 0])
        np.divide(-log_scales * power, pred, out=jac[:, 1])
        np.divide(1.0, pred, out=jac[:, 2])
        return np.log(pred) - log_errors, jac

    starts = []
    for frac in (0.0, 0.5, 0.9, 0.99):
        start_floor = frac * hi
        slope, intercept, _ = _ols(log_scales,
                                   np.log(np.maximum(errors - start_floor, errors * 1e-6)))
        starts.append([intercept, -slope, start_floor])
    return residuals, starts, [-np.inf, -np.inf, 0.0], [np.inf, np.inf, max(hi, 1e-300)]


def fit_power_law_floored(
    points: Sequence[tuple[float, float]], scale_axis: str = "flops", *, metric_key: str = ""
) -> PowerLawFloorFit:
    """Fit E(F) = alpha * F^-beta + floor, the ``fit --family power-floor`` law.

    The floor lies in [0, min(E)); the fit minimises squared log residuals
    from four starts, each seeded by the least-squares line of the log errors
    less a trial floor on the log scales, and keeps the start
    :func:`_best_start` picks. ``metric_key`` names the fitted metric.
    """
    if len(points) < 3:
        raise FitError("the floored fit needs at least 3 points")
    scales, errors = _columns(points, ("scale values", "positive"), ("error values", "positive"))
    thetas, costs = _least_squares_box(*_floored_problem(scales, errors))
    best = _best_start(thetas, costs)
    if best is None:
        raise FitError("floored fit failed to converge")
    log_alpha, beta, floor = thetas[best]
    r2 = _r2(np.log(errors), np.log(np.exp(log_alpha - beta * np.log(scales)) + floor))
    with np.errstate(over="ignore"):  # PowerLawFloorFit refuses an infinite alpha
        alpha = float(np.exp(log_alpha))
    return PowerLawFloorFit(
        alpha=alpha,
        beta=float(beta),
        r2=r2,
        n=len(points),
        scale_axis=scale_axis,
        floor=float(floor),
        series=tuple(map(tuple, points)),
        metric_key=metric_key,
    )


def fit_loglinear(
    points: Sequence[tuple[float, float]], scale_axis: str = "flops", *, metric_key: str = ""
) -> LogLinearFit:
    """Linear regression of a metric on log10 scale.

    The metric may be any finite real (bounded metrics such as
    probabilities are fine). The intercept is reported at the geometric
    mean of the scales. ``scale_axis`` and ``metric_key`` label the fit.
    """
    if len(points) < 2:
        raise FitError("a log-linear fit needs at least 2 points")
    scales, values = _columns(points, ("scale values", "positive"), ("metric values", "finite"))
    x = np.log10(scales)
    slope, intercept, r2 = _ols(x, values)
    ref = 10.0 ** float(x.mean())
    return LogLinearFit(
        slope_per_decade=slope,
        intercept_at_ref=float(intercept + slope * x.mean()),
        ref_scale=ref,
        r2=r2,
        scale_axis=scale_axis,
        series=tuple(map(tuple, points)),
        metric_key=metric_key,
    )


def _relative_xy(
    pairs: Sequence[tuple[float, float, float]], mode: RelativeMode
) -> tuple[np.ndarray, np.ndarray]:
    if mode not in ("ratio", "difference"):
        raise FitError(f"unknown relative mode {mode!r}")
    rule = "positive" if mode == "ratio" else "finite"
    scales, treatment, baseline = _columns(
        pairs, ("scale values", "positive"), ("treatment errors", rule), ("baseline errors", rule)
    )
    if mode == "ratio":
        return np.log(scales), np.log(treatment / baseline)
    return np.log10(scales), treatment - baseline


def fit_relative(
    pairs: Sequence[tuple[float, float, float]],
    mode: RelativeMode = "ratio",
    *,
    run_bootstrap: bool = True,
    slopes: np.ndarray | None = None,
    treatment: str = "",
    baseline: str = "",
    scale_axis: str = "flops",
) -> RelativeFit:
    """Fit the relative law on (scale, treatment error, baseline error) pairs.

    Pair upstream: :func:`pairs_from_frontiers` takes two series' values at a
    scale both kept, as ``relfit`` does on every axis; :func:`pairs_from_runs`
    takes both errors from one run.
    ``treatment``, ``baseline`` and ``scale_axis`` label the fit.

    p_sign and the 95% CI come from ``slopes``, a :func:`bootstrap_slopes`
    vector of these pairs, which sets the resamples and seed. When it is
    None, the default draw is taken here if ``run_bootstrap`` is set and at
    least 3 pairs are given; else both stay None. They are computed as
    :func:`bootstrap_sign_test` describes, and stay None when the pairs are
    flat (``FLAT_EPS``): every log ratio or difference is the same to within
    rounding, so the slope has no sign. Percentile intervals do not
    mathematically guarantee containing the point estimate, so the CI is
    widened to keep it inside. The fit is built once, after the bootstrap.
    """
    if len(pairs) < 2:
        raise FitError("a relative fit needs at least 2 pairs")
    x, y = _relative_xy(pairs, mode)
    slope, intercept, _ = _ols(x, y)
    rounding = FLAT_EPS * sys.float_info.epsilon
    if mode == "difference":
        rounding *= float(np.abs(np.asarray(pairs)[:, 1:]).max())
    flat = float(np.ptp(y)) <= rounding
    if slopes is None and run_bootstrap and len(pairs) >= 3 and not flat:
        slopes = bootstrap_slopes(pairs, mode=mode)
    p_sign = ci_low = ci_high = None
    if slopes is not None and not flat:
        p_sign, ci_low, ci_high = _sign_stats(slopes)
        ci_low, ci_high = min(ci_low, slope), max(ci_high, slope)
    return RelativeFit(
        gamma=float(np.exp(intercept)) if mode == "ratio" else float(intercept),
        delta_beta=float(slope),
        mode=mode,
        p_sign=p_sign,
        ci_low=ci_low,
        ci_high=ci_high,
        n_pairs=len(pairs),
        pairs=tuple(map(tuple, pairs)),
        treatment=treatment,
        baseline=baseline,
        scale_axis=scale_axis,
    )


def _blocks(total: int, n: int, seed: int) -> Iterator[tuple[int, np.random.Generator]]:
    """Split ``total`` resamples of ``n`` items into seeded blocks.

    Yields (rows, rng) per block. Each block has its own
    ``SeedSequence(seed).spawn`` child and at most ``BLOCK_ELEMENTS // n``
    rows; the split depends only on the arguments.
    """
    rows = max(1, BLOCK_ELEMENTS // n)
    children = np.random.SeedSequence(seed).spawn(-(-total // rows))
    for i, child in enumerate(children):
        yield min(rows, total - i * rows), np.random.default_rng(child)


def bootstrap_slopes(
    pairs: Sequence[tuple[float, float, float]],
    mode: RelativeMode = "ratio",
    resamples: int = RESAMPLES,
    seed: int = 0,
) -> np.ndarray:
    """Per-resample relative slopes from a pair-level bootstrap.

    Each block of resamples draws one index matrix of pairs with
    replacement, so the vector is bit-identical for a given
    (input, seed, resamples). Pairs whose scales are all equal are refused
    before the first draw, as :func:`_ols` refuses them. A resample that
    draws one scale by chance is redrawn from the block's stream, up to a
    retry cap; a redraw replaces only the degenerate rows.

    A block gathers its scales once. Each resample's scales are centred on
    their own mean, and the slope is sum(xc * y) / sum(xc * xc): the centred
    scales sum to zero, so y needs no centring. Uncentred moment sums
    (Sxy - Sx * Sy / n) would lose digits when a resample's scale spread is
    small next to its scales' magnitude.
    """
    n = len(pairs)
    if n < 3:
        raise FitError("bootstrap needs at least 3 pairs to resample")
    if resamples < 2:
        raise FitError("resamples must be at least 2")
    x, y = _relative_xy(pairs, mode)
    _ols(x, y)  # refuses all-equal scales, which no redraw could fix
    slopes = np.empty(resamples)
    done = 0
    for rows, rng in _blocks(resamples, n, seed):
        idx = rng.integers(0, n, size=(rows, n))
        xs = x[idx]
        flat = np.flatnonzero(xs.max(axis=1) == xs.min(axis=1))
        for _ in range(MAX_RESAMPLE_RETRIES):
            if flat.size == 0:
                break
            idx[flat] = rng.integers(0, n, size=(flat.size, n))
            redrawn = x[idx[flat]]
            xs[flat] = redrawn
            flat = flat[redrawn.max(axis=1) == redrawn.min(axis=1)]
        if flat.size:
            raise FitError(
                f"resample degenerate after {MAX_RESAMPLE_RETRIES} retries "
                f"(all scales equal)"
            )
        xs -= xs.mean(axis=1, keepdims=True)
        slopes[done:done + rows] = (
            np.einsum("ij,ij->i", xs, y[idx]) / np.einsum("ij,ij->i", xs, xs)
        )
        done += rows
    return slopes


def bootstrap_sign_test(
    pairs: Sequence[tuple[float, float, float]],
    mode: RelativeMode = "ratio",
    resamples: int = RESAMPLES,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Sign p-value and percentile CI for the relative slope.

    The two-sided sign p-value is
    2 * min(frac(slope <= 0), frac(slope >= 0)), floored at 2/resamples
    (an empirical bootstrap cannot certify smaller); the CI is the
    empirical 2.5/97.5 percentile interval of :func:`bootstrap_slopes`.
    """
    return _sign_stats(bootstrap_slopes(pairs, mode=mode, resamples=resamples, seed=seed))


def _sign_stats(slopes: np.ndarray) -> tuple[float, float, float]:
    frac_le = float(np.mean(slopes <= 0.0))
    frac_ge = float(np.mean(slopes >= 0.0))
    p_sign = 2.0 * min(frac_le, frac_ge)
    p_sign = min(1.0, max(p_sign, 2.0 / len(slopes)))
    ci_low, ci_high = np.percentile(slopes, [2.5, 97.5])
    return p_sign, float(ci_low), float(ci_high)


def percent_per_decade(delta_beta: float) -> float:
    """Relative-error change per 10x scale implied by the exponent."""
    if not math.isfinite(delta_beta):
        raise FitError("delta_beta must be finite")
    return (10.0**delta_beta - 1.0) * 100.0


def crossover(
    fit_a: RelativeFit,
    fit_b: RelativeFit,
    observed_span: tuple[float, float],
) -> CrossoverResult:
    """Scale F* where two ratio-mode relative curves intersect.

    F* = (gamma_a / gamma_b) ^ (1 / (delta_beta_b - delta_beta_a)), solved
    in log space; fits on different scale axes, and nearly parallel curves
    whose F* overflows a float, raise :class:`FitError`.
    """
    if fit_a.mode != "ratio" or fit_b.mode != "ratio":
        raise FitError("crossover requires both fits in ratio mode")
    if fit_a.scale_axis != fit_b.scale_axis:
        raise FitError(f"crossover requires both fits on one scale axis, got "
                       f"{fit_a.scale_axis!r} and {fit_b.scale_axis!r}")
    lo, hi = observed_span
    if not 0 < lo <= hi < math.inf:
        raise FitError("observed span must satisfy 0 < F_min <= F_max < inf")
    dd = fit_b.delta_beta - fit_a.delta_beta
    if abs(dd) < PARALLEL_TOL:
        raise FitError("parallel relative curves never cross")
    log_f_star = (math.log(fit_a.gamma) - math.log(fit_b.gamma)) / dd
    if log_f_star > math.log(sys.float_info.max):
        raise FitError(
            f"nearly parallel relative curves: crossover at e^{log_f_star:.6g} "
            f"overflows"
        )
    f_star = math.exp(log_f_star)
    return CrossoverResult(f_star=float(f_star), in_range=bool(lo <= f_star <= hi))


def _orderings(n: int, rows: int) -> Iterator[np.ndarray]:
    """All n! orderings of range(n), n >= 2, as int8 blocks of at most ``rows``.

    The (n-1)! orderings of range(n-1) are built first, each table from the
    one before by inserting its next item at every position. The last item
    is inserted the same way a block at a time, so only the (n-1)! table and
    one block are held at once.
    """

    def insert(table: np.ndarray, item: int, rows: int) -> Iterator[np.ndarray]:
        for pos in range(item + 1):
            for start in range(0, len(table), rows):
                part = table[start:start + rows]
                block = np.empty((len(part), item + 1), dtype=np.int8)
                block[:, :pos] = part[:, :pos]
                block[:, pos] = item
                block[:, pos + 1:] = part[:, pos:]
                yield block

    table = np.zeros((1, 1), dtype=np.int8)
    for item in range(1, n - 1):
        table = np.concatenate(list(insert(table, item, len(table))))
    yield from insert(table, n - 1, rows)


def slope_covariate_correlation(
    slopes: Sequence[tuple[str, float]],
    covariate: Sequence[tuple[str, float]],
    permutations: int = PERMUTATIONS,
    seed: int = 0,
) -> CorrelationResult:
    """Pearson R of relative slopes against log10 of a positive covariate.

    The p-value comes from a permutation test: exhaustive over all n!
    orderings when n <= 8, otherwise Monte Carlo with the add-one estimator
    (1 + hits) / (permutations + 1) over seeded draws. The exhaustive test
    scores the :func:`_orderings` blocks of at most ``BLOCK_ELEMENTS // n``
    rows; a hit count does not depend on the order they come in. A group
    repeated in ``slopes`` or in ``covariate`` is refused, naming it, and so
    is ``permutations`` below 1 at every n.
    """
    for role, entries in (("slopes", slopes), ("covariate", covariate)):
        seen = set()
        for group, _ in entries:
            if group in seen:
                raise FitError(f"group {group!r} repeats in {role}")
            seen.add(group)
    cov = dict(covariate)
    missing = [g for g, _ in slopes if g not in cov]
    if missing:
        raise FitError(f"no covariate value for group(s): {missing}")
    n = len(slopes)
    if n < 3:
        raise FitError("correlation needs at least 3 matched groups")
    if permutations < 1:
        raise FitError("permutations must be at least 1")
    values, y = _columns([(cov[g], s) for g, s in slopes],
                         ("covariate values", "positive"), ("slope values", "finite"))
    x = np.log10(values)
    if float(np.ptp(x)) == 0.0 or float(np.ptp(y)) == 0.0:
        raise FitError("zero variance in slopes or covariate")

    regression_slope, _, _ = _ols(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    r_obs = float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))

    # Permuting y leaves both norms of r unchanged, so |yc[perm] @ xc| ranks
    # permutations as |r| does. The relative slack keeps exact ties (the
    # identity and mirror orderings) counted despite summation-order rounding.
    def stat(perms: np.ndarray) -> np.ndarray:
        return np.abs(yc[perms] @ xc)

    threshold = float(stat(np.arange(n))) * (1.0 - 1e-12)
    hits = 0
    if n <= 8:
        for block in _orderings(n, BLOCK_ELEMENTS // n):
            hits += int(np.count_nonzero(stat(block) >= threshold))
        p_value = hits / math.factorial(n)
    else:
        for rows, rng in _blocks(permutations, n, seed):
            perms = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
            hits += int(np.count_nonzero(stat(perms) >= threshold))
        p_value = (1 + hits) / (permutations + 1)

    return CorrelationResult(
        pearson_r=r_obs,
        p_value=float(p_value),
        regression_slope=regression_slope,
        n=n,
        groups=tuple((g, s, cov[g]) for g, s in slopes),
    )


def pairs_from_runs(
    runs: RunSet,
    treatment_key: str,
    baseline_key: str,
) -> list[tuple[float, float, float]]:
    """Run-paired (flops, treatment, baseline) triples, in
    :data:`frontier.run_order`.

    Every run carrying both metrics contributes, external runs included;
    pairing by run guarantees both errors share every training condition.
    ``relfit`` pairs series through :func:`pairs_from_frontiers` instead: run
    pairs weigh every width of a budget alike, so their slope is not the
    compute-optimal one (``tests/oracle.py`` gives it the wrong sign on a = b).
    """
    paired = sorted((r for r in runs if treatment_key in r.metrics and baseline_key in r.metrics),
                    key=run_order)
    if not paired:
        raise FitError(
            f"unpaired inputs: no run carries both {treatment_key!r} and "
            f"{baseline_key!r}"
        )
    return [(r.flops, r.metrics[treatment_key], r.metrics[baseline_key]) for r in paired]


def pairs_from_frontiers(
    treatment: FrontierSeries,
    baseline: FrontierSeries,
) -> list[tuple[float, float, float]]:
    """Pairs of the two series' metric values at the scales both kept: the
    FLOP budgets of two frontiers, or the token or parameter counts of two
    :func:`frontier.isolation_series`. Scales match within BUDGET_MATCH_RTOL;
    a budget one series skipped is left out (its series' warnings say why).
    Raises FitError when no scale is shared, naming each series that kept
    none with its first warning."""
    t_points, b_points = treatment.points, baseline.points
    pairs = []
    i = j = 0
    while i < len(t_points) and j < len(b_points):
        pt, pb = t_points[i], b_points[j]
        if abs(pt.budget - pb.budget) <= BUDGET_MATCH_RTOL * pb.budget:
            pairs.append((pb.budget, pt.optimal_metric, pb.optimal_metric))
            i += 1
            j += 1
        elif pt.budget < pb.budget:
            i += 1
        else:
            j += 1
    if not pairs:
        why = "".join(f"; {s.metric_key} kept no budget: {s.warnings[0]}"
                      for s in (treatment, baseline) if not s.points and s.warnings)
        raise FitError(f"frontiers share no budget ({len(t_points)} treatment, "
                       f"{len(b_points)} baseline points){why}")
    return pairs

