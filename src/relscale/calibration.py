"""Loss-to-accuracy calibration and two-stage accuracy forecasting.

Soft-metric loss scales predictably with compute; hard metrics do not.
The forecast therefore chains two maps: a compute-to-loss power law fit on
compute-optimal runs, then a sigmoid from loss to accuracy fit on any mix
of internal and observational models. acc(l) = c + (a - c) / (1 + e^{k(l - l0)})
with floor c (chance level), ceiling a <= 1, steepness k > 0, midpoint l0.
:func:`forecast` evaluates the chain as the law's ``predict`` followed by
the calibration's; the :class:`Forecast` it returns holds both maps.

The fit runs every start of its multi-start grid as one row of a batched
box-constrained Levenberg-Marquardt solve (:func:`lawfit._least_squares_box`)
with an analytic Jacobian. A start leaves the batch at its first rejected,
lightly damped step whose Gauss-Newton model gain is within the cost's
rounding error, where it stands; the starts still moving set the iteration
count. :func:`lawfit._best_start` picks the winning start.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import CalibrationError, FitError
from .frontier import AXIS_LABELS
from .ioutil import Tagged, lazy_module, load_tagged
from .lawfit import ABSOLUTE_LAWS, _AbsoluteLaw, _best_start, _columns, _least_squares_box, _ols

if TYPE_CHECKING:
    from .plotting import PlotSeries

np = lazy_module("numpy")
plotting = lazy_module("relscale.plotting")

#: Multi-start initialization grid: steepness values and loss quantiles.
K_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
MIDPOINT_QUANTILES = (0.25, 0.5, 0.75)

#: Floor-to-ceiling gaps at/below this are flagged as degenerate flat fits.
DEGENERATE_GAP = 1e-5

_S_MIN = 1e-6  # lower bound on the headroom fraction s, keeps ceiling > floor


@dataclass(frozen=True)
class _Calibration(Tagged):
    """A loss-to-accuracy map fitted to the (loss, accuracy) ``points``."""

    points: tuple[tuple[float, float], ...] = field(default=(), kw_only=True)

    def figure(self) -> PlotSeries:
        return plotting.figure("loss-to-accuracy calibration", "loss", "accuracy",
                               "calibration", sorted(self.points), self.predict,
                               x_scale="linear")


@dataclass(frozen=True)
class SigmoidCalibration(_Calibration):
    """Fitted loss-to-accuracy map. Predictions lie in [floor, ceiling]."""

    kind = "sigmoid_calibration"

    floor: float
    ceiling: float
    steepness: float
    midpoint: float
    rmse: float
    n: int
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.floor < self.ceiling <= 1.0 + 1e-12:
            raise CalibrationError(
                f"need 0 <= floor < ceiling <= 1, got floor={self.floor}, "
                f"ceiling={self.ceiling}"
            )
        if self.steepness <= 0:
            raise CalibrationError("steepness must be positive")
        if not math.isfinite(self.rmse) or self.rmse < 0:
            raise CalibrationError("rmse must be finite and non-negative")

    def predict(self, loss):
        """Predicted accuracy at a loss value or array; a scalar in gives a
        float out.

        Strictly decreasing in loss, bounded in [floor, ceiling]; at the
        midpoint it equals (floor + ceiling) / 2 exactly.
        """
        span = self.ceiling - self.floor
        if np.isscalar(loss):
            return self.floor + span * float(_expit(-self.steepness * (loss - self.midpoint)))
        loss = np.asarray(loss, dtype=float)
        return self.floor + span * _expit(-self.steepness * (loss - self.midpoint))


@dataclass(frozen=True)
class LinearCalibration(_Calibration):
    """Flagged alternative: straight-line loss-to-accuracy map, clipped to [0, 1]."""

    kind = "linear_calibration"

    slope: float
    intercept: float
    rmse: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.rmse) or self.rmse < 0:
            raise CalibrationError("rmse must be finite and non-negative")
        if self.n < 2:
            raise CalibrationError("n must be at least 2 for a linear calibration")

    def predict(self, loss):
        raw = self.intercept + self.slope * np.asarray(loss, dtype=float)
        return np.clip(raw, 0.0, 1.0)


#: The calibration families; an untagged calibration payload is the first.
CALIBRATIONS = (SigmoidCalibration, LinearCalibration)


@dataclass(frozen=True)
class Forecast(Tagged):
    """Two-stage forecast: (scale, loss, accuracy) ``predictions`` of an
    absolute ``law`` chained with a ``calibration``."""

    kind = "forecast"

    predictions: tuple[tuple[float, float, float], ...]
    law: _AbsoluteLaw
    calibration: _Calibration

    def to_dict(self) -> dict:
        return {**super().to_dict(), "law": self.law.to_dict(),
                "calibration": self.calibration.to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> Forecast:
        return super().from_dict({**obj, "law": load_tagged(obj["law"], *ABSOLUTE_LAWS),
                                  "calibration": load_tagged(obj["calibration"], *CALIBRATIONS)})

    def figure(self) -> PlotSeries:
        return plotting.figure("forecast accuracy", AXIS_LABELS[self.law.scale_axis],
                               "accuracy", "forecast",
                               [(scale, acc) for scale, _, acc in self.predictions])


def forecast(law: _AbsoluteLaw, calibration: _Calibration,
             scales: Sequence[float]) -> Forecast:
    """The accuracy ``calibration`` predicts at the loss ``law`` predicts, at
    each of the positive ``scales``."""
    if not all(scale > 0 for scale in scales):
        raise CalibrationError("scale must be positive")
    losses = [float(law.predict(scale)) for scale in scales]
    return Forecast(tuple((scale, loss, float(calibration.predict(loss)))
                          for scale, loss in zip(scales, losses)), law, calibration)


def _expit(z):
    """Logistic 1 / (1 + e^-z) through tanh, which cannot overflow."""
    return 0.5 * (1.0 + np.tanh(z / 2.0))


def _sigmoid_problem(losses: np.ndarray, accs: np.ndarray, floor: float | None):
    """Residual function, stacked starts and box bounds of a sigmoid fit.

    Parameters are (c, s, k, l0), or (s, k, l0) with the floor fixed; the
    ceiling is c + (1 - c) * s. The starts span K_GRID x MIDPOINT_QUANTILES,
    steepness-major.
    """
    span = max(float(losses.max() - losses.min()), 1e-6)
    l0_lo = float(losses.min()) - 10.0 * span
    l0_hi = float(losses.max()) + 10.0 * span
    c0 = float(np.clip(accs.min(), 0.0, 1.0 - 1e-3))
    c_start = c0 if floor is None else floor
    s0 = float(np.clip((accs.max() - c0) / max(1.0 - c_start, 1e-9), 2 * _S_MIN, 1.0))
    mids = np.quantile(losses, MIDPOINT_QUANTILES).tolist()
    starts = np.array([[s0, k0, l0] for k0 in K_GRID for l0 in mids])
    lower = [_S_MIN, 1e-8, l0_lo]
    upper = [1.0, 1e4, l0_hi]
    if floor is None:
        starts = np.column_stack([np.full(len(starts), c0), starts])
        lower = [0.0, *lower]
        upper = [1.0 - 1e-9, *upper]

    def residuals(theta):
        if floor is None:
            c, s, k, l0 = (col[:, None] for col in theta.T)
        else:
            c = floor
            s, k, l0 = (col[:, None] for col in theta.T)
        offset = losses - l0
        sig = _expit(-k * offset)
        height = (1.0 - c) * s
        slope = height * sig * (1.0 - sig)
        jac = np.empty((len(theta), theta.shape[1], len(losses)))
        if floor is None:
            np.subtract(1.0, s * sig, out=jac[:, 0])
        np.multiply(1.0 - c, sig, out=jac[:, -3])
        np.multiply(-slope, offset, out=jac[:, -2])
        np.multiply(k, slope, out=jac[:, -1])
        return c + height * sig - accs, jac

    return residuals, starts, lower, upper


def fit_sigmoid(
    points: Sequence[tuple[float, float]],
    floor: float | None = None,
) -> SigmoidCalibration:
    """Least-squares sigmoid fit over a deterministic multi-start grid.

    The ceiling is parameterized as floor + (1 - floor) * s with
    s in (0, 1], which keeps floor < ceiling <= 1 as box bounds. Starts
    span K_GRID x loss quantiles and are solved together; the first start
    whose cost ties the lowest (:func:`lawfit._best_start`) wins.

    Args:
        points: (loss, accuracy) pairs; accuracies must lie in [0, 1].
        floor: Fix the floor at a known chance level, or None to fit it.

    Raises:
        CalibrationError: too few points, accuracies out of range, or no
            start converging to a finite fit.
    """
    min_n = 4 if floor is None else 3
    if len(points) < min_n:
        raise CalibrationError(
            f"need at least {min_n} points "
            f"({'free' if floor is None else 'fixed'} floor), got {len(points)}"
        )
    losses, accs = _columns(points, ("loss values", "finite"), ("accuracy", "unit"),
                            error=CalibrationError)
    if floor is not None and not 0.0 <= floor < 1.0:
        raise CalibrationError(f"fixed floor {floor:g} outside [0, 1)")

    thetas, costs = _least_squares_box(*_sigmoid_problem(losses, accs, floor))
    best = _best_start(thetas, costs)
    if best is None:
        raise CalibrationError("sigmoid fit failed to converge from every start")
    theta = thetas[best].tolist()
    c, s, k, mid = theta if floor is None else (float(floor), *theta)
    ceiling = c + (1.0 - c) * s
    return SigmoidCalibration(
        floor=c,
        ceiling=min(ceiling, 1.0),
        steepness=k,
        midpoint=mid,
        rmse=math.sqrt(2.0 * costs[best] / len(losses)),
        n=len(losses),
        degenerate=bool(ceiling - c <= DEGENERATE_GAP),
        points=tuple(map(tuple, points)),
    )


def fit_linear_calibration(points: Sequence[tuple[float, float]]) -> LinearCalibration:
    """Flagged alternative to the sigmoid: OLS line from loss to accuracy."""
    if len(points) < 2:
        raise CalibrationError("need at least 2 points for a linear calibration")
    losses, accs = _columns(points, ("loss values", "finite"), ("accuracy", "unit"),
                            error=CalibrationError)
    try:
        slope, intercept, _ = _ols(losses, accs)
    except FitError:
        raise CalibrationError("all loss values are equal") from None
    rmse = float(np.sqrt(np.mean((intercept + slope * losses - accs) ** 2)))
    return LinearCalibration(slope=slope, intercept=intercept, rmse=rmse, n=len(losses),
                             points=tuple(map(tuple, points)))
