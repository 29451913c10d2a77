"""Loss-to-accuracy calibration and two-stage accuracy forecasting.

Soft-metric loss scales predictably with compute; hard metrics do not.
The forecast therefore chains two maps: a compute-to-loss power law fit on
compute-optimal runs, then a sigmoid from loss to accuracy fit on any mix
of internal and observational models. acc(l) = c + (a - c) / (1 + e^{k(l - l0)})
with floor c (chance level), ceiling a <= 1, steepness k > 0, midpoint l0.

scipy is imported inside the functions that evaluate or fit the sigmoid:
importing it is most of a cold command's start-up, and most commands never
call them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError
from .ioutil import Tagged
from .lawfit import PowerLawFit

#: Multi-start initialization grid: steepness values and loss quantiles.
K_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
MIDPOINT_QUANTILES = (0.25, 0.5, 0.75)

#: Floor-to-ceiling gaps at/below this are flagged as degenerate flat fits.
DEGENERATE_GAP = 1e-5

_S_MIN = 1e-6  # lower bound on the headroom fraction s, keeps ceiling > floor


@dataclass(frozen=True)
class SigmoidCalibration(Tagged):
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
        return accuracy_from_loss(self, loss)


@dataclass(frozen=True)
class LinearCalibration(Tagged):
    """Flagged alternative: straight-line loss-to-accuracy map, clipped to [0, 1]."""

    kind = "linear_calibration"

    slope: float
    intercept: float
    rmse: float
    n: int

    def predict(self, loss):
        raw = self.intercept + self.slope * np.asarray(loss, dtype=float)
        return np.clip(raw, 0.0, 1.0)


def accuracy_from_loss(cal: SigmoidCalibration, loss):
    """Predicted accuracy at a loss value; scalar in, scalar out.

    Strictly decreasing in loss, bounded in [floor, ceiling]; at the
    midpoint it equals (floor + ceiling) / 2 exactly.
    """
    from scipy.special import expit

    span = cal.ceiling - cal.floor
    if np.isscalar(loss):
        return cal.floor + span * float(expit(-cal.steepness * (loss - cal.midpoint)))
    loss = np.asarray(loss, dtype=float)
    return cal.floor + span * expit(-cal.steepness * (loss - cal.midpoint))


def _sigmoid_model(
    theta: np.ndarray, losses: np.ndarray, floor: float | None, expit
) -> np.ndarray:
    if floor is None:
        c, s, k, l0 = theta
    else:
        c = floor
        s, k, l0 = theta
    ceiling = c + (1.0 - c) * s
    return c + (ceiling - c) * expit(-k * (losses - l0))


def fit_sigmoid(
    points: Sequence[tuple[float, float]],
    floor: float | None = None,
) -> SigmoidCalibration:
    """Least-squares sigmoid fit over a deterministic multi-start grid.

    The ceiling is parameterized as floor + (1 - floor) * s with
    s in (0, 1], which keeps floor < ceiling <= 1 as box bounds. Starts
    span K_GRID x loss quantiles; the best final rmse wins with ties broken
    by smaller steepness.

    Args:
        points: (loss, accuracy) pairs; accuracies must lie in [0, 1].
        floor: Fix the floor at a known chance level, or None to fit it.

    Raises:
        CalibrationError: too few points, accuracies out of range, or no
            start converging to a finite fit.
    """
    from scipy.optimize import least_squares
    from scipy.special import expit

    losses = np.asarray([p[0] for p in points], dtype=float)
    accs = np.asarray([p[1] for p in points], dtype=float)
    min_n = 4 if floor is None else 3
    if len(losses) < min_n:
        raise CalibrationError(
            f"need at least {min_n} points "
            f"({'free' if floor is None else 'fixed'} floor), got {len(losses)}"
        )
    if not np.all(np.isfinite(losses)):
        raise CalibrationError("loss values must be finite")
    if np.any(accs < 0.0) or np.any(accs > 1.0):
        bad = accs[(accs < 0.0) | (accs > 1.0)][0]
        raise CalibrationError(f"accuracy {bad:g} outside [0, 1]")
    if floor is not None and not 0.0 <= floor < 1.0:
        raise CalibrationError(f"fixed floor {floor:g} outside [0, 1)")

    span = max(float(losses.max() - losses.min()), 1e-6)
    l0_bounds = (float(losses.min()) - 10.0 * span, float(losses.max()) + 10.0 * span)
    c0 = float(np.clip(accs.min(), 0.0, 1.0 - 1e-3))
    if floor is None:
        lower = [0.0, _S_MIN, 1e-8, l0_bounds[0]]
        upper = [1.0 - 1e-9, 1.0, 1e4, l0_bounds[1]]
    else:
        lower = [_S_MIN, 1e-8, l0_bounds[0]]
        upper = [1.0, 1e4, l0_bounds[1]]

    s0_base = accs.max() - c0
    candidates: list[tuple[float, float, float, SigmoidCalibration]] = []
    for k0 in K_GRID:
        for q in MIDPOINT_QUANTILES:
            l0 = float(np.quantile(losses, q))
            c_start = c0 if floor is None else floor
            s0 = float(np.clip(s0_base / max(1.0 - c_start, 1e-9), 2 * _S_MIN, 1.0))
            if floor is None:
                x0 = np.array([c0, s0, k0, l0])
            else:
                x0 = np.array([s0, k0, l0])
            x0 = np.clip(x0, lower, upper)
            try:
                result = least_squares(
                    lambda th: _sigmoid_model(th, losses, floor, expit) - accs,
                    x0=x0,
                    bounds=(lower, upper),
                    method="trf",
                    xtol=1e-15,
                    ftol=1e-15,
                    gtol=1e-15,
                    max_nfev=2000,
                )
            except ValueError:
                continue
            if not np.all(np.isfinite(result.x)) or not math.isfinite(result.cost):
                continue
            theta = result.x
            if floor is None:
                c, s, k, mid = theta
            else:
                c = floor
                s, k, mid = theta
            ceiling = float(c + (1.0 - c) * s)
            rmse = float(
                np.sqrt(np.mean((_sigmoid_model(theta, losses, floor, expit) - accs) ** 2))
            )
            cal = SigmoidCalibration(
                floor=float(c),
                ceiling=min(ceiling, 1.0),
                steepness=float(k),
                midpoint=float(mid),
                rmse=rmse,
                n=len(losses),
                degenerate=bool(ceiling - c <= DEGENERATE_GAP),
            )
            candidates.append((rmse, float(k), float(mid), cal))
    if not candidates:
        raise CalibrationError("sigmoid fit failed to converge from every start")
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    return candidates[0][3]


def fit_linear_calibration(points: Sequence[tuple[float, float]]) -> LinearCalibration:
    """Flagged alternative to the sigmoid: OLS line from loss to accuracy."""
    losses = np.asarray([p[0] for p in points], dtype=float)
    accs = np.asarray([p[1] for p in points], dtype=float)
    if len(losses) < 2:
        raise CalibrationError("need at least 2 points for a linear calibration")
    if np.any(accs < 0.0) or np.any(accs > 1.0):
        raise CalibrationError("accuracies must lie in [0, 1]")
    xc = losses - losses.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise CalibrationError("all loss values are equal")
    slope = float(xc @ (accs - accs.mean())) / sxx
    intercept = float(accs.mean() - slope * losses.mean())
    rmse = float(np.sqrt(np.mean((intercept + slope * losses - accs) ** 2)))
    return LinearCalibration(slope=slope, intercept=intercept, rmse=rmse, n=len(losses))


def forecast_accuracy(
    law: PowerLawFit, cal: SigmoidCalibration, scale: float
) -> tuple[float, float]:
    """Two-stage forecast: compute -> loss via the law, loss -> accuracy.

    Exactly the composition of the two stages; returns (loss, accuracy).
    """
    if scale <= 0:
        raise CalibrationError("scale must be positive")
    loss = law.predict(scale)
    return loss, accuracy_from_loss(cal, loss)


__all__ = [
    "SigmoidCalibration",
    "LinearCalibration",
    "accuracy_from_loss",
    "fit_sigmoid",
    "fit_linear_calibration",
    "forecast_accuracy",
    "K_GRID",
    "MIDPOINT_QUANTILES",
]
