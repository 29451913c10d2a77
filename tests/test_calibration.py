import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relscale import (
    CalibrationError,
    SigmoidCalibration,
    accuracy_from_loss,
    fit_linear_calibration,
    fit_power_law,
    fit_sigmoid,
    forecast_accuracy,
)
from relscale.calibration import _sigmoid_problem
from relscale.lawfit import _least_squares_box

TRUTH = SigmoidCalibration(
    floor=0.25, ceiling=1.0, steepness=3.0, midpoint=1.8, rmse=0.0, n=8
)


def sample_points(cal=TRUTH, losses=None):
    if losses is None:
        losses = np.linspace(0.9, 2.7, 8)
    return [(float(l), float(accuracy_from_loss(cal, l))) for l in losses]


class TestAccuracyFromLoss:
    def test_midpoint_symmetry_exact(self):
        assert accuracy_from_loss(TRUTH, 1.8) == 0.625

    def test_asymptotes(self):
        assert accuracy_from_loss(TRUTH, 1e6) == pytest.approx(0.25, abs=1e-12)
        assert accuracy_from_loss(TRUTH, -1e6) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_point(self):
        # At loss = midpoint - ln(3)/k the logistic evaluates to 3/4.
        loss = 1.8 - math.log(3.0) / 3.0
        assert accuracy_from_loss(TRUTH, loss) == pytest.approx(0.8125, abs=1e-12)

    def test_strictly_decreasing(self):
        losses = np.linspace(0.0, 4.0, 200)
        values = accuracy_from_loss(TRUTH, losses)
        assert np.all(np.diff(values) < 0)

    @given(loss=st.floats(min_value=-100.0, max_value=100.0))
    def test_bounded_output(self, loss):
        acc = accuracy_from_loss(TRUTH, loss)
        assert TRUTH.floor <= acc <= TRUTH.ceiling


class TestFitSigmoid:
    def test_noiseless_free_floor_recovery(self):
        cal = fit_sigmoid(sample_points())
        assert cal.floor == pytest.approx(0.25, rel=1e-6)
        assert cal.ceiling == pytest.approx(1.0, rel=1e-6)
        assert cal.steepness == pytest.approx(3.0, rel=1e-6)
        assert cal.midpoint == pytest.approx(1.8, rel=1e-6)
        assert cal.rmse <= 1e-9
        assert not cal.degenerate

    def test_noiseless_fixed_floor_recovery(self):
        cal = fit_sigmoid(sample_points(), floor=0.25)
        assert cal.floor == 0.25
        assert cal.ceiling == pytest.approx(1.0, rel=1e-6)
        assert cal.steepness == pytest.approx(3.0, rel=1e-6)
        assert cal.midpoint == pytest.approx(1.8, rel=1e-6)

    def test_chance_level_data_flagged_degenerate(self):
        points = [(l, 0.25) for l in np.linspace(1.0, 3.0, 6)]
        cal = fit_sigmoid(points, floor=0.25)
        assert cal.degenerate
        assert cal.ceiling - cal.floor <= 1e-5
        assert cal.ceiling > cal.floor  # invariant held even when flat

    def test_accuracy_out_of_range(self):
        points = sample_points()
        points[0] = (points[0][0], 1.2)
        with pytest.raises(CalibrationError, match="1.2"):
            fit_sigmoid(points)

    def test_too_few_points_free_floor(self):
        with pytest.raises(CalibrationError, match="4"):
            fit_sigmoid(sample_points()[:3])

    def test_fixed_floor_allows_three(self):
        cal = fit_sigmoid(sample_points()[2:5], floor=0.25)
        assert cal.n == 3

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(5)
        points = [
            (l, float(np.clip(a + rng.normal(0, 0.02), 0.0, 1.0)))
            for l, a in sample_points(losses=np.linspace(0.6, 3.0, 20))
        ]
        cal = fit_sigmoid(points, floor=0.25)
        assert cal.midpoint == pytest.approx(1.8, abs=0.15)
        assert cal.rmse < 0.05

    def test_fit_idempotence(self):
        first = fit_sigmoid(sample_points())
        resampled = [
            (l, float(accuracy_from_loss(first, l))) for l in np.linspace(0.9, 2.7, 8)
        ]
        second = fit_sigmoid(resampled)
        assert second.floor == pytest.approx(first.floor, rel=1e-6, abs=1e-9)
        assert second.ceiling == pytest.approx(first.ceiling, rel=1e-6)
        assert second.steepness == pytest.approx(first.steepness, rel=1e-6)
        assert second.midpoint == pytest.approx(first.midpoint, rel=1e-6)

    def test_free_floor_bound_property(self):
        # Data truncated above chance: the fitted floor cannot exceed the
        # lowest observed accuracy by more than the fit rmse.
        for k, l0 in [(2.0, 1.5), (5.0, 2.0), (1.0, 1.0)]:
            cal_true = SigmoidCalibration(
                floor=0.25, ceiling=0.95, steepness=k, midpoint=l0, rmse=0.0, n=9
            )
            points = sample_points(cal_true, losses=np.linspace(l0 - 1.0, l0 + 0.4, 9))
            cal = fit_sigmoid(points)
            min_acc = min(a for _, a in points)
            assert cal.floor <= min_acc + cal.rmse + 1e-12

    def test_deterministic(self):
        points = sample_points()
        assert fit_sigmoid(points) == fit_sigmoid(points)

    def test_invalid_calibration_type(self):
        with pytest.raises(CalibrationError):
            SigmoidCalibration(
                floor=0.5, ceiling=0.4, steepness=1.0, midpoint=1.0, rmse=0.0, n=4
            )
        with pytest.raises(CalibrationError):
            SigmoidCalibration(
                floor=0.1, ceiling=0.9, steepness=-1.0, midpoint=1.0, rmse=0.0, n=4
            )


NOISY_TRUTH = SigmoidCalibration(
    floor=0.25, ceiling=0.9, steepness=3.0, midpoint=1.8, rmse=0.0, n=80
)


def noisy_problem(seed):
    rng = np.random.default_rng(seed)
    losses = np.linspace(0.6, 3.2, 80)
    accs = np.clip(accuracy_from_loss(NOISY_TRUTH, losses) + rng.normal(0, 0.01, 80), 0, 1)
    return losses, accs


class TestSigmoidSolver:
    """The batched multi-start solve behind fit_sigmoid."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("floor", [None, 0.25])
    def test_noisy_fit_within_planted_tolerance(self, seed, floor):
        losses, accs = noisy_problem(seed)
        cal = fit_sigmoid(list(zip(losses, accs)), floor=floor)
        assert cal.floor == pytest.approx(0.25, abs=0.01)
        assert cal.ceiling == pytest.approx(0.9, abs=0.01)
        assert cal.steepness == pytest.approx(3.0, rel=0.05)
        assert cal.midpoint == pytest.approx(1.8, abs=0.03)
        assert cal.rmse < 0.012

    @pytest.mark.parametrize("floor", [None, 0.25])
    def test_winner_cost_not_above_any_start(self, floor):
        losses, accs = noisy_problem(3)
        fun, starts, lower, upper = _sigmoid_problem(losses, accs, floor)
        start_costs = 0.5 * np.sum(fun(starts)[0] ** 2, axis=1)
        _, final_costs = _least_squares_box(fun, starts, lower, upper)
        cal = fit_sigmoid(list(zip(losses, accs)), floor=floor)
        winner_cost = 0.5 * len(losses) * cal.rmse**2
        assert np.all(final_costs <= start_costs)
        assert winner_cost <= start_costs.min()
        assert winner_cost == pytest.approx(final_costs.min(), rel=1e-12)

    @pytest.mark.parametrize("floor", [None, 0.25])
    def test_projected_gradient_vanishes_at_winner(self, floor):
        losses, accs = noisy_problem(4)
        fun, starts, lower, upper = _sigmoid_problem(losses, accs, floor)
        thetas, costs = _least_squares_box(fun, starts, lower, upper)
        theta = thetas[np.argmin(costs)]
        [r], [jac] = fun(theta[None, :])
        grad = jac @ r
        at_bound = ((theta <= lower) & (grad > 0)) | ((theta >= upper) & (grad < 0))
        projected = np.where(at_bound, 0.0, grad)
        assert np.max(np.abs(projected)) <= 1e-6 * np.linalg.norm(jac) * np.linalg.norm(r)

    @pytest.mark.parametrize("floor", [None, 0.25])
    def test_matches_scipy_reference(self, floor):
        # scipy is not a dependency; where it is installed, its trust-region
        # solver from the same starts is the reference.
        optimize = pytest.importorskip("scipy.optimize")
        losses, accs = noisy_problem(5)
        fun, starts, lower, upper = _sigmoid_problem(losses, accs, floor)
        ref = min(
            (optimize.least_squares(lambda th: fun(th[None, :])[0][0], x0,
                                    bounds=(lower, upper), xtol=1e-15, ftol=1e-15,
                                    gtol=1e-15, max_nfev=2000)
             for x0 in starts),
            key=lambda result: result.cost,
        )
        cal = fit_sigmoid(list(zip(losses, accs)), floor=floor)
        assert 0.5 * len(losses) * cal.rmse**2 <= ref.cost * (1.0 + 1e-9)
        assert cal.steepness == pytest.approx(ref.x[-2], rel=1e-6)
        assert cal.midpoint == pytest.approx(ref.x[-1], rel=1e-6)

    def test_flat_fits_and_extreme_losses_raise_no_runtime_warning(self):
        points = [(l, 0.25) for l in np.linspace(1.0, 3.0, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert fit_sigmoid(points, floor=0.25).degenerate
            assert fit_sigmoid(points).degenerate
            assert accuracy_from_loss(TRUTH, 1e6) == pytest.approx(0.25, abs=1e-12)
            assert accuracy_from_loss(TRUTH, -1e6) == pytest.approx(1.0, abs=1e-12)
            extremes = accuracy_from_loss(TRUTH, np.array([-1e6, 1.8, 1e6]))
        np.testing.assert_allclose(extremes, [1.0, 0.625, 0.25], atol=1e-12)


class TestLinearCalibration:
    def test_line_recovery(self):
        points = [(l, 0.9 - 0.2 * l) for l in np.linspace(0.5, 3.0, 6)]
        cal = fit_linear_calibration(points)
        assert cal.slope == pytest.approx(-0.2, abs=1e-12)
        assert cal.rmse <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_line_is_the_centred_least_squares_formula(self, seed):
        rng = np.random.default_rng(seed)
        losses, accs = rng.uniform(0.5, 3.0, 40), rng.uniform(0.2, 0.9, 40)
        cal = fit_linear_calibration(list(zip(losses.tolist(), accs.tolist())))
        xc = losses - losses.mean()
        slope = float(xc @ (accs - accs.mean())) / float(xc @ xc)
        assert cal.slope == slope
        assert cal.intercept == float(accs.mean() - slope * losses.mean())

    def test_equal_losses_rejected(self):
        with pytest.raises(CalibrationError) as err:
            fit_linear_calibration([(1.5, 0.4), (1.5, 0.6), (1.5, 0.5)])
        assert str(err.value) == "all loss values are equal"

    def test_predictions_clipped(self):
        points = [(l, float(np.clip(0.9 - 0.2 * l, 0, 1))) for l in np.linspace(0.5, 3.0, 6)]
        cal = fit_linear_calibration(points)
        assert cal.predict(100.0) == 0.0
        assert cal.predict(-100.0) == 1.0


class TestForecast:
    def law(self):
        return fit_power_law([(1e18, 2.45), (1e20, 1.56)])

    def test_flat_law_gives_constant_accuracy(self):
        law = fit_power_law([(f, 2.0) for f in (1e18, 1e19, 1e20)])
        values = {forecast_accuracy(law, TRUTH, f)[1] for f in (1e18, 1e19, 1e20)}
        assert len(values) == 1

    def test_composition_bit_identical(self):
        law = self.law()
        rng = np.random.default_rng(11)
        for scale in rng.uniform(1e17, 1e21, size=10):
            loss, acc = forecast_accuracy(law, TRUTH, float(scale))
            assert loss == law.predict(float(scale))
            assert acc == accuracy_from_loss(TRUTH, law.predict(float(scale)))

    def test_two_point_law_chained(self):
        law = self.law()
        loss, acc = forecast_accuracy(law, TRUTH, 1e19)
        assert loss == pytest.approx(1.955, abs=1e-3)
        assert acc == accuracy_from_loss(TRUTH, loss)

    def test_positive_scale_required(self):
        with pytest.raises(CalibrationError):
            forecast_accuracy(self.law(), TRUTH, 0.0)

    @given(scale=st.floats(min_value=1e10, max_value=1e25))
    def test_forecast_bounded(self, scale):
        law = self.law()
        _, acc = forecast_accuracy(law, TRUTH, scale)
        assert TRUTH.floor <= acc <= TRUTH.ceiling
