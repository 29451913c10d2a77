import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from relscale import (
    CalibrationError,
    SigmoidCalibration,
    fit_linear_calibration,
    fit_loglinear,
    fit_power_law,
    fit_sigmoid,
    forecast,
)
from relscale.calibration import _sigmoid_problem
from relscale.cli import main
from relscale.lawfit import _least_squares_box, fit_power_law_floored
from tests.conftest import run_forecast

TRUTH = SigmoidCalibration(
    floor=0.25, ceiling=1.0, steepness=3.0, midpoint=1.8, rmse=0.0, n=8
)


def sample_points(cal=TRUTH, losses=None):
    if losses is None:
        losses = np.linspace(0.9, 2.7, 8)
    return [(float(l), float(cal.predict(l))) for l in losses]


class TestPredict:
    def test_midpoint_symmetry_exact(self):
        assert TRUTH.predict(1.8) == 0.625

    def test_scalar_in_float_out(self):
        assert type(TRUTH.predict(1.8)) is float
        assert type(TRUTH.predict(np.float64(1.8))) is float
        assert TRUTH.predict(np.array([1.8])).tolist() == [0.625]

    def test_asymptotes(self):
        assert TRUTH.predict(1e6) == pytest.approx(0.25, abs=1e-12)
        assert TRUTH.predict(-1e6) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_point(self):
        # At loss = midpoint - ln(3)/k the logistic evaluates to 3/4.
        loss = 1.8 - math.log(3.0) / 3.0
        assert TRUTH.predict(loss) == pytest.approx(0.8125, abs=1e-12)

    def test_strictly_decreasing(self):
        losses = np.linspace(0.0, 4.0, 200)
        values = TRUTH.predict(losses)
        assert np.all(np.diff(values) < 0)

    @given(loss=st.floats(min_value=-100.0, max_value=100.0))
    def test_bounded_output(self, loss):
        acc = TRUTH.predict(loss)
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
            (l, float(first.predict(l))) for l in np.linspace(0.9, 2.7, 8)
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
    accs = np.clip(NOISY_TRUTH.predict(losses) + rng.normal(0, 0.01, 80), 0, 1)
    return losses, accs


#: fit_sigmoid on noisy_problem(seed) with a free or fixed floor, from the
#: solver that ran every start on to its step-size or damping stop:
#: (floor, ceiling, steepness, midpoint), rmse, and the lowest final cost
#: of any start.
REFERENCE_FITS = {
    (0, None): ((0.24984812970136688, 0.8997970219153086, 2.942593160946484,
                 1.8055274586471661), 0.009382668635001212, 0.003521378828569419),
    (0, 0.25): ((0.25, 0.8997071880277949, 2.9447313981863728, 1.8054322072511282),
                0.009382783425227434, 0.003521464992188906),
    (1, None): ((0.24757248846572932, 0.9026725072219621, 2.963805080499187,
                 1.7970770189929453), 0.008361666739685967, 0.0027966988266228225),
    (1, 0.25): ((0.25, 0.9012207826645912, 2.9987423173085626, 1.7955934249471586),
                0.008395597386879278, 0.002819442219302966),
    (2, None): ((0.2491793830860129, 0.9007128700406615, 2.974000176364701,
                 1.8021107467952255), 0.010012771707891471, 0.004010223890974076),
    (2, 0.25): ((0.25, 0.9002342285228154, 2.9857360747516997, 1.8015859406994905),
                0.010015985704136239, 0.0040127987850184605),
}


class TestSigmoidSolver:
    """The batched multi-start solve behind fit_sigmoid."""

    @pytest.mark.parametrize(("seed", "floor"), list(REFERENCE_FITS))
    def test_outputs_match_reference_values(self, seed, floor):
        params, rmse, best_cost = REFERENCE_FITS[seed, floor]
        losses, accs = noisy_problem(seed)
        cal = fit_sigmoid(list(zip(losses, accs)), floor=floor)
        np.testing.assert_allclose(
            (cal.floor, cal.ceiling, cal.steepness, cal.midpoint), params, rtol=1e-7, atol=0
        )
        assert cal.rmse == pytest.approx(rmse, rel=1e-12, abs=0)
        _, costs = _least_squares_box(*_sigmoid_problem(losses, accs, floor))
        assert np.all(costs <= best_cost * (1.0 + 1e-12))

    @pytest.mark.parametrize("floor", [None, 0.25])
    @pytest.mark.parametrize("seed", range(6))
    def test_winner_survives_a_one_ulp_nudge(self, seed, floor):
        # Starts that reach one minimum end within rounding of each other;
        # raising every input by one ulp reorders their costs in most of
        # these cases, and must not move the winner.
        def winner(losses, accs):
            thetas, _ = _least_squares_box(*_sigmoid_problem(losses, accs, floor))
            cal = fit_sigmoid(list(zip(losses, accs)), floor=floor)
            return int(np.flatnonzero((thetas[:, -2] == cal.steepness)
                                      & (thetas[:, -1] == cal.midpoint))[0])

        losses, accs = noisy_problem(seed)
        up = np.nextafter(losses, np.inf), np.nextafter(accs, np.inf)
        assert winner(*up) == winner(losses, accs)

    @pytest.mark.parametrize("floor", [None, 0.25])
    def test_converged_start_stops_where_it_stands(self, floor):
        losses, accs = noisy_problem(4)
        fun, starts, lower, upper = _sigmoid_problem(losses, accs, floor)
        thetas, costs = _least_squares_box(fun, starts, lower, upper)
        winner = thetas[np.argmin(costs)]
        calls = []

        def counted(theta):
            calls.append(len(theta))
            return fun(theta)

        [theta], [cost] = _least_squares_box(counted, winner[None, :], lower, upper)
        assert len(calls) <= 3
        np.testing.assert_array_equal(theta, winner)
        assert cost == costs.min()

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
            assert TRUTH.predict(1e6) == pytest.approx(0.25, abs=1e-12)
            assert TRUTH.predict(-1e6) == pytest.approx(1.0, abs=1e-12)
            extremes = TRUTH.predict(np.array([-1e6, 1.8, 1e6]))
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
    """The ``forecast`` command chains the law's and the calibration's predict."""

    def law(self):
        return fit_power_law([(1e18, 2.45), (1e20, 1.56)])

    def test_flat_law_gives_constant_accuracy(self, tmp_path):
        law = fit_power_law([(f, 2.0) for f in (1e18, 1e19, 1e20)])
        predictions = run_forecast(tmp_path, law, TRUTH, [1e18, 1e19, 1e20])
        assert len({acc for _, _, acc in predictions}) == 1

    def test_composition_bit_identical(self, tmp_path):
        law = self.law()
        scales = np.random.default_rng(11).uniform(1e17, 1e21, size=10).tolist()
        for scale, loss, acc in run_forecast(tmp_path, law, TRUTH, scales):
            assert loss == law.predict(scale)
            assert acc == TRUTH.predict(law.predict(scale))

    @pytest.mark.parametrize("cal", [TRUTH, fit_linear_calibration(sample_points())],
                             ids=["sigmoid", "linear"])
    @pytest.mark.parametrize("fit", [fit_power_law, fit_power_law_floored, fit_loglinear])
    def test_every_law_and_calibration_kind(self, tmp_path, fit, cal):
        law = fit([(1e18, 2.45), (1e19, 2.1), (1e20, 1.9), (1e21, 1.8)])
        scales = [1e18, 3e19, 1e22]
        predictions = run_forecast(tmp_path, law, cal, scales)
        assert predictions == [[s, law.predict(s), cal.predict(law.predict(s))]
                               for s in scales]

    def test_two_point_law_chained(self, tmp_path):
        ((_, loss, acc),) = run_forecast(tmp_path, self.law(), TRUTH, [1e19])
        assert loss == pytest.approx(1.955, abs=1e-3)
        assert acc == TRUTH.predict(loss)

    @pytest.mark.parametrize("scales", ["0", "1e19,-1e18"])
    def test_positive_scale_required(self, tmp_path, scales):
        law, cal = tmp_path / "law.json", tmp_path / "cal.json"
        law.write_text(json.dumps({"results": {"fit": self.law().to_dict()}}))
        cal.write_text(json.dumps({"results": {"calibration": TRUTH.to_dict()}}))
        out = tmp_path / "forecast.json"
        result = CliRunner().invoke(main, ["forecast", "--input", str(law), "--calibration",
                                           str(cal), "--scales", scales, "--output", str(out)])
        assert result.exit_code == 1
        assert result.stderr == "error: scale must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis, label", [("flops", "training FLOPs"),
                                             ("params", "parameters")])
    def test_figure_labels_x_by_the_law_axis(self, axis, label):
        law = fit_power_law([(1e18, 2.45), (1e20, 1.56)], scale_axis=axis)
        assert forecast(law, TRUTH, [1e19, 1e21]).figure().x_label == label

    @given(scale=st.floats(min_value=1e10, max_value=1e25))
    def test_forecast_bounded(self, scale):
        acc = TRUTH.predict(self.law().predict(scale))
        assert TRUTH.floor <= acc <= TRUTH.ceiling
