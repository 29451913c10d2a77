import dataclasses
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relscale import (
    CalibrationError,
    CorrelationResult,
    CrossoverResult,
    FitError,
    FrontierError,
    LogLinearFit,
    PowerLawFit,
    PowerLawFloorFit,
    RelativeFit,
    bootstrap_sign_test,
    bootstrap_slopes,
    crossover,
    fit_linear_calibration,
    fit_loglinear,
    fit_power_law,
    fit_power_law_floored,
    fit_relative,
    fit_sigmoid,
    pairs_from_frontiers,
    pairs_from_runs,
    percent_per_decade,
    slope_covariate_correlation,
)
from relscale import lawfit
from relscale.frontier import _solve_spd, isolation_series
from relscale.lawfit import (
    BLOCK_ELEMENTS,
    MAX_RESAMPLE_RETRIES,
    START_TIE_RTOL,
    _best_start,
    _blocks,
    _floored_problem,
    _huber_line,
    _least_squares_box,
    _ols,
    _orderings,
    _relative_xy,
)
from tests.conftest import narrow_span_points

SCALES_5 = [1e18, 3e18, 1e19, 3e19, 1e20]


def floored_noisy_data():
    """Scales, the planted 0.5 + 6 (F/1e18)^-0.2, and it under 0.5% log noise."""
    rng = np.random.default_rng(7)
    scales = np.geomspace(1e18, 1e22, 40)
    planted = 0.5 + 6.0 * (scales / 1e18) ** -0.2
    return scales, planted, planted * np.exp(rng.normal(0.0, 0.005, 40))


# Fitter calls with one value replaced by ``v``: (call, error type, role
# that the error message names, rule the role is held to).
NON_FINITE_CASES = {
    "power-law-scale": (lambda v: fit_power_law([(1e18, 2.0), (v, 1.6), (1e20, 1.3)]),
                        FitError, "scale values", "positive"),
    "power-law-error": (lambda v: fit_power_law([(1e18, 2.0), (1e19, v), (1e20, 1.3)]),
                        FitError, "error values", "positive"),
    "floored-scale": (lambda v: fit_power_law_floored(
        [(1e18, 2.0), (v, 1.6), (1e20, 1.3), (1e21, 1.1)]), FitError, "scale values",
        "positive"),
    "floored-error": (lambda v: fit_power_law_floored(
        [(1e18, 2.0), (1e19, v), (1e20, 1.3), (1e21, 1.1)]), FitError, "error values",
        "positive"),
    "loglinear-scale": (lambda v: fit_loglinear([(1e18, 0.3), (v, 0.4), (1e20, 0.5)]),
                        FitError, "scale values", "positive"),
    "loglinear-metric": (lambda v: fit_loglinear([(1e18, 0.3), (1e19, v), (1e20, 0.5)]),
                         FitError, "metric values", "finite"),
    "relative-scale": (lambda v: fit_relative(
        [(1e18, 2.0, 1.8), (v, 1.6, 1.5), (1e20, 1.3, 1.25)]), FitError, "scale values",
        "positive"),
    "relative-treatment": (lambda v: fit_relative(
        [(1e18, 2.0, 1.8), (1e19, v, 1.5), (1e20, 1.3, 1.25)], mode="difference"),
        FitError, "treatment errors", "finite"),
    "relative-baseline": (lambda v: fit_relative(
        [(1e18, 2.0, 1.8), (1e19, 1.6, v), (1e20, 1.3, 1.25)]), FitError, "baseline errors",
        "positive"),
    "bootstrap-treatment": (lambda v: bootstrap_slopes(
        [(1e18, 2.0, 1.8), (1e19, v, 1.5), (1e20, 1.3, 1.25)], resamples=10),
        FitError, "treatment errors", "positive"),
    "correlation-slope": (lambda v: slope_covariate_correlation(
        [("a", -0.1), ("b", v), ("c", 0.2)], [("a", 1.0), ("b", 10.0), ("c", 100.0)]),
        FitError, "slope values", "finite"),
    "correlation-covariate": (lambda v: slope_covariate_correlation(
        [("a", -0.1), ("b", 0.05), ("c", 0.2)], [("a", 1.0), ("b", v), ("c", 100.0)]),
        FitError, "covariate values", "positive"),
    "sigmoid-loss": (lambda v: fit_sigmoid(
        [(1.0, 0.9), (v, 0.7), (2.0, 0.5), (2.5, 0.3)]), CalibrationError, "loss values",
        "finite"),
    "sigmoid-accuracy": (lambda v: fit_sigmoid(
        [(1.0, 0.9), (1.5, v), (2.0, 0.5), (2.5, 0.3)]), CalibrationError, "accuracy", "unit"),
    "linear-loss": (lambda v: fit_linear_calibration([(1.0, 0.9), (v, 0.6), (2.0, 0.5)]),
                    CalibrationError, "loss values", "finite"),
    "linear-accuracy": (lambda v: fit_linear_calibration([(1.0, 0.9), (1.5, v), (2.0, 0.5)]),
                        CalibrationError, "accuracy", "unit"),
}

# The values each rule refuses, with their test ids.
REFUSED_VALUES = {
    "finite": {"nan": math.nan, "inf": math.inf},
    "positive": {"nan": math.nan, "inf": math.inf, "zero": 0.0, "negative": -1.0},
    "unit": {"nan": math.nan, "inf": math.inf, "below": -0.1, "above": 1.5},
}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case}-{name}")
    for case in sorted(NON_FINITE_CASES)
    for name, value in REFUSED_VALUES[NON_FINITE_CASES[case][3]].items()
])
def test_non_finite_input_is_rejected(case, value):
    """The refusal names the role and the value it refused."""
    call, error, role, _ = NON_FINITE_CASES[case]
    with pytest.raises(error) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{role} must ") and message.endswith(f", got {value:g}")


# 100 equal values: their mean is not exact, so x - x.mean() is not all zero.
@pytest.mark.parametrize("fit, error, message", [
    (lambda: fit_power_law([(1e18, 1.0 + 0.01 * i) for i in range(100)]), FitError,
     "degenerate fit: all scale values are equal"),
    (lambda: fit_loglinear([(3e18, 0.3 + 0.001 * i) for i in range(100)]), FitError,
     "degenerate fit: all scale values are equal"),
    (lambda: fit_relative([(1e18, 1.0 + 0.01 * i, 1.0) for i in range(100)],
                          run_bootstrap=False), FitError,
     "degenerate fit: all scale values are equal"),
    (lambda: fit_linear_calibration([(1.7, 0.3 + 0.001 * i) for i in range(100)]),
     CalibrationError, "all loss values are equal"),
], ids=["power-law", "loglinear", "relative", "linear-calibration"])
def test_many_equal_scales_are_refused(fit, error, message):
    with pytest.raises(error) as info:
        fit()
    assert str(info.value) == message


class TestPowerLaw:
    def test_noiseless_recovery(self):
        points = [(f, 3.0 * f**-0.1) for f in SCALES_5]
        fit = fit_power_law(points)
        assert fit.alpha == pytest.approx(3.0, rel=1e-9)
        assert fit.beta == pytest.approx(0.1, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_point_endpoints(self):
        # Independent oracle: the exact two-point solve.
        f1, e1, f2, e2 = 1e18, 2.45, 1e20, 1.56
        beta_expected = -math.log(e2 / e1) / math.log(f2 / f1)
        fit = fit_power_law([(f1, e1), (f2, e2)])
        assert fit.beta == pytest.approx(beta_expected, abs=1e-12)
        assert fit.beta == pytest.approx(0.0980, abs=1e-4)
        # Midpoint prediction is the geometric mean of the endpoints.
        assert fit.predict(1e19) == pytest.approx(math.sqrt(e1 * e2), rel=1e-12)

    def test_constant_series(self):
        fit = fit_power_law([(f, 1.7) for f in SCALES_5])
        assert fit.beta == pytest.approx(0.0, abs=1e-12)
        assert fit.alpha == pytest.approx(1.7, rel=1e-12)
        assert fit.r2 == 1.0

    def test_non_positive_error_rejected(self):
        with pytest.raises(FitError, match="error values must be positive and finite, got 0"):
            fit_power_law([(1e18, 1.0), (1e19, 0.0)])

    def test_degenerate_scales_rejected(self):
        with pytest.raises(FitError, match="equal"):
            fit_power_law([(1e18, 1.0), (1e18, 2.0)])

    def test_needs_two_points(self):
        with pytest.raises(FitError):
            fit_power_law([(1e18, 1.0)])

    def test_law_of_fewer_than_two_points_is_refused(self):
        with pytest.raises(FitError, match="^a power-law fit needs at least 2 points$"):
            PowerLawFit(alpha=3.0, beta=0.1, r2=1.0, n=1)

    def test_unknown_estimator_is_refused(self):
        with pytest.raises(FitError, match="^unknown estimator 'lad'$"):
            fit_power_law([(1e18, 2.0), (1e19, 1.6)], estimator="lad")

    # Every absolute law holds its scale axis to the axes a frontier has, as
    # a relative fit does; the same value names a plot's x axis.
    @pytest.mark.parametrize("law, fields", [
        (PowerLawFit, {"alpha": 3.0, "beta": 0.1, "r2": 0.99, "n": 5}),
        (PowerLawFloorFit, {"alpha": 3.0, "beta": 0.1, "r2": 0.99, "n": 5, "floor": 0.5}),
        (LogLinearFit, {"slope_per_decade": 2.5, "intercept_at_ref": 40.0, "ref_scale": 1e19,
                        "r2": 0.9}),
    ], ids=["power", "power-floor", "loglinear"])
    def test_law_refuses_an_unknown_scale_axis(self, law, fields):
        assert law(**fields).scale_axis == "flops"
        tokens_law = law(**fields, scale_axis="tokens", series=((1e9, 2.0), (1e10, 1.8)))
        assert tokens_law.figure().x_label == "training tokens"
        with pytest.raises(FitError, match="^unknown scale axis 'steps'$"):
            law(**fields, scale_axis="steps")

    def test_floored_law_extends_the_plain_one(self):
        names = [f.name for f in dataclasses.fields(PowerLawFloorFit)]
        assert issubclass(PowerLawFloorFit, PowerLawFit)
        assert names == [f.name for f in dataclasses.fields(PowerLawFit)] + ["floor"]

    def test_floored_predict_is_the_closed_form_bit_for_bit(self):
        law = PowerLawFloorFit(alpha=26203.386860529245, beta=0.20230540966511204, r2=0.99,
                               n=40, floor=0.5227871550895099)
        scales = np.geomspace(1e18, 1e22, 9)
        expected = law.alpha * scales ** -law.beta + law.floor
        assert np.array_equal(law.predict(scales), expected)
        assert [law.predict(f) for f in scales.tolist()] == expected.tolist()

    # Each edit breaks one field of a valid floored law; the floored rules
    # run before the plain law's, so n = 1 is refused as a floored law.
    @pytest.mark.parametrize("change, message", [
        ({"floor": -0.1}, "floor must be non-negative"),
        ({"n": 2}, "n must be at least 3 for a floored fit"),
        ({"n": 1}, "n must be at least 3 for a floored fit"),
        ({"alpha": 0.0}, "alpha must be positive and finite, got 0"),
        ({"alpha": math.inf}, "alpha must be positive and finite, got inf"),
    ], ids=["floor", "n-two", "n-one", "alpha-zero", "alpha-inf"])
    def test_floored_law_single_field_refusals(self, change, message):
        valid = {"alpha": 3.0, "beta": 0.1, "r2": 0.98, "n": 5, "floor": 0.5}
        PowerLawFloorFit(**valid)
        with pytest.raises(FitError) as info:
            PowerLawFloorFit(**{**valid, **change})
        assert str(info.value) == message

    def test_predict_identity(self):
        fit = fit_power_law([(1.0, 1.0), (10.0, 1.0)])
        assert fit.predict(123.0) == 1.0

    def test_interpolation_consistency(self):
        points = [(f, 2.2 * f**-0.07) for f in SCALES_5]
        fit = fit_power_law(points)
        for f, e in points:
            assert fit.predict(f) == pytest.approx(e, rel=1e-9)

    def test_huber_matches_ols_on_clean_data(self):
        points = [(f, 3.0 * f**-0.1) for f in SCALES_5]
        fit = fit_power_law(points, estimator="huber")
        assert fit.beta == pytest.approx(0.1, rel=1e-6)

    def test_floored_extension_recovers_floor(self):
        points = [(f, 0.5 + 4.0 * f**-0.25) for f in np.geomspace(1e10, 1e20, 12)]
        fit = fit_power_law_floored(points)
        assert fit.floor == pytest.approx(0.5, rel=1e-4)
        assert fit.beta == pytest.approx(0.25, rel=1e-4)


class TestLeastSquaresBox:
    """The batched box-constrained solver behind the floored and sigmoid fits."""

    t = np.linspace(0.0, 3.0, 20)

    def decay(self, theta):
        """Residuals of a * exp(-b t) against the planted 2 * exp(-0.7 t)."""
        a, b = (col[:, None] for col in theta.T)
        e = np.exp(-b * self.t)
        jac = np.stack(np.broadcast_arrays(e, -a * self.t * e), axis=1)
        return a * e - 2.0 * np.exp(-0.7 * self.t), jac

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_spd_solve_matches_lapack(self, size):
        rng = np.random.default_rng(size)
        root = rng.normal(size=(6, size, size))
        lhs = root @ root.transpose(0, 2, 1) + 1e-3 * np.eye(size)
        rhs = rng.normal(size=(6, size))
        expected = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
        solution, pivots = _solve_spd(lhs, rhs)
        np.testing.assert_allclose(solution, expected, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(pivots.prod(axis=1), np.linalg.det(lhs), rtol=1e-9)

    def test_every_start_recovers_the_planted_curve(self):
        starts = [[1.0, 0.1], [5.0, 2.0], [0.5, 3.0]]
        thetas, costs = _least_squares_box(self.decay, starts, [0.0, 0.0], [10.0, 10.0])
        np.testing.assert_allclose(thetas, [[2.0, 0.7]] * 3, rtol=1e-9)
        assert np.all(costs <= 1e-20)

    def test_bound_holds_with_zero_projected_gradient(self):
        thetas, _ = _least_squares_box(self.decay, [[1.0, 0.1]], [0.0, 0.0], [1.5, 10.0])
        assert thetas[0, 0] == 1.5
        [r], [jac] = self.decay(thetas)
        grad = jac @ r
        assert grad[0] < 0  # the cost still falls beyond the upper bound
        assert abs(grad[1]) <= 1e-6 * np.linalg.norm(jac) * np.linalg.norm(r)

    def test_non_finite_start_is_returned_as_it_started(self):
        starts = [[np.nan, 1.0], [1.0, 0.1]]
        thetas, costs = _least_squares_box(self.decay, starts, [0.0, 0.0], [10.0, 10.0])
        assert np.isnan(costs[0]) and np.isnan(thetas[0, 0]) and thetas[0, 1] == 1.0
        assert costs[1] <= 1e-20

    def test_floored_noisy_fit_beats_the_planted_law(self):
        scales, planted, errors = floored_noisy_data()
        fit = fit_power_law_floored(list(zip(scales, errors)))
        assert fit.floor == pytest.approx(0.5, abs=0.05)
        assert fit.beta == pytest.approx(0.2, abs=0.01)

        def cost(pred):
            return float(np.sum((np.log(pred) - np.log(errors)) ** 2))

        assert cost(fit.predict(scales)) <= cost(planted)

    def test_floored_fit_matches_reference_values(self):
        # From the solver that ran every start on to its step-size or
        # damping stop; the last value is the lowest final cost of any start.
        best_cost = 0.0002994674297172235
        scales, _, errors = floored_noisy_data()
        fit = fit_power_law_floored(list(zip(scales, errors)))
        np.testing.assert_allclose(
            [fit.alpha, fit.beta, fit.floor],
            [26203.386860529245, 0.20230540966511204, 0.5227871550895099],
            rtol=1e-7, atol=0,
        )
        assert fit.r2 == pytest.approx(0.9999251320639988, rel=1e-12, abs=0)
        _, costs = _least_squares_box(*_floored_problem(scales, errors))
        assert costs.min() == pytest.approx(best_cost, rel=1e-12, abs=0)
        assert np.all(costs <= best_cost * (1.0 + 1e-12))

    def test_floored_starts_need_no_finite_alpha(self):
        # Each start is (ln alpha, beta) of the line of the logs. Seeded by a
        # PowerLawFit instead, the start of floor 0.99 * min(E) has an alpha
        # that underflows to 0 and refused the whole fit.
        points = narrow_span_points(9)
        plain = fit_power_law(points)
        fit = fit_power_law_floored(points)
        assert fit.floor == 0.0
        assert (fit.alpha, fit.beta) == pytest.approx((plain.alpha, plain.beta), rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fit, points", [
        (fit_power_law_floored, narrow_span_points(3)),
        (fit_power_law, [(1e18, 1.0), (1.0001e18, 0.5)]),
    ], ids=["floored", "power"])
    def test_alpha_past_the_float_range_is_refused(self, fit, points):
        with pytest.raises(FitError, match="alpha must be positive and finite, got inf"):
            fit(points)

    def test_floored_fit_matches_scipy_reference(self):
        # scipy is not a dependency; where it is installed, its trust-region
        # solver from the same starts is the reference.
        optimize = pytest.importorskip("scipy.optimize")
        scales, _, errors = floored_noisy_data()
        fun, starts, lower, upper = _floored_problem(scales, errors)
        ref = min(
            (optimize.least_squares(lambda th: fun(th[None, :])[0][0], x0,
                                    bounds=(lower, upper), xtol=1e-15, ftol=1e-15,
                                    gtol=1e-15, max_nfev=2000)
             for x0 in starts),
            key=lambda result: result.cost,
        )
        _, costs = _least_squares_box(fun, starts, lower, upper)
        fit = fit_power_law_floored(list(zip(scales, errors)))
        assert costs.min() <= ref.cost * (1.0 + 1e-9)
        assert math.log(fit.alpha) == pytest.approx(ref.x[0], rel=1e-6)
        assert fit.beta == pytest.approx(ref.x[1], rel=1e-6)
        assert fit.floor == pytest.approx(ref.x[2], rel=1e-6)

    def test_huber_line_minimises_its_loss(self):
        rng = np.random.default_rng(3)
        x = np.linspace(40.0, 50.0, 12)
        y = 1.0 - 0.1 * x + rng.normal(0.0, 0.02, 12)
        y[4] += 0.5
        slope0, intercept0, _ = _ols(x, y)
        scale = float(np.std(y - (intercept0 + slope0 * x)))

        def loss(slope, intercept):
            r = np.abs(y - (intercept + slope * x))
            return float(np.sum(np.where(r <= scale, r * r, 2 * scale * r - scale * scale)))

        slope, intercept = _huber_line(x, y)
        best = loss(slope, intercept)
        assert best < loss(slope0, intercept0)
        for ds, di in [(1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-5), (0.0, -1e-5)]:
            assert best <= loss(slope + ds, intercept + di)
        assert abs(slope + 0.1) < abs(slope0 + 0.1)


class TestBestStart:
    def test_tie_within_tolerance_goes_to_the_first_start(self):
        thetas = np.zeros((3, 2))
        costs = np.array([1.0 + 0.5 * START_TIE_RTOL, 1.0, 1.0 + 2.0 * START_TIE_RTOL])
        assert _best_start(thetas, costs) == 0

    def test_lower_by_more_than_the_tolerance_wins(self):
        costs = np.array([1.0 + 2.0 * START_TIE_RTOL, 1.0, 1.0])
        assert _best_start(np.zeros((3, 2)), costs) == 1

    def test_non_finite_start_never_wins(self):
        thetas = np.array([[np.nan, 1.0], [1.0, np.inf], [1.0, 1.0], [1.0, 1.0]])
        costs = np.array([0.0, 0.0, np.nan, 2.0])
        assert _best_start(thetas, costs) == 3

    def test_all_non_finite_gives_none(self):
        thetas = np.array([[np.nan, 1.0], [1.0, 1.0]])
        assert _best_start(thetas, np.array([1.0, np.inf])) is None

    def test_exact_zero_costs_go_to_the_first(self):
        assert _best_start(np.ones((3, 2)), np.array([1e-300, 0.0, 0.0])) == 1

    @pytest.mark.parametrize("seed", [*range(7), *range(8, 13), 15, 16])
    def test_floored_winner_survives_a_one_ulp_nudge(self, seed):
        # At these seeds the lowest of the tied final costs moves between
        # starts when every input is raised by one ulp.
        def winner(scales, errors):
            thetas, _ = _least_squares_box(*_floored_problem(scales, errors))
            fit = fit_power_law_floored(list(zip(scales, errors)))
            return int(np.flatnonzero((thetas[:, 1] == fit.beta)
                                      & (thetas[:, 2] == fit.floor))[0])

        rng = np.random.default_rng(seed)
        scales = np.geomspace(1e18, 1e22, 12)
        errors = (0.5 + 6.0 * (scales / 1e18) ** -0.2) * np.exp(rng.normal(0.0, 0.005, 12))
        up = np.nextafter(scales, np.inf), np.nextafter(errors, np.inf)
        assert winner(*up) == winner(scales, errors)


class TestLogLinear:
    def test_flat(self):
        fit = fit_loglinear([(f, 0.42) for f in SCALES_5])
        assert fit.slope_per_decade == pytest.approx(0.0, abs=1e-15)

    def test_exact_line(self):
        points = [(f, 0.1 + 0.05 * math.log10(f / 1e18)) for f in SCALES_5[:4]]
        fit = fit_loglinear(points)
        assert fit.slope_per_decade == pytest.approx(0.05, abs=1e-12)
        assert fit.predict(1e18) == pytest.approx(0.1, abs=1e-12)

    def test_noisy_slope_against_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        true_slope = -0.0029
        scales = np.geomspace(1e18, 1e20, 12)
        x = np.log10(scales)
        y = 0.08 + true_slope * (x - 18.0) + rng.normal(0, 0.0005, size=len(x))
        fit = fit_loglinear(list(zip(scales, y)))
        # Oracle: solve the 2x2 normal equations directly.
        design = np.column_stack([np.ones_like(x), x])
        coef = np.linalg.solve(design.T @ design, design.T @ y)
        assert fit.slope_per_decade == pytest.approx(coef[1], abs=1e-9)
        residuals = y - design @ coef
        dof = len(x) - 2
        se = math.sqrt(
            float(residuals @ residuals) / dof / float(np.sum((x - x.mean()) ** 2))
        )
        assert abs(fit.slope_per_decade - true_slope) <= 3 * se

    def test_bounded_metrics_allowed(self):
        fit = fit_loglinear([(1e18, 0.0), (1e19, -0.3), (1e20, 0.1)])
        assert math.isfinite(fit.slope_per_decade)

    def test_needs_two_points(self):
        with pytest.raises(FitError, match="^a log-linear fit needs at least 2 points$"):
            fit_loglinear([(1e18, 0.5)])

    def test_records_its_scale_axis(self):
        points = [(f, 1.0 + 0.2 * math.log10(f)) for f in SCALES_5]
        assert fit_loglinear(points).scale_axis == "flops"
        assert fit_loglinear(points, "params").scale_axis == "params"

    def test_intercept_at_geometric_mean(self):
        points = [(f, 1.0 + 0.2 * math.log10(f)) for f in SCALES_5]
        fit = fit_loglinear(points)
        log_ref = math.log10(fit.ref_scale)
        expected_ref = np.mean([math.log10(f) for f in SCALES_5])
        assert log_ref == pytest.approx(expected_ref, abs=1e-12)

    @pytest.mark.parametrize("change", [{"ref_scale": 0.0}, {"ref_scale": -1e19},
                                        {"slope_per_decade": math.nan},
                                        {"slope_per_decade": math.inf}],
                             ids=["ref-zero", "ref-negative", "slope-nan", "slope-inf"])
    def test_invalid_parameters_are_refused(self, change):
        valid = {"slope_per_decade": 2.5, "intercept_at_ref": 40.0, "ref_scale": 1e19,
                 "r2": 0.9}
        LogLinearFit(**valid)
        with pytest.raises(FitError, match="^invalid log-linear fit parameters$"):
            LogLinearFit(**{**valid, **change})


class TestRelativeFit:
    def test_constant_ratio(self):
        pairs = [(f, 0.8 * (3.0 * f**-0.1), 3.0 * f**-0.1) for f in SCALES_5]
        fit = fit_relative(pairs, run_bootstrap=False)
        assert fit.gamma == pytest.approx(0.8, rel=1e-12)
        assert fit.delta_beta == pytest.approx(0.0, abs=1e-12)

    def test_two_point_ratio_endpoints(self):
        # Ratios 1.29 at 1e18 and 1.05 at 1e20; oracle is the closed form.
        pairs = [(1e18, 1.29 * 2.0, 2.0), (1e20, 1.05 * 1.5, 1.5)]
        expected = math.log(1.05 / 1.29) / math.log(1e20 / 1e18)
        fit = fit_relative(pairs, run_bootstrap=False)
        assert fit.delta_beta == pytest.approx(expected, abs=1e-12)
        assert fit.delta_beta == pytest.approx(-0.0447, abs=5e-4)
        # gamma solves G(1e18) = 1.29 exactly on two points.
        assert fit.gamma * 1e18**fit.delta_beta == pytest.approx(1.29, rel=1e-9)

    def test_identical_series(self):
        series = [(f, 2.0 * f**-0.08) for f in SCALES_5]
        pairs = [(f, e, e) for f, e in series]
        ratio = fit_relative(pairs, run_bootstrap=False)
        assert ratio.gamma == pytest.approx(1.0, rel=1e-12)
        assert ratio.delta_beta == pytest.approx(0.0, abs=1e-12)
        diff = fit_relative(pairs, mode="difference", run_bootstrap=False)
        assert diff.delta_beta == pytest.approx(0.0, abs=1e-12)

    def test_unknown_mode_is_refused(self):
        pairs = [(f, 1.1 * f**-0.1, f**-0.1) for f in SCALES_5]
        with pytest.raises(FitError, match="^unknown relative mode 'log'$"):
            fit_relative(pairs, mode="log", run_bootstrap=False)

    @pytest.mark.parametrize("gamma", [0.0, -0.8])
    def test_non_positive_gamma_is_refused_in_ratio_mode(self, gamma):
        with pytest.raises(FitError, match="^gamma must be positive in ratio mode$"):
            rel(gamma, 0.01)
        assert rel(gamma, 0.01, mode="difference").gamma == gamma

    @pytest.mark.parametrize("p_sign", [-0.01, 1.01, math.nan])
    def test_p_sign_outside_the_unit_interval_is_refused(self, p_sign):
        with pytest.raises(FitError, match=r"^p_sign must lie in \[0, 1\]$"):
            replace(rel(0.8, 0.01), p_sign=p_sign)

    def test_zero_baseline_rejected_in_ratio_mode(self):
        with pytest.raises(FitError, match="baseline"):
            fit_relative([(1e18, 1.0, 0.0), (1e19, 1.0, 1.0)], run_bootstrap=False)

    def test_difference_mode_slope(self):
        # Differences exactly linear in log10 F with slope -0.02/decade.
        pairs = [
            (f, 1.0 + 0.1 - 0.02 * math.log10(f / 1e18), 1.0) for f in SCALES_5
        ]
        fit = fit_relative(pairs, mode="difference", run_bootstrap=False)
        assert fit.delta_beta == pytest.approx(-0.02, abs=1e-12)

    def test_needs_two_pairs(self):
        with pytest.raises(FitError):
            fit_relative([(1e18, 1.0, 1.0)], run_bootstrap=False)

    @given(
        alpha_t=st.floats(min_value=0.5, max_value=5.0),
        alpha_b=st.floats(min_value=0.5, max_value=5.0),
        beta_t=st.floats(min_value=0.0, max_value=0.3),
        beta_b=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_consistency_identity_noiseless(self, alpha_t, alpha_b, beta_t, beta_b):
        pairs = [
            (f, alpha_t * f**-beta_t, alpha_b * f**-beta_b) for f in SCALES_5
        ]
        fit_t = fit_power_law([(f, t) for f, t, _ in pairs])
        fit_b = fit_power_law([(f, b) for f, _, b in pairs])
        rel = fit_relative(pairs, run_bootstrap=False)
        assert abs(rel.delta_beta - (fit_b.beta - fit_t.beta)) <= 1e-9
        assert rel.gamma == pytest.approx(fit_t.alpha / fit_b.alpha, rel=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_ratio_scale_invariance(self, seed):
        # Multiplying both sides of each pair by a per-run constant is a no-op.
        rng = np.random.default_rng(seed)
        base = [(f, 1.3 * f**-0.12, 1.0 * f**-0.1) for f in SCALES_5]
        constants = rng.uniform(0.5, 2.0, size=len(base))
        scaled = [(f, c * t, c * b) for (f, t, b), c in zip(base, constants)]
        fit_base = fit_relative(base, run_bootstrap=False)
        fit_scaled = fit_relative(scaled, run_bootstrap=False)
        assert fit_scaled.gamma == pytest.approx(fit_base.gamma, rel=1e-9)
        assert fit_scaled.delta_beta == pytest.approx(fit_base.delta_beta, abs=1e-9)

    @given(k=st.floats(min_value=0.01, max_value=100.0))
    def test_axis_rescaling(self, k):
        base = [(f, 1.3 * f**-0.12, 1.0 * f**-0.1) for f in SCALES_5]
        rescaled = [(k * f, t, b) for f, t, b in base]
        fit_base = fit_relative(base, run_bootstrap=False)
        fit_rescaled = fit_relative(rescaled, run_bootstrap=False)
        assert fit_rescaled.delta_beta == pytest.approx(fit_base.delta_beta, abs=1e-9)
        assert fit_rescaled.gamma == pytest.approx(
            fit_base.gamma * k**-fit_base.delta_beta, rel=1e-6
        )

    def test_antisymmetry(self):
        pairs = [(f, 1.3 * f**-0.12, 1.0 * f**-0.1) for f in SCALES_5]
        swapped = [(f, b, t) for f, t, b in pairs]
        for mode in ("ratio", "difference"):
            forward = fit_relative(pairs, mode=mode, run_bootstrap=False)
            backward = fit_relative(swapped, mode=mode, run_bootstrap=False)
            assert backward.delta_beta == pytest.approx(-forward.delta_beta, abs=1e-12)
            if mode == "ratio":
                assert backward.gamma == pytest.approx(1.0 / forward.gamma, rel=1e-9)


class TestBootstrap:
    def noisy_pairs(self, seed, n_scales=15, delta_beta=-0.02, sigma=0.01):
        rng = np.random.default_rng(seed)
        scales = np.geomspace(1e18, 1e20, n_scales)
        pairs = []
        for f in scales:
            base = 3.0 * f**-0.10
            treat = 3.0 * f ** -(0.10 - delta_beta)
            pairs.append(
                (
                    float(f),
                    float(treat * math.exp(rng.normal(0, sigma))),
                    float(base * math.exp(rng.normal(0, sigma))),
                )
            )
        return pairs

    def test_zero_variance_input_collapses_ci(self):
        pairs = [(f, 0.8 * (2.0 * f**-0.1), 2.0 * f**-0.1) for f in SCALES_5]
        p_sign, ci_low, ci_high = bootstrap_sign_test(pairs, resamples=500, seed=1)
        assert ci_high - ci_low <= 1e-9
        assert abs(ci_low) <= 1e-9 and abs(ci_high) <= 1e-9

    def test_mostly_equal_scales_are_redrawn(self):
        # About a third of the resamples miss the one distinct scale and
        # must be redrawn before a slope exists.
        pairs = [(1e18, 1.0 + 0.01 * i, 1.0) for i in range(9)] + [(1e19, 0.9, 1.0)]
        slopes = bootstrap_slopes(pairs, resamples=500, seed=2)
        assert slopes.shape == (500,)
        assert np.all(np.isfinite(slopes))

    def test_batched_slopes_match_scalar_loop(self):
        # Reference: the per-resample OLS loop over the same block draws.
        pairs = self.noisy_pairs(seed=7, n_scales=40)
        n = len(pairs)
        x = np.log([p[0] for p in pairs])
        y = np.log([p[1] / p[2] for p in pairs])
        expected = []
        for rows, rng in _blocks(3000, n, 11):
            for idx in rng.integers(0, n, size=(rows, n)):
                xc = x[idx] - x[idx].mean()
                expected.append(float(xc @ (y[idx] - y[idx].mean())) / float(xc @ xc))
        slopes = bootstrap_slopes(pairs, resamples=3000, seed=11)
        np.testing.assert_allclose(slopes, expected, rtol=1e-9, atol=1e-12)

    def test_all_equal_scales_exhaust_retries(self, monkeypatch):
        """No redraw can succeed, so the pairs are refused before the first,
        with the message of the least-squares line."""
        def no_draws(*args):
            raise AssertionError("drew resamples")

        monkeypatch.setattr(lawfit, "_blocks", no_draws)
        pairs = [(1e18, 1.0 + 0.01 * i, 1.0) for i in range(100)]
        with pytest.raises(FitError) as err:
            bootstrap_slopes(pairs, resamples=10, seed=0)
        assert str(err.value) == "degenerate fit: all scale values are equal"

    def test_degenerate_draws_past_the_retry_cap_are_refused(self, monkeypatch):
        # Two of three scales equal: a third of the resamples draw one scale.
        monkeypatch.setattr(lawfit, "MAX_RESAMPLE_RETRIES", 0)
        pairs = [(1e18, 2.0, 3.0), (1e18, 2.2, 3.0), (1e19, 1.2, 3.0)]
        with pytest.raises(FitError) as err:
            bootstrap_slopes(pairs, resamples=50, seed=0)
        assert str(err.value) == "resample degenerate after 0 retries (all scales equal)"

    @staticmethod
    def reference_slopes(pairs, mode, resamples, seed):
        """Reference block bootstrap: the degenerate test gathers the scales
        again after every redraw, and the slope is sum(xc * yc) / sum(xc * xc)
        with both x and y centred, through product arrays."""
        n = len(pairs)
        x, y = _relative_xy(pairs, mode)
        slopes = []
        for rows, rng in _blocks(resamples, n, seed):
            idx = rng.integers(0, n, size=(rows, n))
            flat = np.ptp(x[idx], axis=1) == 0.0
            for _ in range(MAX_RESAMPLE_RETRIES):
                if not flat.any():
                    break
                idx[flat] = rng.integers(0, n, size=(int(flat.sum()), n))
                flat = np.ptp(x[idx], axis=1) == 0.0
            assert not flat.any()
            xs, ys = x[idx], y[idx]
            xc = xs - xs.mean(axis=1, keepdims=True)
            yc = ys - ys.mean(axis=1, keepdims=True)
            slopes.append((xc * yc).sum(axis=1) / (xc * xc).sum(axis=1))
        return np.concatenate(slopes)

    @pytest.mark.parametrize("mode", ["ratio", "difference"])
    @pytest.mark.parametrize("n", [3, 600, 2500])
    def test_slopes_match_reference_bootstrap(self, n, mode):
        if n == 3:
            # Two of three scales equal: about a third of the resamples draw
            # a single scale and are redrawn.
            pairs = [(1e18, 2.0, 3.0), (1e18, 2.2, 3.0), (1e19, 1.2, 3.0)]
        else:
            pairs = self.noisy_pairs(seed=n, n_scales=n)
        slopes = bootstrap_slopes(pairs, mode=mode, resamples=2000, seed=13)
        expected = self.reference_slopes(pairs, mode, 2000, 13)
        np.testing.assert_allclose(slopes, expected, rtol=100 * n * np.finfo(float).eps, atol=0)

    def test_needs_three_pairs(self):
        with pytest.raises(FitError, match="3"):
            bootstrap_sign_test([(1e18, 1.0, 1.0), (1e19, 1.0, 1.0)])

    def test_p_floor(self):
        pairs = self.noisy_pairs(seed=3)
        p_sign, _, _ = bootstrap_sign_test(pairs, resamples=100, seed=5)
        assert p_sign >= 2 / 100

    def test_strong_signal_is_significant(self):
        pairs = self.noisy_pairs(seed=9)
        fit = fit_relative(pairs, slopes=bootstrap_slopes(pairs, resamples=1000, seed=2))
        assert fit.p_sign is not None and fit.p_sign < 0.05
        assert fit.ci_low <= fit.delta_beta <= fit.ci_high
        assert fit.sign_significant

    @pytest.mark.parametrize("mode", ["ratio", "difference"])
    @pytest.mark.parametrize("trend", [0.0, 1e-12])
    def test_flat_pairs_have_no_sign(self, mode, trend):
        # Without a trend every ratio (difference) is one constant up to
        # rounding, so every bootstrap slope is rounding too and its sign
        # says nothing. A relative trend of 1e-12 per scale is above rounding.
        pairs = [(f, 3.0 * f**-0.1, 3.0 * f**-0.1) for f in SCALES_5]
        pairs = [(f, (0.8 * b if mode == "ratio" else b + 0.25) * (1.0 + trend * i), b)
                 for i, (f, _, b) in enumerate(pairs)]
        fit = fit_relative(pairs, mode=mode,
                           slopes=bootstrap_slopes(pairs, mode=mode, resamples=200))
        if trend:
            assert fit.p_sign is not None and fit.ci_low <= fit.delta_beta <= fit.ci_high
        else:
            assert (fit.p_sign, fit.ci_low, fit.ci_high) == (None, None, None)
            assert not fit.sign_significant

    def test_fit_relative_skips_bootstrap_below_three_pairs(self):
        fit = fit_relative([(1e18, 1.2, 1.0), (1e20, 1.1, 1.0)])
        assert fit.p_sign is None and fit.ci_low is None


class TestPercentPerDecade:
    def test_zero(self):
        assert percent_per_decade(0.0) == 0.0

    def test_one_decade(self):
        assert percent_per_decade(1.0) == pytest.approx(900.0, rel=1e-12)

    def test_small_negative(self):
        expected = (10**-0.01 - 1) * 100
        assert percent_per_decade(-0.01) == pytest.approx(expected, abs=1e-12)
        assert percent_per_decade(-0.01) == pytest.approx(-2.276, abs=1e-3)

    @pytest.mark.parametrize("delta_beta", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_is_refused(self, delta_beta):
        with pytest.raises(FitError, match="^delta_beta must be finite$"):
            percent_per_decade(delta_beta)


def rel(gamma, delta_beta, mode="ratio"):
    return RelativeFit(
        gamma=gamma, delta_beta=delta_beta, mode=mode,
        p_sign=None, ci_low=None, ci_high=None, n_pairs=5,
    )


class TestCrossover:
    def test_closed_form(self):
        result = crossover(rel(0.9, 0.02), rel(0.8, 0.05), (1.0, 1e3))
        expected = (0.9 / 0.8) ** (1.0 / 0.03)
        assert result.f_star == pytest.approx(expected, rel=1e-12)
        assert result.f_star == pytest.approx(50.7, abs=0.1)
        assert result.in_range

    def test_equal_intercepts_cross_at_unit_scale(self):
        result = crossover(rel(0.8, 0.02), rel(0.8, 0.05), (1e18, 1e20))
        assert result.f_star == pytest.approx(1.0, rel=1e-12)
        assert not result.in_range

    @pytest.mark.parametrize("f_star", [0.0, -1e19])
    def test_non_positive_crossover_scale_is_refused(self, f_star):
        with pytest.raises(FitError, match="^crossover scale must be positive$"):
            CrossoverResult(f_star=f_star, in_range=False)

    def test_parallel_curves_error(self):
        with pytest.raises(FitError, match="parallel"):
            crossover(rel(0.9, 0.02), rel(0.8, 0.02), (1.0, 1e3))

    def test_nearly_parallel_curves_overflow_as_fit_error(self):
        with pytest.raises(FitError, match="parallel"):
            crossover(rel(2.0, -0.05), rel(1.0, -0.0499), (1e18, 1e20))

    def test_antisymmetry(self):
        a, b = rel(0.9, 0.02), rel(0.8, 0.05)
        fwd = crossover(a, b, (1.0, 1e3))
        bwd = crossover(b, a, (1.0, 1e3))
        assert fwd.f_star == pytest.approx(bwd.f_star, rel=1e-12)

    def test_requires_ratio_mode(self):
        with pytest.raises(FitError, match="ratio"):
            crossover(rel(0.9, 0.02, mode="difference"), rel(0.8, 0.05), (1.0, 1e3))

    def test_requires_one_scale_axis(self):
        tokens = replace(rel(0.9, 0.02), scale_axis="tokens")
        with pytest.raises(FitError, match="one scale axis, got 'tokens' and 'flops'"):
            crossover(tokens, rel(0.8, 0.05), (1.0, 1e3))
        assert crossover(tokens, replace(rel(0.8, 0.05), scale_axis="tokens"),
                         (1.0, 1e3)).f_star == crossover(rel(0.9, 0.02), rel(0.8, 0.05),
                                                         (1.0, 1e3)).f_star

    def test_unknown_scale_axis_rejected(self):
        with pytest.raises(FitError, match="unknown scale axis 'steps'"):
            replace(rel(0.9, 0.02), scale_axis="steps")

    @pytest.mark.parametrize("span", [
        (math.nan, 1e20), (1e18, math.nan), (math.nan, math.nan),
        (math.inf, 1e20), (1e18, math.inf), (math.inf, math.inf), (-math.inf, 1e20),
        (0.0, 1e20), (1e20, 1e18),
    ])
    def test_span_must_be_positive_ordered_and_finite(self, span):
        with pytest.raises(FitError, match=r"0 < F_min <= F_max < inf"):
            crossover(rel(0.9, 0.02), rel(0.8, 0.05), span)


def pearson_oracle(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    return float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))


class TestCorrelation:
    def test_perfect_linear(self):
        covariate = [("a", 10.0), ("b", 100.0), ("c", 1000.0), ("d", 10000.0)]
        slopes = [(g, 0.5 + 0.3 * math.log10(v)) for g, v in covariate]
        result = slope_covariate_correlation(slopes, covariate, seed=0)
        assert result.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert result.regression_slope == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_regression_slope_is_the_centred_least_squares_formula(self, seed):
        rng = np.random.default_rng(seed)
        covariate = [(f"g{i}", v) for i, v in enumerate(rng.uniform(1.0, 1e6, 12).tolist())]
        slopes = [(g, s) for (g, _), s in zip(covariate, rng.normal(0.0, 0.1, 12).tolist())]
        result = slope_covariate_correlation(slopes, covariate, permutations=10)
        x = np.log10([v for _, v in covariate])
        y = np.asarray([s for _, s in slopes])
        xc, yc = x - x.mean(), y - y.mean()
        assert result.regression_slope == float(xc @ yc) / float(xc @ xc)

    def test_exhaustive_p_matches_hand_enumeration(self):
        covariate = [("a", 10.0), ("b", 100.0), ("c", 1000.0), ("d", 10000.0)]
        slopes = [("a", -0.5), ("b", -0.1), ("c", 0.2), ("d", 0.9)]
        result = slope_covariate_correlation(slopes, covariate)
        # Independent oracle: enumerate all 24 orderings by hand.
        x = np.log10([v for _, v in covariate])
        y = np.array([s for _, s in slopes])
        r_obs = pearson_oracle(x, y)
        hits = sum(
            1
            for perm in itertools.permutations(range(4))
            if abs(pearson_oracle(x, y[list(perm)])) >= abs(r_obs)
        )
        assert result.p_value == hits / math.factorial(4)
        assert result.p_value == pytest.approx(2 / 24)

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_exhaustive_p_matches_permutations_reference(self, n, tied):
        rng = np.random.default_rng(n)
        groups = [f"g{i}" for i in range(n)]
        covariate = [(g, float(10 ** rng.uniform(0, 3))) for g in groups]
        values = rng.normal(0.0, 0.1, n)
        if tied:
            values[1] = values[0]
            if n >= 4:
                values[-1] = values[-2]
        slopes = list(zip(groups, values.tolist()))
        result = slope_covariate_correlation(slopes, covariate)
        # Reference: |sum of centred slope times centred log covariate| over
        # every itertools ordering, against the observed value less 1e-12 of it.
        x = np.log10([v for _, v in covariate])
        xc = x - x.mean()
        yc = values - values.mean()
        threshold = abs(float(yc @ xc)) * (1.0 - 1e-12)
        perms = np.array(list(itertools.permutations(range(n))))
        hits = int(np.count_nonzero(np.abs(yc[perms] @ xc) >= threshold))
        assert result.p_value == hits / math.factorial(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orderings_cover_every_permutation_once(self, n):
        rows = BLOCK_ELEMENTS // n
        blocks = list(_orderings(n, rows))
        assert all(b.dtype == np.int8 and 0 < len(b) <= rows for b in blocks)
        got = sorted(map(tuple, np.concatenate(blocks).tolist()))
        assert got == list(itertools.permutations(range(n)))

    def test_monte_carlo_path(self):
        rng = np.random.default_rng(0)
        groups = [f"g{i}" for i in range(9)]
        covariate = [(g, float(10 ** (1 + i / 3))) for i, g in enumerate(groups)]
        slopes = [
            (g, 0.1 * math.log10(v) + rng.normal(0, 0.05)) for g, v in covariate
        ]
        result = slope_covariate_correlation(
            slopes, covariate, permutations=2000, seed=4
        )
        assert 1 / 2001 <= result.p_value <= 1.0
        assert result.n == 9

    def test_monte_carlo_p_matches_exact_enumeration(self):
        rng = np.random.default_rng(1)
        groups = [f"g{i}" for i in range(9)]
        covariate = [(g, float(10 ** (1 + i / 4))) for i, g in enumerate(groups)]
        slopes = [(g, 0.05 * i + float(rng.normal(0, 0.3))) for i, g in enumerate(groups)]
        draws = 20_000
        result = slope_covariate_correlation(
            slopes, covariate, permutations=draws, seed=3
        )
        # Independent oracle: |r| over all 9! orderings, in int8 chunks.
        x = np.log10([v for _, v in covariate])
        y = np.array([s for _, s in slopes])
        r_obs = abs(pearson_oracle(x, y))
        flat = itertools.chain.from_iterable(itertools.permutations(range(9)))
        hits = 0
        for _ in range(9):
            perms = np.fromiter(flat, dtype=np.int8, count=9 * 40_320).reshape(-1, 9)
            yp = y[perms]
            yc = yp - yp.mean(axis=1, keepdims=True)
            xc = x - x.mean()
            r = (yc @ xc) / np.sqrt((yc * yc).sum(axis=1) * float(xc @ xc))
            hits += int(np.count_nonzero(np.abs(r) >= r_obs * (1 - 1e-12)))
        p_exact = hits / math.factorial(9)
        assert 0.01 < p_exact < 0.5
        sigma = math.sqrt(p_exact * (1 - p_exact) / draws)
        assert abs(result.p_value - p_exact) <= 4 * sigma

    def test_monte_carlo_hits_match_scalar_pearson_loop(self):
        # Reference: |r| per permuted ordering over the same block draws.
        rng = np.random.default_rng(5)
        groups = [f"g{i}" for i in range(12)]
        covariate = [(g, float(10 ** (1 + i / 5))) for i, g in enumerate(groups)]
        slopes = [(g, 0.02 * i + float(rng.normal(0, 0.1))) for i, g in enumerate(groups)]
        result = slope_covariate_correlation(slopes, covariate, permutations=3000, seed=8)
        x = np.log10([v for _, v in covariate])
        y = np.array([s for _, s in slopes])
        r_obs = abs(pearson_oracle(x, y))
        hits = 0
        for rows, block_rng in _blocks(3000, 12, 8):
            perms = block_rng.permuted(np.tile(np.arange(12), (rows, 1)), axis=1)
            hits += sum(abs(pearson_oracle(x, y[p])) >= r_obs for p in perms)
        assert result.p_value == (1 + hits) / 3001

    def test_monte_carlo_needs_a_permutation(self):
        groups = [f"g{i}" for i in range(9)]
        covariate = [(g, float(i + 1)) for i, g in enumerate(groups)]
        slopes = [(g, float(i % 4)) for i, g in enumerate(groups)]
        with pytest.raises(FitError, match="permutations"):
            slope_covariate_correlation(slopes, covariate, permutations=0)

    def test_zero_variance_covariate(self):
        covariate = [("a", 5.0), ("b", 5.0), ("c", 5.0)]
        slopes = [("a", 0.1), ("b", 0.2), ("c", 0.3)]
        with pytest.raises(FitError, match="variance"):
            slope_covariate_correlation(slopes, covariate)

    @pytest.mark.parametrize("slopes, covariate, role", [
        ([("a", 0.1), ("b", 0.2), ("c", 0.3), ("a", 0.4)],
         [("a", 1.0), ("b", 10.0), ("c", 100.0)], "slopes"),
        ([("a", 0.1), ("b", 0.2), ("c", 0.3)],
         [("a", 10.0), ("b", 100.0), ("c", 1e3), ("a", 1e6)], "covariate"),
    ], ids=["slopes", "covariate"])
    def test_repeated_group_is_refused(self, slopes, covariate, role):
        # dict(covariate) would keep the last value of a repeated group.
        with pytest.raises(FitError, match=f"^group 'a' repeats in {role}$"):
            slope_covariate_correlation(slopes, covariate)

    @pytest.mark.parametrize("change, message", [
        ({"pearson_r": 1.5}, r"^\|pearson_r\| must not exceed 1$"),
        ({"pearson_r": -1.0 - 1e-9}, r"^\|pearson_r\| must not exceed 1$"),
        ({"p_value": -0.1}, r"^p_value must lie in \[0, 1\]$"),
        ({"p_value": 1.1}, r"^p_value must lie in \[0, 1\]$"),
    ], ids=["r-above", "r-below", "p-below", "p-above"])
    def test_result_outside_its_range_is_refused(self, change, message):
        valid = {"pearson_r": 1.0 + 1e-13, "p_value": 1.0, "regression_slope": 0.3, "n": 3}
        CorrelationResult(**valid)
        with pytest.raises(FitError, match=message):
            CorrelationResult(**{**valid, **change})

    def test_unmatched_group(self):
        with pytest.raises(FitError, match="missing"):
            slope_covariate_correlation(
                [("a", 0.1), ("b", 0.2), ("missing", 0.3)],
                [("a", 1.0), ("b", 2.0)],
            )

    def test_non_positive_covariate(self):
        with pytest.raises(FitError, match="positive"):
            slope_covariate_correlation(
                [("a", 0.1), ("b", 0.2), ("c", 0.3)],
                [("a", 1.0), ("b", -2.0), ("c", 3.0)],
            )

    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_pearson_invariant_under_affine_slope_transform(self, scale, shift):
        covariate = [("a", 10.0), ("b", 40.0), ("c", 200.0), ("d", 5000.0)]
        slopes = [("a", -0.4), ("b", 0.3), ("c", -0.1), ("d", 0.8)]
        transformed = [(g, scale * s + shift) for g, s in slopes]
        base = slope_covariate_correlation(slopes, covariate)
        moved = slope_covariate_correlation(transformed, covariate)
        assert moved.pearson_r == pytest.approx(base.pearson_r, abs=1e-9)


class TestPairing:
    def test_pairs_from_runs(self, constant_ratio_runs):
        pairs = pairs_from_runs(constant_ratio_runs, "bpb/treat", "bpb/base")
        assert len(pairs) == 5
        fit = fit_relative(pairs, run_bootstrap=False)
        assert fit.gamma == pytest.approx(0.8, rel=1e-12)

    @staticmethod
    def isolation_pairs(runs, treatment, baseline, axis):
        """The pairs ``relfit --axis`` takes on the tokens or params axis."""
        return pairs_from_frontiers(isolation_series(runs, treatment, axis),
                                    isolation_series(runs, baseline, axis))

    def test_isolation_pairs_unknown_scale_axis(self, constant_ratio_runs):
        with pytest.raises(FrontierError, match="unknown scale axis 'steps'"):
            self.isolation_pairs(constant_ratio_runs, "bpb/treat", "bpb/base", "steps")

    @pytest.mark.parametrize("axis, fixed", [("tokens", "params"), ("params", "tokens")])
    def test_isolation_pairs_refuse_a_mixed_fixed_axis(self, axis, fixed):
        from relscale import Subgroup, SyntheticSpec, generate

        runs = generate(SyntheticSpec(
            budgets=(1e18, 1e19, 1e20),
            subgroups=(Subgroup("t", 3.9, 0.12), Subgroup("b", 3.0, 0.10)),
            widths_per_budget=7, curvature=0.05, noise_sigma=0.0,
        ))
        values = [getattr(r, fixed) for r in runs]
        with pytest.raises(FrontierError) as err:
            self.isolation_pairs(runs, "t", "b", axis)
        assert f"{axis}-axis" in str(err.value)
        assert f"span {fixed} {min(values):g} to {max(values):g}" in str(err.value)

    def test_pairs_from_runs_unpaired(self, constant_ratio_runs):
        with pytest.raises(FitError, match="unpaired"):
            pairs_from_runs(constant_ratio_runs, "bpb/treat", "missing")

    def test_pairs_from_frontiers_keeps_shared_budgets(self):
        from relscale.frontier import FrontierPoint, FrontierSeries

        def series(budgets, metric):
            points = tuple(FrontierPoint(budget=f, optimal_tokens=1e9,
                                         optimal_metric=metric, curvature=1.0,
                                         fit_r2=1.0, n_points=7) for f in budgets)
            return FrontierSeries(metric_key="m", scale_axis="flops", points=points)

        treatment = series([1e18, 1e19, 1e20 * (1 + 1e-9), 1e21], 2.0)
        baseline = series([1e17, 1e19, 1e20, 3e20, 1e21], 1.0)
        assert pairs_from_frontiers(treatment, baseline) == [
            (1e19, 2.0, 1.0), (1e20, 2.0, 1.0), (1e21, 2.0, 1.0)]
        with pytest.raises(FitError, match="share no budget"):
            pairs_from_frontiers(series([1e18], 2.0), series([1e19], 1.0))

    def test_pairs_from_frontiers_alignment(self):
        from relscale import Subgroup, SyntheticSpec, extract_frontier, generate

        spec = SyntheticSpec(
            budgets=(1e18, 1e19, 1e20),
            subgroups=(Subgroup("t", 3.9, 0.12), Subgroup("b", 3.0, 0.10)),
            widths_per_budget=5,
        )
        runs = generate(spec)
        st_series = extract_frontier(runs, "t")
        sb_series = extract_frontier(runs, "b")
        pairs = pairs_from_frontiers(st_series, sb_series)
        assert len(pairs) == 3
        fit = fit_relative(pairs, run_bootstrap=False)
        assert fit.gamma == pytest.approx(1.3, rel=1e-6)
        assert fit.delta_beta == pytest.approx(-0.02, abs=1e-6)
