"""relscale: scaling-law analysis for language-model experiment logs.

Fits absolute laws E(F) = alpha * F^-beta and relative laws
G(F) = gamma * F^delta_beta between test distributions, extracts
compute-optimal frontiers from IsoFLOP sweeps, plans compute-matched
training configurations, and forecasts downstream accuracy by chaining a
compute-loss law with a loss-accuracy sigmoid calibration.

``_EXPORTS`` below is the package's public API, and its one list of
names: the modules keep no ``__all__``. Importing the package loads none
of its modules. A name loads its module on first access (PEP 562), so a
process pays only for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each module and the public names it defines.
_EXPORTS = {
    "calibration": (
        "Forecast", "LinearCalibration", "SigmoidCalibration", "fit_linear_calibration",
        "fit_sigmoid", "forecast",
    ),
    "errors": (
        "CalibrationError", "FitError", "FrontierError", "IngestError", "PlanError",
        "RelscaleError", "ValidationError",
    ),
    "frontier": (
        "FrontierPoint", "FrontierSeries", "extract_frontier", "fit_isoflop_slice",
        "isolation_series",
    ),
    "lawfit": (
        "CorrelationResult", "CrossoverResult", "LogLinearFit", "PowerLawFit",
        "PowerLawFloorFit", "RelativeFit", "bootstrap_sign_test", "bootstrap_slopes",
        "crossover", "fit_loglinear", "fit_power_law", "fit_power_law_floored",
        "fit_relative", "pairs_from_frontiers", "pairs_from_runs", "percent_per_decade",
        "slope_covariate_correlation",
    ),
    "planner": (
        "ModelShape", "SweepPolicy", "TrainPlan", "WsdSchedule", "batch_size",
        "depth_for_width", "learning_rate", "param_count", "plan_sweep", "shape_for_width",
        "tokens_for_budget", "width_grid", "wsd_schedule",
    ),
    "plotting": ("PlotSeries", "SeriesData", "emit_plot"),
    "store": (
        "GroupingSpec", "RunRecord", "RunSet", "aggregate_by_group", "emit_runs",
        "ingest_runs",
    ),
    "synthlab": (
        "MixtureSubgroup", "Subgroup", "SyntheticSpec", "TruthReport", "generate",
        "known_truth",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
