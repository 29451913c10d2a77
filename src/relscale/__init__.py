"""relscale: scaling-law analysis for language-model experiment logs.

Fits absolute laws E(F) = alpha * F^-beta and relative laws
G(F) = gamma * F^delta_beta between test distributions, extracts
compute-optimal frontiers from IsoFLOP sweeps, plans compute-matched
training configurations, and forecasts downstream accuracy by chaining a
compute-loss law with a loss-accuracy sigmoid calibration.
"""

__version__ = "0.1.0"

from .calibration import (
    LinearCalibration,
    SigmoidCalibration,
    fit_linear_calibration,
    fit_sigmoid,
)
from .errors import (
    CalibrationError,
    FitError,
    FrontierError,
    IngestError,
    PlanError,
    RelscaleError,
    ValidationError,
)
from .frontier import FrontierPoint, FrontierSeries, extract_frontier, fit_isoflop_slice
from .lawfit import (
    CorrelationResult,
    CrossoverResult,
    LogLinearFit,
    PowerLawFit,
    RelativeFit,
    bootstrap_sign_test,
    bootstrap_slopes,
    crossover,
    fit_loglinear,
    fit_power_law,
    fit_relative,
    pairs_from_frontiers,
    pairs_from_runs,
    percent_per_decade,
    slope_covariate_correlation,
)
from .planner import (
    ModelShape,
    SweepPolicy,
    TrainPlan,
    WsdSchedule,
    batch_size,
    depth_for_width,
    learning_rate,
    param_count,
    plan_sweep,
    shape_for_width,
    tokens_for_budget,
    width_grid,
    wsd_schedule,
)
from .plotting import PlotSeries, SeriesData, emit_plot
from .store import (
    GroupingSpec,
    RunRecord,
    RunSet,
    aggregate_by_group,
    emit_runs,
    ingest_runs,
)
from .synthlab import (
    MixtureSubgroup,
    Subgroup,
    SyntheticSpec,
    TruthReport,
    generate,
    known_truth,
)
