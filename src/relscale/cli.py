"""Command-line surface: machine-readable reports and static plot files.

Every command reads declared inputs, writes declared outputs atomically,
and exits 0 on success, 1 on validation/input errors, 2 on usage errors.
Commands do not catch their own errors: the group class ``_ErrorBoundary``
is the single error boundary, turning any RelscaleError or OSError into
one ``error:`` line on stderr and exit 1. Every report goes through
``_write_report``, which embeds content digests of every consumed file
plus the command and the options it used, defaults (the library's)
included, so any figure can be reproduced from the logs; file paths, output
paths included, are deliberately excluded. ``_reject_if_given`` alone
decides which options a command ignores: given, even at its default, one is
a usage error, and otherwise it is left out, so every recorded command
replays. A run log's digest is the one ingest took of the bytes it parsed,
and its format follows ``store``'s rule (CSV when the name ends in ``.csv``,
else JSONL) on every read and write, so ``ingest`` converts. A session
holds one run log and the frontier series built from it, so ``frontier``
and every ``relfit --frontier`` on that log share each series; ``simulate``
releases the held log before it generates, so two are never alive at once.
``_series`` builds every series: ``extract_frontier`` on the flops axis, else
``isolation_series``. ``relfit`` pairs two through ``pairs_from_frontiers``
unless it pairs runs (the flops axis without ``--frontier``).
A report slot is its result's ``to_dict()``, which ``ioutil.load_tagged``
reads back, and ``plot`` draws it through the result's ``figure()``;
``forecast`` writes a ``calibration.forecast``. ``simulate`` serves both
forms of synthetic spec through ``synthlab.generate`` and ``known_truth``.
Every resampled value is fixed by the inputs and ``--seed``, a non-negative
integer. ``relfit`` and ``correlate`` accept a hidden, inert ``--workers N``.

A process imports only what its command runs: ``plan`` imports
``planner``, ``simulate`` imports ``synthlab`` (and with it ``planner``),
and the modules every other command shares, ``calibration`` included, are
imported here. numpy is bound lazily (see ``ioutil.lazy_module``) and loads
at a command's first array operation: ``--version``, ``plan``, ``ingest``,
``crossover``, ``report`` and ``plot`` of a frontier or forecast report run
without it. Before a command runs, ``main`` sets ``OPENBLAS_NUM_THREADS``
to 1 unless it is already set, so numpy starts no BLAS thread pool;
importing this module leaves the environment alone.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys

# The package's modules load before click: compiling lawfit from source is
# the largest transient allocation of this import, and the process's peak
# resident size is lower when click is not loaded yet.
from . import __version__, calibration, frontier, lawfit, plotting, store
from .errors import RelscaleError
from .ioutil import atomic_write_text, dump_json, finite_float, load_json, load_tagged, sha256_file

import click
from click.core import ParameterSource


#: The type of every option that names a file.
PATH = click.Path()


def _write_report(output, inputs, results: dict, warnings=()) -> None:
    """Write the envelope every analysis command emits, with the digest of
    each consumed file in ``inputs``: a path, hashed here, or a (path,
    RunSet) pair for a run log, whose digest ingest took from the bytes it
    parsed. Its ``command`` is the running command and every parsed option
    but unset, ignored and ``PATH`` ones, by flag."""
    digests = []
    for source in inputs:
        path, runs = source if isinstance(source, tuple) else (source, None)
        digests.append({"path": str(path),
                        "sha256": sha256_file(path) if runs is None else runs.sha256})
    ctx = click.get_current_context()
    words = [ctx.command.name]
    for param in ctx.command.params:
        value = ctx.params.get(param.name)
        if value is None or value is False or param.type is PATH:
            continue
        words += [param.opts[0]] if value is True else [param.opts[0], str(value)]
    atomic_write_text(output, dump_json({
        "tool_version": __version__,
        "command": " ".join(words),
        "input_digests": digests,
        "results": results,
        "warnings": warnings,
    }))


#: The result types each report slot may hold, in the order ``plot`` looks
#: for a slot to draw; ``_load_result`` reads a slot as one of its types.
SLOT_TYPES = {
    "frontier": (frontier.FrontierSeries,),
    "fit": lawfit.ABSOLUTE_LAWS,
    "relative_fit": (lawfit.RelativeFit,),
    "calibration": calibration.CALIBRATIONS,
    "forecast": (calibration.Forecast,),
    "correlation": (lawfit.CorrelationResult,),
}


def _load_result(report_obj: dict, key: str, path):
    """``results[key]`` of the report at ``path`` as one of ``SLOT_TYPES[key]``."""
    try:
        obj = report_obj["results"][key]
    except (KeyError, TypeError):
        raise RelscaleError(f"{path}: not a report containing results[{key!r}]") from None
    try:
        return load_tagged(obj, *SLOT_TYPES[key])
    except RelscaleError as exc:
        raise RelscaleError(f"{path}: results[{key!r}]: {exc}") from exc


def _parse_floats(text: str, flag: str, count: int | None = None) -> list[float]:
    entries = [v.strip() for v in text.split(",")]
    if not any(entries):
        raise RelscaleError(f"{flag}: no values given")
    if not all(entries):
        raise RelscaleError(f"{flag}: empty entry in {text!r}")
    try:
        values = [float(v) for v in entries]
    except ValueError as exc:
        raise RelscaleError(f"{flag}: could not parse {text!r} as numbers") from exc
    if not all(math.isfinite(v) for v in values):
        raise RelscaleError(f"{flag}: values must be finite, got {text!r}")
    if count is not None and len(values) != count:
        raise RelscaleError(f"{flag}: expected {count} value(s), got {len(values)}")
    return values


def _reject_if_given(name: str, reason: str) -> None:
    """Option ``name`` of the running command is ignored ``reason``: a usage
    error when given, even at its default value, else left out of the
    report's ``command`` so that the recorded command replays."""
    ctx = click.get_current_context()
    if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
        flag = next(p.opts[0] for p in ctx.command.params if p.name == name)
        raise click.UsageError(f"{flag} has no effect {reason}")
    ctx.params[name] = None


def _series(runs, metric, axis, tolerance, fixed_value=None, optimum="vertex"):
    """The series of ``metric`` that ``frontier`` writes and ``relfit`` pairs:
    the IsoFLOP frontier on the flops axis, else the runs at one size."""
    if axis == "flops":
        return frontier.extract_frontier(runs, metric, budget_tolerance=tolerance,
                                         optimum=optimum)
    return frontier.isolation_series(runs, metric, axis, fixed_value)


class _ErrorBoundary(click.Group):
    """The one place expected failures leave a command: a RelscaleError or
    OSError becomes a single ``error:`` line on stderr and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (RelscaleError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_ErrorBoundary)
@click.version_option(__version__, prog_name="relscale")
def main():
    """Scaling-law analysis: sweep planning, frontier extraction, law fits,
    relative comparisons, calibration, and forecasting."""
    logging.basicConfig(level=logging.WARNING)
    # numpy loads after this, at a command's first array operation. The
    # commands' BLAS work is 1-D dots and one small gemv, so a thread pool
    # would only add to start-up.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@main.command()
@click.option("--budgets", required=True, help="Comma-separated FLOP budgets.")
@click.option("--config", "config_path", type=PATH, default=None, help="Sweep policy JSON.")
@click.option("--output", "output_path", type=PATH, required=True, help="Plans JSONL out.")
def plan(budgets, config_path, output_path):
    """Emit one training plan per (budget, width), as JSONL."""
    from . import planner

    policy = planner.SweepPolicy.from_file(config_path) if config_path else None
    plans = planner.plan_sweep(_parse_floats(budgets, "--budgets"), policy)
    text = "".join(json.dumps(p.to_dict(), sort_keys=True) + "\n" for p in plans)
    atomic_write_text(output_path, text)
    click.echo(f"wrote {len(plans)} plans to {output_path}")


@main.command()
@click.option("--spec", "spec_path", type=PATH, required=True, help="Synthetic spec JSON.")
@click.option("--output", "output_path", type=PATH, required=True,
              help="Run log out: CSV if the name ends in .csv, else JSONL.")
@click.option("--truth", "truth_path", type=PATH, default=None, help="Ground-truth JSON out.")
def simulate(spec_path, output_path, truth_path):
    """Generate a synthetic sweep with known ground truth, seeded by the spec."""
    from . import synthlab

    spec = synthlab.SyntheticSpec.from_dict(load_json(spec_path))
    store._release()  # hold one run log at a time: emit_runs holds the new one
    runs = synthlab.generate(spec)
    store.emit_runs(runs, output_path)
    if truth_path:
        atomic_write_text(truth_path, dump_json(synthlab.known_truth(spec).to_dict()))
    click.echo(f"wrote {len(runs)} runs to {output_path}")


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Run log to validate.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default=None,
              help="Input format; by default CSV if the name ends in .csv, else JSONL.")
@click.option("--grouping", "grouping_path", type=PATH, default=None,
              help="Grouping spec JSON; aggregates per-item metrics into groups.")
@click.option("--metric-prefix", default=None,
              help="Metric prefix selecting the items to aggregate.")
@click.option("--output", "output_path", type=PATH, required=True,
              help="Normalized run log out: CSV if the name ends in .csv, else JSONL.")
def ingest(input_path, fmt, grouping_path, metric_prefix, output_path):
    """Validate a run log and re-emit it normalized, converting between
    JSONL and CSV when the output's name asks for the other format.

    With --grouping and --metric-prefix, per-item metrics are collapsed to
    per-group means before emission (e.g. behaviour probabilities into risk
    clusters).
    """
    if (grouping_path is None) != (metric_prefix is None):
        raise click.UsageError("--grouping and --metric-prefix must be given together")
    runs = store.ingest_runs(input_path, fmt=fmt)
    if grouping_path is not None:
        spec = store.GroupingSpec.from_file(grouping_path)
        runs = store.aggregate_by_group(runs, spec, metric_prefix)
    store.emit_runs(runs, output_path)
    click.echo(f"validated {len(runs)} runs -> {output_path}")


@main.command(name="frontier")
@click.option("--input", "input_path", type=PATH, required=True, help="Run log JSONL/CSV.")
@click.option("--metric", required=True, help="Metric key to extract.")
@click.option("--axis", type=click.Choice(list(frontier.AXIS_LABELS)), default="flops")
@click.option("--tolerance", default=frontier.BUDGET_TOLERANCE, type=float,
              help="Budget bucketing rtol.")
@click.option("--fixed-value", default=None, type=float,
              help="Other axis's value on the tokens/params axis; optional if runs share one.")
@click.option("--optimum", type=click.Choice(["vertex", "observed"]), default="vertex")
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
@click.option("--csv", "csv_path", type=PATH, default=None, help="Optional frontier CSV out.")
def frontier_cmd(input_path, metric, axis, tolerance, fixed_value, optimum,
                 output_path, csv_path):
    """Extract the compute-optimal frontier for one metric."""
    if axis == "flops":
        _reject_if_given("fixed_value", "on the flops axis")
    else:
        _reject_if_given("tolerance", f"on the {axis} axis")
        _reject_if_given("optimum", f"on the {axis} axis")
    runs = store.ingest_runs(input_path)
    series = _series(runs, metric, axis, tolerance, fixed_value, optimum)
    _write_report(output_path, [(input_path, runs)], {"frontier": series.to_dict()},
                  series.warnings)
    if csv_path:
        atomic_write_text(csv_path, series.to_csv())
    click.echo(f"frontier with {len(series)} points -> {output_path}")


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Frontier report JSON.")
@click.option("--family", type=click.Choice(["power", "loglinear", "power-floor"]),
              default="power")
@click.option("--estimator", type=click.Choice(["ols", "huber"]), default="ols")
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
def fit(input_path, family, estimator, output_path):
    """Fit an absolute scaling trend to a frontier series."""
    if family != "power":
        _reject_if_given("estimator", f"with --family {family}")
    series = _load_result(load_json(input_path), "frontier", input_path)
    points = series.law_points()
    labels = {"scale_axis": series.scale_axis, "metric_key": series.metric_key}
    if family == "power":
        fit_obj = lawfit.fit_power_law(points, estimator=estimator, **labels)
    elif family == "loglinear":
        fit_obj = lawfit.fit_loglinear(points, **labels)
    else:
        fit_obj = lawfit.fit_power_law_floored(points, **labels)
    _write_report(output_path, [input_path], {"fit": fit_obj.to_dict()})
    click.echo(f"fit ({family}) on {len(points)} points -> {output_path}")


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Run log JSONL/CSV.")
@click.option("--metric", required=True, help="Treatment metric key.")
@click.option("--baseline", required=True, help="Baseline metric key.")
@click.option("--mode", type=click.Choice(["ratio", "difference"]), default="ratio")
@click.option("--axis", type=click.Choice(list(frontier.AXIS_LABELS)), default="flops")
@click.option("--resamples", default=lawfit.RESAMPLES, type=int)
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--frontier", "use_frontier", is_flag=True,
              help="Pair compute-optimal frontier points instead of raw runs.")
@click.option("--tolerance", default=frontier.BUDGET_TOLERANCE, type=float,
              help="Budget bucketing rtol.")
@click.option("--workers", type=int, hidden=True, expose_value=False)
@click.option("--slopes-csv", "slopes_csv", type=PATH, default=None,
              help="Also write the per-resample bootstrap slopes as CSV.")
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
def relfit(input_path, metric, baseline, mode, axis, resamples, seed,
           use_frontier, tolerance, slopes_csv, output_path):
    """Fit the relative law between a treatment and a baseline metric."""
    if use_frontier and axis != "flops":
        raise click.UsageError("--axis must be flops with --frontier: frontier points "
                               "are paired by FLOP budget")
    if not use_frontier:
        _reject_if_given("tolerance", "without --frontier")
    if resamples < 2:  # at every pair count, though 2 pairs draw no bootstrap
        raise RelscaleError("resamples must be at least 2")
    runs = store.ingest_runs(input_path)
    if axis == "flops" and not use_frontier:
        pairs, warnings = lawfit.pairs_from_runs(runs, metric, baseline), ()
    else:
        series = [_series(runs, key, axis, tolerance) for key in (metric, baseline)]
        warnings = tuple(f"{s.metric_key}: {w}" for s in series for w in s.warnings)
        pairs = lawfit.pairs_from_frontiers(*series)
    # One slope vector gives both the CI and the --slopes-csv rows.
    slopes = (lawfit.bootstrap_slopes(pairs, mode=mode, resamples=resamples, seed=seed)
              if len(pairs) >= 3 else None)
    fit_obj = lawfit.fit_relative(pairs, mode=mode, slopes=slopes, treatment=metric,
                                  baseline=baseline, scale_axis=axis)
    if slopes is not None and fit_obj.p_sign is None:  # flat pairs (lawfit.FLAT_EPS)
        spread = "log ratio" if mode == "ratio" else "difference"
        warnings += (f"every pair's {spread} is the same to within rounding, so "
                     f"delta_beta has no sign: p_sign and the CI are null",)
    if slopes_csv:
        if slopes is None:
            raise RelscaleError("--slopes-csv needs at least 3 pairs to bootstrap")
        rows = ["resample,slope\n"]
        rows += [f"{i},{s!r}\n" for i, s in enumerate(slopes.tolist())]
        atomic_write_text(slopes_csv, "".join(rows))
    _write_report(output_path, [(input_path, runs)], {"relative_fit": fit_obj.to_dict()},
                  warnings)
    click.echo(
        f"relative fit: gamma={fit_obj.gamma:.6g} delta_beta={fit_obj.delta_beta:.6g} "
        f"p_sign={fit_obj.p_sign} -> {output_path}"
    )


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Relative-fit report A.")
@click.option("--other", "other_path", type=PATH, required=True, help="Relative-fit report B.")
@click.option("--span", required=True, help="Observed scale span, e.g. '1e18,1e20'.")
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
def crossover(input_path, other_path, span, output_path):
    """Scale at which two relative curves cross, and whether it was observed."""
    fit_a, fit_b = (_load_result(load_json(path), "relative_fit", path)
                    for path in (input_path, other_path))
    lo, hi = _parse_floats(span, "--span", count=2)
    result = lawfit.crossover(fit_a, fit_b, (lo, hi))
    _write_report(output_path, [input_path, other_path],
                  {"crossover": result.to_dict(), "curve_a": fit_a.to_dict(),
                   "curve_b": fit_b.to_dict()})
    click.echo(f"crossover at {result.f_star:.6g} (in range: {result.in_range})")


@main.command()
@click.option("--input", "slopes_path", type=PATH, required=True,
              help="JSON object mapping group -> relative slope.")
@click.option("--covariate", "covariate_path", type=PATH, required=True,
              help="JSON object mapping group -> positive covariate.")
@click.option("--permutations", default=lawfit.PERMUTATIONS, type=int)
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--workers", type=int, hidden=True, expose_value=False)
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
def correlate(slopes_path, covariate_path, permutations, seed, output_path):
    """Correlate relative slopes with log10 of a per-group covariate."""
    def by_group(path):
        obj = load_json(path)
        if not isinstance(obj, dict):
            raise RelscaleError("slopes and covariate files must be JSON objects")
        return sorted((g, finite_float(v, f"{path}: group {g!r}", g)) for g, v in obj.items())

    slopes, covariate = by_group(slopes_path), by_group(covariate_path)
    result = lawfit.slope_covariate_correlation(
        slopes, covariate, permutations=permutations, seed=seed
    )
    _write_report(output_path, [slopes_path, covariate_path],
                  {"correlation": result.to_dict()})
    click.echo(
        f"pearson_r={result.pearson_r:.4f} p={result.p_value:.4g} -> {output_path}"
    )


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Run log JSONL/CSV.")
@click.option("--metric", required=True, help="Loss metric key.")
@click.option("--accuracy-key", required=True, help="Accuracy metric key.")
@click.option("--floor", default="free",
              help="'free' or a fixed chance-level accuracy (e.g. 0.25).")
@click.option("--family", type=click.Choice(["sigmoid", "linear"]), default="sigmoid")
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
def calibrate(input_path, metric, accuracy_key, floor, family, output_path):
    """Fit the loss-to-accuracy calibration from paired metrics."""
    if family == "linear":
        _reject_if_given("floor", "with --family linear")
    runs = store.ingest_runs(input_path)
    points = [
        (r.metrics[metric], r.metrics[accuracy_key])
        for r in runs
        if metric in r.metrics and accuracy_key in r.metrics
    ]
    if not points:
        raise RelscaleError(
            f"no run carries both {metric!r} and {accuracy_key!r}"
        )
    if family == "sigmoid":
        floor_value = (
            None if floor == "free" else _parse_floats(floor, "--floor", count=1)[0]
        )
        cal = calibration.fit_sigmoid(points, floor=floor_value)
    else:
        cal = calibration.fit_linear_calibration(points)
    _write_report(output_path, [(input_path, runs)], {"calibration": cal.to_dict()})
    click.echo(f"calibration rmse={cal.rmse:.6g} -> {output_path}")


@main.command()
@click.option("--input", "law_path", type=PATH, required=True, help="Law fit report.")
@click.option("--calibration", "cal_path", type=PATH, required=True, help="Calibration report.")
@click.option("--scales", required=True, help="Comma-separated scales to forecast at.")
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
def forecast(law_path, cal_path, scales, output_path):
    """Two-stage forecast: compute -> loss -> accuracy."""
    law = _load_result(load_json(law_path), "fit", law_path)
    cal = _load_result(load_json(cal_path), "calibration", cal_path)
    result = calibration.forecast(law, cal, _parse_floats(scales, "--scales"))
    _write_report(output_path, [law_path, cal_path], {"forecast": result.to_dict()})
    click.echo(f"forecast at {len(result.predictions)} scales -> {output_path}")


@main.command(name="report")
@click.option("--input", "input_paths", type=PATH, required=True, multiple=True,
              help="Report JSON (repeatable).")
@click.option("--output", "output_path", type=PATH, required=True, help="Bundled report out.")
def report_cmd(input_paths, output_path):
    """Bundle several reports into one."""
    entries = []
    for path in input_paths:
        obj = load_json(path)
        if not isinstance(obj, dict) or "results" not in obj or "command" not in obj:
            raise RelscaleError(f"{path}: not an analysis report")
        entries.append({"command": obj["command"], "results": obj["results"]})
    _write_report(output_path, input_paths, {"bundle": entries})
    click.echo(f"bundled {len(entries)} reports -> {output_path}")


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Report JSON to plot.")
@click.option("--output", "output_path", type=PATH, required=True,
              help="Output base path (suffixes .svg/.csv are added).")
def plot(input_path, output_path):
    """Render a report as a static SVG figure and a CSV table."""
    report_obj = load_json(input_path)
    if not isinstance(report_obj, dict) or "results" not in report_obj:
        raise RelscaleError(f"{input_path}: not an analysis report")
    try:
        slot = next((s for s in SLOT_TYPES if s in report_obj["results"]), None)
        if slot is None:
            raise RelscaleError(f"report contains no plottable results "
                                f"(expected {'/'.join(SLOT_TYPES)})")
        series = _load_result(report_obj, slot, input_path).figure()
    except (KeyError, TypeError, ValueError) as exc:
        raise RelscaleError(f"{input_path}: malformed report results ({exc})") from exc
    written = plotting.emit_plot(series, output_path)
    for kind, path in written.items():
        click.echo(f"wrote {kind}: {path}")


if __name__ == "__main__":
    main()
