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
replays. A run log's digest is the one ingest took of the bytes it parsed.
A report slot is its result's ``to_dict()``, and ``plot`` draws it through
the result's ``figure()``. ``simulate`` serves both forms of synthetic spec
through ``synthlab.generate`` and ``known_truth``, and ``forecast`` chains
the law's ``predict`` with the calibration's. Every resampled value is
fixed by the inputs and ``--seed``. ``relfit`` and ``correlate`` still
accept a hidden ``--workers N`` for old scripts; it has no effect.

Every relscale module is imported here, but numpy is bound lazily (see
``ioutil.lazy_module``) and loads at a command's first array operation:
``--version``, ``plan``, ``ingest``, ``crossover``, ``report`` and ``plot``
of a frontier report run without it.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import replace

import click
from click.core import ParameterSource

from . import __version__, calibration, frontier, lawfit, planner, plotting, store, synthlab
from .errors import RelscaleError
from .ioutil import atomic_write_text, dump_json, finite_float, load_json, sha256_file


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
#: for a slot to draw; a forecast has no result type.
SLOT_TYPES = {
    "frontier": (frontier.FrontierSeries,),
    "fit": (lawfit.PowerLawFit, lawfit.PowerLawFloorFit, lawfit.LogLinearFit),
    "relative_fit": (lawfit.RelativeFit,),
    "calibration": (calibration.SigmoidCalibration, calibration.LinearCalibration),
    "forecast": (),
    "correlation": (lawfit.CorrelationResult,),
}


def _load_result(report_obj: dict, key: str, path, *types):
    """Rebuild ``results[key]`` of a report as a result of one of ``types``.

    A payload without a ``kind`` tag is taken to be of the first type.
    """
    try:
        obj = report_obj["results"][key]
    except (KeyError, TypeError):
        raise RelscaleError(f"{path}: not a report containing results[{key!r}]") from None
    by_kind = {cls.kind: cls for cls in types}
    kind = obj.get("kind", types[0].kind) if isinstance(obj, dict) else None
    if kind not in by_kind:
        expected = " or ".join(repr(k) for k in by_kind)
        raise RelscaleError(f"{path}: results[{key!r}] is {kind!r}, expected {expected}")
    try:
        return by_kind[kind].from_dict(obj)
    except (KeyError, TypeError, RelscaleError) as exc:
        raise RelscaleError(f"{path}: malformed {kind!r} result ({exc})") from exc


def _parse_floats(text: str, flag: str, count: int | None = None) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise RelscaleError(f"{flag}: could not parse {text!r} as numbers") from exc
    if not values:
        raise RelscaleError(f"{flag}: no values given")
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


@main.command()
@click.option("--budgets", required=True, help="Comma-separated FLOP budgets.")
@click.option("--config", "config_path", type=PATH, default=None, help="Sweep policy JSON.")
@click.option("--output", "output_path", type=PATH, required=True, help="Plans JSONL out.")
def plan(budgets, config_path, output_path):
    """Emit one training plan per (budget, width), as JSONL."""
    policy = planner.SweepPolicy.from_file(config_path) if config_path else None
    plans = planner.plan_sweep(_parse_floats(budgets, "--budgets"), policy)
    text = "".join(json.dumps(p.to_dict(), sort_keys=True) + "\n" for p in plans)
    atomic_write_text(output_path, text)
    click.echo(f"wrote {len(plans)} plans to {output_path}")


@main.command()
@click.option("--spec", "spec_path", type=PATH, required=True, help="Synthetic spec JSON.")
@click.option("--output", "output_path", type=PATH, required=True, help="Runs JSONL out.")
@click.option("--truth", "truth_path", type=PATH, default=None, help="Ground-truth JSON out.")
@click.option("--seed", default=None, type=int, help="Override the generator seed.")
def simulate(spec_path, output_path, truth_path, seed):
    """Generate a synthetic sweep with known ground truth."""
    obj = load_json(spec_path)
    if not isinstance(obj, dict):
        raise RelscaleError(f"{spec_path}: synthetic spec must be a JSON object")
    if seed is not None:
        obj["seed"] = seed
    spec = synthlab.SyntheticSpec.from_dict(obj)
    runs = synthlab.generate(spec)
    store.emit_runs(runs, output_path, fmt="jsonl")
    if truth_path:
        atomic_write_text(truth_path, dump_json(synthlab.known_truth(spec).to_dict()))
    click.echo(f"wrote {len(runs)} runs to {output_path}")


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Run log to validate.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default=None)
@click.option("--grouping", "grouping_path", type=PATH, default=None,
              help="Grouping spec JSON; aggregates per-item metrics into groups.")
@click.option("--metric-prefix", default=None,
              help="Metric prefix selecting the items to aggregate.")
@click.option("--output", "output_path", type=PATH, required=True, help="Normalized JSONL out.")
def ingest(input_path, fmt, grouping_path, metric_prefix, output_path):
    """Validate a run log and re-emit it normalized.

    With --grouping and --metric-prefix, per-item metrics are collapsed to
    per-group means before emission (e.g. behaviour probabilities into risk
    clusters).
    """
    runs = store.ingest_runs(input_path, fmt=fmt)
    if (grouping_path is None) != (metric_prefix is None):
        raise RelscaleError("--grouping and --metric-prefix must be given together")
    if grouping_path is not None:
        spec = store.GroupingSpec.from_file(grouping_path)
        runs = store.aggregate_by_group(runs, spec, metric_prefix)
    store.emit_runs(runs, output_path, fmt="jsonl")
    click.echo(f"validated {len(runs)} runs -> {output_path}")


@main.command(name="frontier")
@click.option("--input", "input_path", type=PATH, required=True, help="Run log JSONL/CSV.")
@click.option("--metric", required=True, help="Metric key to extract.")
@click.option("--axis", type=click.Choice(list(frontier.AXIS_LABELS)), default="flops")
@click.option("--tolerance", default=frontier.BUDGET_TOLERANCE, type=float,
              help="Budget bucketing rtol.")
@click.option("--fixed-value", default=None, type=float,
              help="Complementary axis value for tokens/params isolation series.")
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
    series = frontier.extract_frontier(
        runs,
        metric,
        scale_axis=axis,
        budget_tolerance=tolerance,
        fixed_axis_value=fixed_value,
        optimum=optimum,
    )
    _write_report(output_path, [(input_path, runs)], {"frontier": series.to_dict()},
                  series.warnings)
    if csv_path:
        lines = ["budget,optimal_tokens,optimal_metric\n"]
        for p in series.points:
            lines.append(f"{p.budget!r},{p.optimal_tokens!r},{p.optimal_metric!r}\n")
        atomic_write_text(csv_path, "".join(lines))
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
    series = _load_result(load_json(input_path), "frontier", input_path,
                          frontier.FrontierSeries)
    points = series.law_points()
    if family == "power":
        fit_obj = lawfit.fit_power_law(points, scale_axis=series.scale_axis,
                                       estimator=estimator)
    elif family == "loglinear":
        fit_obj = lawfit.fit_loglinear(points)
    else:
        fit_obj = lawfit.fit_power_law_floored(points, scale_axis=series.scale_axis)
    fit_obj = replace(fit_obj, metric_key=series.metric_key)
    _write_report(output_path, [input_path], {"fit": fit_obj.to_dict()})
    click.echo(f"fit ({family}) on {len(points)} points -> {output_path}")


@main.command()
@click.option("--input", "input_path", type=PATH, required=True, help="Run log JSONL/CSV.")
@click.option("--metric", required=True, help="Treatment metric key.")
@click.option("--baseline", required=True, help="Baseline metric key.")
@click.option("--mode", type=click.Choice(["ratio", "difference"]), default="ratio")
@click.option("--axis", type=click.Choice(list(frontier.AXIS_LABELS)), default="flops")
@click.option("--resamples", default=lawfit.RESAMPLES, type=int)
@click.option("--seed", default=0, type=int)
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
    runs = store.ingest_runs(input_path)
    warnings = ()
    if use_frontier:
        series_t = frontier.extract_frontier(runs, metric, budget_tolerance=tolerance)
        series_b = frontier.extract_frontier(runs, baseline, budget_tolerance=tolerance)
        warnings = tuple(f"{series.metric_key}: {w}"
                         for series in (series_t, series_b) for w in series.warnings)
        pairs = lawfit.pairs_from_frontiers(series_t, series_b)
    else:
        pairs = lawfit.pairs_from_runs(runs, metric, baseline, scale_axis=axis)
    fit_obj = lawfit.fit_relative(pairs, mode=mode, run_bootstrap=False)
    fit_obj = replace(fit_obj, treatment=metric, baseline=baseline, scale_axis=axis)
    # One slope vector gives both the CI and the --slopes-csv rows.
    if len(pairs) >= 3:
        slopes = lawfit.bootstrap_slopes(pairs, mode=mode, resamples=resamples, seed=seed)
        fit_obj = fit_obj.with_bootstrap(slopes)
    elif slopes_csv:
        raise RelscaleError("--slopes-csv needs at least 3 pairs to bootstrap")
    if slopes_csv:
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
    fit_a, fit_b = (
        _load_result(load_json(path), "relative_fit", path, lawfit.RelativeFit)
        for path in (input_path, other_path)
    )
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
@click.option("--seed", default=0, type=int)
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
@click.option("--input", "law_path", type=PATH, required=True, help="Power-law fit report.")
@click.option("--calibration", "cal_path", type=PATH, required=True, help="Calibration report.")
@click.option("--scales", required=True, help="Comma-separated scales to forecast at.")
@click.option("--output", "output_path", type=PATH, required=True, help="Report JSON out.")
def forecast(law_path, cal_path, scales, output_path):
    """Two-stage forecast: compute -> loss -> accuracy."""
    law = _load_result(load_json(law_path), "fit", law_path, lawfit.PowerLawFit)
    cal = _load_result(load_json(cal_path), "calibration", cal_path,
                       calibration.SigmoidCalibration)
    scale_values = _parse_floats(scales, "--scales")
    if min(scale_values) <= 0:
        raise RelscaleError("scale must be positive")
    predictions = []
    for scale in scale_values:
        loss = law.predict(scale)
        predictions.append([scale, loss, cal.predict(loss)])
    _write_report(output_path, [law_path, cal_path],
                  {"forecast": {"predictions": predictions, "law": law.to_dict(),
                                "calibration": cal.to_dict()}})
    click.echo(f"forecast at {len(scale_values)} scales -> {output_path}")


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
@click.option("--format", "formats", default="svg,csv",
              help="Comma-separated subset of svg,csv.")
def plot(input_path, output_path, formats):
    """Render a report as a static SVG figure and/or CSV table."""
    report_obj = load_json(input_path)
    if not isinstance(report_obj, dict) or "results" not in report_obj:
        raise RelscaleError(f"{input_path}: not an analysis report")
    results = report_obj["results"]
    try:
        slot = next((s for s in SLOT_TYPES if s in results), None)
        if slot is None:
            raise RelscaleError(f"report contains no plottable results "
                                f"(expected {'/'.join(SLOT_TYPES)})")
        if slot == "forecast":
            series = plotting.figure("forecast accuracy", "scale", "accuracy", "forecast",
                                     [(f, acc) for f, _, acc in results[slot]["predictions"]])
        else:
            series = _load_result(report_obj, slot, input_path, *SLOT_TYPES[slot]).figure()
    except (KeyError, TypeError, ValueError) as exc:
        raise RelscaleError(f"{input_path}: malformed report results ({exc})") from exc
    fmt_tuple = tuple(f.strip() for f in formats.split(",") if f.strip())
    written = plotting.emit_plot(series, output_path, formats=fmt_tuple)
    for kind, path in written.items():
        click.echo(f"wrote {kind}: {path}")


if __name__ == "__main__":
    main()
