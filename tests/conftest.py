import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, settings

import relscale
from relscale import RunRecord, RunSet, SigmoidCalibration
from relscale.cli import main

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    # A failure prints the @reproduce_failure blob that replays it.
    print_blob=True,
)
settings.load_profile("default")


def pytest_runtest_logreport(report):
    # One pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {status}")


def run_python(*args, env=None, cwd=None, check=True):
    """``python *args`` in a fresh interpreter that imports this checkout's
    ``relscale`` and raises numpy's RuntimeWarnings as errors. ``env``
    replaces this process's environment; output is captured as text, and
    ``check`` asserts exit 0."""
    env = {**(os.environ if env is None else env),
           "PYTHONPATH": str(Path(relscale.__file__).parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    result = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                            text=True, timeout=60)
    if check:
        assert result.returncode == 0, result.stderr
    return result


def run_relscale(*args, **kwargs):
    """The program, ``python -m relscale.cli *args``, which runs ``cli.run``,
    through :func:`run_python`."""
    return run_python("-m", "relscale.cli", *args, **kwargs)


def assert_same_text(got, want):
    """Fail at the first offset where two texts differ, showing 40 characters
    of each on either side. pytest's rewritten assert would diff the whole
    texts, which takes minutes on texts tens of KB long."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        pytest.fail(f"texts differ at offset {at} (lengths {len(got)} and {len(want)}): "
                    f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


def assert_canonical(paths):
    """Each JSON file in ``paths``, of which there is at least one, is the
    text ``json.dumps`` writes for it with sorted keys and a two-space indent."""
    paths = list(paths)
    assert paths
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        assert_same_text(text, json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")


def make_run(run_id, flops, tokens, metrics, source="internal", dataset="d", params=None):
    """A consistent internal record: params derived from flops = 6*N*T."""
    if params is None:
        params = max(1, round(flops / (6 * tokens)))
    return RunRecord(
        run_id=run_id,
        source=source,
        dataset=dataset,
        flops=float(flops),
        params=params,
        tokens=tokens,
        metrics=metrics,
    )


def narrow_span_points(seed):
    """8 (scale, error) points of 3 F^-0.1 under 1% log noise over 1e18-1.0195e18:
    the span is so narrow that a fitted line's intercept can leave the float range."""
    rng = np.random.default_rng(seed)
    scales = np.geomspace(1e18, 1.0195e18, 8)
    errors = 3.0 * scales**-0.1 * np.exp(rng.normal(0.0, 0.01, 8))
    return list(zip(scales.tolist(), errors.tolist()))


def run_forecast(tmp_path, law, cal, scales):
    """The (scale, loss, accuracy) predictions of the ``forecast`` command run
    on reports holding ``law`` and ``cal``."""
    law_path, cal_path, out = (tmp_path / n for n in ("law.json", "cal.json", "forecast.json"))
    law_path.write_text(json.dumps({"results": {"fit": law.to_dict()}}))
    cal_path.write_text(json.dumps({"results": {"calibration": cal.to_dict()}}))
    result = CliRunner().invoke(main, [
        "forecast", "--input", str(law_path), "--calibration", str(cal_path),
        "--scales", ",".join(map(repr, scales)), "--output", str(out)])
    assert result.exit_code == 0, result.output
    return json.loads(out.read_text())["results"]["forecast"]["predictions"]


@pytest.fixture
def write_jsonl(tmp_path):
    def _write(rows, name="runs.jsonl"):
        path = tmp_path / name
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return path

    return _write


@pytest.fixture
def constant_ratio_runs():
    """Treatment error is exactly 0.8x the baseline on every run. Each budget
    has three token counts, half, once and twice 10^(7+i), on a parabola in
    log tokens whose vertex is the middle run, so both frontiers keep every
    budget and their ratio is 0.8 to rounding."""
    records = []
    for i, flops in enumerate([1e18, 3e18, 1e19, 3e19, 1e20]):
        middle = 10 ** (7 + i)
        for j, tokens in enumerate((middle // 2, middle, 2 * middle)):
            base = 3.0 * flops**-0.1 * (1.0 + 0.05 * math.log10(tokens / middle) ** 2)
            records.append(make_run(f"r{i}-{j}", flops, tokens,
                                    {"bpb/treat": 0.8 * base, "bpb/base": base}))
    return RunSet(tuple(records))


@pytest.fixture(scope="session")
def kind_reports(tmp_path_factory):
    """One report of every plottable kind, built through the CLI once per
    session; the tests that read it leave it as built."""
    tmp = tmp_path_factory.mktemp("kinds")
    cli = CliRunner()

    def run(*args):
        result = cli.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output

    spec = tmp / "spec.json"
    spec.write_text(json.dumps({
        "budgets": [1e18, 1e19, 1e20, 1e21],
        "subgroups": [
            {"name": "bpb/t", "alpha": 3.9, "beta": 0.12},
            {"name": "bpb/b", "alpha": 3.0, "beta": 0.10},
        ],
        "widths_per_budget": 7,
        "noise_sigma": 0.005,
        "curvature": 0.05,
        "seed": 11,
    }))
    runs = tmp / "runs.jsonl"
    run("simulate", "--spec", spec, "--output", runs)
    run("frontier", "--input", runs, "--metric", "bpb/b", "--output", tmp / "frontier.json")
    for name, extra in [("power", []), ("huber", ["--estimator", "huber"]),
                        ("loglinear", ["--family", "loglinear"]),
                        ("power-floor", ["--family", "power-floor"])]:
        run("fit", "--input", tmp / "frontier.json", "--output", tmp / f"{name}.json", *extra)
    for mode in ("ratio", "difference"):
        run("relfit", "--input", runs, "--metric", "bpb/t", "--baseline", "bpb/b",
            "--mode", mode, "--resamples", "200", "--output", tmp / f"relative-{mode}.json")

    truth = SigmoidCalibration(floor=0.25, ceiling=0.9, steepness=3.0, midpoint=1.8,
                               rmse=0.0, n=9)
    rng = np.random.default_rng(5)
    rows = []
    for i, loss in enumerate(np.linspace(0.9, 2.7, 9)):
        acc = float(truth.predict(loss)) + float(rng.normal(0.0, 0.01))
        rows.append({"run_id": f"ext{i}", "source": "external", "dataset": "d",
                     "flops": 1e21, "params": 8_000_000_000, "tokens": 15_000_000_000,
                     "metrics": {"loss/task": float(loss), "acc/task": acc}})
    cal_runs = tmp / "external.jsonl"
    cal_runs.write_text("".join(json.dumps(r) + "\n" for r in rows))
    run("calibrate", "--input", cal_runs, "--metric", "loss/task", "--accuracy-key",
        "acc/task", "--floor", "0.25", "--output", tmp / "sigmoid.json")
    run("calibrate", "--input", cal_runs, "--metric", "loss/task", "--accuracy-key",
        "acc/task", "--family", "linear", "--output", tmp / "linear.json")
    run("forecast", "--input", tmp / "power.json", "--calibration", tmp / "sigmoid.json",
        "--scales", "1e19,1e21,1e23", "--output", tmp / "forecast.json")

    slopes = tmp / "slopes.json"
    slopes.write_text(json.dumps({"a": -0.5, "b": -0.1, "c": 0.2, "d": 0.9, "e": 0.4}))
    cov = tmp / "cov.json"
    cov.write_text(json.dumps({"a": 10.0, "b": 300.0, "c": 1000.0, "d": 1e5, "e": 2e4}))
    run("correlate", "--input", slopes, "--covariate", cov, "--output", tmp / "correlation.json")
    return tmp
