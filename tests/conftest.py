import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, settings

from relscale import RunRecord, RunSet
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
    """Treatment error is exactly 0.8x the baseline at every scale."""
    records = []
    for i, flops in enumerate([1e18, 3e18, 1e19, 3e19, 1e20]):
        base = 3.0 * flops**-0.1
        records.append(
            make_run(
                f"r{i}",
                flops,
                tokens=10_000_000 * (i + 1),
                metrics={"bpb/treat": 0.8 * base, "bpb/base": base},
            )
        )
    return RunSet(tuple(records))
