import ast
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import relscale
from relscale import (
    LinearCalibration,
    LogLinearFit,
    PowerLawFit,
    RelativeFit,
    SigmoidCalibration,
)
from relscale.cli import SLOT_TYPES, main
from relscale import calibration, cli, frontier, ioutil, lawfit, store, synthlab
from relscale.lawfit import PowerLawFloorFit
from relscale.ioutil import dump_json
from relscale.store import runs_to_jsonl
from tests.conftest import make_run, narrow_span_points


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def constant_ratio_file(tmp_path, constant_ratio_runs):
    path = tmp_path / "runs.jsonl"
    path.write_text(runs_to_jsonl(constant_ratio_runs))
    return path


@pytest.fixture
def sweep_spec_file(tmp_path):
    spec = {
        "budgets": [1e18, 1e19, 1e20],
        "subgroups": [
            {"name": "bpb/t", "alpha": 3.9, "beta": 0.12},
            {"name": "bpb/b", "alpha": 3.0, "beta": 0.10},
        ],
        "widths_per_budget": 7,
        "noise_sigma": 0.0,
        "seed": 7,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, runner):
        result = runner.invoke(main, ["no-such-command"])
        assert result.exit_code == 2

    def test_unknown_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["plan", "--bogus", "1"])
        assert result.exit_code == 2

    def test_missing_input_file_exits_one_naming_path(self, runner, tmp_path):
        out = tmp_path / "out.json"
        result = runner.invoke(
            main,
            ["frontier", "--input", str(tmp_path / "absent.jsonl"),
             "--metric", "m", "--output", str(out)],
        )
        assert result.exit_code == 1
        assert "absent.jsonl" in result.output

    def test_validation_error_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"run_id": "x"}\n')
        result = runner.invoke(
            main,
            ["ingest", "--input", str(bad), "--output", str(tmp_path / "o.jsonl")],
        )
        assert result.exit_code == 1
        assert "line 1" in result.output


class TestPlan:
    def test_emits_jsonl_plans(self, runner, tmp_path):
        out = tmp_path / "plans.jsonl"
        result = invoke(
            runner, ["plan", "--budgets", "1e18,1e19", "--output", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 29 + 15  # fine grid at 1e18, coarse at 1e19
        plan = json.loads(lines[0])
        assert plan["batch"] & (plan["batch"] - 1) == 0
        assert plan["lr"] <= 0.01
        assert plan["shape"]["ffn_dim"] == 4 * plan["shape"]["width"]

    def test_policy_config(self, runner, tmp_path):
        config = tmp_path / "policy.json"
        config.write_text(json.dumps({"width_min": 512, "width_max": 1024}))
        out = tmp_path / "plans.jsonl"
        invoke(runner, ["plan", "--budgets", "1e18", "--config", str(config),
                        "--output", str(out)])
        assert len(out.read_text().splitlines()) == 5


class TestPipeline:
    def test_simulate_truth_writes_subgroup_numbers_as_floats(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"budgets": [1e18, 1e19, 1e20],
                                    "subgroups": [{"name": "a", "alpha": 12, "beta": 0}]}))
        truth = tmp_path / "truth.json"
        invoke(runner, ["simulate", "--spec", str(spec), "--output", str(tmp_path / "r.jsonl"),
                        "--truth", str(truth)])
        assert json.loads(truth.read_text())["absolute"]["a"] == [12.0, 0.0]
        assert "12.0" in truth.read_text()

    def test_simulate_frontier_fit_forecast(self, runner, tmp_path, sweep_spec_file):
        runs = tmp_path / "runs.jsonl"
        truth = tmp_path / "truth.json"
        result = invoke(
            runner,
            ["simulate", "--spec", str(sweep_spec_file), "--output", str(runs),
             "--truth", str(truth)],
        )
        assert result.exit_code == 0
        assert len(runs.read_text().splitlines()) == 21
        truth_obj = json.loads(truth.read_text())
        assert truth_obj["absolute"]["bpb/b"] == [3.0, 0.10]

        frontier_report = tmp_path / "frontier.json"
        frontier_csv = tmp_path / "frontier.csv"
        result = invoke(
            runner,
            ["frontier", "--input", str(runs), "--metric", "bpb/b",
             "--output", str(frontier_report), "--csv", str(frontier_csv)],
        )
        assert result.exit_code == 0
        report = json.loads(frontier_report.read_text())
        assert len(report["results"]["frontier"]["points"]) == 3
        assert report["input_digests"][0]["path"] == str(runs)

        fit_report = tmp_path / "fit.json"
        result = invoke(
            runner,
            ["fit", "--input", str(frontier_report), "--output", str(fit_report)],
        )
        assert result.exit_code == 0
        fit_obj = json.loads(fit_report.read_text())["results"]["fit"]
        assert fit_obj["alpha"] == pytest.approx(3.0, rel=1e-6)
        assert fit_obj["beta"] == pytest.approx(0.10, rel=1e-6)

        # Calibration data: external models with paired loss/accuracy.
        cal_truth = SigmoidCalibration(
            floor=0.25, ceiling=1.0, steepness=3.0, midpoint=1.8, rmse=0.0, n=8
        )
        rows = []
        for i, loss in enumerate(np.linspace(0.9, 2.7, 8)):
            rows.append(
                {
                    "run_id": f"ext{i}",
                    "source": "external",
                    "dataset": "open-weights",
                    "flops": 1e21,
                    "params": 8_000_000_000,
                    "tokens": 15_000_000_000,
                    "metrics": {
                        "loss/task": float(loss),
                        "acc/task": float(cal_truth.predict(loss)),
                    },
                }
            )
        cal_runs = tmp_path / "external.jsonl"
        cal_runs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        cal_report = tmp_path / "cal.json"
        result = invoke(
            runner,
            ["calibrate", "--input", str(cal_runs), "--metric", "loss/task",
             "--accuracy-key", "acc/task", "--floor", "0.25",
             "--output", str(cal_report)],
        )
        assert result.exit_code == 0

        forecast_report = tmp_path / "forecast.json"
        result = invoke(
            runner,
            ["forecast", "--input", str(fit_report), "--calibration",
             str(cal_report), "--scales", "1e19,1e21", "--output",
             str(forecast_report)],
        )
        assert result.exit_code == 0
        predictions = json.loads(forecast_report.read_text())["results"]["forecast"][
            "predictions"
        ]
        assert len(predictions) == 2
        scale, loss, acc = predictions[0]
        assert loss == pytest.approx(3.0 * 1e19**-0.1, rel=1e-5)
        assert 0.25 <= acc <= 1.0

    def test_relfit_constant_ratio_fixture(self, runner, tmp_path, constant_ratio_file):
        out = tmp_path / "rel.json"
        result = invoke(
            runner,
            ["relfit", "--input", str(constant_ratio_file), "--metric", "bpb/treat",
             "--baseline", "bpb/base", "--output", str(out), "--seed", "1"],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        obj = report["results"]["relative_fit"]
        assert obj["gamma"] == pytest.approx(0.8, rel=1e-9)
        assert obj["delta_beta"] == pytest.approx(0.0, abs=1e-9)
        assert obj["mode"] == "ratio"
        assert obj["n_pairs"] == 5
        # Every ratio is 0.8 up to rounding: the slope has no sign to test.
        assert (obj["p_sign"], obj["ci_low"], obj["ci_high"]) == (None, None, None)
        assert report["warnings"] == [
            "every pair's log ratio is the same to within rounding, so delta_beta has no "
            "sign: p_sign and the CI are null"]

    def test_relfit_slopes_csv_export(self, runner, tmp_path, constant_ratio_file):
        out = tmp_path / "rel.json"
        slopes_csv = tmp_path / "slopes.csv"
        result = invoke(
            runner,
            ["relfit", "--input", str(constant_ratio_file), "--metric", "bpb/treat",
             "--baseline", "bpb/base", "--resamples", "250", "--seed", "3",
             "--slopes-csv", str(slopes_csv), "--output", str(out)],
        )
        assert result.exit_code == 0
        lines = slopes_csv.read_text().splitlines()
        assert lines[0] == "resample,slope"
        assert len(lines) == 251
        values = [float(line.split(",")[1]) for line in lines[1:]]
        # Constant-ratio fixture: every resample slope collapses to ~0.
        assert max(abs(v) for v in values) <= 1e-9

    def test_relfit_slopes_csv_reproduces_report(self, runner, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "budgets": [1e18, 1e19, 1e20],
            "subgroups": [{"name": "t", "alpha": 3.0, "beta": 0.102},
                          {"name": "b", "alpha": 3.0, "beta": 0.10}],
            "noise_sigma": 0.05,
            "seed": 4,
        }))
        runs = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(spec), "--output", str(runs)])
        calls = []
        bootstrap_slopes = lawfit.bootstrap_slopes
        monkeypatch.setattr(lawfit, "bootstrap_slopes",
                            lambda *a, **k: calls.append(1) or bootstrap_slopes(*a, **k))
        out, slopes_csv = tmp_path / "rel.json", tmp_path / "slopes.csv"
        invoke(runner, ["relfit", "--input", str(runs), "--metric", "t", "--baseline", "b",
                        "--resamples", "400", "--seed", "9", "--slopes-csv", str(slopes_csv),
                        "--output", str(out)])
        assert len(calls) == 1
        obj = json.loads(out.read_text())["results"]["relative_fit"]
        with open(slopes_csv, newline="") as fh:
            slopes = np.array([float(row["slope"]) for row in csv.DictReader(fh)])
        assert len(slopes) == 400
        low, high = np.percentile(slopes, [2.5, 97.5])
        assert obj["ci_low"] == min(float(low), obj["delta_beta"])
        assert obj["ci_high"] == max(float(high), obj["delta_beta"])
        p_sign = 2.0 * min(float(np.mean(slopes <= 0.0)), float(np.mean(slopes >= 0.0)))
        assert 0.05 < obj["p_sign"] == max(p_sign, 2.0 / 400) < 1.0

    def test_relfit_frontier_route(self, runner, tmp_path, sweep_spec_file):
        runs = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(sweep_spec_file),
                        "--output", str(runs)])
        out = tmp_path / "rel.json"
        result = invoke(
            runner,
            ["relfit", "--input", str(runs), "--metric", "bpb/t", "--baseline",
             "bpb/b", "--frontier", "--output", str(out)],
        )
        assert result.exit_code == 0
        obj = json.loads(out.read_text())["results"]["relative_fit"]
        assert obj["gamma"] == pytest.approx(1.3, rel=1e-6)
        assert obj["delta_beta"] == pytest.approx(-0.02, abs=1e-6)

    def test_crossover_command(self, runner, tmp_path, constant_ratio_file):
        # Build two relative-fit reports with different slopes via fixtures.
        rel_a = tmp_path / "rel_a.json"
        invoke(runner, ["relfit", "--input", str(constant_ratio_file),
                        "--metric", "bpb/treat", "--baseline", "bpb/base",
                        "--output", str(rel_a)])
        obj = json.loads(rel_a.read_text())
        obj["results"]["relative_fit"]["gamma"] = 0.9
        obj["results"]["relative_fit"]["delta_beta"] = 0.02
        rel_a.write_text(json.dumps(obj))
        rel_b = tmp_path / "rel_b.json"
        obj["results"]["relative_fit"]["gamma"] = 0.8
        obj["results"]["relative_fit"]["delta_beta"] = 0.05
        rel_b.write_text(json.dumps(obj))
        out = tmp_path / "cross.json"
        result = invoke(
            runner,
            ["crossover", "--input", str(rel_a), "--other", str(rel_b),
             "--span", "1,1000", "--output", str(out)],
        )
        assert result.exit_code == 0
        cross = json.loads(out.read_text())["results"]["crossover"]
        assert cross["f_star"] == pytest.approx(50.7, abs=0.1)
        assert cross["in_range"] is True

    def test_relfit_records_its_scale_axis(self, runner, tmp_path, constant_ratio_runs,
                                           constant_ratio_file):
        # A tokens-axis fit needs runs of one model size.
        fixed_size = tmp_path / "fixed_size.jsonl"
        fixed_size.write_text(runs_to_jsonl(store.RunSet(tuple(
            make_run(r.run_id, 6 * 10**8 * r.tokens, r.tokens, r.metrics, params=10**8)
            for r in constant_ratio_runs))))
        logs = {"flops": constant_ratio_file, "tokens": fixed_size}
        reports = {}
        for axis in ("flops", "tokens"):
            reports[axis] = tmp_path / f"rel_{axis}.json"
            invoke(runner, ["relfit", "--input", str(logs[axis]), "--metric",
                            "bpb/treat", "--baseline", "bpb/base", "--axis", axis,
                            "--output", str(reports[axis])])
            slot = json.loads(reports[axis].read_text())["results"]["relative_fit"]
            assert slot["scale_axis"] == axis
            invoke(runner, ["plot", "--input", str(reports[axis]),
                            "--output", str(tmp_path / f"plot_{axis}")])
        svg = (tmp_path / "plot_tokens.svg").read_text()
        assert "training tokens" in svg and "training FLOPs" not in svg
        result = runner.invoke(main, ["crossover", "--input", str(reports["tokens"]),
                                      "--other", str(reports["flops"]), "--span", "1,1e30",
                                      "--output", str(tmp_path / "cross.json")])
        assert result.exit_code == 1
        assert "one scale axis, got 'tokens' and 'flops'" in result.output
        assert not (tmp_path / "cross.json").exists()

    def test_one_size_log_needs_no_fixed_value(self, runner, tmp_path):
        spec = tmp_path / "mixture.json"
        spec.write_text(json.dumps({
            "budgets": [1e18],
            "subgroups": [{"name": f"g{q}", "data_share": q, "transfer": 0.3,
                           "exponent": 0.25, "scale": 2.0} for q in (0.3, 0.1)],
            "total_tokens_schedule": [1e9, 3e9, 1e10, 3e10, 1e11],
        }))
        runs = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(spec), "--output", str(runs)])
        for name, fixed in (("named", ["--fixed-value", "40000000"]), ("found", [])):
            result = invoke(runner, ["frontier", "--input", str(runs), "--metric", "g0.1",
                                     "--axis", "tokens", *fixed,
                                     "--output", str(tmp_path / f"{name}.json"),
                                     "--csv", str(tmp_path / f"{name}.csv")])
            assert result.exit_code == 0, result.output
        assert (tmp_path / "found.csv").read_bytes() == (tmp_path / "named.csv").read_bytes()
        named, found = (json.loads((tmp_path / f"{name}.json").read_text())["results"]
                        for name in ("named", "found"))
        assert found == named and len(found["frontier"]["points"]) == 5

    @staticmethod
    def one_size_log(path, tokens, extra=()):
        """Internal runs of one model size on a planted delta_beta of -0.02
        (metric t against b), plus the runs in ``extra``."""
        path.write_text(runs_to_jsonl(store.RunSet((*(
            make_run(f"r{i}", 6e8 * t, t, {"t": 3.9 * t**-0.12, "b": 3.0 * t**-0.10},
                     params=10**8)
            for i, t in enumerate(tokens)), *extra))))

    def test_relfit_pairs_the_series_frontier_writes(self, runner, tmp_path):
        # An external run at the fixed size enters neither series.
        log = tmp_path / "runs.jsonl"
        self.one_size_log(log, (10**9, 10**10, 10**11), [make_run(
            "ext", 6e8 * 3e9, 3 * 10**9, {"t": 0.5, "b": 3.0}, source="external",
            params=10**8)])
        rows = {}
        for metric in ("t", "b"):
            csv = tmp_path / f"{metric}.csv"
            invoke(runner, ["frontier", "--input", str(log), "--metric", metric, "--axis",
                            "tokens", "--output", str(tmp_path / f"{metric}.json"),
                            "--csv", str(csv)])
            rows[metric] = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        out = tmp_path / "rel.json"
        invoke(runner, ["relfit", "--input", str(log), "--metric", "t", "--baseline", "b",
                        "--axis", "tokens", "--output", str(out)])
        fit = json.loads(out.read_text())["results"]["relative_fit"]
        assert [t[0] for t in rows["t"]] == [b[0] for b in rows["b"]]
        assert fit["pairs"] == [[float(t[0]), float(t[2]), float(b[2])]
                                for t, b in zip(rows["t"], rows["b"])]
        assert fit["n_pairs"] == 3
        assert fit["delta_beta"] == pytest.approx(-0.02, abs=1e-9)

    def test_a_repeated_token_count_is_refused_by_both_commands(self, runner, tmp_path):
        log = tmp_path / "runs.jsonl"
        self.one_size_log(log, (10**9, 10**10, 10**10))
        frontier_run = runner.invoke(main, [
            "frontier", "--input", str(log), "--metric", "t", "--axis", "tokens",
            "--output", str(tmp_path / "frontier.json")])
        relfit_run = runner.invoke(main, [
            "relfit", "--input", str(log), "--metric", "t", "--baseline", "b", "--axis",
            "tokens", "--output", str(tmp_path / "rel.json")])
        _assert_error_line(frontier_run, "frontier tokens values must be strictly increasing")
        assert relfit_run.exit_code == 1 and relfit_run.stderr == frontier_run.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl"]

    def test_relative_fit_report_without_scale_axis_reads_as_flops(
            self, runner, tmp_path, constant_ratio_file):
        rel = tmp_path / "rel.json"
        invoke(runner, ["relfit", "--input", str(constant_ratio_file),
                        "--metric", "bpb/treat", "--baseline", "bpb/base",
                        "--output", str(rel)])
        obj = json.loads(rel.read_text())
        del obj["results"]["relative_fit"]["scale_axis"]
        rel.write_text(json.dumps(obj))
        invoke(runner, ["plot", "--input", str(rel), "--output", str(tmp_path / "p")])
        assert "training FLOPs" in (tmp_path / "p.svg").read_text()

    def test_correlate_command(self, runner, tmp_path):
        slopes = tmp_path / "slopes.json"
        slopes.write_text(json.dumps({"a": -0.5, "b": -0.1, "c": 0.2, "d": 0.9}))
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"a": 10.0, "b": 100.0, "c": 1000.0, "d": 10000.0}))
        out = tmp_path / "corr.json"
        result = invoke(
            runner,
            ["correlate", "--input", str(slopes), "--covariate", str(cov),
             "--output", str(out)],
        )
        assert result.exit_code == 0
        corr = json.loads(out.read_text())["results"]["correlation"]
        assert corr["n"] == 4
        assert 0 < corr["p_value"] <= 1

    def test_ingest_roundtrip(self, runner, tmp_path, constant_ratio_file):
        out = tmp_path / "normalized.jsonl"
        result = invoke(
            runner,
            ["ingest", "--input", str(constant_ratio_file), "--output", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text() == constant_ratio_file.read_text()

    def test_ingest_with_grouping(self, runner, tmp_path):
        rows = [
            {
                "run_id": "r0", "source": "external", "dataset": "d",
                "flops": 1e18, "params": 10**8, "tokens": 10**9,
                "metrics": {"prob/x": 0.4, "prob/y": 0.6, "prob/solo": 0.9},
            }
        ]
        runs_path = tmp_path / "runs.jsonl"
        runs_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        grouping = tmp_path / "groups.json"
        grouping.write_text(
            json.dumps({"name": "g", "mapping": {"x": "pair", "y": "pair",
                                                 "solo": "single"}})
        )
        out = tmp_path / "grouped.jsonl"
        result = invoke(
            runner,
            ["ingest", "--input", str(runs_path), "--grouping", str(grouping),
             "--metric-prefix", "prob/", "--output", str(out)],
        )
        assert result.exit_code == 0
        record = json.loads(out.read_text())
        assert record["metrics"] == {"pair": 0.5, "single": 0.9}

    @pytest.mark.parametrize("given", [["--grouping", "{grouping}"],
                                       ["--metric-prefix", "bpb/"]],
                             ids=["grouping-only", "prefix-only"])
    def test_ingest_grouping_requires_prefix(self, runner, tmp_path, given):
        # A usage error, raised before the log is read: this log does not parse.
        grouping = tmp_path / "groups.json"
        grouping.write_text(json.dumps({"name": "g", "mapping": {"x": "g1"}}))
        log = tmp_path / "runs.jsonl"
        log.write_text("not a run log\n")
        result = runner.invoke(
            main,
            ["ingest", "--input", str(log), *[a.format(grouping=grouping) for a in given],
             "--output", str(tmp_path / "o.jsonl")],
        )
        assert result.exit_code == 2
        assert "--grouping and --metric-prefix must be given together" in result.stderr
        assert not (tmp_path / "o.jsonl").exists()


class TestPlot:
    def test_frontier_plot_csv_matches_report(self, runner, tmp_path, sweep_spec_file):
        runs = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(sweep_spec_file),
                        "--output", str(runs)])
        frontier_report = tmp_path / "frontier.json"
        invoke(runner, ["frontier", "--input", str(runs), "--metric", "bpb/b",
                        "--output", str(frontier_report)])
        base = tmp_path / "figure"
        result = invoke(
            runner, ["plot", "--input", str(frontier_report), "--output", str(base)]
        )
        assert result.exit_code == 0
        svg = (tmp_path / "figure.svg").read_text()
        assert svg.count("<polyline") == 1
        rows = list(csv.reader((tmp_path / "figure.csv").read_text().splitlines()))[1:]
        report_points = json.loads(frontier_report.read_text())["results"]["frontier"][
            "points"
        ]
        assert len(rows) == len(report_points)
        for row, point in zip(rows, report_points):
            assert float(row[1]) == point["budget"]
            assert float(row[2]) == point["optimal_metric"]

    def test_relfit_plot_has_parity_line(self, runner, tmp_path, constant_ratio_file):
        rel = tmp_path / "rel.json"
        invoke(runner, ["relfit", "--input", str(constant_ratio_file),
                        "--metric", "bpb/treat", "--baseline", "bpb/base",
                        "--output", str(rel)])
        base = tmp_path / "relplot"
        result = invoke(runner, ["plot", "--input", str(rel), "--output", str(base)])
        assert result.exit_code == 0
        assert 'stroke-dasharray="6 4"' in (tmp_path / "relplot.svg").read_text()

    def test_plot_identical_inputs_byte_identical(self, runner, tmp_path,
                                                  constant_ratio_file):
        rel = tmp_path / "rel.json"
        invoke(runner, ["relfit", "--input", str(constant_ratio_file),
                        "--metric", "bpb/treat", "--baseline", "bpb/base",
                        "--output", str(rel)])
        invoke(runner, ["plot", "--input", str(rel), "--output", str(tmp_path / "p1")])
        invoke(runner, ["plot", "--input", str(rel), "--output", str(tmp_path / "p2")])
        assert (tmp_path / "p1.svg").read_bytes() == (tmp_path / "p2.svg").read_bytes()

    def test_suffixes_are_appended_to_the_whole_name(self, runner, tmp_path,
                                                     constant_ratio_file):
        rel = tmp_path / "rel.json"
        invoke(runner, ["relfit", "--input", str(constant_ratio_file),
                        "--metric", "bpb/treat", "--baseline", "bpb/base",
                        "--output", str(rel)])
        for base in ("fig.a", "fig.b", "run.2024-10"):
            result = invoke(runner, ["plot", "--input", str(rel),
                                     "--output", str(tmp_path / base)])
            assert result.output.splitlines() == [
                f"wrote svg: {tmp_path / base}.svg", f"wrote csv: {tmp_path / base}.csv"]
        written = sorted(p.name for p in tmp_path.iterdir() if p.suffix in (".svg", ".csv"))
        assert written == ["fig.a.csv", "fig.a.svg", "fig.b.csv", "fig.b.svg",
                           "run.2024-10.csv", "run.2024-10.svg"]

    def test_unplottable_report_errors(self, runner, tmp_path):
        bogus = tmp_path / "r.json"
        bogus.write_text(json.dumps({"results": {"something": 1}}))
        result = runner.invoke(
            main, ["plot", "--input", str(bogus), "--output", str(tmp_path / "x")]
        )
        assert result.exit_code == 1


class TestReportBundle:
    def test_bundle_envelope(self, runner, tmp_path, constant_ratio_file):
        rel = tmp_path / "rel.json"
        invoke(runner, ["relfit", "--input", str(constant_ratio_file),
                        "--metric", "bpb/treat", "--baseline", "bpb/base",
                        "--output", str(rel)])
        bundle = tmp_path / "bundle.json"
        result = invoke(
            runner,
            ["report", "--input", str(rel), "--input", str(rel),
             "--output", str(bundle)],
        )
        assert result.exit_code == 0
        obj = json.loads(bundle.read_text())
        assert set(obj) == {"tool_version", "command", "input_digests", "results",
                            "warnings"}
        assert len(obj["results"]["bundle"]) == 2
        assert len(obj["input_digests"]) == 2


def _rebuild(cls, obj):
    """The result object a report payload describes, built from its fields."""
    return cls(**{f.name: obj[f.name] for f in dataclasses.fields(cls)})


@pytest.fixture(scope="module")
def kind_reports(tmp_path_factory):
    """One report of every plottable kind, built through the CLI."""
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


def _correlation_line(obj, xs):
    groups = sorted(obj["groups"], key=lambda g: g[2])
    x = np.log10([cov for _, _, cov in groups])
    y = np.asarray([slope for _, slope, _ in groups])
    slope = obj["regression_slope"]
    return float(y.mean() - slope * x.mean()) + slope * np.log10(xs)


class TestPlotEveryKind:
    @pytest.mark.parametrize("name, slot, expected, polylines", [
        ("power", "fit", PowerLawFit, 2),
        ("huber", "fit", PowerLawFit, 2),
        ("loglinear", "fit", LogLinearFit, 2),
        ("power-floor", "fit", PowerLawFloorFit, 2),
        ("relative-ratio", "relative_fit", RelativeFit, 2),
        ("relative-difference", "relative_fit", RelativeFit, 2),
        ("sigmoid", "calibration", SigmoidCalibration, 2),
        ("linear", "calibration", LinearCalibration, 2),
        ("forecast", "forecast", None, 1),
        ("correlation", "correlation", None, 2),
    ])
    def test_curve_rows_equal_result_predict(self, runner, tmp_path, kind_reports,
                                             name, slot, expected, polylines):
        base = tmp_path / name
        result = invoke(runner, ["plot", "--input", str(kind_reports / f"{name}.json"),
                                 "--output", str(base)])
        assert result.exit_code == 0
        assert base.with_suffix(".svg").read_text().count("<polyline") == polylines
        rows = list(csv.reader(base.with_suffix(".csv").read_text().splitlines()))[1:]
        fit_rows = [(float(x), float(y)) for label, x, y in rows if label.endswith(" (fit)")]
        obj = json.loads((kind_reports / f"{name}.json").read_text())["results"][slot]
        if name == "forecast":
            assert fit_rows == []
            assert [(x, y) for _, x, y in rows] == [
                (repr(scale), repr(acc)) for scale, _, acc in obj["predictions"]]
            return
        xs = np.array([x for x, _ in fit_rows])
        if expected is None:
            want = _correlation_line(obj, xs)
        else:
            want = _rebuild(expected, obj).predict(xs)
        assert len(fit_rows) in (32, 64)
        assert [y for _, y in fit_rows] == np.asarray(want).tolist()


def _tagged(obj):
    """Every object in ``obj``, itself included, that carries a ``kind`` tag."""
    if isinstance(obj, dict):
        if "kind" in obj:
            yield obj
        for value in obj.values():
            yield from _tagged(value)


#: Result types by the ``kind`` tag of their report payloads.
RESULT_TYPES = {cls.kind: cls for types in (*SLOT_TYPES.values(), (lawfit.CrossoverResult,))
                for cls in types}


class TestReportSlots:
    def test_every_slot_is_its_results_to_dict(self, kind_reports):
        # JSON writes the tuples a result holds as arrays, so compare as JSON.
        slots = [slot for path in sorted(kind_reports.glob("*.json"))
                 for slot in _tagged(json.loads(path.read_text()).get("results"))]
        assert len(slots) == 13
        for slot in slots:
            result = RESULT_TYPES[slot["kind"]].from_dict(slot)
            assert json.loads(dump_json(result.to_dict())) == slot

    def test_nested_copies_equal_their_source_slot(self, runner, tmp_path, kind_reports):
        def slot(path, *keys):
            obj = json.loads(path.read_text())["results"]
            for key in keys:
                obj = obj[key]
            return obj

        assert slot(kind_reports / "forecast.json", "forecast", "law") == slot(
            kind_reports / "power.json", "fit")
        assert slot(kind_reports / "forecast.json", "forecast", "calibration") == slot(
            kind_reports / "sigmoid.json", "calibration")
        flipped = tmp_path / "flipped.json"
        invoke(runner, ["relfit", "--input", str(kind_reports / "runs.jsonl"),
                        "--metric", "bpb/b", "--baseline", "bpb/t", "--resamples", "50",
                        "--output", str(flipped)])
        cross = tmp_path / "cross.json"
        invoke(runner, ["crossover", "--input", str(kind_reports / "relative-ratio.json"),
                        "--other", str(flipped), "--span", "1e18,1e21", "--output", str(cross)])
        assert slot(cross, "curve_a") == slot(kind_reports / "relative-ratio.json",
                                              "relative_fit")
        assert slot(cross, "curve_b") == slot(flipped, "relative_fit")

    def test_result_without_data_is_one_error_line(self, runner, tmp_path):
        report = tmp_path / "fit.json"
        fit = PowerLawFit(alpha=3.0, beta=0.1, r2=0.99, n=5)
        report.write_text(json.dumps({"results": {"fit": fit.to_dict()}}))
        result = runner.invoke(main, ["plot", "--input", str(report),
                                      "--output", str(tmp_path / "fig")])
        _assert_error_line(result, "has no points")

    def test_malformed_data_rows_name_the_file(self, runner, tmp_path, kind_reports):
        obj = json.loads((kind_reports / "relative-ratio.json").read_text())
        obj["results"]["relative_fit"]["pairs"][0] = [1e18, 0.5]
        report = tmp_path / "rel.json"
        report.write_text(json.dumps(obj))
        result = runner.invoke(main, ["plot", "--input", str(report),
                                      "--output", str(tmp_path / "fig")])
        _assert_error_line(result, str(report), "malformed report results")

    def test_nested_law_of_the_wrong_kind_names_the_file(self, runner, tmp_path, kind_reports):
        obj = json.loads((kind_reports / "forecast.json").read_text())
        obj["results"]["forecast"]["law"] = obj["results"]["forecast"]["calibration"]
        report = tmp_path / "forecast.json"
        report.write_text(json.dumps(obj))
        result = runner.invoke(main, ["plot", "--input", str(report),
                                      "--output", str(tmp_path / "fig")])
        _assert_error_line(result, str(report), "'sigmoid_calibration'",
                           "'power_law' or 'power_law_floored' or 'loglinear'")
        assert list(tmp_path.iterdir()) == [report]


class TestOneBuildOneExport:
    """``relscale`` exports every result type a report holds and every library
    function the CLI calls, and ``fit`` builds its law once."""

    def test_result_types_import_from_the_package(self):
        types = [cls for slot in SLOT_TYPES.values() for cls in slot] + [lawfit.CrossoverResult]
        assert lawfit.PowerLawFloorFit in types and calibration.Forecast in types
        for cls in types:
            assert getattr(relscale, cls.__name__, None) is cls, cls.__name__

    def test_functions_the_cli_calls_import_from_the_package(self):
        modules = {"calibration", "frontier", "lawfit", "planner", "plotting", "store",
                   "synthlab"}
        called = {(node.func.value.id, node.func.attr)
                  for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in modules and not node.func.attr.startswith("_")}
        assert {("lawfit", "fit_power_law_floored"), ("calibration", "forecast")} <= called
        for module, name in sorted(called):
            expected = getattr(sys.modules[f"relscale.{module}"], name)
            assert getattr(relscale, name, None) is expected, f"{module}.{name}"

    @pytest.mark.parametrize("options", [[], ["--estimator", "huber"],
                                         ["--family", "loglinear"], ["--family", "power-floor"]],
                             ids=["power", "huber", "loglinear", "power-floor"])
    def test_fit_builds_one_law(self, runner, tmp_path, kind_reports, monkeypatch, options):
        built = []

        def counting(cls):
            check = cls.__post_init__

            def post_init(self):
                if type(self) is cls:  # not the floored law's call of its base's rules
                    built.append(cls.kind)
                check(self)
            return post_init

        for cls in lawfit.ABSOLUTE_LAWS:
            monkeypatch.setattr(cls, "__post_init__", counting(cls))
        out = tmp_path / "fit.json"
        result = invoke(runner, ["fit", "--input", str(kind_reports / "frontier.json"),
                                 *options, "--output", str(out)])
        assert result.exit_code == 0, result.output
        law = json.loads(out.read_text())["results"]["fit"]
        assert built == [law["kind"]] and law["metric_key"] == "bpb/b"


def _rounded(obj):
    """``obj`` with every float to 10 significant digits, so a last-bit
    difference between numpy builds does not change a pinned digest."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


#: The file options of each report in ``kind_reports``, which its recorded
#: command leaves out.
REPORT_FILES = {
    "frontier": ["--input", "runs.jsonl"],
    "power": ["--input", "frontier.json"],
    "huber": ["--input", "frontier.json"],
    "loglinear": ["--input", "frontier.json"],
    "power-floor": ["--input", "frontier.json"],
    "relative-ratio": ["--input", "runs.jsonl"],
    "relative-difference": ["--input", "runs.jsonl"],
    "sigmoid": ["--input", "external.jsonl"],
    "linear": ["--input", "external.jsonl"],
    "forecast": ["--input", "power.json", "--calibration", "sigmoid.json"],
    "correlation": ["--input", "slopes.json", "--covariate", "cov.json"],
}


class TestRecordedCommands:
    """Each report's ``results`` are pinned, and its ``command`` reproduces them."""

    @pytest.mark.parametrize("name, sha", [
        ("frontier", "65bd0984e20eea7bd5b6ddaf993c4e0d192d8770e05caa21093d1fb02f811184"),
        ("power", "c501b5f879b27c7639141231d4c5602914f4e5b972de34cc6be6be5479866cd1"),
        ("huber", "85df3a064e0dfedccdc7f2e39836ba7c5db5ce8de7e75ef721fad82d4b57596e"),
        ("loglinear", "f3a575b8469b4d3b7a9e2745b4b8e73103168a75d11b239785e1fde3f9079a94"),
        ("power-floor", "e231274ec5bab171758a360f6bf6bc219763e87aa8ed5b77fb021e22511fc8c1"),
        ("relative-ratio", "f8cadf1e95bfaa61eb6518e2d5aa4c0d156de88c23b64dce746f0cd4f3817b69"),
        ("relative-difference",
         "a0b5f1546f52d05a6e7e37555bc564c1e504e812cf368895b2f8bc26707694ab"),
        ("sigmoid", "1c040d6831e212ac5c744e561d390318de4dba82319bb23bfaba2e3f39f72140"),
        ("linear", "5c541b849a578f68d6163e256f5e05d0d74604c49c543f9d5bcae40ada479ff7"),
        ("forecast", "89f9806dcc2f0ae0535e7f678118a3223720640dc7b2361823c30bd2f24fd621"),
        ("correlation", "27144856239650497cab897f586e7b6e1d607173daa4fc3b8dfdcb0727a2bea6"),
    ])
    def test_results_pinned(self, kind_reports, name, sha):
        results = json.loads((kind_reports / f"{name}.json").read_text())["results"]
        text = json.dumps(_rounded(results), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    @pytest.mark.parametrize("name", sorted(REPORT_FILES))
    def test_command_replays(self, runner, tmp_path, kind_reports, name):
        report = json.loads((kind_reports / f"{name}.json").read_text())
        files = [str(kind_reports / a) if a.endswith((".json", ".jsonl")) else a
                 for a in REPORT_FILES[name]]
        out = tmp_path / "replay.json"
        result = runner.invoke(main, [*report["command"].split(), *files,
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["results"] == report["results"]


def _jsonl(records) -> str:
    """The records as the text of a JSONL run log."""
    return runs_to_jsonl(store.RunSet(tuple(records)))


def _eval_log(*pairs) -> str:
    """A run log of external runs, one per (loss/task, acc/task) pair."""
    return _jsonl(make_run(f"e{i}", 1e21, 10**9, {"loss/task": loss, "acc/task": acc},
                           source="external", params=10**9)
                  for i, (loss, acc) in enumerate(pairs))


def _two_point_frontier(kind_reports) -> str:
    """The frontier report of ``kind_reports`` cut to its first two points."""
    report = json.loads((kind_reports / "frontier.json").read_text())
    del report["results"]["frontier"]["points"][2:]
    return json.dumps(report)


def _edited_report(name, slot, **changes):
    """Report ``name`` of ``kind_reports`` with ``changes`` made to its ``slot``."""
    def text(kind_reports):
        report = json.loads((kind_reports / name).read_text())
        report["results"][slot].update(changes)
        return json.dumps(report)
    return text


def _assert_error_line(result, *fragments):
    """Exit 1 with exactly one ``error:`` line on stderr naming each fragment."""
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    for fragment in fragments:
        assert fragment in lines[0]


class TestBadArguments:
    @pytest.mark.parametrize("command, options, flag", [
        ("frontier", ["--metric", "bpb/base", "--fixed-value", "12345"], "--fixed-value"),
        ("frontier", ["--metric", "bpb/base", "--axis", "flops", "--fixed-value", "1e9"],
         "--fixed-value"),
        ("relfit", ["--metric", "bpb/treat", "--baseline", "bpb/base", "--frontier",
                    "--axis", "tokens"], "--axis"),
        ("relfit", ["--metric", "bpb/treat", "--baseline", "bpb/base", "--tolerance", "0.5"],
         "--tolerance"),
        # Passing the default value explicitly is still passing it.
        ("relfit", ["--metric", "bpb/treat", "--baseline", "bpb/base", "--tolerance", "0.05"],
         "--tolerance"),
    ])
    def test_ignored_option_is_a_usage_error(self, runner, tmp_path, constant_ratio_file,
                                             command, options, flag):
        out = tmp_path / "o.json"
        result = runner.invoke(main, [command, "--input", str(constant_ratio_file), *options,
                                      "--output", str(out)])
        assert result.exit_code == 2
        assert flag in result.stderr and "Error:" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["fit", "--input", "{kinds}/frontier.json", "--family", "loglinear",
          "--estimator", "huber"], "--estimator"),
        (["fit", "--input", "{kinds}/frontier.json", "--family", "power-floor",
          "--estimator", "ols"], "--estimator"),
        (["calibrate", "--input", "{kinds}/external.jsonl", "--metric", "loss/task",
          "--accuracy-key", "acc/task", "--family", "linear", "--floor", "0.25"], "--floor"),
        (["frontier", "--input", "{ratio}", "--metric", "bpb/base", "--axis", "tokens",
          "--fixed-value", "16666666667", "--tolerance", "0.5"], "--tolerance"),
        (["frontier", "--input", "{ratio}", "--metric", "bpb/base", "--axis", "params",
          "--fixed-value", "1e7", "--tolerance", "0.05"], "--tolerance"),
        (["frontier", "--input", "{ratio}", "--metric", "bpb/base", "--axis", "params",
          "--fixed-value", "1e7", "--optimum", "observed"], "--optimum"),
        (["frontier", "--input", "{ratio}", "--metric", "bpb/base", "--axis", "tokens",
          "--fixed-value", "16666666667", "--optimum", "vertex"], "--optimum"),
    ])
    def test_option_the_chosen_form_ignores_is_a_usage_error(
            self, runner, tmp_path, kind_reports, constant_ratio_file, args, flag):
        out = tmp_path / "o.json"
        args = [a.format(kinds=kind_reports, ratio=constant_ratio_file) for a in args]
        result = runner.invoke(main, [*args, "--output", str(out)])
        assert result.exit_code == 2
        assert f"{flag} has no effect" in result.stderr and "Error:" in result.stderr
        assert not out.exists()

    def test_every_axis_option_offers_the_scale_axes(self):
        for command in (main.commands["frontier"], main.commands["relfit"]):
            (axis,) = [p for p in command.params if p.name == "axis"]
            assert list(axis.type.choices) == ["flops", "tokens", "params"]

    def test_relfit_frontier_accepts_the_flops_axis(self, runner, tmp_path, sweep_spec_file):
        runs = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(sweep_spec_file), "--output", str(runs)])
        reports = []
        for axis in ([], ["--axis", "flops"]):
            out = tmp_path / f"rel{len(axis)}.json"
            result = invoke(runner, ["relfit", "--input", str(runs), "--metric", "bpb/t",
                                     "--baseline", "bpb/b", "--frontier", *axis,
                                     "--resamples", "50", "--output", str(out)])
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("span", ["1e18", "1e18,1e20,1e22"])
    def test_crossover_span_needs_two_values(self, runner, tmp_path, kind_reports, span):
        rel = str(kind_reports / "relative-ratio.json")
        result = runner.invoke(main, ["crossover", "--input", rel, "--other", rel,
                                      "--span", span, "--output", str(tmp_path / "c.json")])
        _assert_error_line(result, "--span")

    def test_calibrate_floor_must_be_a_number(self, runner, tmp_path, kind_reports):
        result = runner.invoke(main, [
            "calibrate", "--input", str(kind_reports / "external.jsonl"),
            "--metric", "loss/task", "--accuracy-key", "acc/task", "--floor", "abc",
            "--output", str(tmp_path / "cal.json")])
        _assert_error_line(result, "--floor", "abc")

    @pytest.mark.parametrize("command, inputs, expected", [
        ("crossover", ["--input", "power.json", "--other", "relative-ratio.json",
                       "--span", "1e18,1e20"], "'relative_fit'"),
    ])
    def test_wrong_report_kind_names_expected_kind(self, runner, tmp_path, kind_reports,
                                                    command, inputs, expected):
        args = [str(kind_reports / a) if a.endswith(".json") else a for a in inputs]
        result = runner.invoke(main, [command, *args, "--output", str(tmp_path / "o.json")])
        _assert_error_line(result, expected)
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("slot, wrong, expected", [
        ("fit", "sigmoid", "'power_law' or 'power_law_floored' or 'loglinear'"),
        ("calibration", "power", "'sigmoid_calibration' or 'linear_calibration'"),
    ])
    def test_forecast_names_every_kind_it_reads(self, runner, tmp_path, kind_reports,
                                                slot, wrong, expected):
        # ``wrong``'s only result, put in the slot forecast reads.
        (result_obj,) = json.loads((kind_reports / f"{wrong}.json").read_text())[
            "results"].values()
        inputs = {"fit": kind_reports / "power.json", "calibration": kind_reports / "sigmoid.json"}
        inputs[slot] = tmp_path / "wrong.json"
        inputs[slot].write_text(json.dumps({"results": {slot: result_obj}}))
        result = runner.invoke(main, [
            "forecast", "--input", str(inputs["fit"]), "--calibration",
            str(inputs["calibration"]), "--scales", "1e19", "--output", str(tmp_path / "o.json")])
        _assert_error_line(result, expected)
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command, inputs, named", [
        ("forecast", ["--input", "power.json", "--calibration", "sigmoid.json",
                      "--scales", "1e19,inf"], "--scales"),
        ("plan", ["--budgets", "nan"], "--budgets"),
        ("frontier", ["--input", "runs.jsonl", "--metric", "bpb/b", "--tolerance", "nan"],
         "budget tolerance"),
        ("frontier", ["--input", "runs.jsonl", "--metric", "bpb/b", "--tolerance", "inf"],
         "budget tolerance"),
        ("relfit", ["--input", "runs.jsonl", "--metric", "bpb/t", "--baseline", "bpb/b",
                    "--frontier", "--tolerance", "nan"], "budget tolerance"),
        # An infinite value would select every run: |x - inf| <= 0.05 * inf.
        ("frontier", ["--input", "runs.jsonl", "--metric", "bpb/b", "--axis", "tokens",
                      "--fixed-value", "inf"], "fixed value"),
    ])
    def test_non_finite_numbers_rejected(self, runner, tmp_path, kind_reports,
                                         command, inputs, named):
        args = [str(kind_reports / a) if a.endswith((".json", ".jsonl")) else a
                for a in inputs]
        result = runner.invoke(main, [command, *args, "--output", str(tmp_path / "o.json")])
        _assert_error_line(result, named, "finite")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("file, text, expected", [
        ("slopes", '{"a": -0.5, "b": NaN, "c": 0.2}', "'b' must be finite, got nan"),
        ("slopes", '{"a": -0.5, "b": "0.1", "c": 0.2}', "'b' must be a number, got '0.1'"),
        ("covariate", '{"a": 10.0, "b": true, "c": 1000.0}', "'b' must be a number, got True"),
    ], ids=["nan", "string", "bool"])
    def test_correlate_values_must_be_finite_numbers(self, runner, tmp_path, file, text,
                                                     expected):
        paths = {"slopes": tmp_path / "slopes.json", "covariate": tmp_path / "cov.json"}
        paths["slopes"].write_text('{"a": -0.5, "b": -0.1, "c": 0.2}')
        paths["covariate"].write_text('{"a": 10.0, "b": 300.0, "c": 1000.0}')
        paths[file].write_text(text)
        out = tmp_path / "corr.json"
        result = runner.invoke(main, ["correlate", "--input", str(paths["slopes"]),
                                      "--covariate", str(paths["covariate"]),
                                      "--output", str(out)])
        _assert_error_line(result, str(paths[file]), expected)
        assert not out.exists()

    @pytest.mark.parametrize("n_pairs, expected", [
        (1, "a relative fit needs at least 2 pairs"),
        (2, "--slopes-csv needs at least 3 pairs to bootstrap"),
    ])
    def test_relfit_too_few_pairs(self, runner, tmp_path, constant_ratio_runs, n_pairs,
                                  expected):
        log = tmp_path / "runs.jsonl"
        log.write_text(runs_to_jsonl(store.RunSet(constant_ratio_runs.records[:n_pairs])))
        args = ["relfit", "--input", str(log), "--metric", "bpb/treat", "--baseline",
                "bpb/base", "--output", str(tmp_path / "rel.json")]
        result = runner.invoke(main, [*args, "--slopes-csv", str(tmp_path / "slopes.csv")])
        _assert_error_line(result, expected)
        assert list(tmp_path.iterdir()) == [log]
        if n_pairs == 2:  # without --slopes-csv, two pairs fit with no interval
            assert invoke(runner, args).exit_code == 0
            fit = json.loads((tmp_path / "rel.json").read_text())["results"]["relative_fit"]
            assert (fit["n_pairs"], fit["p_sign"], fit["ci_low"]) == (2, None, None)

    def test_simulate_takes_no_workers(self, runner, tmp_path, sweep_spec_file):
        result = runner.invoke(main, ["simulate", "--spec", str(sweep_spec_file),
                                      "--workers", "2", "--output", str(tmp_path / "r.jsonl")])
        assert result.exit_code == 2 and "--workers" in result.stderr

    @pytest.mark.parametrize("text, expected", [
        ("{", "not valid JSON"),
        ("[1, 2]", "object"),
        ("5", "object"),
        ('{"kappa": "x"}', "kappa"),
        ('{"lr_cap": 1e400}', "lr_cap"),
        ('{"kappa": 1e400}', "kappa"),
        ('{"width_min": 512.5}', "width_min"),
        pytest.param('{"width_max": 1%s}' % ("0" * 400), "width_max", id="width_max-1e400"),
        ('{"kapa": 1}', "unknown policy fields: ['kapa']"),
        ('{"beta1": 0.9}', "unknown policy fields: ['beta1']"),
        ('{"kappa": -1.0}', "kappa and theta must be non-negative"),
        ('{"warmup_frac": -0.1}', "schedule fractions must be non-negative"),
        ('{"width_min": 2048, "width_max": 256}', "width_min must not exceed width_max"),
        ('{"head_dim": 0}', "policy field head_dim must be positive"),
    ])
    def test_plan_config_must_be_a_policy_object(self, runner, tmp_path, text, expected):
        config = tmp_path / "policy.json"
        config.write_text(text)
        result = runner.invoke(main, ["plan", "--budgets", "1e19", "--config", str(config),
                                      "--output", str(tmp_path / "plans.jsonl")])
        _assert_error_line(result, expected)

    @pytest.mark.parametrize("change, expected", [
        ({"budgets": "x"}, "budgets"),
        ({"budgets": 5}, "budgets"),
        ({"noise_sigma": "x"}, "noise_sigma"),
        ({"widths_per_budget": 7.5}, "widths_per_budget"),
        ({"subgroups": [{"name": "a", "alpha": "x", "beta": 0.1}]}, "alpha"),
        ({"subgroups": [{"name": "a", "alpha": 1.0, "beta": True}]}, "beta"),
        ({"subgroups": [{"name": "a", "data_share": "x", "transfer": 0.1,
                         "exponent": 0.1, "scale": 1.0}]}, "data_share"),
        ({"subgroups": [5]}, "subgroup"),
        ({"subgroups": [{"name": "a", "data_share": 0.3, "transfer": 0.1, "exponent": 0.1,
                         "scale": 1.0}], "total_tokens_schedule": "x"}, "total_tokens_schedule"),
        ({"noise_sigam": 0.1}, "unknown synthetic spec fields: ['noise_sigam']"),
        ({"subgroups": [{"name": "a", "alpha": 1.0, "beta": 0.1, "betta": 0.2}]},
         "unknown subgroup fields: ['betta']"),
        ({"subgroups": [{"name": "a", "data_share": 0.3, "transfer": 0.1, "exponent": 0.1,
                         "scale": 1.0, "sclae": 2.0}], "total_tokens_schedule": [1e8, 1e9]},
         "unknown subgroup fields: ['sclae']"),
        ({"widths_per_budget": 10**400}, "widths_per_budget"),
        ({"total_tokens_schedule": [1e8, 1e9]},
         "total_tokens_schedule applies to mixture specs only"),
        ({"subgroups": [{"name": "a", "data_share": 0.3, "transfer": 0.1, "exponent": 0.1,
                         "scale": 1.0}]}, "non-empty, positive total_tokens_schedule"),
        ({"subgroups": [{"name": n, "data_share": 0.6, "transfer": 0.1, "exponent": 0.1,
                         "scale": 1.0} for n in "ab"], "total_tokens_schedule": [1e8]},
         "data shares sum to 1.2; must not exceed 1"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"subgroups": [{"name": "", "alpha": 1.0, "beta": 0.1}]},
         "subgroup name must be a non-empty string"),
        ({"subgroups": [{"name": "a", "alpha": 0.0, "beta": 0.1}]}, "alpha must be positive"),
        ({"subgroups": [{"name": "a", "data_share": 0.3, "transfer": 0.1, "exponent": 0.1,
                         "scale": -1.0}], "total_tokens_schedule": [1e8]},
         "scale must be positive"),
        ({"subgroups": {"name": "a", "alpha": 1.0, "beta": 0.1}}, "subgroups must be a list"),
        ({"budgets": []}, "budgets must be non-empty"),
        ({"budgets": [-1e18, 1e19]}, "budgets must be positive"),
        ({"subgroups": []}, "at least one subgroup is required"),
        ({"noise_sigma": -0.1}, "noise_sigma must be non-negative"),
        ({"token_span_decades": 1.0}, "unknown synthetic spec fields: ['token_span_decades']"),
        ({"subgroups": [{"name": "", "data_share": 0.3, "transfer": 0.1, "exponent": 0.1,
                         "scale": 1.0}], "total_tokens_schedule": [1e8]},
         "subgroup name must be a non-empty string, got ''"),
    ])
    def test_simulate_spec_fields_must_be_numbers(self, runner, tmp_path, sweep_spec_file,
                                                 change, expected):
        spec = tmp_path / "bad-spec.json"
        spec.write_text(json.dumps({**json.loads(sweep_spec_file.read_text()), **change}))
        result = runner.invoke(main, ["simulate", "--spec", str(spec),
                                      "--output", str(tmp_path / "runs.jsonl")])
        _assert_error_line(result, expected)
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize("command, report, edit, expected", [
        (["forecast", "--input", "{report}", "--calibration", "{kinds}/sigmoid.json",
          "--scales", "1e19"], "power.json",
         lambda results: results["fit"].update(beta="x"), "beta must be a number"),
        (["forecast", "--input", "{report}", "--calibration", "{kinds}/sigmoid.json",
          "--scales", "1e19"], "power.json",
         lambda results: results["fit"].update(alpha=-1.0), "alpha must be positive"),
        (["fit", "--input", "{report}"], "frontier.json",
         lambda results: results["frontier"]["points"][0].update(optimal_metric=float("nan")),
         "optimal_metric must be finite"),
    ])
    def test_bad_reloaded_result_names_its_file(self, runner, tmp_path, kind_reports,
                                                command, report, edit, expected):
        obj = json.loads((kind_reports / report).read_text())
        edit(obj["results"])
        bad = tmp_path / report
        bad.write_text(json.dumps(obj))
        args = [a.format(report=bad, kinds=kind_reports) for a in command]
        result = runner.invoke(main, [*args, "--output", str(tmp_path / "o.json")])
        _assert_error_line(result, str(bad), expected)
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_floored_alpha_past_the_float_range_is_refused(self, runner, tmp_path):
        # At this seed the fit used to write "alpha": Infinity, a report that
        # plot and forecast then refused.
        series = frontier.FrontierSeries("bpb/b", "flops", tuple(
            frontier.FrontierPoint(scale, 1e9, error, None, None, 1)
            for scale, error in narrow_span_points(3)))
        report = tmp_path / "frontier.json"
        report.write_text(json.dumps({"results": {"frontier": series.to_dict()}}))
        out = tmp_path / "fit.json"
        result = runner.invoke(main, ["fit", "--input", str(report), "--family", "power-floor",
                                      "--output", str(out)])
        _assert_error_line(result, "alpha must be positive and finite, got inf")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["relfit", "--input", "{ratio}", "--metric", "bpb/treat", "--baseline", "bpb/base"],
        ["correlate", "--input", "{groups9}", "--covariate", "{groups9}"],
        ["correlate", "--input", "{kinds}/slopes.json", "--covariate", "{kinds}/cov.json"],
    ], ids=["relfit", "correlate-9-groups", "correlate-5-groups"])
    def test_negative_seed_is_a_usage_error(self, runner, tmp_path, kind_reports,
                                            constant_ratio_file, args):
        groups9 = tmp_path / "groups9.json"
        groups9.write_text(json.dumps({f"g{i}": 1.0 + i * i for i in range(9)}))
        args = [a.format(ratio=constant_ratio_file, groups9=groups9, kinds=kind_reports)
                for a in args]
        out = tmp_path / "out.json"
        result = runner.invoke(main, [*args, "--seed", "-1", "--output", str(out)])
        assert result.exit_code == 2
        assert "--seed" in result.stderr and "-1" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("groups", [6, 10], ids=["exhaustive", "monte-carlo"])
    @pytest.mark.parametrize("permutations", ["0", "-5"])
    def test_permutations_below_one_are_refused_at_every_group_count(
            self, runner, tmp_path, groups, permutations):
        values = tmp_path / "groups.json"
        values.write_text(json.dumps({f"g{i}": 1.0 + i * i for i in range(groups)}))
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["correlate", "--input", str(values), "--covariate",
                                      str(values), "--permutations", permutations,
                                      "--output", str(out)])
        _assert_error_line(result, "permutations must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("args, files, expected", [
        (["calibrate", "--input", "{kinds}/external.jsonl", "--metric", "loss/task",
          "--accuracy-key", "acc/task", "--floor", "1.5"], {}, "fixed floor 1.5 outside [0, 1)"),
        (["calibrate", "--input", "{tmp}/log.jsonl", "--metric", "loss/task", "--accuracy-key",
          "acc/task", "--family", "linear"], {"log.jsonl": _eval_log((2.0, 0.5))},
         "need at least 2 points for a linear calibration"),
        (["calibrate", "--input", "{tmp}/log.jsonl", "--metric", "loss/task", "--accuracy-key",
          "acc/task", "--family", "linear"], {"log.jsonl": _eval_log((2.0, 0.5), (1.0, 1.5))},
         "accuracy must lie in [0, 1]"),
        (["calibrate", "--input", "{kinds}/external.jsonl", "--metric", "loss/task",
          "--accuracy-key", "acc/other"], {},
         "no run carries both 'loss/task' and 'acc/other'"),
        (["forecast", "--input", "{kinds}/power.json", "--calibration",
          "{kinds}/sigmoid.json", "--scales", ","], {}, "--scales: no values given"),
        (["simulate", "--spec", "{tmp}/spec.json"], {"spec.json": "[1, 2]"},
         "synthetic spec must be a JSON object"),
        (["correlate", "--input", "{tmp}/slopes.json", "--covariate", "{kinds}/cov.json"],
         {"slopes.json": "[1, 2]"}, "slopes and covariate files must be JSON objects"),
        (["plot", "--input", "{tmp}/list.json"], {"list.json": "[1]"}, "not an analysis report"),
        (["relfit", "--input", "{kinds}/runs.jsonl", "--metric", "bpb/t", "--baseline", "bpb/b",
          "--resamples", "1"], {}, "resamples must be at least 2"),
        (["relfit", "--input", "{tmp}/log.jsonl", "--metric", "m/t", "--baseline", "m/b"],
         {"log.jsonl": _jsonl(make_run(f"r{i}", 6.0 * 10**8 * t, t,
                                       {"m/t": -1.0 / (i + 1), "m/b": 1.0}, params=10**8)
                              for i, t in enumerate([10**9, 10**10, 10**11]))},
         "treatment errors must be positive and finite, got -1"),
        (["crossover", "--input", "{kinds}/relative-ratio.json", "--other",
          "{kinds}/relative-ratio.json", "--span", "1e20,1e18"], {},
         "observed span must satisfy 0 < F_min <= F_max"),
        (["correlate", "--input", "{tmp}/two.json", "--covariate", "{tmp}/two.json"],
         {"two.json": '{"a": 1.0, "b": 10.0}'}, "correlation needs at least 3 matched groups"),
        (["fit", "--input", "{tmp}/frontier.json", "--family", "power-floor"],
         {"frontier.json": _two_point_frontier}, "the floored fit needs at least 3 points"),
        (["ingest", "--input", "{kinds}/runs.jsonl", "--grouping", "{tmp}/grouping.json",
          "--metric-prefix", "bpb/"], {"grouping.json": '{"mapping": {"t": "g", "b": ""}}'},
         "empty item key or group label in mapping: 'b' -> ''"),
        (["ingest", "--input", "{kinds}/runs.jsonl", "--grouping", "{tmp}/grouping.json",
          "--metric-prefix", "bpb/"], {"grouping.json": '{"mapping": {"a": ["x"], "b": "y"}}'},
         "group labels must be strings, got 'a' -> ['x']"),
        (["ingest", "--input", "{kinds}/runs.jsonl", "--grouping", "{tmp}/grouping.json",
          "--metric-prefix", "bpb/"], {"grouping.json": '{"mapping": {"a": 3}}'},
         "group labels must be strings, got 'a' -> 3"),
        (["frontier", "--input", "{tmp}/log.jsonl", "--metric", "m", "--axis", "tokens",
          "--fixed-value", "1e8"],
         {"log.jsonl": _jsonl(make_run(f"r{i}", 6.0 * p * 10**9, 10**9, {"m": 1.0}, params=p)
                              for i, p in enumerate([10**8, 101 * 10**6]))},
         "frontier tokens values must be strictly increasing"),
        (["relfit", "--input", "{kinds}/runs.jsonl", "--metric", "bpb/t", "--baseline", "bpb/b",
          "--axis", "params"], {}, "a params-axis series needs one tokens value within 5%"),
        # An IsoFLOP log holds many model sizes, so the series must name one.
        (["frontier", "--input", "{kinds}/runs.jsonl", "--metric", "bpb/b", "--axis", "tokens"],
         {}, "needs one params value within 5% (frontier --fixed-value), but the runs span"),
        (["forecast", "--input", "{tmp}/floor.json", "--calibration", "{kinds}/sigmoid.json",
          "--scales", "1e19"],
         {"floor.json": _edited_report("power-floor.json", "fit", alpha=-1.0)},
         "alpha must be positive"),
        (["forecast", "--input", "{tmp}/floor.json", "--calibration", "{kinds}/sigmoid.json",
          "--scales", "1e19"],
         {"floor.json": _edited_report("power-floor.json", "fit", floor=-2.0)},
         "floor must be non-negative"),
        (["forecast", "--input", "{tmp}/floor.json", "--calibration", "{kinds}/sigmoid.json",
          "--scales", "1e19"],
         {"floor.json": _edited_report("power-floor.json", "fit", n=1)},
         "n must be at least 3"),
        (["forecast", "--input", "{kinds}/power.json", "--calibration", "{tmp}/linear.json",
          "--scales", "1e19"],
         {"linear.json": _edited_report("linear.json", "calibration", rmse=-1.0)},
         "rmse must be finite and non-negative"),
        (["forecast", "--input", "{kinds}/power.json", "--calibration", "{tmp}/linear.json",
          "--scales", "1e19"],
         {"linear.json": _edited_report("linear.json", "calibration", n=0)},
         "n must be at least 2"),
        (["plot", "--input", "{tmp}/rel.json"],
         {"rel.json": _edited_report("relative-ratio.json", "relative_fit",
                                     pairs=[[1e18, 1.5, 0.0], [1e19, 1.4, 1.3]])},
         "baseline errors must be positive and finite, got 0"),
        (["crossover", "--input", "{tmp}/rel.json", "--other", "{kinds}/relative-ratio.json",
          "--span", "1e18,1e20"],
         {"rel.json": _edited_report("relative-ratio.json", "relative_fit",
                                     pairs=[[1e18, -1.5, 1.3], [1e19, 1.4, 1.3]])},
         "treatment errors must be positive and finite, got -1.5"),
        # Two pairs reach the fit's line first, more pairs the bootstrap.
        (["relfit", "--input", "{tmp}/log.jsonl", "--metric", "m/t", "--baseline", "m/b"],
         {"log.jsonl": _jsonl(make_run(f"r{i}", 6e17, 10**9, {"m/t": 1.0 + 0.01 * i, "m/b": 1.0})
                              for i in range(2))},
         "degenerate fit: all scale values are equal"),
        (["relfit", "--input", "{tmp}/log.jsonl", "--metric", "m/t", "--baseline", "m/b"],
         {"log.jsonl": _jsonl(make_run(f"r{i}", 6e17, 10**9, {"m/t": 1.0 + 0.01 * i, "m/b": 1.0})
                              for i in range(100))},
         "degenerate fit: all scale values are equal"),
        # Two pairs draw no bootstrap, yet --resamples is checked all the same.
        (["relfit", "--input", "{tmp}/log.jsonl", "--metric", "m/t", "--baseline", "m/b",
          "--resamples", "0"],
         {"log.jsonl": _jsonl(make_run(f"r{i}", 6e17 * 10**i, 10**9, {"m/t": 1.0, "m/b": 1.0})
                              for i in range(2))},
         "resamples must be at least 2"),
        (["plan", "--budgets", "1e18,"], {}, "--budgets: empty entry in '1e18,'"),
        (["crossover", "--input", "{kinds}/relative-ratio.json", "--other",
          "{kinds}/relative-ratio.json", "--span", "1e18,,1e20"], {},
         "--span: empty entry in '1e18,,1e20'"),
    ], ids=["calibrate-floor", "linear-one-point", "linear-accuracy", "calibrate-no-pairs",
            "forecast-no-scales", "simulate-array", "correlate-array", "plot-array",
            "relfit-resamples", "relfit-negative", "crossover-span", "correlate-two-groups",
            "power-floor-two-points", "grouping-empty-label", "grouping-list-label",
            "grouping-number-label", "isolation-shared-tokens", "relfit-mixed-sizes",
            "frontier-mixed-sizes", "floor-alpha", "floor-floor", "floor-n", "linear-rmse",
            "linear-n", "plot-ratio-zero-error", "crossover-ratio-negative-error",
            "relfit-one-scale-two-pairs", "relfit-one-scale-many-pairs",
            "relfit-resamples-two-pairs", "plan-empty-entry", "crossover-empty-entry"])
    def test_input_is_checked(self, runner, tmp_path, kind_reports, args, files, expected):
        for name, text in files.items():
            (tmp_path / name).write_text(text(kind_reports) if callable(text) else text)
        args = [a.format(kinds=kind_reports, tmp=tmp_path) for a in args]
        out = tmp_path / "out.json"
        result = runner.invoke(main, [*args, "--output", str(out)])
        _assert_error_line(result, expected)
        assert not out.exists()

    ONE_POINT = {"results": {"frontier": {"metric_key": "m", "scale_axis": "flops", "points": [
        {"budget": 1e18, "optimal_tokens": 1e9, "optimal_metric": 2.5, "curvature": 1.0,
         "fit_r2": 1.0, "n_points": 7}]}}}

    @pytest.mark.parametrize("args, name, text, output, expected", [
        # The blank row is skipped.
        (["ingest", "--input", "{tmp}/runs.csv", "--output", "{tmp}/runs.jsonl"], "runs.csv",
         "run_id,source,dataset,flops,params,tokens,m\nr0,external,d,1e+18,10,20,1.5\n\n"
         "r1,external,d,1e+19,10,20,\n", "runs.jsonl",
         '{"run_id": "r0", "source": "external", "dataset": "d", "flops": 1e+18, "params": 10, '
         '"tokens": 20, "metrics": {"m": 1.5}}\n{"run_id": "r1", "source": "external", '
         '"dataset": "d", "flops": 1e+19, "params": 10, "tokens": 20, "metrics": {}}\n'),
        # One point pads both axis ranges, which would otherwise be empty.
        (["plot", "--input", "{tmp}/frontier.json", "--output", "{tmp}/plot"], "frontier.json",
         json.dumps(ONE_POINT), "plot.csv", "series,x,y\nm,1e+18,2.5\n"),
    ], ids=["csv-blank-row", "one-point-plot"])
    def test_edge_input_is_accepted(self, runner, tmp_path, args, name, text, output,
                                    expected):
        (tmp_path / name).write_text(text)
        result = invoke(runner, [a.format(tmp=tmp_path) for a in args])
        assert result.exit_code == 0, result.output
        assert (tmp_path / output).read_text() == expected

    # Each edit breaks one rule of the result type a report slot holds.
    @pytest.mark.parametrize("name, slot, change, expected", [
        ("power.json", "fit", {"n": 1}, "a power-law fit needs at least 2 points"),
        ("loglinear.json", "fit", {"ref_scale": -1e19}, "invalid log-linear fit parameters"),
        ("relative-ratio.json", "relative_fit", {"gamma": -0.8},
         "gamma must be positive in ratio mode"),
        ("relative-ratio.json", "relative_fit", {"p_sign": 1.5}, "p_sign must lie in [0, 1]"),
        ("correlation.json", "correlation", {"pearson_r": 1.5}, "|pearson_r| must not exceed 1"),
        ("correlation.json", "correlation", {"p_value": -0.1}, "p_value must lie in [0, 1]"),
        ("sigmoid.json", "calibration", {"rmse": -1.0}, "rmse must be finite and non-negative"),
        ("frontier.json", "frontier",
         {"points": [{"budget": 0.0, "optimal_tokens": 1e9, "optimal_metric": 2.5,
                      "curvature": 1.0, "fit_r2": 1.0, "n_points": 7}]},
         "budget and optimal_tokens must be positive"),
    ], ids=["power-n", "loglinear-ref", "ratio-gamma", "ratio-p-sign", "correlation-r", "correlation-p", "sigmoid-rmse",
            "frontier-budget"])
    def test_plot_refuses_an_edited_result(self, runner, tmp_path, kind_reports, name, slot,
                                           change, expected):
        report = tmp_path / name
        report.write_text(_edited_report(name, slot, **change)(kind_reports))
        result = runner.invoke(main, ["plot", "--input", str(report),
                                      "--output", str(tmp_path / "plot")])
        _assert_error_line(result, f"results[{slot!r}]", expected)
        assert not list(tmp_path.glob("plot*"))

    def test_grouping_mapping_must_be_an_object(self, runner, tmp_path, kind_reports):
        grouping = tmp_path / "groups.json"
        grouping.write_text(json.dumps({"name": "g", "mapping": [1]}))
        result = runner.invoke(main, [
            "ingest", "--input", str(kind_reports / "external.jsonl"),
            "--grouping", str(grouping), "--metric-prefix", "loss/",
            "--output", str(tmp_path / "o.jsonl")])
        _assert_error_line(result, "mapping")

    def test_report_input_must_be_an_object(self, runner, tmp_path):
        path = tmp_path / "five.json"
        path.write_text("5")
        result = runner.invoke(main, ["report", "--input", str(path),
                                      "--output", str(tmp_path / "o.json")])
        _assert_error_line(result, "not an analysis report")


#: Arguments of every command with its first input or config file missing.
class TestRepeatedJsonKeys:
    """A repeated key in a JSON input, which ``json`` would read as its last
    value, is one error line naming the key and the file, or a run log's line."""

    @pytest.mark.parametrize("args, name, text, expected", [
        (["simulate", "--spec", "{file}"], "spec.json",
         '{"budgets": [1e18, 1e19, 1e20], '
         '"subgroups": [{"name": "a", "alpha": 1.0, "beta": 0.1, "beta": 0.2}]}',
         "spec.json: repeated key 'beta'"),
        (["correlate", "--input", "{kinds}/slopes.json", "--covariate", "{file}"], "cov.json",
         '{"a": 10.0, "b": 100.0, "c": 1000.0, "a": 1e6}', "cov.json: repeated key 'a'"),
        (["forecast", "--input", "{file}", "--calibration", "{kinds}/sigmoid.json",
          "--scales", "1e21"], "law.json",
         lambda kinds: (kinds / "power.json").read_text().replace(
             '"alpha": ', '"alpha": 1.0, "alpha": ', 1),
         "law.json: repeated key 'alpha'"),
        (["ingest", "--input", "{file}"], "runs.jsonl",
         '{"run_id": "r", "source": "external", "dataset": "d", "flops": 1e18, '
         '"params": 100000000, "tokens": 1000000000, "metrics": {"m": 1.0, "m": 2.0}}\n',
         "line 1: repeated key 'm'"),
    ], ids=["spec", "covariate", "report", "run-row"])
    def test_refused_naming_the_key(self, runner, tmp_path, kind_reports, args, name, text,
                                    expected):
        (tmp_path / name).write_text(text(kind_reports) if callable(text) else text)
        args = [a.format(file=tmp_path / name, kinds=kind_reports) for a in args]
        out = tmp_path / "out.json"
        result = runner.invoke(main, [*args, "--output", str(out)])
        _assert_error_line(result, expected)
        assert "too long" not in result.stderr
        assert not out.exists()


class TestNoStartConverges:
    """A multi-start fit none of whose starts ends finite fails its command
    with one error line."""

    @staticmethod
    def diverged(fun, x0, lower, upper):
        """A solve that leaves every start where it began, at a NaN cost."""
        theta = np.array(x0, dtype=float)
        return theta, np.full(len(theta), np.nan)

    @pytest.mark.parametrize("args, expected", [
        (["fit", "--input", "{kinds}/frontier.json", "--family", "power-floor"],
         "floored fit failed to converge"),
        (["calibrate", "--input", "{kinds}/external.jsonl", "--metric", "loss/task",
          "--accuracy-key", "acc/task"], "sigmoid fit failed to converge from every start"),
    ], ids=["fit", "calibrate"])
    def test_one_error_line(self, runner, tmp_path, kind_reports, monkeypatch, args, expected):
        monkeypatch.setattr(lawfit, "_least_squares_box", self.diverged)
        monkeypatch.setattr(calibration, "_least_squares_box", self.diverged)
        out = tmp_path / "out.json"
        result = runner.invoke(main, [*[a.format(kinds=kind_reports) for a in args],
                                      "--output", str(out)])
        _assert_error_line(result, expected)
        assert not out.exists()


class TestLawScaleAxis:
    """``fit`` gives every law family its frontier's scale axis, which labels
    the x axis of the law's plot and of a forecast's."""

    @pytest.mark.parametrize("family", ["power", "loglinear", "power-floor"])
    def test_axis_reaches_the_plots(self, runner, tmp_path, kind_reports, family):
        series = frontier.FrontierSeries("bpb/b", "tokens", tuple(
            frontier.FrontierPoint(tokens, tokens, 3.0 * tokens**-0.1 + 0.5, None, None, 1)
            for tokens in (1e9, 3e9, 1e10, 3e10, 1e11)))
        paths = {name: str(tmp_path / name) for name in ("frontier.json", "law.json", "fc.json")}
        (tmp_path / "frontier.json").write_text(
            json.dumps({"results": {"frontier": series.to_dict()}}))
        for args in (["fit", "--input", paths["frontier.json"], "--family", family,
                      "--output", paths["law.json"]],
                     ["forecast", "--input", paths["law.json"], "--calibration",
                      str(kind_reports / "sigmoid.json"), "--scales", "1e12",
                      "--output", paths["fc.json"]],
                     ["plot", "--input", paths["law.json"], "--output", str(tmp_path / "law")],
                     ["plot", "--input", paths["fc.json"], "--output", str(tmp_path / "fc")]):
            assert invoke(runner, args).exit_code == 0
        law = json.loads((tmp_path / "law.json").read_text())["results"]["fit"]
        assert law["scale_axis"] == "tokens"
        for figure in ("law.svg", "fc.svg"):
            assert ">training tokens</text>" in (tmp_path / figure).read_text()


MISSING_FILE_ARGS = {
    "plan": ["--budgets", "1e19", "--config", "{absent}", "--output", "{out}"],
    "simulate": ["--spec", "{absent}", "--output", "{out}"],
    "ingest": ["--input", "{absent}", "--output", "{out}"],
    "frontier": ["--input", "{absent}", "--metric", "m", "--output", "{out}"],
    "fit": ["--input", "{absent}", "--output", "{out}"],
    "relfit": ["--input", "{absent}", "--metric", "t", "--baseline", "b",
               "--output", "{out}"],
    "crossover": ["--input", "{absent}", "--other", "{absent}", "--span", "1e18,1e20",
                  "--output", "{out}"],
    "correlate": ["--input", "{absent}", "--covariate", "{absent}", "--output", "{out}"],
    "calibrate": ["--input", "{absent}", "--metric", "l", "--accuracy-key", "a",
                  "--output", "{out}"],
    "forecast": ["--input", "{absent}", "--calibration", "{absent}", "--scales", "1e19",
                 "--output", "{out}"],
    "report": ["--input", "{absent}", "--output", "{out}"],
    "plot": ["--input", "{absent}", "--output", "{out}"],
}


class TestErrorBoundary:
    def test_every_command_is_covered(self):
        assert set(MISSING_FILE_ARGS) == set(main.commands)

    @pytest.mark.parametrize("command", sorted(MISSING_FILE_ARGS))
    def test_missing_file_is_one_error_line(self, runner, tmp_path, command):
        absent, out = tmp_path / "absent.json", tmp_path / "out"
        args = [a.format(absent=absent, out=out) for a in MISSING_FILE_ARGS[command]]
        result = runner.invoke(main, [command, *args])
        _assert_error_line(result, "absent.json")
        assert list(tmp_path.iterdir()) == []


class TestFrontierSkipsSlices:
    """A noisy sweep whose flat slices the parabola fit rejects."""

    @pytest.fixture
    def noisy_runs(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "budgets": np.geomspace(1e18, 1e21, 8).tolist(),
            "subgroups": [{"name": "t", "alpha": 3.9, "beta": 0.12},
                          {"name": "b", "alpha": 3.0, "beta": 0.10}],
            "noise_sigma": 0.01,
            "seed": 8,
        }))
        runs = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(spec), "--output", str(runs)])
        return runs

    def _frontier(self, runner, runs, metric, out):
        result = invoke(runner, ["frontier", "--input", str(runs), "--metric", metric,
                                 "--output", str(out)])
        assert result.exit_code == 0, result.output
        return json.loads(out.read_text())

    def test_frontier_warns_once_per_skipped_budget(self, runner, tmp_path, noisy_runs):
        report = self._frontier(runner, noisy_runs, "t", tmp_path / "t.json")
        series = report["results"]["frontier"]
        assert len(series["points"]) == 7
        assert report["warnings"] == series["warnings"]
        [warning] = series["warnings"]
        assert warning.startswith("skipping budget 1.93e+19: no interior minimum")

    def test_relfit_pairs_the_budgets_both_frontiers_kept(self, runner, tmp_path,
                                                         noisy_runs):
        kept = [
            {p["budget"] for p in self._frontier(
                runner, noisy_runs, metric, tmp_path / f"{metric}.json"
            )["results"]["frontier"]["points"]}
            for metric in ("t", "b")
        ]
        out = tmp_path / "rel.json"
        result = invoke(runner, ["relfit", "--input", str(noisy_runs), "--metric", "t",
                                 "--baseline", "b", "--frontier", "--resamples", "200",
                                 "--output", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        pairs = report["results"]["relative_fit"]["pairs"]
        assert [f for f, _, _ in pairs] == sorted(kept[0] & kept[1])
        assert len(pairs) == 4
        assert len(report["warnings"]) == 8 - len(kept[0]) + 8 - len(kept[1])

    def test_relfit_warnings_name_their_metric(self, runner, tmp_path, noisy_runs):
        series = {metric: self._frontier(runner, noisy_runs, metric,
                                         tmp_path / f"{metric}.json")["warnings"]
                  for metric in ("t", "b")}
        out = tmp_path / "rel.json"
        result = invoke(runner, ["relfit", "--input", str(noisy_runs), "--metric", "t",
                                 "--baseline", "b", "--frontier", "--resamples", "200",
                                 "--output", str(out)])
        assert result.exit_code == 0, result.output
        warnings = json.loads(out.read_text())["warnings"]
        assert warnings == ([f"t: {w}" for w in series["t"]]
                            + [f"b: {w}" for w in series["b"]])
        assert len(set(warnings)) == len(warnings)


def _without_blas_threads() -> dict:
    """This process's environment less ``OPENBLAS_NUM_THREADS``, which an
    in-process command run by an earlier test may have set."""
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


class TestColdStart:
    """No command imports scipy, the fitting commands included; the commands
    that do no array arithmetic import no numpy; and only ``plan`` and
    ``simulate`` import the modules that only they run."""

    #: Each module that not every command needs, and the commands that import it.
    ONLY_IN = {"relscale.planner": {"plan", "simulate"}, "relscale.synthlab": {"simulate"}}

    def _imported(self, *args, env=os.environ):
        env = {**env, "PYTHONPATH": str(Path(relscale.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-X", "importtime", *args],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}

    def _assert_lean(self, modules, command=None):
        assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]
        # The benchmark's import-time probe reads this module's line.
        assert "relscale.calibration" in modules
        for module, commands in self.ONLY_IN.items():
            assert (module in modules) == (command in commands), module

    def test_import_cli(self):
        self._assert_lean(self._imported("-c", "import relscale.cli"))

    @pytest.mark.parametrize("args", [
        ["--version"],
        ["plan", "--budgets", "1e19", "--output", "{tmp}/plans.jsonl"],
        ["simulate", "--spec", "{tmp}/spec.json", "--output", "{tmp}/runs.jsonl"],
        ["frontier", "--input", "{kinds}/runs.jsonl", "--metric", "bpb/b",
         "--output", "{tmp}/frontier.json"],
        ["fit", "--input", "{kinds}/frontier.json", "--output", "{tmp}/fit.json"],
        ["fit", "--input", "{kinds}/frontier.json", "--estimator", "huber",
         "--output", "{tmp}/fit.json"],
        ["fit", "--input", "{kinds}/frontier.json", "--family", "power-floor",
         "--output", "{tmp}/fit.json"],
        ["relfit", "--input", "{kinds}/runs.jsonl", "--metric", "bpb/t", "--baseline", "bpb/b",
         "--resamples", "200", "--output", "{tmp}/rel.json"],
        ["correlate", "--input", "{kinds}/slopes.json", "--covariate", "{kinds}/cov.json",
         "--output", "{tmp}/corr.json"],
        ["calibrate", "--input", "{kinds}/external.jsonl", "--metric", "loss/task",
         "--accuracy-key", "acc/task", "--output", "{tmp}/cal.json"],
        ["forecast", "--input", "{kinds}/power.json", "--calibration",
         "{kinds}/sigmoid.json", "--scales", "1e19,1e21", "--output", "{tmp}/fc.json"],
    ])
    def test_commands(self, tmp_path, kind_reports, args):
        (tmp_path / "spec.json").write_text(json.dumps({
            "budgets": [1e18, 1e19], "subgroups": [{"name": "a", "alpha": 3.0, "beta": 0.1}]}))
        args = [a.format(tmp=tmp_path, kinds=kind_reports) for a in args]
        self._assert_lean(self._imported("-m", "relscale.cli", *args), args[0])

    def test_import_leaves_blas_threads_unset(self):
        code = ("import os, relscale, relscale.cli\n"
                "assert 'OPENBLAS_NUM_THREADS' not in os.environ")
        self._imported("-c", code, env=_without_blas_threads())

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_a_command_sets_one_blas_thread_unless_the_user_did(self, tmp_path, kind_reports,
                                                                given, expected):
        code = ("import os, sys\n"
                "from relscale.cli import main\n"
                "main(sys.argv[1:], standalone_mode=False)\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        env = _without_blas_threads()
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        env["PYTHONPATH"] = str(Path(relscale.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code, "fit", "--input", str(kind_reports / "frontier.json"),
             "--output", str(tmp_path / "fit.json")],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == expected

    def test_blas_thread_count_does_not_change_outputs(self, tmp_path, kind_reports):
        # 12 groups: correlate draws its 10,000 permutations, and scores every
        # block with one matrix-vector product, the BLAS call that threads.
        rng = np.random.default_rng(3)
        groups = [f"g{i}" for i in range(12)]
        slopes, cov = tmp_path / "slopes.json", tmp_path / "cov.json"
        slopes.write_text(json.dumps(dict(zip(groups, rng.normal(size=12).tolist()))))
        cov.write_text(json.dumps(dict(zip(groups, rng.uniform(1.0, 1e4, 12).tolist()))))
        runs = str(kind_reports / "runs.jsonl")
        # Outputs are named relative to each run's directory, and reports
        # record the paths they read, so both runs write the same bytes.
        commands = [
            ["frontier", "--input", runs, "--metric", "bpb/b", "--output", "frontier.json"],
            ["fit", "--input", "frontier.json", "--output", "fit.json"],
            ["relfit", "--input", runs, "--metric", "bpb/t", "--baseline", "bpb/b",
             "--slopes-csv", "slopes.csv", "--output", "rel.json"],
            ["correlate", "--input", str(slopes), "--covariate", str(cov),
             "--output", "corr.json"],
        ]
        written = {}
        for threads in (None, "4"):
            out = tmp_path / f"threads-{threads}"
            out.mkdir()
            env = _without_blas_threads()
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = str(Path(relscale.__file__).parents[1])
            for args in commands:
                subprocess.run([sys.executable, "-m", "relscale.cli", *args], cwd=out,
                               env=env, check=True, capture_output=True, timeout=60)
            written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(written[None]) == 5
        assert written[None] == written["4"]

    @staticmethod
    def _numpy_modules(modules):
        # A line per module actually executed: the lazy placeholder that
        # stands in ``sys.modules`` until first use prints none, and numpy
        # itself, run by that placeholder, prints none either; its
        # submodules do.
        return [m for m in modules if m == "numpy" or m.startswith("numpy.")]

    @pytest.mark.parametrize("args", [
        ["--version"],
        ["plan", "--budgets", "1e19", "--output", "{tmp}/plans.jsonl"],
        ["ingest", "--input", "{kinds}/runs.jsonl", "--output", "{tmp}/ingested.jsonl"],
        ["crossover", "--input", "{kinds}/relative-ratio.json", "--other",
         "{tmp}/inverse.json", "--span", "1e18,1e21", "--output", "{tmp}/cross.json"],
        ["report", "--input", "{kinds}/power.json", "--input", "{kinds}/frontier.json",
         "--output", "{tmp}/bundle.json"],
        ["plot", "--input", "{kinds}/frontier.json", "--output", "{tmp}/frontier"],
        ["plot", "--input", "{kinds}/forecast.json", "--output", "{tmp}/forecast"],
    ])
    def test_commands_without_arrays_import_no_numpy(self, runner, tmp_path, kind_reports,
                                                     args):
        args = [a.format(tmp=tmp_path, kinds=kind_reports) for a in args]
        if args[0] == "crossover":  # the inverse ratio crosses the ratio where both are 1
            assert invoke(runner, [
                "relfit", "--input", str(kind_reports / "runs.jsonl"), "--metric", "bpb/b",
                "--baseline", "bpb/t", "--resamples", "50", "--output",
                str(tmp_path / "inverse.json")]).exit_code == 0
        modules = self._imported("-m", "relscale.cli", *args)
        self._assert_lean(modules, args[0])
        assert self._numpy_modules(modules) == []

    def test_array_arithmetic_imports_numpy(self, tmp_path, kind_reports):
        modules = self._imported("-m", "relscale.cli", "fit", "--input",
                                 str(kind_reports / "frontier.json"), "--output",
                                 str(tmp_path / "fit.json"))
        assert self._numpy_modules(modules)

    def test_numpy_imported_first_is_bound_as_is(self):
        code = ("import numpy, types, relscale.lawfit\n"
                "assert relscale.lawfit.np is numpy and type(numpy) is types.ModuleType")
        self._imported("-c", code)

    def test_lazy_module_of_a_missing_module_raises_at_once(self):
        with pytest.raises(ModuleNotFoundError, match="no_such_module_xyz"):
            ioutil.lazy_module("no_such_module_xyz")
        assert "no_such_module_xyz" not in sys.modules


def _command(path):
    return json.loads(Path(path).read_text())["command"]


class TestProvenance:
    """A report's ``command`` holds every option but the file paths and the
    ones the chosen form ignores, by flag."""

    @pytest.mark.parametrize("report, command", [
        ("frontier.json",
         "frontier --metric bpb/b --axis flops --tolerance 0.05 --optimum vertex"),
        ("huber.json", "fit --family power --estimator huber"),
        ("power-floor.json", "fit --family power-floor"),
        ("relative-difference.json",
         "relfit --metric bpb/t --baseline bpb/b --mode difference --axis flops "
         "--resamples 200 --seed 0"),
        ("sigmoid.json", "calibrate --metric loss/task --accuracy-key acc/task "
                         "--floor 0.25 --family sigmoid"),
        ("linear.json", "calibrate --metric loss/task --accuracy-key acc/task --family linear"),
        ("forecast.json", "forecast --scales 1e19,1e21,1e23"),
        ("correlation.json", "correlate --permutations 10000 --seed 0"),
    ])
    def test_options_in_declaration_order(self, kind_reports, report, command):
        assert _command(kind_reports / report) == command

    def test_isolation_series_records_no_flops_options(self, runner, tmp_path,
                                                       constant_ratio_file):
        out = tmp_path / "frontier.json"
        result = invoke(runner, ["frontier", "--input", str(constant_ratio_file), "--metric",
                                 "bpb/base", "--axis", "tokens", "--fixed-value", "16666666667",
                                 "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert _command(out) == ("frontier --metric bpb/base --axis tokens "
                                 "--fixed-value 16666666667.0")

    def test_relfit_records_frontier_tolerance(self, runner, tmp_path, sweep_spec_file):
        runs = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(sweep_spec_file), "--output", str(runs)])
        commands = []
        for tolerance in ("0.05", "0.5"):
            out = tmp_path / f"rel{tolerance}.json"
            invoke(runner, ["relfit", "--input", str(runs), "--metric", "bpb/t",
                            "--baseline", "bpb/b", "--frontier", "--tolerance", tolerance,
                            "--resamples", "50", "--output", str(out)])
            commands.append(_command(out))
        assert commands[1].endswith(" --frontier --tolerance 0.5")
        assert commands[0] == commands[1].replace("0.5", "0.05")

    def test_numbers_recorded_as_given(self, runner, tmp_path, kind_reports):
        forecast = tmp_path / "forecast.json"
        invoke(runner, ["forecast", "--input", str(kind_reports / "power.json"),
                        "--calibration", str(kind_reports / "sigmoid.json"),
                        "--scales", "1.23456789e21", "--output", str(forecast)])
        assert _command(forecast) == "forecast --scales 1.23456789e21"
        curves = []
        for name, gamma, delta_beta in (("a", 2.0, -0.05), ("b", 1.0, -0.02)):
            fit = RelativeFit(gamma=gamma, delta_beta=delta_beta, mode="ratio", p_sign=None,
                              ci_low=None, ci_high=None, n_pairs=5)
            curves.append(tmp_path / f"{name}.json")
            curves[-1].write_text(json.dumps({"results": {"relative_fit": fit.to_dict()}}))
        cross = tmp_path / "cross.json"
        invoke(runner, ["crossover", "--input", str(curves[0]), "--other", str(curves[1]),
                        "--span", "1.23456789e18,1e20", "--output", str(cross)])
        assert _command(cross) == "crossover --span 1.23456789e18,1e20"

    def test_hidden_workers_leave_the_report_unchanged(self, runner, tmp_path,
                                                       constant_ratio_file):
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"rel{workers}.json"
            invoke(runner, ["relfit", "--input", str(constant_ratio_file),
                            "--metric", "bpb/treat", "--baseline", "bpb/base",
                            "--resamples", "50", "--workers", workers, "--output", str(out)])
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert "--workers" not in _command(tmp_path / "rel1.json")
        assert str(tmp_path) not in _command(tmp_path / "rel1.json")


class TestSharedRunSet:
    """In one process, commands on an unchanged log share one parsed RunSet."""

    def test_commands_leave_the_shared_set_as_parsed(self, runner, tmp_path, kind_reports,
                                                     monkeypatch):
        runs = kind_reports / "runs.jsonl"
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"mapping": {"t": "g", "b": "g"}}))
        held = store.ingest_runs(runs)
        out = str(tmp_path / "out")
        pair = ["--input", str(runs), "--metric", "bpb/t", "--baseline", "bpb/b",
                "--resamples", "50"]
        for args in (
            ["frontier", "--input", str(runs), "--metric", "bpb/b", "--output", out],
            ["frontier", "--input", str(runs), "--metric", "bpb/t", "--optimum", "observed",
             "--output", out],
            ["relfit", *pair, "--output", out],
            ["relfit", *pair, "--mode", "difference", "--frontier", "--output", out],
            ["relfit", *pair, "--slopes-csv", str(tmp_path / "slopes.csv"), "--output", out],
            ["calibrate", "--input", str(runs), "--metric", "bpb/t", "--accuracy-key",
             "bpb/b", "--family", "linear", "--output", out],
        ):
            assert invoke(runner, args).exit_code == 0
            assert store.ingest_runs(runs) is held, args[0]
        # A command that writes a JSONL log leaves the log it wrote held.
        ingested = tmp_path / "ingested.jsonl"
        for args, written in (
            (["ingest", "--input", str(runs), "--grouping", str(grouping),
              "--metric-prefix", "bpb/", "--output", out], Path(out)),
            (["ingest", "--input", str(runs), "--output", str(ingested)], ingested),
        ):
            assert invoke(runner, args).exit_code == 0
            with monkeypatch.context() as m:
                m.setattr(store, "_iter_jsonl", None)  # a parse would fail
                assert store.ingest_runs(written).sha256 == ioutil.sha256_file(written)
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(runs.read_bytes())
        fresh = store.ingest_runs(copy)
        assert fresh is not held and len(held) == len(fresh) == 28
        for got, want in zip(held, fresh):
            assert (got, got.metrics) == (want, want.metrics)
        assert ingested.read_text() == runs_to_jsonl(held)

    def test_report_reuses_the_digest_ingest_took(self, runner, tmp_path, kind_reports,
                                                  monkeypatch):
        log = kind_reports / "runs.jsonl"
        hashed = []

        def counting(path):
            hashed.append(Path(path))
            return ioutil.sha256_file(path)

        monkeypatch.setattr(store, "sha256_file", counting)
        monkeypatch.setattr(cli, "sha256_file", counting)
        out = tmp_path / "frontier.json"
        result = invoke(runner, ["frontier", "--input", str(log), "--metric", "bpb/b",
                                 "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert hashed == [log]
        assert json.loads(out.read_text())["input_digests"] == [
            {"path": str(log), "sha256": hashlib.sha256(log.read_bytes()).hexdigest()}]

    def test_simulate_and_ingest_write_runs_to_jsonl(self, runner, tmp_path, sweep_spec_file):
        sim, csv_copy, ingested = (tmp_path / n for n in ("sim.jsonl", "sim.csv", "in.jsonl"))
        invoke(runner, ["simulate", "--spec", str(sweep_spec_file), "--output", str(sim)])
        runs = synthlab.generate(synthlab.SyntheticSpec.from_dict(
            json.loads(sweep_spec_file.read_text())))
        assert sim.read_bytes() == runs_to_jsonl(runs).encode()
        csv_copy.write_text(store.runs_to_csv(runs))
        invoke(runner, ["ingest", "--input", str(csv_copy), "--output", str(ingested)])
        assert ingested.read_bytes() == runs_to_jsonl(store.ingest_runs(csv_copy)).encode()

    def test_a_log_written_in_process_is_read_without_parsing(self, runner, tmp_path,
                                                              sweep_spec_file, monkeypatch):
        sim, copy = tmp_path / "sim.jsonl", tmp_path / "copy.jsonl"
        invoke(runner, ["simulate", "--spec", str(sweep_spec_file), "--output", str(sim)])
        copy.write_bytes(sim.read_bytes())
        reports = {}
        for log in (sim, copy):
            out = tmp_path / f"relfit-{log.stem}.json"
            with monkeypatch.context() as m:
                if log == sim:  # held from its write, so a parse would fail
                    m.setattr(store, "_iter_jsonl", None)
                result = invoke(runner, ["relfit", "--input", str(log), "--metric", "bpb/t",
                                         "--baseline", "bpb/b", "--resamples", "50",
                                         "--output", str(out)])
            assert result.exit_code == 0, result.output
            reports[log] = json.loads(out.read_text())
        assert reports[sim]["input_digests"] == [
            {"path": str(sim), "sha256": hashlib.sha256(sim.read_bytes()).hexdigest()}]
        assert reports[sim]["results"] == reports[copy]["results"]

    def test_simulate_releases_the_held_set_before_it_generates(self, runner, tmp_path,
                                                                kind_reports, sweep_spec_file,
                                                                monkeypatch):
        runs = kind_reports / "runs.jsonl"
        invoke(runner, ["frontier", "--input", str(runs), "--metric", "bpb/b",
                        "--output", str(tmp_path / "frontier.json")])
        held = weakref.ref(store.ingest_runs(runs))
        generate = synthlab.generate
        at_entry = []

        def spy(spec):
            at_entry.append((store._last, held()))
            return generate(spec)

        monkeypatch.setattr(synthlab, "generate", spy)
        sim = tmp_path / "sim.jsonl"
        result = invoke(runner, ["simulate", "--spec", str(sweep_spec_file),
                                 "--output", str(sim)])
        assert result.exit_code == 0, result.output
        assert at_entry == [(None, None)]
        assert store._last[0] == (str(sim), "jsonl", ioutil.sha256_file(sim))

    def test_one_session_writes_the_reports_of_fresh_processes(self, runner, tmp_path):
        # A noisy sweep, so the frontiers skip budgets and the reports carry
        # warnings; the baseline's series is extracted three times.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "budgets": np.geomspace(1e18, 1e21, 8).tolist(),
            "subgroups": [{"name": "b", "alpha": 3.0, "beta": 0.10},
                          {"name": "t1", "alpha": 3.9, "beta": 0.12},
                          {"name": "t2", "alpha": 2.5, "beta": 0.09}],
            "noise_sigma": 0.01, "curvature": 0.01, "seed": 7}))
        log = tmp_path / "runs.jsonl"
        invoke(runner, ["simulate", "--spec", str(spec), "--output", str(log)])
        commands = [["frontier", "--input", str(log), "--metric", "b", "--output",
                     "frontier.json"]]
        commands += [["relfit", "--input", str(log), "--metric", treatment, "--baseline", "b",
                      "--frontier", "--resamples", "200", "--output", f"rel_{treatment}.json"]
                     for treatment in ("t1", "t2")]
        env = {**os.environ, "PYTHONPATH": str(Path(relscale.__file__).parents[1])}
        written = {}
        for mode in ("session", "fresh"):
            outdir = tmp_path / mode
            outdir.mkdir()
            for args in commands:
                args = [*args[:-1], str(outdir / args[-1])]
                if mode == "session":
                    assert invoke(runner, args).exit_code == 0
                else:
                    subprocess.run([sys.executable, "-m", "relscale.cli", *args], env=env,
                                   check=True, capture_output=True, timeout=60)
            written[mode] = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert written["session"] == written["fresh"]
        assert sorted(written["fresh"]) == ["frontier.json", "rel_t1.json", "rel_t2.json"]
        assert all(json.loads(body)["warnings"] for body in written["fresh"].values())

    @pytest.mark.parametrize("pairing", [[], ["--frontier"]])
    def test_relfit_checks_its_pairs_once(self, runner, tmp_path, kind_reports, monkeypatch,
                                          pairing):
        checks = []
        check = RelativeFit.__post_init__

        def counting(self):
            checks.append(self.n_pairs)
            check(self)

        monkeypatch.setattr(RelativeFit, "__post_init__", counting)
        out = tmp_path / "rel.json"
        result = invoke(runner, ["relfit", "--input", str(kind_reports / "runs.jsonl"),
                                 "--metric", "bpb/t", "--baseline", "bpb/b", *pairing,
                                 "--resamples", "50", "--output", str(out)])
        assert result.exit_code == 0, result.output
        fit = json.loads(out.read_text())["results"]["relative_fit"]
        assert checks == [fit["n_pairs"]] and fit["p_sign"] is not None
        assert (fit["treatment"], fit["baseline"], fit["scale_axis"]) == ("bpb/t", "bpb/b",
                                                                          "flops")


class TestRunLogFormat:
    """A run log is CSV when its name ends in ``.csv`` and JSONL otherwise,
    for the commands that write one and for those that read one."""

    READERS = [
        ["frontier", "--metric", "bpb/b"],
        ["relfit", "--metric", "bpb/t", "--baseline", "bpb/b", "--resamples", "50"],
        ["calibrate", "--metric", "bpb/t", "--accuracy-key", "bpb/b", "--family", "linear"],
    ]

    def test_simulate_to_csv_is_read_back(self, runner, tmp_path, sweep_spec_file):
        results = {}
        for name in ("x.jsonl", "x.csv"):
            log = tmp_path / name
            result = invoke(runner, ["simulate", "--spec", str(sweep_spec_file),
                                     "--output", str(log)])
            assert result.exit_code == 0, result.output
            for command, *options in self.READERS:
                out = tmp_path / f"{command}-{name}.json"
                result = invoke(runner, [command, "--input", str(log), *options,
                                         "--output", str(out)])
                assert result.exit_code == 0, result.output
                results[command, name] = json.loads(out.read_text())["results"]
        runs = store.ingest_runs(tmp_path / "x.jsonl")
        assert (tmp_path / "x.csv").read_text() == store.runs_to_csv(runs)
        for command, *_ in self.READERS:
            assert results[command, "x.csv"] == results[command, "x.jsonl"], command

    def test_ingest_converts_jsonl_to_csv_and_back(self, runner, tmp_path, sweep_spec_file):
        # CSV orders the metric columns by name, so a log whose metric keys
        # are in name order comes back byte for byte.
        spec = json.loads(sweep_spec_file.read_text())
        spec.update(subgroups=spec["subgroups"][::-1], noise_sigma=0.01)
        sweep_spec_file.write_text(json.dumps(spec))
        original, table, back = (tmp_path / n for n in ("runs.jsonl", "runs.csv", "back.jsonl"))
        invoke(runner, ["simulate", "--spec", str(sweep_spec_file), "--output", str(original)])
        for source, target in ((original, table), (table, back)):
            result = invoke(runner, ["ingest", "--input", str(source), "--output", str(target)])
            assert result.exit_code == 0, result.output
        assert table.read_text() == store.runs_to_csv(store.ingest_runs(original))
        assert back.read_bytes() == original.read_bytes()


def _sha256(path, strip=""):
    """SHA-256 of a file's text with every occurrence of ``strip`` removed."""
    return hashlib.sha256(Path(path).read_text().replace(strip, "").encode()).hexdigest()


MIXTURE_SPEC = {
    "budgets": [1e18],
    "subgroups": [{"name": f"g{q}", "data_share": q, "transfer": 0.3, "exponent": 0.25,
                   "scale": 2.0} for q in (0.01, 0.1, 0.4)],
    "total_tokens_schedule": [1e10, 1e8, 3e9, 1e9],
}


class TestPinnedOutputs:
    """Byte-exact outputs of the noiseless generators, the planner and a forecast."""

    @pytest.mark.parametrize("mixture, runs_sha, truth_sha", [
        (False, "b4dbfd072fe1559993c69b8daed81bcd692e182e25a4541f7c3fbce6e29f4994",
         "5cd8fea5c5d2ecb4f139b2779e9862e3f54fc1ccc80aea570c340c2dfc383207"),
        (True, "cb4e11110b15a7bacab9b350d726cb2ed4a208d9792a64f50c9f529cdd07fddb",
         "d28baf5ddbb75fe95a8d28847d175ef9d7fade5db5aabf65e680459b3468cf6e"),
    ], ids=["plain", "mixture"])
    def test_simulate(self, runner, tmp_path, sweep_spec_file, mixture, runs_sha, truth_sha):
        spec = sweep_spec_file
        if mixture:
            spec = tmp_path / "mixture.json"
            spec.write_text(json.dumps(MIXTURE_SPEC))
        runs, truth = tmp_path / "runs.jsonl", tmp_path / "truth.json"
        invoke(runner, ["simulate", "--spec", str(spec), "--output", str(runs),
                        "--truth", str(truth)])
        assert (_sha256(runs), _sha256(truth)) == (runs_sha, truth_sha)

    @pytest.mark.parametrize("policy, sha", [
        (None, "c9e6e95ecb30e8600fec33b328ace14e9ff20651baef04dde8a519fbe461a255"),
        ({"width_min": 256, "width_max": 2048, "kappa": 20.0, "beta2": 0.99,
          "step_target": 4096}, "ccc418011ec1a788ba7387498cd5fd0d7bdf754e4f4d3889487157894e423cc9"),
    ], ids=["default", "config"])
    def test_plan(self, runner, tmp_path, policy, sha):
        out = tmp_path / "plans.jsonl"
        args = ["plan", "--budgets", "1e18,3e19,1e21", "--output", str(out)]
        if policy is not None:
            config = tmp_path / "policy.json"
            config.write_text(json.dumps(policy))
            args += ["--config", str(config)]
        invoke(runner, args)
        assert _sha256(out) == sha

    def test_forecast(self, runner, tmp_path):
        law = PowerLawFit(alpha=3.0, beta=0.1, r2=0.999, n=5)
        cal = SigmoidCalibration(floor=0.25, ceiling=0.9, steepness=3.0, midpoint=1.8,
                                 rmse=0.01, n=9)
        law_path, cal_path = tmp_path / "fit.json", tmp_path / "cal.json"
        # Canonical inputs: their digests, which the report records, do not
        # move when a result type reorders its fields.
        law_path.write_text(dump_json({"results": {"fit": law.to_dict()}}))
        cal_path.write_text(dump_json({"results": {"calibration": cal.to_dict()}}))
        out = tmp_path / "forecast.json"
        invoke(runner, ["forecast", "--input", str(law_path), "--calibration", str(cal_path),
                        "--scales", "1e18,1e20,1e22,1e24", "--output", str(out)])
        assert _sha256(out, strip=str(tmp_path)) == (
            "1f31a349803c672067bbc25b4022ca0376c16874680d4f2a3b7cdda40f155978")

    @pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
    def test_forecast_plot(self, runner, tmp_path, tagged):
        # A forecast slot without its kind tag is the format written before
        # forecasts carried one; both plot to the bytes that format plotted to.
        law = PowerLawFit(alpha=3.0, beta=0.1, r2=0.999, n=5)
        cal = SigmoidCalibration(floor=0.25, ceiling=0.9, steepness=3.0, midpoint=1.8,
                                 rmse=0.01, n=9)
        slot = calibration.forecast(law, cal, [1e18, 1e20, 1e22, 1e24]).to_dict()
        if not tagged:
            del slot["kind"]
        report = tmp_path / "forecast.json"
        report.write_text(json.dumps({"results": {"forecast": slot}}))
        invoke(runner, ["plot", "--input", str(report), "--output", str(tmp_path / "fig")])
        assert (_sha256(tmp_path / "fig.svg"), _sha256(tmp_path / "fig.csv")) == (
            "cf41fd872a90e619037ff0b89d76b6d04c706a4b3b3d5c5e6f6754eb03e43ae5",
            "da4110b83ed06721b92271dc1f37e85cd10f8a82d22ac7020f1fc7bd23b19d09")
