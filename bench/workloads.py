"""The benchmark's three workloads: seeded inputs, command passes, checks.

A workload writes its inputs from the seed once (``prepare``), then the
harness runs its fixed command sequence (``ops``) pass after pass in one
closed loop. Each operation is one ``relscale`` command; it fails on a
non-zero exit, an exception, or a failed output check. Checks read only
the files the commands wrote.

Why these workloads:

* ``sweep`` -- one analyst pass over a dense multi-metric IsoFLOP sweep,
  run in-process. Every command re-ingests and re-hashes the log, so the
  ``store`` layer does most of the work; writes sit beside reads, and the
  bootstrap runs at small n.
* ``inference`` -- resampling-heavy significance testing on a small log:
  ``lawfit`` bootstraps and permutations and the ``calibration`` optimizer
  dominate, ingest is small, and each resampling command runs at
  ``--workers 1`` and ``--workers 2``.
* ``cold_cli`` -- one-shot commands, each its own process, on a tiny
  sweep: the only workload where interpreter start-up and import show.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Core columns of a run log, in the order ``relscale`` writes them.
CORE_FIELDS = ("run_id", "source", "dataset", "flops", "params", "tokens")

#: Planted-law tolerances for the output checks (absolute, in exponent units).
BETA_TOL = 0.01
DELTA_BETA_TOL = 0.01


@dataclass
class Op:
    """One CLI command of a pass and the check on what it wrote."""

    args: list[str]
    outputs: list[str] = field(default_factory=list)
    check: object = None  # callable(workdir) -> failure message or None


def _read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_csv_copy(jsonl: Path, out: Path) -> None:
    """Re-write a JSONL run log as CSV, one column per metric (sorted)."""
    rows = [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]
    keys = sorted({k for r in rows for k in r["metrics"]})
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(CORE_FIELDS) + keys)
        for r in rows:
            writer.writerow([r["run_id"], r["source"], r["dataset"], repr(float(r["flops"])),
                             r["params"], r["tokens"]] + [repr(r["metrics"][k]) for k in keys])


def sweep_spec(rng, budgets, metrics: int, widths: int, noise: float, seed: int) -> dict:
    """A synthlab spec with seeded per-metric power laws ``alpha * F^-beta``."""
    return {
        "budgets": [float(b) for b in budgets],
        "subgroups": [
            {"name": f"bpb/g{i:03d}", "alpha": float(rng.uniform(5.0, 50.0)),
             "beta": float(rng.uniform(0.04, 0.16))}
            for i in range(metrics)
        ],
        "widths_per_budget": widths,
        "noise_sigma": noise,
        "curvature": 0.05,
        "seed": seed,
    }


def simulate_inputs(spec: dict, workdir: Path) -> dict:
    """Write the spec, its run log (JSONL and a CSV copy), return the truth."""
    from relscale import store, synthlab

    _write_json(workdir / "spec.json", spec)
    parsed = synthlab.SyntheticSpec.from_dict(dict(spec))
    (workdir / "runs.jsonl").write_text(
        store.runs_to_jsonl(synthlab.generate(parsed)), encoding="utf-8")
    write_csv_copy(workdir / "runs.jsonl", workdir / "runs.csv")
    return synthlab.known_truth(parsed).to_dict()


def correlation_inputs(rng, n: int, workdir: Path, tag: str) -> tuple[str, str]:
    """Seeded per-group slopes that fall with log10 of a population covariate."""
    groups = [f"group{i:02d}" for i in range(n)]
    log_cov = rng.uniform(5.0, 9.0, size=n)
    slopes = -0.01 * log_cov + rng.normal(0.0, 0.01, size=n)
    slopes_path, cov_path = f"slopes_{tag}.json", f"covariate_{tag}.json"
    _write_json(workdir / slopes_path, dict(zip(groups, slopes.tolist())))
    _write_json(workdir / cov_path, dict(zip(groups, (10.0 ** log_cov).tolist())))
    return slopes_path, cov_path


# -- output checks ---------------------------------------------------------

def check_frontier(path: str, budgets: list[float]):
    def check(workdir: Path):
        points = _read_report(workdir / path)["frontier"]["points"]
        got = [p["budget"] for p in points]
        if len(got) != len(budgets) or any(
                abs(g - b) > 1e-9 * b for g, b in zip(got, budgets)):
            return f"{path}: {len(got)} frontier points for {len(budgets)} planted budgets"
        return None
    return check


def check_beta(path: str, truth_beta: float):
    def check(workdir: Path):
        beta = _read_report(workdir / path)["fit"]["beta"]
        if not abs(beta - truth_beta) <= BETA_TOL:
            return f"{path}: beta {beta:.6g} vs planted {truth_beta:.6g}"
        return None
    return check


def check_delta_beta(path: str, truth: float):
    def check(workdir: Path):
        got = _read_report(workdir / path)["relative_fit"]["delta_beta"]
        if not abs(got - truth) <= DELTA_BETA_TOL:
            return f"{path}: delta_beta {got:.6g} vs planted {truth:.6g}"
        return None
    return check


def check_same_file(path: str, reference: str):
    def check(workdir: Path):
        if (workdir / path).read_bytes() != (workdir / reference).read_bytes():
            return f"{path} differs from {reference}"
        return None
    return check


def check_correlation(path: str, slopes_path: str, cov_path: str):
    """Pearson r against numpy's, p-value inside (0, 1]."""
    def check(workdir: Path):
        result = _read_report(workdir / path)["correlation"]
        slopes = json.loads((workdir / slopes_path).read_text())
        cov = json.loads((workdir / cov_path).read_text())
        keys = sorted(slopes)
        expected = np.corrcoef(np.log10([cov[k] for k in keys]), [slopes[k] for k in keys])[0, 1]
        if not abs(result["pearson_r"] - expected) <= 1e-9:
            return f"{path}: pearson_r {result['pearson_r']:.12g} vs {expected:.12g}"
        if not 0.0 < result["p_value"] <= 1.0:
            return f"{path}: p_value {result['p_value']!r} outside (0, 1]"
        return None
    return check


def check_calibration(path: str, rmse_max: float, floor: float | None):
    def check(workdir: Path):
        cal = _read_report(workdir / path)["calibration"]
        if not cal["rmse"] <= rmse_max:
            return f"{path}: rmse {cal['rmse']:.4g} above {rmse_max:.4g}"
        if floor is not None and cal["floor"] != floor:
            return f"{path}: floor {cal['floor']!r} is not the fixed {floor!r}"
        return None
    return check


def check_exists(*paths: str):
    def check(workdir: Path):
        for path in paths:
            if not (workdir / path).is_file() or (workdir / path).stat().st_size == 0:
                return f"{path}: missing or empty"
        return None
    return check


def check_crossover(path: str, planted: float):
    """Crossover inside the span, within half a decade of the planted one."""
    def check(workdir: Path):
        result = _read_report(workdir / path)["crossover"]
        if not (result["in_range"] and abs(math.log10(result["f_star"] / planted)) <= 0.5):
            return f"{path}: crossover at {result['f_star']:.4g} vs planted {planted:.4g}"
        return None
    return check


def check_bundle(path: str, entries: int):
    def check(workdir: Path):
        got = len(_read_report(workdir / path)["bundle"])
        return None if got == entries else f"{path}: {got} bundled reports, expected {entries}"
    return check


def _both(*checks):
    def check(workdir: Path):
        for c in checks:
            message = c(workdir)
            if message:
                return message
        return None
    return check


def _pair_truth(truth: dict, treatment: str, baseline: str) -> float:
    for p in truth["pairs"]:
        if p["treatment"] == treatment and p["baseline"] == baseline:
            return p["delta_beta"]
    raise KeyError((treatment, baseline))


# -- workloads -------------------------------------------------------------

@dataclass
class Workload:
    """Prepared inputs and the fixed command sequence of one workload."""

    in_process: bool
    ops: list[Op]
    panel_mode: str  # how the accuracy panel pairs metrics: "frontier" or "runs"
    panel_noise: float


SIZES = {
    # budgets, widths, metrics, noise; resamples, permutations
    "sweep": dict(budgets=100, widths=25, metrics=20, noise=0.005, resamples=2000),
    "inference": dict(budgets=40, widths=15, metrics=8, noise=0.01, resamples=2000,
                      permutations=2000, tasks=10, models=80),
    "cold_cli": dict(budgets=5, widths=7, metrics=3, noise=0.005),
}

SMOKE_SIZES = {
    "sweep": dict(budgets=8, widths=7, metrics=9, noise=0.005, resamples=50),
    "inference": dict(budgets=6, widths=7, metrics=4, noise=0.01, resamples=50,
                      permutations=50, tasks=2, models=40),
    "cold_cli": dict(budgets=5, widths=7, metrics=3, noise=0.005),
}


def prepare(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    rng = np.random.default_rng([seed, 7919])
    return {"sweep": _sweep, "inference": _inference, "cold_cli": _cold_cli}[name](
        rng, seed, workdir, size)


def _sweep(rng, seed: int, workdir: Path, size: dict) -> Workload:
    budgets = np.geomspace(1e18, 1e21, size["budgets"]).tolist()
    spec = sweep_spec(rng, budgets, size["metrics"], size["widths"], size["noise"], seed)
    truth = simulate_inputs(spec, workdir)
    names = [g["name"] for g in spec["subgroups"]]
    base = names[0]
    ops = [
        Op(["simulate", "--spec", "spec.json", "--output", "sim.jsonl", "--truth", "truth.json"],
           ["sim.jsonl", "truth.json"], check_same_file("sim.jsonl", "runs.jsonl")),
        Op(["ingest", "--input", "runs.csv", "--format", "csv", "--output", "ingested.jsonl"],
           ["ingested.jsonl"], check_same_file("ingested.jsonl", "runs.jsonl")),
    ]
    for i, metric in enumerate(names[:8]):
        ops.append(Op(["frontier", "--input", "ingested.jsonl", "--metric", metric,
                       "--output", f"frontier{i}.json", "--csv", f"frontier{i}.csv"],
                      [f"frontier{i}.json", f"frontier{i}.csv"],
                      check_frontier(f"frontier{i}.json", budgets)))
        ops.append(Op(["fit", "--input", f"frontier{i}.json", "--output", f"fit{i}.json"],
                      [f"fit{i}.json"],
                      check_beta(f"fit{i}.json", truth["absolute"][metric][1])))
    ops.append(Op(["fit", "--input", "frontier0.json", "--family", "power-floor",
                   "--output", "fit_floor.json"], ["fit_floor.json"],
                  check_exists("fit_floor.json")))
    ops.append(Op(["fit", "--input", "frontier0.json", "--estimator", "huber",
                   "--output", "fit_huber.json"], ["fit_huber.json"],
                  check_beta("fit_huber.json", truth["absolute"][base][1])))
    resamples = str(size["resamples"])
    for i, metric in enumerate(names[1:8], start=1):
        ops.append(Op(["relfit", "--input", "ingested.jsonl", "--metric", metric,
                       "--baseline", base, "--frontier", "--resamples", resamples,
                       "--seed", str(seed), "--output", f"rel{i}.json"],
                      [f"rel{i}.json"],
                      check_delta_beta(f"rel{i}.json", _pair_truth(truth, metric, base))))
    ops.append(Op(["relfit", "--input", "ingested.jsonl", "--metric", names[1],
                   "--baseline", base, "--resamples", resamples, "--seed", str(seed),
                   "--output", "rel_runs.json"], ["rel_runs.json"],
                  check_delta_beta("rel_runs.json", _pair_truth(truth, names[1], base))))
    plotted = ["frontier0", "frontier1", "fit0", "fit_floor", "fit_huber", "rel1", "rel2",
               "rel_runs"]
    for stem in plotted:
        ops.append(Op(["plot", "--input", f"{stem}.json", "--output", f"plot_{stem}"],
                      [f"plot_{stem}.svg", f"plot_{stem}.csv"],
                      check_exists(f"plot_{stem}.svg", f"plot_{stem}.csv")))
    bundled = [f"fit{i}.json" for i in range(8)] + [f"rel{i}.json" for i in range(1, 8)]
    ops.append(Op(["report", *[a for p in bundled for a in ("--input", p)],
                   "--output", "bundle.json"], ["bundle.json"],
                  check_bundle("bundle.json", len(bundled))))
    return Workload(in_process=True, ops=ops, panel_mode="frontier", panel_noise=size["noise"])


def _calibration_log(rng, tasks: int, models: int, noise: float, path: Path) -> list[str]:
    """External models with per-task loss and a planted sigmoid accuracy."""
    planted = [dict(ceiling=rng.uniform(0.75, 0.95), steepness=rng.uniform(2.0, 6.0),
                    midpoint=rng.uniform(2.4, 3.0)) for _ in range(tasks)]
    lines = []
    for m in range(models):
        params = int(10 ** rng.uniform(8.0, 10.5))
        tokens = int(10 ** rng.uniform(10.0, 12.0))
        metrics = {}
        for t, p in enumerate(planted):
            loss = float(rng.uniform(1.6, 4.0))
            logistic = 1.0 / (1.0 + math.exp(p["steepness"] * (loss - p["midpoint"])))
            acc = 0.25 + (p["ceiling"] - 0.25) * logistic
            metrics[f"loss/task{t:02d}"] = loss
            metrics[f"acc/task{t:02d}"] = float(np.clip(acc + rng.normal(0.0, noise), 0.0, 1.0))
        lines.append(json.dumps({
            "run_id": f"ext-{m:03d}", "source": "external", "dataset": "public-evals",
            "flops": float(6 * params * tokens), "params": params, "tokens": tokens,
            "metrics": metrics}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [f"task{t:02d}" for t in range(tasks)]


def _inference(rng, seed: int, workdir: Path, size: dict) -> Workload:
    budgets = np.geomspace(1e18, 1e21, size["budgets"]).tolist()
    spec = sweep_spec(rng, budgets, size["metrics"], size["widths"], size["noise"], seed)
    truth = simulate_inputs(spec, workdir)
    names = [g["name"] for g in spec["subgroups"]]
    base = names[0]
    ops = []
    for i, metric in enumerate(names[1:4], start=1):
        for workers in (1, 2):
            out, slopes = f"rel{i}_w{workers}.json", f"slopes{i}_w{workers}.csv"
            check = (check_delta_beta(out, _pair_truth(truth, metric, base)) if workers == 1
                     else _both(check_same_file(out, f"rel{i}_w1.json"),
                                check_same_file(slopes, f"slopes{i}_w1.csv")))
            ops.append(Op(["relfit", "--input", "runs.jsonl", "--metric", metric,
                           "--baseline", base, "--resamples", str(size["resamples"]),
                           "--seed", str(seed), "--workers", str(workers),
                           "--slopes-csv", slopes, "--output", out], [out, slopes], check))
    for n in (8, 24):
        slopes_path, cov_path = correlation_inputs(rng, n, workdir, f"n{n}")
        for workers in (1, 2):
            out = f"corr_n{n}_w{workers}.json"
            check = (check_correlation(out, slopes_path, cov_path) if workers == 1
                     else check_same_file(out, f"corr_n{n}_w1.json"))
            ops.append(Op(["correlate", "--input", slopes_path, "--covariate", cov_path,
                           "--permutations", str(size["permutations"]), "--seed", str(seed),
                           "--workers", str(workers), "--output", out], [out], check))
    noise = 0.01
    for task in _calibration_log(rng, size["tasks"], size["models"], noise,
                                 workdir / "evals.jsonl"):
        for floor in ("free", "0.25"):
            out = f"cal_{task}_{floor}.json"
            ops.append(Op(["calibrate", "--input", "evals.jsonl", "--metric", f"loss/{task}",
                           "--accuracy-key", f"acc/{task}", "--floor", floor, "--output", out],
                          [out], check_calibration(out, 3 * noise,
                                                   None if floor == "free" else 0.25)))
    return Workload(in_process=True, ops=ops, panel_mode="runs", panel_noise=size["noise"])


def _cold_cli(rng, seed: int, workdir: Path, size: dict) -> Workload:
    budgets = np.geomspace(1e18, 1e20, size["budgets"]).tolist()
    spec = sweep_spec(rng, budgets, size["metrics"], size["widths"], size["noise"], seed)
    # Plant relative curves m1/m0 and m2/m0 that cross mid-span, so the
    # crossover command has a finite answer to check against.
    g1, g2 = spec["subgroups"][1:3]
    gap = float(rng.uniform(0.04, 0.06))
    g2["beta"] = g1["beta"] - gap if g1["beta"] - gap >= 0.02 else g1["beta"] + gap
    f_cross = 10.0 ** float(rng.uniform(18.5, 19.5))
    g2["alpha"] = g1["alpha"] * f_cross ** (g2["beta"] - g1["beta"])
    truth = simulate_inputs(spec, workdir)
    m0, m1, m2 = (g["name"] for g in spec["subgroups"][:3])
    slopes_path, cov_path = correlation_inputs(rng, 6, workdir, "n6")
    from relscale import __version__

    def check_version(workdir: Path):
        # The harness saves command i's standard output as op<i>.out.
        text = (workdir / "op00.out").read_text()
        return None if __version__ in text else f"--version printed {text!r}"

    ops = [
        Op(["--version"], [], check_version),
        Op(["plan", "--budgets", ",".join(repr(b) for b in budgets), "--output", "plans.jsonl"],
           ["plans.jsonl"], check_exists("plans.jsonl")),
        Op(["simulate", "--spec", "spec.json", "--output", "sim.jsonl", "--truth", "truth.json"],
           ["sim.jsonl", "truth.json"], check_same_file("sim.jsonl", "runs.jsonl")),
        Op(["ingest", "--input", "runs.csv", "--format", "csv", "--output", "ingested.jsonl"],
           ["ingested.jsonl"], check_same_file("ingested.jsonl", "runs.jsonl")),
        Op(["frontier", "--input", "ingested.jsonl", "--metric", m0, "--output", "frontier.json"],
           ["frontier.json"], check_frontier("frontier.json", budgets)),
        Op(["fit", "--input", "frontier.json", "--output", "fit.json"], ["fit.json"],
           check_beta("fit.json", truth["absolute"][m0][1])),
        Op(["relfit", "--input", "ingested.jsonl", "--metric", m1, "--baseline", m0,
            "--seed", str(seed), "--output", "rel_a.json"], ["rel_a.json"],
           check_delta_beta("rel_a.json", _pair_truth(truth, m1, m0))),
        Op(["relfit", "--input", "ingested.jsonl", "--metric", m2, "--baseline", m0,
            "--frontier", "--seed", str(seed), "--output", "rel_b.json"], ["rel_b.json"],
           check_delta_beta("rel_b.json", _pair_truth(truth, m2, m0))),
        Op(["crossover", "--input", "rel_a.json", "--other", "rel_b.json",
            "--span", f"{budgets[0]!r},{budgets[-1]!r}", "--output", "cross.json"],
           ["cross.json"], check_crossover("cross.json", f_cross)),
        Op(["correlate", "--input", slopes_path, "--covariate", cov_path, "--seed", str(seed),
            "--output", "corr.json"], ["corr.json"],
           check_correlation("corr.json", slopes_path, cov_path)),
        Op(["report", "--input", "fit.json", "--input", "rel_a.json", "--input", "rel_b.json",
            "--output", "bundle.json"], ["bundle.json"], check_bundle("bundle.json", 3)),
        Op(["plot", "--input", "frontier.json", "--output", "plot_frontier"],
           ["plot_frontier.svg", "plot_frontier.csv"],
           check_exists("plot_frontier.svg", "plot_frontier.csv")),
    ]
    return Workload(in_process=False, ops=ops, panel_mode="runs", panel_noise=size["noise"])
