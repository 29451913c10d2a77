"""Acceptance suite: one test per release criterion, tolerances pinned.

Numbered to match the criteria list; the conftest hook prints one
PASS/FAIL line per criterion. Oracle values are computed independently
inside each test (closed forms, exhaustive enumeration, planted truths)
rather than copied from the implementation.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from relscale import (
    FitError,
    RelativeFit,
    SigmoidCalibration,
    Subgroup,
    MixtureSubgroup,
    SyntheticSpec,
    SweepPolicy,
    bootstrap_sign_test,
    crossover,
    extract_frontier,
    fit_power_law,
    fit_relative,
    fit_sigmoid,
    generate,
    isolation_series,
    known_truth,
    pairs_from_frontiers,
    pairs_from_runs,
    plan_sweep,
    slope_covariate_correlation,
    tokens_for_budget,
)
from relscale.cli import main
from tests.conftest import run_forecast


def test_criterion_1_noiseless_oracle_roundtrip():
    """Full pipeline recovers planted (alpha, beta, gamma, delta_beta) to 1e-6."""
    start = time.monotonic()
    spec = SyntheticSpec(
        budgets=tuple(np.geomspace(1e18, 1e20, 5)),
        subgroups=(Subgroup("t", alpha=3.9, beta=0.12), Subgroup("b", alpha=3.0, beta=0.10)),
        widths_per_budget=7,
        noise_sigma=0.0,
        seed=11,
    )
    truth = known_truth(spec)
    runs = generate(spec)
    assert len(runs) == 35

    fits = {}
    series = {}
    for name in ("t", "b"):
        series[name] = extract_frontier(runs, name)
        assert len(series[name]) == 5
        fits[name] = fit_power_law(series[name].law_points())
        alpha_true, beta_true = truth.absolute[name]
        assert abs(fits[name].alpha - alpha_true) / alpha_true <= 1e-6
        assert abs(fits[name].beta - beta_true) / beta_true <= 1e-6

    pair_truth = {(p.treatment, p.baseline): p for p in truth.pairs}
    for treatment, baseline in (("t", "b"), ("b", "t")):
        pairs = pairs_from_frontiers(series[treatment], series[baseline])
        rel = fit_relative(pairs, run_bootstrap=False)
        expected = pair_truth[(treatment, baseline)]
        assert abs(rel.gamma - expected.gamma) / expected.gamma <= 1e-6
        assert abs(rel.delta_beta - expected.delta_beta) <= 1e-6 * max(
            abs(expected.delta_beta), 1e-3
        )

    assert time.monotonic() - start < 5.0


def test_criterion_2_relative_identity_on_noisy_data():
    """delta_beta equals the difference of separate absolute-fit betas to 1e-9."""
    budgets = tuple(np.geomspace(1e18, 1e20, 8))
    for seed in range(100):
        spec = SyntheticSpec(
            budgets=budgets,
            subgroups=(Subgroup("t", 2.5, 0.13), Subgroup("b", 3.0, 0.10)),
            widths_per_budget=1,
            noise_sigma=0.02,
            seed=seed,
        )
        runs = generate(spec)
        pairs = pairs_from_runs(runs, "t", "b")
        beta_t = fit_power_law([(f, t) for f, t, _ in pairs]).beta
        beta_b = fit_power_law([(f, b) for f, _, b in pairs]).beta
        rel = fit_relative(pairs, run_bootstrap=False)
        assert abs(rel.delta_beta - (beta_b - beta_t)) <= 1e-9


def test_criterion_3_bootstrap_coverage():
    """95% CI covers the planted slope in 90-99% of trials; sign is detected."""
    start = time.monotonic()
    budgets = tuple(np.geomspace(1e18, 1e20, 15))
    delta_beta_true = -0.02
    covered = 0
    significant = 0
    trials = 200
    for trial in range(trials):
        spec = SyntheticSpec(
            budgets=budgets,
            subgroups=(Subgroup("t", 3.0, 0.12), Subgroup("b", 3.0, 0.10)),
            widths_per_budget=1,
            noise_sigma=0.01,
            seed=trial,
        )
        pairs = pairs_from_runs(generate(spec), "t", "b")
        p_sign, ci_low, ci_high = bootstrap_sign_test(pairs, resamples=2000, seed=trial)
        if ci_low <= delta_beta_true <= ci_high:
            covered += 1
        if p_sign < 0.05:
            significant += 1
    assert 0.90 * trials <= covered <= 0.99 * trials
    assert significant >= 0.80 * trials
    assert time.monotonic() - start < 120.0


def test_criterion_4_paper_endpoint_arithmetic():
    """Two-point fits through the reported endpoints match the closed forms."""
    absolute = fit_power_law([(1e18, 2.45), (1e20, 1.56)])
    beta_oracle = -math.log(1.56 / 2.45) / math.log(1e20 / 1e18)
    assert absolute.beta == pytest.approx(beta_oracle, abs=1e-12)
    assert abs(absolute.beta - 0.0980) <= 0.0001
    assert abs(absolute.predict(1e19) - 1.955) <= 0.001
    assert absolute.predict(1e19) == pytest.approx(math.sqrt(2.45 * 1.56), rel=1e-12)

    relative = fit_relative(
        [(1e18, 1.29, 1.0), (1e20, 1.05, 1.0)], run_bootstrap=False
    )
    delta_oracle = math.log(1.05 / 1.29) / math.log(100.0)
    assert relative.delta_beta == pytest.approx(delta_oracle, abs=1e-12)
    assert abs(relative.delta_beta - (-0.0447)) <= 0.0005


def test_criterion_5_crossover_closed_form():
    """F* from the closed form; antisymmetry; parallel curves error out."""

    def rel(gamma, delta_beta):
        return RelativeFit(gamma=gamma, delta_beta=delta_beta, mode="ratio",
                           p_sign=None, ci_low=None, ci_high=None, n_pairs=5)

    result = crossover(rel(0.9, 0.02), rel(0.8, 0.05), (1.0, 1e3))
    assert abs(result.f_star - (0.9 / 0.8) ** (1 / 0.03)) <= 1e-9
    assert abs(result.f_star - 50.7) <= 0.1
    assert result.in_range

    swapped = crossover(rel(0.8, 0.05), rel(0.9, 0.02), (1.0, 1e3))
    assert swapped.f_star == pytest.approx(result.f_star, rel=1e-9)

    with pytest.raises(FitError, match="parallel"):
        crossover(rel(0.9, 0.02), rel(0.8, 0.02), (1.0, 1e3))


def test_criterion_6_planner_conformance():
    """Every plan over the budget ladder satisfies all structural rules."""
    start = time.monotonic()
    policy = SweepPolicy()
    plans = plan_sweep([1e18, 3e18, 1e19, 3e19, 1e20], policy)
    assert plans
    for plan in plans:
        assert plan.batch >= 1 and plan.batch & (plan.batch - 1) == 0
        assert plan.lr <= 0.01
        assert plan.shape.n_heads == plan.shape.width // 128
        assert plan.shape.ffn_dim == 4 * plan.shape.width
        assert abs(plan.schedule.warmup_steps - 0.05 * plan.steps) <= 0.5
        assert abs(plan.schedule.decay_steps - 0.20 * plan.steps) <= 0.5
        assert plan.schedule.total_steps == plan.steps
        achieved = 6 * plan.shape.params * plan.tokens
        assert abs(achieved - plan.budget) <= 0.01 * plan.budget
        target = tokens_for_budget(plan.budget, plan.shape.params)
        assert 0.999 * target <= plan.tokens <= 1.001 * target
    assert time.monotonic() - start < 1.0


def test_criterion_7_sigmoid_recovery_and_composition(tmp_path):
    """Noiseless sigmoid refit to 1e-6; midpoint exact; composition bitwise."""
    truth = SigmoidCalibration(
        floor=0.25, ceiling=1.0, steepness=3.0, midpoint=1.8, rmse=0.0, n=8
    )
    losses = np.linspace(0.9, 2.7, 8)
    points = [(float(l), float(truth.predict(l))) for l in losses]
    cal = fit_sigmoid(points)
    assert abs(cal.floor - 0.25) / 0.25 <= 1e-6
    assert abs(cal.ceiling - 1.0) <= 1e-6
    assert abs(cal.steepness - 3.0) / 3.0 <= 1e-6
    assert abs(cal.midpoint - 1.8) / 1.8 <= 1e-6

    assert truth.predict(1.8) == 0.625

    law = fit_power_law([(1e18, 2.45), (1e20, 1.56)])
    scales = np.random.default_rng(3).uniform(1e17, 1e21, size=10).tolist()
    predictions = run_forecast(tmp_path, law, cal, [*scales, 1e19])
    for scale, loss, acc in predictions:
        assert loss == law.predict(scale)
        assert acc == cal.predict(law.predict(scale))
    _, loss_mid, acc_mid = predictions[-1]
    assert loss_mid == pytest.approx(1.955, abs=1e-3)
    assert acc_mid == cal.predict(loss_mid)


def test_criterion_8_correlation_oracle():
    """Exhaustive p matches hand enumeration; R=1 on a line; mixture sign 5/5."""
    # Exhaustive permutation p-value on n=4, hand enumeration as the oracle.
    covariate = [("a", 10.0), ("b", 100.0), ("c", 1000.0), ("d", 10000.0)]
    slopes = [("a", -0.5), ("b", -0.1), ("c", 0.2), ("d", 0.9)]
    result = slope_covariate_correlation(slopes, covariate)

    def pearson(x, y):
        xc, yc = x - x.mean(), y - y.mean()
        return float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))

    x = np.log10([v for _, v in covariate])
    y = np.array([s for _, s in slopes])
    hits = sum(
        1
        for perm in itertools.permutations(range(4))
        if abs(pearson(x, y[list(perm)])) >= abs(pearson(x, y))
    )
    assert result.p_value == hits / 24

    # Perfect linear data.
    linear_slopes = [(g, 0.05 + 0.3 * math.log10(v)) for g, v in covariate]
    perfect = slope_covariate_correlation(linear_slopes, covariate)
    assert perfect.pearson_r == pytest.approx(1.0, abs=1e-9)
    assert perfect.regression_slope == pytest.approx(0.3, abs=1e-9)

    # Mixture-generated data: shares spanning two decades, tau = 0.3.
    shares = [0.003, 0.01, 0.03, 0.1, 0.3]
    baseline = f"g{shares[-1]}"
    for seed in range(5):
        spec = SyntheticSpec(
            budgets=(1e18,),
            subgroups=tuple(
                MixtureSubgroup(f"g{q}", q, transfer=0.3, exponent=0.25, scale=2.0)
                for q in shares
            ),
            noise_sigma=0.005,
            seed=seed,
            total_tokens_schedule=np.geomspace(1e8, 1e10, 8),
        )
        runs = generate(spec)
        group_slopes = []
        for q in shares[:-1]:
            pairs = pairs_from_frontiers(isolation_series(runs, f"g{q}", "tokens"),
                                         isolation_series(runs, baseline, "tokens"))
            fit = fit_relative(pairs, mode="difference", run_bootstrap=False)
            group_slopes.append((f"g{q}", fit.delta_beta))
        corr = slope_covariate_correlation(
            group_slopes, [(f"g{q}", q) for q in shares[:-1]], seed=seed
        )
        assert corr.pearson_r > 0, f"seed {seed}: slope-share correlation not positive"


def test_criterion_9_determinism_across_parallelism(tmp_path):
    """Fitting and generation commands are byte-identical across reruns and workers."""
    runner = CliRunner()

    def run(args):
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output

    spec = {
        "budgets": [1e18, 3e18, 1e19, 3e19, 1e20],
        "subgroups": [
            {"name": "t", "alpha": 3.9, "beta": 0.12},
            {"name": "b", "alpha": 3.0, "beta": 0.10},
        ],
        "widths_per_budget": 7,
        "noise_sigma": 0.01,
        "curvature": 0.2,
        "seed": 21,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    # Generation: same invocation twice.
    runs = {}
    for tag in ("a", "b"):
        out = tmp_path / f"runs_{tag}.jsonl"
        run(["simulate", "--spec", str(spec_path), "--output", str(out)])
        runs[tag] = out.read_bytes()
    assert runs["a"] == runs["b"]

    runs_path = tmp_path / "runs_a.jsonl"

    # plan: same invocation twice.
    for tag in ("a", "b"):
        run(["plan", "--budgets", "1e18,1e19", "--output",
             str(tmp_path / f"plans_{tag}.jsonl")])
    assert (tmp_path / "plans_a.jsonl").read_bytes() == (
        tmp_path / "plans_b.jsonl"
    ).read_bytes()

    # frontier + fit: repeated runs against identical inputs.
    for tag in ("a", "b"):
        run(["frontier", "--input", str(runs_path), "--metric", "b",
             "--output", str(tmp_path / f"frontier_{tag}.json")])
    assert (tmp_path / "frontier_a.json").read_bytes() == (
        tmp_path / "frontier_b.json"
    ).read_bytes()
    frontier_path = tmp_path / "frontier_a.json"
    for tag in ("a", "b"):
        run(["fit", "--input", str(frontier_path),
             "--output", str(tmp_path / f"fit_{tag}.json")])
    assert (tmp_path / "fit_a.json").read_bytes() == (
        tmp_path / "fit_b.json"
    ).read_bytes()

    # relfit: bootstrap under different worker counts.
    for tag, workers in (("a", 1), ("b", 4)):
        run(["relfit", "--input", str(runs_path), "--metric", "t",
             "--baseline", "b", "--seed", "5", "--resamples", "800",
             "--workers", str(workers),
             "--output", str(tmp_path / f"rel_{tag}.json")])
    assert (tmp_path / "rel_a.json").read_bytes() == (
        tmp_path / "rel_b.json"
    ).read_bytes()

    # crossover on two relfit reports (difference in slope via frontier route).
    run(["relfit", "--input", str(runs_path), "--metric", "b", "--baseline", "t",
         "--seed", "5", "--resamples", "800",
         "--output", str(tmp_path / "rel_swapped.json")])
    for tag in ("a", "b"):
        run(["crossover", "--input", str(tmp_path / "rel_a.json"),
             "--other", str(tmp_path / "rel_swapped.json"),
             "--span", "1e18,1e20",
             "--output", str(tmp_path / f"cross_{tag}.json")])
    assert (tmp_path / "cross_a.json").read_bytes() == (
        tmp_path / "cross_b.json"
    ).read_bytes()

    # correlate: Monte Carlo permutations under different worker counts.
    slopes_path = tmp_path / "slopes.json"
    slopes_path.write_text(
        json.dumps({f"g{i}": 0.1 * i - 0.4 + (0.02 * (i % 3)) for i in range(10)})
    )
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps({f"g{i}": float(10 ** (1 + i / 4)) for i in range(10)}))
    for tag, workers in (("a", 1), ("b", 3)):
        run(["correlate", "--input", str(slopes_path), "--covariate", str(cov_path),
             "--permutations", "5000", "--seed", "9", "--workers", str(workers),
             "--output", str(tmp_path / f"corr_{tag}.json")])
    assert (tmp_path / "corr_a.json").read_bytes() == (
        tmp_path / "corr_b.json"
    ).read_bytes()

    # calibrate + forecast: repeated runs.
    truth = SigmoidCalibration(floor=0.25, ceiling=1.0, steepness=3.0,
                               midpoint=1.8, rmse=0.0, n=8)
    rows = []
    for i, loss in enumerate(np.linspace(0.9, 2.7, 8)):
        rows.append({
            "run_id": f"ext{i}", "source": "external", "dataset": "open",
            "flops": 1e21, "params": 8_000_000_000, "tokens": 15_000_000_000,
            "metrics": {"loss": float(loss),
                        "acc": float(truth.predict(loss))},
        })
    ext_path = tmp_path / "ext.jsonl"
    ext_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    for tag in ("a", "b"):
        run(["calibrate", "--input", str(ext_path), "--metric", "loss",
             "--accuracy-key", "acc", "--floor", "0.25",
             "--output", str(tmp_path / f"cal_{tag}.json")])
    assert (tmp_path / "cal_a.json").read_bytes() == (
        tmp_path / "cal_b.json"
    ).read_bytes()
    for tag in ("a", "b"):
        run(["forecast", "--input", str(tmp_path / "fit_a.json"),
             "--calibration", str(tmp_path / "cal_a.json"),
             "--scales", "1e19,1e21",
             "--output", str(tmp_path / f"fc_{tag}.json")])
    assert (tmp_path / "fc_a.json").read_bytes() == (
        tmp_path / "fc_b.json"
    ).read_bytes()
