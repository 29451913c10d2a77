import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from relscale import (
    FrontierError,
    RunSet,
    Subgroup,
    SyntheticSpec,
    extract_frontier,
    fit_isoflop_slice,
    generate,
)
from relscale import frontier as frontier_module
from relscale.cli import main
from relscale.frontier import (
    BUDGET_TOLERANCE,
    EXTRAPOLATION_FACTOR,
    FIXED_AXIS_TOLERANCE,
    FLAT_CURVATURE_RTOL,
    FrontierPoint,
    FrontierSeries,
    _budget_slices,
    _distinct_counts,
    _fit_slices,
    isolation_series,
)
from relscale.store import emit_runs, ingest_runs, runs_to_jsonl
from tests.conftest import make_run


def relfit_tokens_pairs(runs, tmp_path):
    """The pairs ``relfit --axis tokens`` takes from ``runs`` for metric "m"
    against itself; the command's error line is raised as a FrontierError."""
    log, out = tmp_path / "runs.jsonl", tmp_path / "rel.json"
    log.write_text(runs_to_jsonl(runs))
    result = CliRunner().invoke(main, ["relfit", "--input", str(log), "--metric", "m",
                                       "--baseline", "m", "--axis", "tokens",
                                       "--output", str(out)])
    if result.exit_code == 1:
        raise FrontierError(result.stderr)
    assert result.exit_code == 0, result.output
    return json.loads(out.read_text())["results"]["relative_fit"]["pairs"]


def parabola_slice(curvature, vertex_x, vertex_metric, xs):
    """An exact quadratic slice in log10-token space: (10^x, metric) points
    with metric = vertex_metric + curvature * (x - vertex_x)^2."""
    return [(10.0**x, vertex_metric + curvature * (x - vertex_x) ** 2) for x in xs]


class TestSliceFit:
    def test_symmetric_exact_parabola(self):
        points = [(1e9, 3.0), (1e10, 2.0), (1e11, 3.0)]
        fit = fit_isoflop_slice(points, budget=1e18)
        assert fit.optimal_tokens == pytest.approx(1e10, rel=1e-12)
        assert fit.optimal_metric == pytest.approx(2.0, abs=1e-12)
        assert fit.curvature == pytest.approx(1.0, rel=1e-12)
        assert fit.fit_r2 == pytest.approx(1.0, abs=1e-12)

    def test_seven_point_recovery(self):
        # Noiseless synthetic slice; recovery to 1e-9 relative.
        xs = np.linspace(8.7, 10.7, 7)
        points = parabola_slice(0.5, 9.7, 1.8, xs)
        fit = fit_isoflop_slice(points, budget=3e18)
        assert fit.optimal_tokens == pytest.approx(10**9.7, rel=1e-9)
        assert fit.optimal_metric == pytest.approx(1.8, rel=1e-9)
        assert fit.curvature == pytest.approx(0.5, rel=1e-9)
        assert fit.n_points == 7

    def test_empty_slice_is_refused(self):
        with pytest.raises(FrontierError, match="^only 0 distinct token count"):
            fit_isoflop_slice([], budget=1e18)

    def test_monotone_slice_has_no_minimum(self):
        points = [(10**x, 5.0 - 0.3 * x) for x in range(8, 13)]
        with pytest.raises(FrontierError, match="minimum"):
            fit_isoflop_slice(points, budget=1e18)

    def test_collinear_slice_is_flat_not_out_of_window(self):
        # Rounding leaves a tiny positive curvature on exactly collinear
        # points; its vertex would lie absurdly far out.
        points = [(10**x, 5.0 - 0.3 * x) for x in range(8, 13)]
        with pytest.raises(FrontierError, match="no interior minimum"):
            fit_isoflop_slice(points, budget=1e21)

    def test_concave_slice_rejected(self):
        points = [(1e9, 2.0), (1e10, 3.0), (1e11, 2.0)]
        with pytest.raises(FrontierError, match="minimum"):
            fit_isoflop_slice(points, budget=1e18)

    def test_two_cluster_slice_is_rank_deficient(self):
        # Three distinct token counts, two of them 1e-6 apart: the exact
        # parabola through them has curvature 1e5 and a vertex far below
        # the metric, so the slice is rejected as too clustered.
        points = [(1e9, 3.0), (1e9 * (1 + 1e-6), 2.9), (1e11, 3.0)]
        with pytest.raises(FrontierError,
                           match="rank-deficient slice; token counts too clustered"):
            fit_isoflop_slice(points, budget=1e20)

    def test_too_few_distinct_token_counts(self):
        points = [(1e9, 3.0), (1e9, 3.1), (1e10, 2.0)]
        with pytest.raises(FrontierError, match="distinct"):
            fit_isoflop_slice(points, budget=1e18)

    def test_extrapolation_guard(self):
        # Vertex at x=9.7 but samples only over [11.0, 12.0]: the minimum
        # sits more than 2x below the observed token range.
        xs = np.linspace(11.0, 12.0, 5)
        points = parabola_slice(0.5, 9.7, 1.8, xs)
        with pytest.raises(FrontierError, match="window"):
            fit_isoflop_slice(points, budget=1e18)

    @given(
        curvature=st.floats(min_value=0.05, max_value=5.0),
        vertex_x=st.floats(min_value=8.5, max_value=10.5),
        vertex_metric=st.floats(min_value=0.1, max_value=5.0),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_equivariance(self, curvature, vertex_x, vertex_metric, scale):
        xs = np.linspace(vertex_x - 1, vertex_x + 1, 7)
        base_points = parabola_slice(curvature, vertex_x, vertex_metric, xs)
        scaled_points = [(t * scale, m) for t, m in base_points]
        base = fit_isoflop_slice(base_points, budget=1e18)
        scaled = fit_isoflop_slice(scaled_points, budget=1e18)
        assert np.log10(scaled.optimal_tokens) == pytest.approx(
            np.log10(base.optimal_tokens) + np.log10(scale), abs=1e-9
        )
        assert scaled.optimal_metric == pytest.approx(base.optimal_metric, rel=1e-9)
        assert scaled.curvature == pytest.approx(base.curvature, rel=1e-9)

    @given(offset=st.floats(min_value=-5.0, max_value=5.0))
    def test_vertical_offset_shifts_metric_only(self, offset):
        xs = np.linspace(8.5, 10.5, 7)
        points = parabola_slice(0.8, 9.5, 2.0, xs)
        shifted = [(t, m + offset) for t, m in points]
        base = fit_isoflop_slice(points, budget=1e18)
        moved = fit_isoflop_slice(shifted, budget=1e18)
        assert moved.optimal_metric == pytest.approx(base.optimal_metric + offset, abs=1e-9)
        assert moved.optimal_tokens == pytest.approx(base.optimal_tokens, rel=1e-12)


def lstsq_slice(points, budget, factor=EXTRAPOLATION_FACTOR):
    """Reference: one LAPACK least-squares fit per slice, as the frontier did
    before the batched fitter. Returns (optimal tokens, optimal metric,
    curvature, r2) or the reason the slice is rejected."""
    tokens = np.array([p[0] for p in points], dtype=float)
    metric = np.array([p[1] for p in points], dtype=float)
    if np.any(tokens <= 0):
        return "token counts must be positive"
    distinct = len(np.unique(tokens))
    if distinct < 3:
        return f"only {distinct} distinct token count(s), need 3 for a slice fit"
    x = np.log10(tokens)
    u = x - x.mean()
    design = np.column_stack([u * u, u, np.ones_like(u)])
    coef, _, rank, _ = np.linalg.lstsq(design, metric, rcond=None)
    if rank < 3:
        return "rank-deficient slice; token counts too clustered"
    p2, p1, p0 = coef
    if p2 * np.max(u * u) <= FLAT_CURVATURE_RTOL * np.max(np.abs(metric)):
        return f"no interior minimum in slice at budget {budget:g} (curvature {p2:g})"
    x0 = x.mean() - p1 / (2.0 * p2)
    t_lo, t_hi = tokens.min(), tokens.max()
    if not (math.log10(t_lo) - math.log10(factor) <= x0
            <= math.log10(t_hi) + math.log10(factor)):
        return (f"fitted minimum 1e{x0:.3f} tokens lies outside the allowed "
                f"window [{t_lo / factor:.3g}, {t_hi * factor:.3g}] at budget {budget:g}")
    residuals = metric - design @ coef
    centered = metric - metric.mean()
    r2 = 1.0 - (residuals @ residuals) / (centered @ centered)
    return 10.0**x0, p0 - p1 * p1 / (4.0 * p2), p2, r2


def fit_batch(slices, budgets):
    """Run the batched fitter over ``slices`` laid end to end."""
    rows = [p for points in slices for p in points]
    tokens, metric = np.array(rows, dtype=float).T
    starts = np.cumsum([0] + [len(points) for points in slices[:-1]])
    return _fit_slices(tokens, metric, starts, budgets)


convex_slice = st.fixed_dictionaries({
    "n": st.integers(min_value=3, max_value=25),
    "curvature": st.floats(min_value=0.05, max_value=5.0),
    "vertex_x": st.floats(min_value=8.5, max_value=11.0),
    "spread": st.floats(min_value=0.5, max_value=2.5),
    "shift": st.floats(min_value=-0.25, max_value=0.25),
    "vertex_metric": st.floats(min_value=0.5, max_value=5.0),
    "noise": st.floats(min_value=0.0, max_value=1e-3),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
})


class TestBatchedFitter:
    @given(st.lists(convex_slice, min_size=1, max_size=6))
    def test_matches_per_slice_lstsq(self, slices):
        records, expected = [], []
        for k, sl in enumerate(slices):
            budget = 10.0 ** (24 + k)
            offsets = np.linspace(-0.5, 0.5, sl["n"]) + sl["shift"]
            tokens = np.unique(np.round(10.0 ** (sl["vertex_x"] + sl["spread"] * offsets)))
            x = np.log10(tokens)
            rise = sl["curvature"] * (x - sl["vertex_x"]) ** 2
            noise = np.random.default_rng(sl["seed"]).normal(size=len(x))
            metric = sl["vertex_metric"] + rise + sl["noise"] * sl["curvature"] * noise
            points = list(zip(tokens.tolist(), metric.tolist()))
            expected.append(lstsq_slice(points, budget))
            records += [make_run(f"s{k}r{i}", budget, int(t), {"m": m})
                        for i, (t, m) in enumerate(points)]
        series = extract_frontier(RunSet(tuple(records)), "m")
        assert series.warnings == ()
        assert len(series.points) == len(expected)
        for point, (tokens, metric, curvature, r2) in zip(series.points, expected):
            got = (point.optimal_tokens, point.optimal_metric, point.curvature, point.fit_r2)
            assert got == pytest.approx((tokens, metric, curvature, r2), rel=1e-10)

    def test_each_rejection_keeps_its_reason_between_good_slices(self):
        good = [parabola_slice(0.5, 9.7, 1.8, np.linspace(8.7, 10.7, 7)),
                parabola_slice(2.0, 10.2, 0.9, np.linspace(9.5, 11.0, 4)),
                parabola_slice(0.1, 9.0, 3.0, np.linspace(8.0, 10.0, 25))]
        bad = [
            [(0.0, 1.0), (1e9, 2.0), (1e10, 1.0)],                      # non-positive
            [(1e9, 3.0), (1e9, 3.1), (1e10, 2.0)],                      # thin
            [(10**9, 3.0), (10**9 + 1, 2.0), (10**9 + 2, 3.0)],         # rank-deficient
            [(1e9, 2.0), (1e10, 3.0), (1e11, 2.0)],                     # concave
            [(10.0**x, 0.0) for x in range(8, 13)],                     # flat
            parabola_slice(0.5, 9.7, 1.8, np.linspace(11.0, 12.0, 5)),  # out of window
        ]
        slices = [good[0]]
        for i, points in enumerate(bad):
            slices += [points, good[(i + 1) % 3]]
        budgets = [10.0 ** (18 + k) for k in range(len(slices))]
        fits = fit_batch(slices, budgets)
        for points, budget, fit in zip(slices, budgets, fits):
            reference = lstsq_slice(points, budget)
            if isinstance(reference, str):
                assert fit == reference
            else:
                assert fit == fit_isoflop_slice(points, budget)
                got = (fit.optimal_tokens, fit.optimal_metric, fit.curvature, fit.fit_r2)
                assert got == pytest.approx(reference, rel=1e-10)
        assert sum(isinstance(fit, str) for fit in fits) == len(bad)

    def test_collinear_slice_is_flat_in_both_fitters(self):
        # The curvature both fitters print here is rounding noise, which no
        # two solvers share; the reason before it must agree.
        points = [(10**x, 5.0 - 0.3 * x) for x in range(8, 13)]
        prefix = "no interior minimum in slice at budget 1e+21 (curvature "
        assert lstsq_slice(points, 1e21).startswith(prefix)
        assert fit_batch([points], [1e21])[0].startswith(prefix)

    @pytest.mark.parametrize("runs", [
        pytest.param(lambda: synthetic_runs(n_points=1), id="one-run-per-budget"),
        pytest.param(lambda: RunSet(tuple(
            make_run(f"r{i}", 1e18, 10**9, {"bpb/all": 2.0 + 0.1 * i}) for i in range(5))),
            id="equal-tokens"),
        pytest.param(lambda: RunSet(tuple(
            make_run(f"r{i}", 1e21, 10**x, {"bpb/all": 5.0 - 0.3 * x})
            for i, x in enumerate(range(8, 13)))), id="collinear"),
    ])
    def test_degenerate_slices_raise_no_numpy_warning(self, runs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = extract_frontier(runs(), "bpb/all")
        assert len(series) == 0 and series.warnings


def distinct_counts_by_sort(values, starts):
    """A sort-based reference for ``_distinct_counts``: lexsort the rows by
    (slice, value) and count, per slice, the rows that differ from the one
    before."""
    ids = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(values)))
    order = np.lexsort((values, ids))
    ids, values = ids[order], values[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (values[1:] != values[:-1])
    return np.bincount(ids[first], minlength=len(starts))


#: Values that repeat, differ by rounding-sized jitter, or are the two zeros.
repeated_value = st.sampled_from([5e8, 1e9, 1e9 * (1 + 1e-12), 2e9, 3e9, 0.0, -0.0])


class TestDistinctCounts:
    @given(st.lists(st.lists(repeated_value, min_size=1, max_size=8), min_size=1, max_size=6))
    def test_matches_the_sort_reference(self, slices):
        values = np.array([v for points in slices for v in points])
        starts = np.cumsum([0] + [len(points) for points in slices[:-1]])
        assert (_distinct_counts(values, starts).tolist()
                == distinct_counts_by_sort(values, starts).tolist())

    @given(st.lists(st.tuples(st.sampled_from([1e18, 1e19]),
                              st.sampled_from([1.0, 1.0 + 1e-3, 1.0 - 2e-3]),
                              st.sampled_from([10**9, 3 * 10**9, 10**10]),
                              st.sampled_from([10**8, 2 * 10**8])),
                    min_size=1, max_size=30))
    # Two jittered one-token groups chain into one slice, where a param repeats.
    @example([(1e18, 1.0, 10**9, 10**8), (1e18, 1.0 + 1e-3, 3 * 10**9, 10**8)])
    def test_matches_at_every_call_site(self, rows):
        """Per flops group and per IsoFLOP slice, on the token and param
        columns that ``_budget_slices`` and ``_build_frontier`` count."""
        flops, tokens, params = (np.array(column, dtype=float) for column in zip(
            *sorted((budget * jitter, t, p) for budget, jitter, t, p in rows)))
        first = np.ones(len(flops), dtype=bool)
        first[1:] = flops[1:] != flops[:-1]
        starts, _, _ = _budget_slices(flops, tokens, BUDGET_TOLERANCE)
        for cut in (np.flatnonzero(first), starts):
            for values in (tokens, params):
                assert (_distinct_counts(values, cut).tolist()
                        == distinct_counts_by_sort(values, cut).tolist())


def synthetic_runs(budgets=(1e18, 1e19, 1e20), n_points=7, seed=3):
    spec = SyntheticSpec(
        budgets=tuple(budgets),
        subgroups=(Subgroup("bpb/all", alpha=3.0, beta=0.1),),
        widths_per_budget=n_points,
        noise_sigma=0.0,
        seed=seed,
    )
    return generate(spec)


class TestExtractFrontier:
    def test_known_minima_recovered(self):
        runs = synthetic_runs()
        series = extract_frontier(runs, "bpb/all")
        assert len(series) == 3
        for point, budget in zip(series.points, (1e18, 1e19, 1e20)):
            assert point.budget == pytest.approx(budget, rel=1e-12)
            assert point.optimal_tokens == pytest.approx(
                np.sqrt(budget / 6.0), rel=1e-6
            )
            assert point.optimal_metric == pytest.approx(
                3.0 * budget**-0.1, rel=1e-6
            )

    def test_single_run_per_budget_gives_empty_series_with_warning(self):
        runs = synthetic_runs(n_points=1)
        series = extract_frontier(runs, "bpb/all")
        assert len(series) == 0
        assert len(series.warnings) == 3
        assert "skipping" in series.warnings[0]

    @pytest.mark.parametrize("slice_points, reason", [
        ([(1e9, 2.0), (1e10, 3.0), (1e11, 2.0)], "no interior minimum"),
        ([(1e9, 3.0), (1e9, 3.1), (1e10, 2.0)], "only 2 distinct token count(s)"),
        (parabola_slice(0.5, 9.7, 1.8, np.linspace(11.0, 12.0, 5)), "window"),
    ])
    def test_rejected_slice_is_skipped_with_warning(self, slice_points, reason):
        bad = [make_run(f"bad{i}", 1e21, int(t), {"bpb/all": m})
               for i, (t, m) in enumerate(slice_points)]
        runs = RunSet(synthetic_runs().records + tuple(bad))
        for optimum in ("vertex", "observed"):
            series = extract_frontier(runs, "bpb/all", optimum=optimum)
            assert [p.budget for p in series.points] == pytest.approx([1e18, 1e19, 1e20])
            assert len(series.warnings) == 1
            assert series.warnings[0].startswith("skipping budget 1e+21: ")
            assert reason in series.warnings[0]

    def test_skip_log_names_the_metric(self, caplog):
        bad = [make_run(f"bad{i}", 1e21, 10**x, {"bpb/all": 5.0 - 0.3 * x})
               for i, x in enumerate(range(8, 13))]
        runs = RunSet(synthetic_runs().records + tuple(bad))
        with caplog.at_level("WARNING", logger="relscale.frontier"):
            series = extract_frontier(runs, "bpb/all")
        assert [r.getMessage() for r in caplog.records] == [
            f"bpb/all: {series.warnings[0]}"
        ]

    def test_missing_metric_errors(self):
        runs = synthetic_runs()
        with pytest.raises(FrontierError, match="nope"):
            extract_frontier(runs, "nope")

    def test_external_runs_excluded(self):
        external = make_run("ext", 1e18, 10**9, {"bpb/all": 1.0}, source="external")
        runs = RunSet(synthetic_runs().records + (external,))
        series = extract_frontier(runs, "bpb/all")
        assert len(series) == 3

    def test_budget_bucketing_tolerance(self):
        # Two budgets 3% apart fall in one bucket at the default 5% rtol.
        records = []
        for i, (flops, tokens) in enumerate(
            [(1e18, 10**9), (1.03e18, 10**10), (1e18, 10**8)]
        ):
            records.append(make_run(f"r{i}", flops, tokens, {"m": [2.0, 3.0, 3.0][i]}))
        series = extract_frontier(RunSet(tuple(records)), "m")
        assert len(series) == 1
        assert series.points[0].n_points == 3

    def test_nearby_budgets_are_not_merged(self):
        runs = synthetic_runs(budgets=(1e19, 1.04e19))
        series = extract_frontier(runs, "bpb/all")
        assert [p.budget for p in series.points] == [1e19, 1.04e19]
        for point in series.points:
            assert point.optimal_tokens == pytest.approx(np.sqrt(point.budget / 6.0), rel=1e-6)
            assert point.n_points == 7
        assert series.warnings == ()

    def test_jittered_flops_give_one_point_per_budget(self):
        rng = np.random.default_rng(0)
        runs = synthetic_runs()
        jittered = RunSet(tuple(replace(r, flops=r.flops * (1.0 + rng.uniform(-0.005, 0.005)))
                                for r in runs))
        series = extract_frontier(jittered, "bpb/all")
        assert [p.budget for p in series.points] == pytest.approx([1e18, 1e19, 1e20], rel=0.005)
        assert [p.n_points for p in series.points] == [7, 7, 7]
        assert series.warnings == ()

    def test_jittered_stragglers_join_the_nearest_fittable_budget(self):
        runs = synthetic_runs(budgets=(1e19, 1.04e19))
        stragglers = tuple(
            replace(r, run_id=f"{r.run_id}-j", flops=r.flops * 1.002)
            for r in runs if r.flops == 1e19)[:2]
        series = extract_frontier(RunSet(runs.records + stragglers), "bpb/all")
        assert [p.n_points for p in series.points] == [9, 7]
        assert series.points[1].budget == 1.04e19

    def test_jittered_nearby_budgets_on_one_width_grid_warn_that_they_merge(self):
        # Budgets 4% apart, every run's flops jittered by up to 0.5%: no exact-flops
        # group has 3 token counts, so the chain stays one slice, and the shared
        # width grid shows each param count twice in it.
        rng = np.random.default_rng(0)
        widths = np.geomspace(2e8, 2e9, 7).round().astype(int).tolist()
        records = []
        for b, budget in enumerate((1e19, 1.04e19)):
            for w, params in enumerate(widths):
                tokens = round(budget / (6 * params))
                dx = math.log10(tokens / math.sqrt(budget / 6))
                records.append(make_run(
                    f"r{b}-{w}", 6.0 * params * tokens * (1 + rng.uniform(-0.005, 0.005)),
                    tokens, {"m": 2.0 * budget**-0.05 * math.exp(0.1 * dx * dx)},
                    params=params))
        runs = RunSet(tuple(records))
        series = extract_frontier(runs, "m")
        assert [p.n_points for p in series.points] == [14]
        assert series.warnings == (
            f"budget {series.points[0].budget:.3g}: a param count repeats in the slice, "
            "so it merges budgets within the 0.05 budget tolerance",)
        split = extract_frontier(runs, "m", budget_tolerance=0.01)
        assert [p.n_points for p in split.points] == [7, 7]
        assert split.warnings == ()

    def test_observed_optimum_flag(self):
        runs = synthetic_runs()
        vertex = extract_frontier(runs, "bpb/all", optimum="vertex")
        observed = extract_frontier(runs, "bpb/all", optimum="observed")
        for pv, po in zip(vertex.points, observed.points):
            run_tokens = {
                r.tokens for r in runs if abs(r.flops - pv.budget) < 0.01 * pv.budget
            }
            assert po.optimal_tokens in {float(t) for t in run_tokens}
            assert po.optimal_metric >= pv.optimal_metric - 1e-12

    def test_tokens_axis_passthrough(self):
        # Fixed params, varying tokens: raw identity series, no fit.
        records = [
            make_run(
                f"r{i}",
                6.0 * 40_000_000 * tokens,
                tokens,
                {"m": 2.0 - 0.1 * i},
                params=40_000_000,
            )
            for i, tokens in enumerate([10**8, 10**9, 10**10])
        ]
        series = isolation_series(RunSet(tuple(records)), "m", "tokens", 40_000_000)
        assert [p.budget for p in series.points] == [10**8, 10**9, 10**10]
        assert [p.optimal_metric for p in series.points] == [2.0, 1.9, 1.8]
        assert all(p.curvature is None for p in series.points)
        # The log holds one model size, so the series needs no fixed value.
        assert isolation_series(RunSet(tuple(records)), "m", "tokens") == series

    def test_unknown_scale_axis_rejected(self):
        with pytest.raises(FrontierError, match="unknown scale axis 'steps'"):
            isolation_series(synthetic_runs(), "bpb/all", "steps", 40_000_000)

    def test_tokens_axis_requires_fixed_value(self):
        # An IsoFLOP log holds many sizes, so the series needs one named.
        runs = synthetic_runs()
        with pytest.raises(FrontierError, match=r"\(--fixed-value\)"):
            isolation_series(runs, "bpb/all", "tokens", None)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.01])
    def test_budget_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(FrontierError, match="budget tolerance must be finite"):
            extract_frontier(synthetic_runs(), "bpb/all", budget_tolerance=tolerance)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_fixed_value_must_be_finite_and_positive(self, value):
        # An infinite fixed value would match every run: |x - inf| <= 0.05 * inf.
        with pytest.raises(FrontierError, match="positive finite fixed value"):
            isolation_series(synthetic_runs(), "bpb/all", "tokens", value)

    def test_params_axis_filters_by_tokens(self):
        records = [
            make_run(f"r{i}", 6.0 * params * 5 * 10**8, 5 * 10**8, {"m": 3.0 / (i + 1)},
                     params=params)
            for i, params in enumerate([10**7, 10**8, 10**9])
        ]
        # One off-budget run that must be filtered out.
        records.append(
            make_run("off", 6.0 * 10**8 * 10**10, 10**10, {"m": 0.1}, params=10**8)
        )
        series = isolation_series(RunSet(tuple(records)), "m", "params", 5 * 10**8)
        assert [p.budget for p in series.points] == [10**7, 10**8, 10**9]

    def test_isolation_series_keeps_runs_within_the_fixed_axis_tolerance(self):
        def runs(tokens):
            return RunSet(tuple(make_run(f"r{i}", 6.0 * params * tokens, tokens, {"m": 1.0},
                                         params=params)
                                for i, params in enumerate([10**7, 10**8])))

        fixed = 10**9
        near = round(fixed * (1 + 0.99 * FIXED_AXIS_TOLERANCE))
        far = round(fixed * (1 + 1.01 * FIXED_AXIS_TOLERANCE))
        series = isolation_series(runs(near), "m", "params", fixed)
        assert len(series) == 2
        with pytest.raises(FrontierError, match="no runs match tokens=1e\\+09 within 5%"):
            isolation_series(runs(far), "m", "params", fixed)

    @pytest.mark.parametrize("select", [
        relfit_tokens_pairs,
        lambda runs, tmp_path: isolation_series(runs, "m", "tokens").points,
    ], ids=["relfit", "isolation_series"])
    def test_one_size_rule_at_the_tolerance_edge(self, select, tmp_path):
        # Given no fixed value, both callers take every run while the other
        # axis spans at most (1 + FIXED_AXIS_TOLERANCE) times its least value.
        def runs(params):
            return RunSet(tuple(
                make_run(f"r{i}", 6.0 * n * t, t, {"m": 1.0}, params=n)
                for i, (n, t) in enumerate(zip(params, (10**9, 2 * 10**9, 4 * 10**9)))))

        edge = int(1e8 * (1 + FIXED_AXIS_TOLERANCE))
        assert len(select(runs([10**8, edge, 10**8]), tmp_path)) == 3
        with pytest.raises(FrontierError, match=r"span params 1e\+08 to 1.05e\+08"):
            select(runs([10**8, edge + 1, 10**8]), tmp_path)


class TestSeriesTypes:
    def test_strictly_increasing_budgets_enforced(self):
        point = FrontierPoint(
            budget=1e18, optimal_tokens=1e9, optimal_metric=2.0,
            curvature=1.0, fit_r2=1.0, n_points=3,
        )
        with pytest.raises(FrontierError):
            FrontierSeries(metric_key="m", scale_axis="flops", points=(point, point))

    def test_non_convex_point_rejected(self):
        with pytest.raises(FrontierError):
            FrontierPoint(
                budget=1e18, optimal_tokens=1e9, optimal_metric=2.0,
                curvature=-1.0, fit_r2=1.0, n_points=3,
            )

    def test_series_roundtrips_through_dict(self):
        runs = synthetic_runs()
        series = extract_frontier(runs, "bpb/all")
        back = FrontierSeries.from_dict(series.to_dict())
        assert back == series


class TestBuiltOncePerRunSet:
    """A series is built once per RunSet and arguments, and kept on the set."""

    @staticmethod
    def skipping_runs():
        # Three fittable budgets and one whose monotone slice is skipped.
        bad = [make_run(f"bad{i}", 1e21, 10**x, {"bpb/all": 5.0 - 0.3 * x})
               for i, x in enumerate(range(8, 13))]
        return RunSet(synthetic_runs().records + tuple(bad))

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = frontier_module._build_frontier

        def counting(runs, *args):
            builds.append(args)
            return build(runs, *args)

        monkeypatch.setattr(frontier_module, "_build_frontier", counting)
        return builds

    def test_a_repeat_returns_the_same_series_and_logs_its_warnings_again(
            self, caplog, monkeypatch):
        runs = self.skipping_runs()
        builds = self.count_builds(monkeypatch)
        with caplog.at_level("WARNING", logger="relscale.frontier"):
            first = extract_frontier(runs, "bpb/all")
            logged_once = [r.getMessage() for r in caplog.records]
            second = extract_frontier(runs, "bpb/all", 0.05, "vertex")
        assert second is first and len(builds) == 1
        assert logged_once == [f"bpb/all: {w}" for w in first.warnings] != []
        assert [r.getMessage() for r in caplog.records] == logged_once * 2

    def test_the_logs_of_a_repeat_keep_their_order(self, caplog):
        # A merge warning is logged before the skip warnings of its series.
        rng = np.random.default_rng(0)
        widths = np.geomspace(2e8, 2e9, 7).round().astype(int).tolist()
        records = [make_run(f"r{b}-{w}", 6.0 * p * round(budget / (6 * p))
                            * (1 + rng.uniform(-0.005, 0.005)), round(budget / (6 * p)),
                            {"m": 1.0}, params=p)
                   for b, budget in enumerate((1e19, 1.04e19)) for w, p in enumerate(widths)]
        runs = RunSet(tuple(records))
        with caplog.at_level("WARNING", logger="relscale.frontier"):
            series = extract_frontier(runs, "m")
            assert extract_frontier(runs, "m") is series
        assert len(series.warnings) == 2 and "merges budgets" in series.warnings[0]
        assert [r.getMessage() for r in caplog.records] == [
            f"m: {w}" for w in series.warnings] * 2

    def test_each_argument_set_has_its_own_series(self, monkeypatch):
        runs = self.skipping_runs()
        builds = self.count_builds(monkeypatch)
        calls = [("bpb/all", 0.05, "vertex"), ("bpb/all", 0.01, "vertex"),
                 ("bpb/all", 0.05, "observed"), ("bpb/all", 0.0, "vertex"),
                 ("bpb/all", -0.0, "vertex")]
        series = [extract_frontier(runs, *args) for args in calls]
        assert len({id(s) for s in series}) == len(calls) == len(builds)
        assert all(extract_frontier(runs, *args) is s for args, s in zip(calls, series))
        assert len(builds) == len(calls)

    def test_arguments_are_checked_before_the_lookup(self):
        runs = self.skipping_runs()
        extract_frontier(runs, "bpb/all")
        with pytest.raises(FrontierError, match="unknown optimum rule 'mean'"):
            extract_frontier(runs, "bpb/all", optimum="mean")
        with pytest.raises(FrontierError, match="budget tolerance must be finite"):
            extract_frontier(runs, "bpb/all", budget_tolerance=math.inf)

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        runs = self.skipping_runs()
        builds = self.count_builds(monkeypatch)
        for _ in range(2):
            with pytest.raises(FrontierError, match="no internal runs carry metric 'nope'"):
                extract_frontier(runs, "nope")
        assert len(builds) == 2

    def test_a_copy_starts_without_series(self):
        runs = self.skipping_runs()
        series = extract_frontier(runs, "bpb/all")
        copy = replace(runs, sha256="0" * 64)
        again = extract_frontier(copy, "bpb/all")
        assert again is not series and again == series
        assert extract_frontier(runs, "bpb/all") is series

    def test_a_rewritten_log_yields_a_new_series(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        emit_runs(synthetic_runs(seed=3), path)
        series = extract_frontier(ingest_runs(path), "bpb/all")
        assert extract_frontier(ingest_runs(path), "bpb/all") is series
        spec = SyntheticSpec(budgets=(1e18, 1e19, 1e20),
                             subgroups=(Subgroup("bpb/all", alpha=3.3, beta=0.1),))
        path.write_text(runs_to_jsonl(generate(spec)))
        rebuilt = extract_frontier(ingest_runs(path), "bpb/all")
        assert rebuilt is not series
        assert [p.optimal_metric for p in rebuilt.points] == pytest.approx(
            [1.1 * p.optimal_metric for p in series.points], rel=1e-12)

    def test_points_are_slotted(self):
        point = extract_frontier(synthetic_runs(), "bpb/all").points[0]
        assert not hasattr(point, "__dict__")
