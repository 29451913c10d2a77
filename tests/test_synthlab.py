import hashlib
import math

import numpy as np
import pytest

from relscale import (
    MixtureSubgroup,
    Subgroup,
    SyntheticSpec,
    ValidationError,
    extract_frontier,
    fit_power_law,
    fit_relative,
    generate,
    isolation_series,
    known_truth,
    pairs_from_frontiers,
    pairs_from_runs,
)
from relscale.planner import MAX_WIDTHS_PER_BUDGET
from relscale.store import runs_to_jsonl
from relscale.synthlab import MIXTURE_PARAMS, optimal_tokens_for_budget

TWO_GROUPS = (Subgroup("t", alpha=3.9, beta=0.12), Subgroup("b", alpha=3.0, beta=0.10))


def plain_spec(**overrides):
    defaults = dict(
        budgets=(1e18, 1e19, 1e20),
        subgroups=TWO_GROUPS,
        widths_per_budget=7,
        noise_sigma=0.0,
        seed=0,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


class TestGenerate:
    def test_three_point_slice_is_exact_parabola_at_optimum(self):
        spec = plain_spec(budgets=(1e18,), widths_per_budget=3,
                          subgroups=(Subgroup("g", 3.0, 0.1),))
        runs = generate(spec)
        points = [(float(r.tokens), r.metrics["g"]) for r in runs]
        # The interpolating quadratic through 3 symmetric points has its
        # vertex at the construction optimum with the construction value.
        from relscale import fit_isoflop_slice

        fit = fit_isoflop_slice(points, budget=1e18)
        assert fit.optimal_tokens == pytest.approx(
            optimal_tokens_for_budget(1e18), rel=1e-6
        )
        assert fit.optimal_metric == pytest.approx(3.0 * 1e18**-0.1, rel=1e-9)
        assert fit.fit_r2 == pytest.approx(1.0, abs=1e-9)

    def test_end_to_end_noiseless_recovery(self):
        spec = plain_spec(subgroups=(Subgroup("g", 3.0, 0.1),))
        runs = generate(spec)
        series = extract_frontier(runs, "g")
        fit = fit_power_law(series.law_points())
        assert fit.alpha == pytest.approx(3.0, rel=1e-6)
        assert fit.beta == pytest.approx(0.1, rel=1e-6)

    def test_equal_seeds_bit_identical(self):
        a = generate(plain_spec(noise_sigma=0.02, seed=9))
        b = generate(plain_spec(noise_sigma=0.02, seed=9))
        assert a.records == b.records

    @pytest.mark.parametrize("mixture", [False, True])
    def test_noise_matches_one_scalar_draw_per_subgroup(self, mixture):
        # Reference: the noiseless value times exp of one scalar normal draw
        # per (run, subgroup), in subgroup order, from each budget's stream.
        groups = (mixture_groups([0.1, 0.3, 0.5]) if mixture
                  else TWO_GROUPS + (Subgroup("c", alpha=2.0, beta=0.08),))
        sigma, seed = 0.03, 4
        schedule = (1e8, 1e9, 1e10) if mixture else ()
        spec = plain_spec(subgroups=groups, noise_sigma=sigma, seed=seed,
                          total_tokens_schedule=schedule)
        clean = plain_spec(subgroups=groups, seed=seed, total_tokens_schedule=schedule)
        noisy, clean = generate(spec), generate(clean)
        runs_per_stream = 1 if mixture else spec.widths_per_budget
        streams = np.random.SeedSequence(seed).spawn(len(noisy) // runs_per_stream)
        rngs = [np.random.default_rng(child) for child in streams]
        for i, (got, base) in enumerate(zip(noisy, clean)):
            rng = rngs[i // runs_per_stream]
            for group in groups:
                eps = rng.normal(0.0, sigma)
                assert got.metrics[group.name] == base.metrics[group.name] * math.exp(eps)

    @pytest.mark.parametrize("form, digest", [
        ("noisy", "8d806cc233c91ae23ae9d7cc1a52e83649305653b06478c016cb675a6fa82321"),
        ("noiseless", "80c57f6f1ba33fc03ef167dfcba0f0bc94ba5cc3773634aac548ac5336c13dfb"),
        ("mixture", "c8d5f672122c39fdb275f1504563d250aa10007939b0c594b58f2d248ce05a27"),
    ])
    def test_jsonl_bytes_are_pinned(self, form, digest):
        groups = TWO_GROUPS + (Subgroup("c", alpha=2.0, beta=0.08),)
        if form == "mixture":
            spec = mixture_spec(tuple(MixtureSubgroup(f"g{q}", q, 0.3, 0.3, 5.0)
                                      for q in (0.1, 0.3, 0.5)),
                                np.geomspace(1e8, 1e10, 6).tolist(), noise_sigma=0.03, seed=4)
        else:
            spec = plain_spec(subgroups=groups, widths_per_budget=9, seed=4,
                              noise_sigma=0.03 if form == "noisy" else 0.0)
        text = runs_to_jsonl(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_different_seeds_differ(self):
        a = generate(plain_spec(noise_sigma=0.02, seed=1))
        b = generate(plain_spec(noise_sigma=0.02, seed=2))
        assert a.records != b.records

    def test_run_count_and_ordering(self):
        runs = generate(plain_spec())
        assert len(runs) == 21
        keys = [(r.flops, r.tokens) for r in runs]
        assert keys == sorted(keys)

    def test_token_grid_spans_one_decade_each_side(self):
        runs = generate(plain_spec(budgets=(1e18,)))
        tokens = sorted(r.tokens for r in runs)
        center = optimal_tokens_for_budget(1e18)
        assert tokens[0] == pytest.approx(center / 10, rel=1e-6)
        assert tokens[-1] == pytest.approx(center * 10, rel=1e-6)

    def test_records_pass_store_invariants(self):
        # Construction succeeds, so the internal 6NT consistency held.
        runs = generate(plain_spec(noise_sigma=0.01, seed=2))
        assert all(r.source == "internal" for r in runs)

    @pytest.mark.parametrize("schedule", [(), (1e9, 0.0), (-1e9,)])
    def test_mixture_spec_needs_a_positive_schedule(self, schedule):
        groups = (MixtureSubgroup("g", 0.2, 0.5, 0.3, 1.0),)
        with pytest.raises(ValidationError, match="mixture") as err:
            SyntheticSpec(budgets=(1e18,), subgroups=groups, total_tokens_schedule=schedule)
        assert err.value.field == "total_tokens_schedule"

    def test_plain_spec_rejects_a_schedule(self):
        with pytest.raises(ValidationError, match="mixture specs only") as err:
            plain_spec(total_tokens_schedule=(1e9,))
        assert err.value.field == "total_tokens_schedule"

    def test_noise_unbiasedness_over_seeds(self):
        # Mean fitted relative slope over 200 seeds stays within 2 SEM of truth.
        truth_db = -0.02
        estimates = []
        for seed in range(200):
            spec = plain_spec(
                budgets=tuple(np.geomspace(1e18, 1e20, 10)),
                widths_per_budget=1,
                noise_sigma=0.01,
                seed=seed,
            )
            runs = generate(spec)
            pairs = pairs_from_runs(runs, "t", "b")
            estimates.append(fit_relative(pairs, run_bootstrap=False).delta_beta)
        estimates = np.asarray(estimates)
        sem = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - truth_db) <= 2 * sem


class TestKnownTruth:
    def test_pair_values(self):
        truth = known_truth(plain_spec())
        by_pair = {(p.treatment, p.baseline): p for p in truth.pairs}
        p = by_pair[("t", "b")]
        assert p.gamma == pytest.approx(1.3, rel=1e-12)
        assert p.delta_beta == pytest.approx(-0.02, abs=1e-12)

    def test_identical_subgroups(self):
        spec = plain_spec(subgroups=(Subgroup("a", 2.0, 0.1), Subgroup("b", 2.0, 0.1)))
        truth = known_truth(spec)
        for pair in truth.pairs:
            assert pair.gamma == 1.0
            assert pair.delta_beta == 0.0

    def test_single_subgroup_empty_pairs(self):
        truth = known_truth(plain_spec(subgroups=(Subgroup("only", 1.0, 0.1),)))
        assert truth.pairs == ()

    def test_all_ordered_pairs_present(self):
        truth = known_truth(plain_spec())
        assert {(p.treatment, p.baseline) for p in truth.pairs} == {
            ("t", "b"),
            ("b", "t"),
        }


def mixture_groups(shares, tau=0.3, beta=0.25, scale=2.0):
    return tuple(MixtureSubgroup(f"g{q}", q, tau, beta, scale) for q in shares)


def mixture_spec(groups, schedule, **overrides):
    return SyntheticSpec(budgets=(1e18,), subgroups=groups,
                         total_tokens_schedule=tuple(schedule), **overrides)


class TestMixture:
    def test_full_transfer_makes_groups_identical(self):
        spec = mixture_spec(mixture_groups([0.05, 0.4], tau=1.0), [1e8, 1e9, 1e10])
        runs = generate(spec)
        for record in runs:
            values = list(record.metrics.values())
            assert values[0] == pytest.approx(values[1], rel=1e-12)

    def test_zero_transfer_closed_form(self):
        shares = [0.1, 0.4]
        spec = mixture_spec(mixture_groups(shares, tau=0.0), np.geomspace(1e8, 1e10, 6))
        runs, truth = generate(spec), known_truth(spec)
        fits = {}
        for group in spec.subgroups:
            points = [(float(r.tokens), r.metrics[group.name]) for r in runs]
            fits[group.name] = fit_power_law(points, scale_axis="tokens")
        # Equal exponents; coefficients ordered inversely to q^beta.
        assert fits["g0.1"].beta == pytest.approx(fits["g0.4"].beta, abs=1e-9)
        assert fits["g0.1"].alpha > fits["g0.4"].alpha
        for group in spec.subgroups:
            expected = group.scale * group.data_share**-group.exponent
            assert fits[group.name].alpha == pytest.approx(expected, rel=1e-9)
            assert truth.absolute[group.name][0] == pytest.approx(expected, rel=1e-12)

    def test_share_sum_validated(self):
        with pytest.raises(ValidationError, match="share"):
            mixture_spec(mixture_groups([0.6, 0.7]), [1e8, 1e9])

    def test_schedule_sorted_one_run_per_entry(self):
        spec = mixture_spec(mixture_groups([0.1]), [1e10, 1e8, 1e9])
        assert spec.total_tokens_schedule == (1e8, 1e9, 1e10)
        runs = generate(spec)
        assert [r.tokens for r in runs] == [10**8, 10**9, 10**10]
        assert [r.run_id for r in runs] == ["mix-000", "mix-001", "mix-002"]
        assert {r.params for r in runs} == {MIXTURE_PARAMS}

    def test_invalid_share_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="data_share"):
            MixtureSubgroup("g", 1.5, 0.3, 0.25, 2.0)
        with pytest.raises(ValidationError, match="transfer"):
            MixtureSubgroup("g", 0.5, 1.3, 0.25, 2.0)

    def test_deterministic_per_seed(self):
        spec = mixture_spec(mixture_groups([0.1, 0.3]), [1e8, 1e9, 1e10], noise_sigma=0.01,
                            seed=6)
        a = generate(spec)
        b = generate(spec)
        assert a.records == b.records

    def test_difference_slopes_increase_with_share(self):
        # Against the largest-share baseline, the per-decade difference
        # slope rises monotonically toward zero with the data share.
        shares = [0.003, 0.01, 0.03, 0.1, 0.3]
        spec = mixture_spec(mixture_groups(shares), np.geomspace(1e8, 1e10, 8))
        runs = generate(spec)
        slopes = []
        for q in shares[:-1]:
            pairs = pairs_from_frontiers(isolation_series(runs, f"g{q}", "tokens"),
                                         isolation_series(runs, "g0.3", "tokens"))
            fit = fit_relative(pairs, mode="difference", run_bootstrap=False)
            slopes.append(fit.delta_beta)
        assert all(s < 0 for s in slopes)
        assert slopes == sorted(slopes)


class TestSpecValidation:
    def test_budgets_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            SyntheticSpec(budgets=(1e19, 1e18), subgroups=TWO_GROUPS)

    @pytest.mark.parametrize("widths", [0, MAX_WIDTHS_PER_BUDGET + 1, 10**400])
    def test_widths_per_budget_bounded(self, widths):
        # Validation only: a spec this large must never reach the generator.
        with pytest.raises(ValidationError, match="widths_per_budget") as err:
            SyntheticSpec(budgets=(1e18,), subgroups=TWO_GROUPS, widths_per_budget=widths)
        assert err.value.field == "widths_per_budget"

    def test_curvature_positive(self):
        with pytest.raises(ValidationError, match="curvature"):
            SyntheticSpec(budgets=(1e18,), subgroups=TWO_GROUPS, curvature=0.0)

    def test_duplicate_names(self):
        groups = (Subgroup("same", 1.0, 0.1), Subgroup("same", 2.0, 0.2))
        with pytest.raises(ValidationError, match="unique"):
            SyntheticSpec(budgets=(1e18,), subgroups=groups)

    def test_from_dict_plain_and_mixture(self):
        plain = SyntheticSpec.from_dict(
            {
                "budgets": [1e18, 1e19],
                "subgroups": [{"name": "a", "alpha": 2.0, "beta": 0.1}],
                "seed": 3,
            }
        )
        assert not plain.is_mixture and plain.seed == 3
        mixture = SyntheticSpec.from_dict(
            {
                "budgets": [1e18],
                "subgroups": [
                    {"name": "a", "data_share": 0.2, "transfer": 0.3,
                     "exponent": 0.25, "scale": 2.0}
                ],
                "total_tokens_schedule": [1e9, 1e8],
            }
        )
        assert mixture.is_mixture and mixture.total_tokens_schedule == (1e8, 1e9)

    def test_from_dict_rejects_mixed_forms(self):
        with pytest.raises(ValidationError, match="all plain or all mixture"):
            SyntheticSpec.from_dict(
                {
                    "budgets": [1e18],
                    "subgroups": [
                        {"name": "a", "alpha": 2.0, "beta": 0.1},
                        {"name": "b", "data_share": 0.2, "transfer": 0.3,
                         "exponent": 0.25, "scale": 2.0},
                    ],
                }
            )
