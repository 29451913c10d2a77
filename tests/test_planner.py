import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relscale import (
    PlanError,
    SweepPolicy,
    ValidationError,
    batch_size,
    depth_for_width,
    ingest_runs,
    learning_rate,
    param_count,
    plan_sweep,
    shape_for_width,
    tokens_for_budget,
    width_grid,
    wsd_schedule,
)
from relscale.planner import MAX_WIDTHS_PER_BUDGET
from relscale.store import FLOPS_PER_PARAM_TOKEN

DEFAULT = SweepPolicy()

#: One width, 512, and a learning-rate cap no batch reaches, so that a plan
#: keeps the batch its token target snaps to.
ONE_WIDTH = SweepPolicy(width_min=512, width_max=512, lr_cap=1e9)


def plan_for_tokens(tokens, policy=ONE_WIDTH):
    """The one plan of a one-width ``policy`` at the budget of ``tokens`` tokens."""
    params = shape_for_width(policy.width_min, policy).params
    [plan] = plan_sweep([float(FLOPS_PER_PARAM_TOKEN * params * tokens)], policy)
    return plan


class TestWidthGrid:
    def test_small_budget_29_widths(self):
        widths = width_grid(1e18, DEFAULT)
        assert widths[0] == 512 and widths[-1] == 4096
        assert len(widths) == 29
        assert all(b - a == 128 for a, b in zip(widths, widths[1:]))

    def test_large_budget_15_widths(self):
        # Arithmetic sequence 512, 768, ..., 4096 with step 256.
        widths = width_grid(1e20, DEFAULT)
        assert len(widths) == (4096 - 512) // 256 + 1 == 15
        assert all(b - a == 256 for a, b in zip(widths, widths[1:]))

    def test_threshold_inclusive(self):
        assert len(width_grid(9e18, DEFAULT)) == 29
        assert len(width_grid(9.000001e18, DEFAULT)) == 15

    def test_non_positive_budget(self):
        with pytest.raises(PlanError):
            width_grid(0.0, DEFAULT)


class TestDepthRule:
    def test_pure_log_rule(self):
        policy = SweepPolicy(kappa=0.0, theta=1.0)
        assert depth_for_width(1024, policy) == 102  # 1024/10 = 102.4

    def test_pure_linear_rule(self):
        policy = SweepPolicy(kappa=64.0, theta=0.0)
        assert depth_for_width(512, policy) == 8

    def test_log_corrected(self):
        policy = SweepPolicy(kappa=32.0, theta=4.0)
        # 2048 / (32 + 4*11) = 26.947... -> 27
        assert depth_for_width(2048, policy) == 27

    def test_floor_at_one(self):
        policy = SweepPolicy(kappa=10000.0, theta=0.0)
        assert depth_for_width(512, policy) == 1

    def test_non_positive_denominator(self):
        policy = SweepPolicy(kappa=0.0, theta=0.0)
        with pytest.raises(PlanError):
            depth_for_width(1024, policy)

    @given(width=st.sampled_from(width_grid(1e18, DEFAULT)))
    def test_non_decreasing_over_grid(self, width):
        if width == 4096:
            return
        assert depth_for_width(width + 128, DEFAULT) >= depth_for_width(width, DEFAULT)


class TestShapes:
    def test_heads_and_ffn(self):
        shape = shape_for_width(1024, DEFAULT)
        assert shape.n_heads == 8
        assert shape.ffn_dim == 4096

    def test_small_width(self):
        shape = shape_for_width(512, DEFAULT)
        assert shape.n_heads == 4
        assert shape.ffn_dim == 2048

    def test_not_multiple_of_head_dim(self):
        with pytest.raises(PlanError, match="128"):
            shape_for_width(1000, DEFAULT)

    @pytest.mark.parametrize("field", ["width", "depth", "n_heads", "ffn_dim", "params"])
    def test_shape_refuses_a_size_below_one(self, field):
        shape = shape_for_width(512, DEFAULT)
        with pytest.raises(ValidationError, match="^invalid model shape$"):
            replace(shape, **{field: 0})

    def test_param_count_direct(self):
        assert param_count(1024, 16) == 201_326_592  # 12 * 16 * 1024^2
        assert param_count(512, 8) == 25_165_824


class TestTokens:
    def test_direct_division(self):
        assert tokens_for_budget(1e18, 200_000_000) == 833_333_333

    def test_unit_case(self):
        n = 12345
        assert tokens_for_budget(6.0 * n, n) == 1

    def test_larger_budget(self):
        assert tokens_for_budget(1e20, 10**9) == 16_666_666_666

    @pytest.mark.parametrize("budget, params", [(0.0, 10**9), (-1e18, 10**9), (1e18, 0)])
    def test_non_positive_budget_or_params_is_refused(self, budget, params):
        with pytest.raises(PlanError, match="^budget and params must be positive$"):
            tokens_for_budget(budget, params)


class TestBatchSize:
    def test_documented_case(self):
        # 32000 rounds up to the nearest pow2 in log space.
        assert batch_size(2_097_152_000, DEFAULT) == 32_768

    def test_exact_power(self):
        assert batch_size(2**16 * 1024, DEFAULT) == 1024

    def test_tie_rounds_up(self):
        # 48 sits between 32 and 64; log distance favors 64.
        assert batch_size(2**16 * 48, DEFAULT) == 64

    def test_below_step_target(self):
        with pytest.raises(PlanError):
            batch_size(2**16 - 1, DEFAULT)


class TestPlanSteps:
    """A plan's steps are its token target over its final batch, rounded half up."""

    def test_documented_case(self):
        plan = plan_for_tokens(2_097_152_000)
        assert (plan.batch, plan.steps) == (32_768, 64_000)

    def test_exact_power(self):
        plan = plan_for_tokens(2**16 * 1024)
        assert (plan.batch, plan.steps) == (1024, 65_536)

    def test_tie_rounds_up(self):
        plan = plan_for_tokens(2**16 * 48)
        assert (plan.batch, plan.steps) == (64, 49_152)

    def test_steps_follow_the_capped_batch(self):
        # At width 512 the default cap halves 1024 down to 64 (eta 0.01).
        plan = plan_for_tokens(2**16 * 1024, SweepPolicy(width_min=512, width_max=512))
        assert (plan.batch, plan.steps) == (64, (2**16 * 1024 + 32) // 64)

    @given(tokens=st.integers(min_value=2**16, max_value=10**13))
    def test_recovered_tokens_within_tenth_percent(self, tokens):
        plan = plan_for_tokens(tokens)
        target = tokens_for_budget(plan.budget, plan.shape.params)
        assert plan.batch & (plan.batch - 1) == 0
        assert abs(plan.batch * plan.steps - target) <= plan.batch / 2
        assert 0.999 * target <= plan.batch * plan.steps <= 1.001 * target


class TestPlanRules:
    """A plan's own checks, which the rules of plan_sweep never trip."""

    @pytest.mark.parametrize("change, field, message", [
        (lambda plan: {"batch": 0}, "batch", "batch must be a power of two"),
        (lambda plan: {"batch": 96}, "batch", "batch must be a power of two"),
        (lambda plan: {"tokens": plan.tokens + 1}, "tokens", "tokens must equal batch * steps"),
        (lambda plan: {"schedule": replace(plan.schedule,
                                           warmup_steps=plan.schedule.warmup_steps + 1)},
         "schedule", "schedule phases must sum to steps"),
    ], ids=["batch-zero", "batch-96", "tokens", "schedule"])
    def test_inconsistent_plan_is_refused(self, change, field, message):
        plan = plan_for_tokens(2**16 * 1024)
        with pytest.raises(ValidationError) as err:
            replace(plan, **change(plan))
        assert (str(err.value), err.value.field) == (message, field)


class TestLearningRate:
    def test_exactly_at_cap_no_reduction(self):
        eta, batch = learning_rate(256, 1024, DEFAULT)
        assert eta == 0.64 * 16 / 1024  # == 0.01 bit-exactly
        assert eta <= DEFAULT.lr_cap
        assert batch == 256

    def test_halving_until_cap(self):
        eta, batch = learning_rate(1024, 1024, DEFAULT)
        assert batch == 256  # 1024 -> 512 (0.01414) -> 256 (0.01)
        assert eta == pytest.approx(0.01, abs=1e-15)

    def test_zero_base(self):
        policy = SweepPolicy(eta_base=1e-300)
        eta, batch = learning_rate(4096, 512, policy)
        assert eta < policy.lr_cap and batch == 4096

    def test_error_at_batch_one(self):
        policy = SweepPolicy(eta_base=1e6)
        with pytest.raises(PlanError, match="batch 1"):
            learning_rate(8, 512, policy)

    @pytest.mark.parametrize("batch, width", [(3, 512), (0, 512), (96, 512), (64, 0)])
    def test_batch_off_a_power_of_two_or_no_width_is_refused(self, batch, width):
        with pytest.raises(PlanError, match="^batch must be a power of two and width positive$"):
            learning_rate(batch, width, DEFAULT)

    def test_cap_loop_strictly_decreases(self):
        eta_large, batch_large = learning_rate(2**14, 512, DEFAULT)
        assert batch_large < 2**14
        assert eta_large <= DEFAULT.lr_cap


class TestWsdSchedule:
    def test_big_run(self):
        schedule = wsd_schedule(65_536, DEFAULT)
        assert schedule.warmup_steps == 3_277  # round(3276.8)
        assert schedule.decay_steps == 13_107  # round(13107.2)
        assert schedule.stable_steps == 49_152

    def test_round_numbers(self):
        schedule = wsd_schedule(100, DEFAULT)
        assert (schedule.warmup_steps, schedule.stable_steps, schedule.decay_steps) == (5, 75, 20)

    def test_too_small(self):
        with pytest.raises(PlanError):
            wsd_schedule(10, DEFAULT)

    @given(steps=st.integers(min_value=20, max_value=10**9))
    def test_phases_sum_and_nonnegative(self, steps):
        schedule = wsd_schedule(steps, DEFAULT)
        assert schedule.total_steps == steps
        assert min(schedule.warmup_steps, schedule.stable_steps, schedule.decay_steps) >= 0


class TestPlanSweep:
    def test_single_budget_grid_count(self):
        assert len(plan_sweep([1e18])) == 29

    def test_plan_count_is_sum_of_grids(self):
        budgets = [1e18, 1e19, 1e20]
        expected = sum(len(width_grid(b, DEFAULT)) for b in budgets)
        assert len(plan_sweep(budgets)) == expected

    @pytest.mark.parametrize("budgets", [[1e19, 1e19], [1e19, 1e18, 1e19], (1e20, 1e20)])
    def test_a_repeated_budget_is_refused(self, budgets):
        with pytest.raises(PlanError, match=r"^budget 1e\+(19|20) is repeated$"):
            plan_sweep(budgets)

    def test_invariants_hold(self):
        for plan in plan_sweep([1e18, 1e19, 1e20]):
            assert plan.batch & (plan.batch - 1) == 0
            assert plan.lr <= DEFAULT.lr_cap
            assert plan.shape.n_heads * 128 == plan.shape.width
            assert plan.shape.ffn_dim == 4 * plan.shape.width
            assert plan.schedule.total_steps == plan.steps
            assert plan.tokens == plan.batch * plan.steps
            target = tokens_for_budget(plan.budget, plan.shape.params)
            assert 0.999 * target <= plan.tokens <= 1.001 * target

    def test_plans_pass_store_consistency(self, tmp_path):
        # Round-trip every plan through ingestion, which enforces the 1% rule.
        plans = plan_sweep([1e18, 3e19])
        path = tmp_path / "plans_as_runs.jsonl"
        with open(path, "w") as fh:
            for i, plan in enumerate(plans):
                row = {"run_id": f"plan-{i}", "source": "internal", "dataset": "planned",
                       "flops": plan.budget, "params": plan.shape.params,
                       "tokens": plan.tokens, "metrics": {}}
                fh.write(json.dumps(row) + "\n")
        runs = ingest_runs(path)
        assert len(runs) == len(plans)

    def test_policy_beta2(self):
        plans = plan_sweep([1e18], SweepPolicy(beta2=0.9))
        assert {p.beta2_effective for p in plans} == {0.9}

    def test_default_beta2(self):
        assert all(p.beta2_effective == DEFAULT.beta2 for p in plan_sweep([1e19]))

    @given(budget=st.floats(min_value=5e17, max_value=5e20))
    def test_token_monotonicity_in_width(self, budget):
        widths = width_grid(budget, DEFAULT)
        counts = [
            tokens_for_budget(budget, shape_for_width(w, DEFAULT).params) for w in widths
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    @given(
        width=st.sampled_from(width_grid(1e20, DEFAULT)),
        low=st.floats(min_value=1e18, max_value=1e20),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_token_monotonicity_in_budget(self, width, low, factor):
        params = shape_for_width(width, DEFAULT).params
        assert tokens_for_budget(low * factor, params) >= tokens_for_budget(low, params)


class TestPolicy:
    def test_from_file_overrides(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"kappa": 16.0, "lr_cap": 0.02}))
        policy = SweepPolicy.from_file(path)
        assert policy.kappa == 16.0
        assert policy.lr_cap == 0.02
        assert policy.theta == 4.0  # untouched default

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            SweepPolicy.from_dict({"kapa": 1.0})

    def test_fraction_sum_validated(self):
        with pytest.raises(ValidationError):
            SweepPolicy(warmup_frac=0.5, decay_frac=0.6)

    @pytest.mark.parametrize("field, value", [
        ("lr_cap", float("inf")),
        ("kappa", float("inf")),
        ("eta_base", float("nan")),
        ("width_min", 512.5),
        ("head_dim", True),
    ])
    def test_non_finite_and_fractional_fields_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SweepPolicy(**{field: value})

    @pytest.mark.parametrize("fields", [
        {"width_max": 10**400},
        {"width_max": 10**300},
        {"width_step_small": 1, "width_max": 512 + MAX_WIDTHS_PER_BUDGET},
    ])
    def test_width_grid_is_bounded(self, fields):
        # Validation only: a policy this large must never reach the planner.
        with pytest.raises(ValidationError, match="width_max") as err:
            SweepPolicy.from_dict(fields)
        assert err.value.field == "width_max"

    def test_width_grid_at_the_cap_is_accepted(self):
        policy = SweepPolicy(width_step_small=1, width_max=511 + MAX_WIDTHS_PER_BUDGET)
        assert len(width_grid(1e18, policy)) == MAX_WIDTHS_PER_BUDGET

    def test_integral_float_counts_become_ints(self):
        policy = SweepPolicy.from_dict({"head_dim": 64.0, "width_max": 2048.0})
        assert type(policy.head_dim) is int and policy.head_dim == 64
        plan = plan_sweep([1e19], policy)[0].to_dict()
        assert type(plan["shape"]["n_heads"]) is int
        assert json.dumps(plan) == json.dumps(plan_sweep([1e19], SweepPolicy(
            head_dim=64, width_max=2048))[0].to_dict())

    def test_depth_range_under_defaults(self):
        depths = [depth_for_width(w, DEFAULT) for w in width_grid(1e18, DEFAULT)]
        assert 5 <= min(depths) and max(depths) <= 60
