"""IsoFLOP sweep planning: model shapes and optimizer schedules per budget.

All rules are explicit functions of the FLOP budget and model width. Width
runs on a fixed grid, depth follows a log-corrected width rule, the token
budget comes from the 6·N·T accounting identity, batch sizes are snapped to
powers of two against a fixed step target, and the learning rate follows a
sqrt(batch)/width rule with a hard cap enforced by batch halving. Each rule
takes the policy; :func:`plan_sweep` defaults it, chains the rules and
derives a plan's step count once, from the final batch.

A :class:`SweepPolicy` loads through :func:`ioutil.dataclass_from_json`,
which rejects unknown keys, and normalises its numbers as run records do.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import PlanError, ValidationError
from .ioutil import dataclass_from_json, load_json, normalise_fields
from .store import FLOPS_PER_PARAM_TOKEN

#: Most widths a sweep may try at one budget (the default grid tries 29).
MAX_WIDTHS_PER_BUDGET = 10_000


@dataclass(frozen=True)
class SweepPolicy:
    """Constants behind the sweep reparameterization rules.

    ``kappa`` and ``theta`` set the depth rule L = d / (kappa + theta*log2(d))
    and are calibratable; the defaults put depths in the 8-40 range over the
    default width grid. Every field reaches the plans. Optimizer settings
    the plans do not carry (beta1, eps, weight decay, gradient clipping)
    are not fields, so a policy file naming one is rejected as unknown.
    """

    kappa: float = 32.0
    theta: float = 4.0
    eta_base: float = 0.64
    """Learning-rate rule constant: eta = eta_base * sqrt(B) / d."""
    lr_cap: float = 0.01
    """Hard ceiling on the learning rate; batches are halved until met."""
    step_target: int = 2**16
    """Target training length in optimizer steps."""
    head_dim: int = 128
    ffn_ratio: int = 4
    width_step_small: int = 128
    width_step_large: int = 256
    small_budget_threshold: float = 9e18
    """Budgets up to this (inclusive) use the fine width step."""
    width_min: int = 512
    width_max: int = 4096
    warmup_frac: float = 0.05
    decay_frac: float = 0.20
    beta2: float = 0.95
    """Adam beta2 every plan carries as ``beta2_effective``."""

    def __post_init__(self):
        normalise_fields(self, "policy field ")
        positive = (
            "eta_base", "lr_cap", "step_target", "head_dim", "ffn_ratio",
            "width_step_small", "width_step_large", "small_budget_threshold",
            "width_min", "width_max", "beta2",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValidationError(f"policy field {name} must be positive", field=name)
        if self.kappa < 0 or self.theta < 0:
            raise ValidationError("kappa and theta must be non-negative")
        if self.warmup_frac < 0 or self.decay_frac < 0:
            raise ValidationError("schedule fractions must be non-negative")
        if self.warmup_frac + self.decay_frac >= 1.0:
            raise ValidationError("warmup_frac + decay_frac must be < 1")
        if self.width_min > self.width_max:
            raise ValidationError("width_min must not exceed width_max")
        finest = min(self.width_step_small, self.width_step_large)
        if (self.width_max - self.width_min) // finest >= MAX_WIDTHS_PER_BUDGET:
            raise ValidationError(f"width_min..width_max holds more than {MAX_WIDTHS_PER_BUDGET}"
                                  f" widths at step {finest}", field="width_max")

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepPolicy":
        return dataclass_from_json(cls, obj, "policy")

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepPolicy":
        return cls.from_dict(load_json(path))


@dataclass(frozen=True)
class ModelShape:
    """Architecture derived from a width under a policy."""

    width: int
    depth: int
    n_heads: int
    ffn_dim: int
    params: int

    def __post_init__(self):
        if self.width <= 0 or self.depth < 1 or self.n_heads < 1:
            raise ValidationError("invalid model shape")
        if self.ffn_dim <= 0 or self.params <= 0:
            raise ValidationError("invalid model shape")


@dataclass(frozen=True)
class WsdSchedule:
    """Warmup-stable-decay phase lengths, in steps."""

    warmup_steps: int
    stable_steps: int
    decay_steps: int

    @property
    def total_steps(self) -> int:
        return self.warmup_steps + self.stable_steps + self.decay_steps


@dataclass(frozen=True)
class TrainPlan:
    """One fully specified training run under a FLOP budget."""

    budget: float
    shape: ModelShape
    tokens: int
    batch: int
    steps: int
    lr: float
    schedule: WsdSchedule
    beta2_effective: float

    def __post_init__(self):
        if self.batch < 1 or self.batch & (self.batch - 1):
            raise ValidationError("batch must be a power of two", field="batch")
        if self.batch * self.steps != self.tokens:
            raise ValidationError("tokens must equal batch * steps", field="tokens")
        if self.schedule.total_steps != self.steps:
            raise ValidationError("schedule phases must sum to steps", field="schedule")

    def to_dict(self) -> dict:
        return asdict(self)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _nearest_pow2(x: float) -> int:
    """Nearest power of two in log space; ties round up."""
    if x <= 1:
        return 1
    lo = 2 ** math.floor(math.log2(x))
    hi = lo * 2
    if x * x >= lo * hi:
        return hi
    return lo


def width_grid(budget: float, policy: SweepPolicy) -> list[int]:
    """Candidate widths for a budget.

    Fine step (128) up to and including the small-budget threshold, coarse
    step (256) above it.
    """
    if budget <= 0:
        raise PlanError("budget must be positive")
    step = (
        policy.width_step_small
        if budget <= policy.small_budget_threshold
        else policy.width_step_large
    )
    return list(range(policy.width_min, policy.width_max + 1, step))


def depth_for_width(width: int, policy: SweepPolicy) -> int:
    """Depth from the log-corrected rule L = d / (kappa + theta*log2(d)).

    Rounded to the nearest integer (half up), floored at 1.
    """
    denom = policy.kappa + policy.theta * math.log2(width)
    if denom <= 0:
        raise PlanError(
            f"depth rule denominator non-positive at d={width} "
            f"(kappa={policy.kappa}, theta={policy.theta})"
        )
    return max(1, _round_half_up(width / denom))


def param_count(width: int, depth: int) -> int:
    """Non-embedding parameter count: 12 * depth * width^2.

    Per layer: 4 d^2 for attention projections plus 8 d^2 for the 4d MLP.
    Consistent with the 6·N·T FLOP accounting used throughout.
    """
    return 12 * depth * width * width


def shape_for_width(width: int, policy: SweepPolicy) -> ModelShape:
    """Full model shape for a width: heads, FFN dim, depth, and params."""
    if width % policy.head_dim:
        raise PlanError(f"width {width} is not a multiple of head_dim {policy.head_dim}")
    depth = depth_for_width(width, policy)
    return ModelShape(
        width=width,
        depth=depth,
        n_heads=width // policy.head_dim,
        ffn_dim=policy.ffn_ratio * width,
        params=param_count(width, depth),
    )


def tokens_for_budget(budget: float, params: int) -> int:
    """Token budget T = floor(C / 6N)."""
    if budget <= 0 or params <= 0:
        raise PlanError("budget and params must be positive")
    return math.floor(budget / (FLOPS_PER_PARAM_TOKEN * params))


def batch_size(tokens: int, policy: SweepPolicy) -> int:
    """tokens/step_target snapped to the nearest power of two in log space
    (ties round up)."""
    if tokens < policy.step_target:
        raise PlanError(
            f"token budget {tokens} below step target {policy.step_target}"
        )
    return _nearest_pow2(tokens / policy.step_target)


def learning_rate(batch: int, width: int, policy: SweepPolicy) -> tuple[float, int]:
    """Learning rate eta = eta_base * sqrt(B) / d, capped by batch halving.

    While eta exceeds the cap the batch is halved and eta recomputed.

    Returns:
        (eta, final_batch).

    Raises:
        PlanError: the batch reaches 1 with eta still above the cap.
    """
    if width <= 0 or batch < 1 or batch & (batch - 1):
        raise PlanError("batch must be a power of two and width positive")
    eta = policy.eta_base * math.sqrt(batch) / width
    while eta > policy.lr_cap:
        if batch == 1:
            raise PlanError(
                f"learning rate {eta:g} exceeds cap {policy.lr_cap:g} even at batch 1 "
                f"(width {width})"
            )
        batch //= 2
        eta = policy.eta_base * math.sqrt(batch) / width
    return eta, batch


def wsd_schedule(steps: int, policy: SweepPolicy) -> WsdSchedule:
    """Split steps into warmup / stable / linear-decay phases.

    Warmup and decay lengths are the policy fractions rounded half up; the
    stable phase takes the remainder.
    """
    if steps < 20:
        raise PlanError(f"steps={steps} too small for non-degenerate schedule phases")
    warmup = _round_half_up(policy.warmup_frac * steps)
    decay = _round_half_up(policy.decay_frac * steps)
    stable = steps - warmup - decay
    if stable < 0:
        raise PlanError(f"schedule fractions leave no stable phase at steps={steps}")
    return WsdSchedule(warmup_steps=warmup, stable_steps=stable, decay_steps=decay)


def plan_sweep(budgets: Sequence[float], policy: SweepPolicy | None = None) -> list[TrainPlan]:
    """One TrainPlan per (budget, width) pair, each with the policy's beta2;
    its steps are the token target over the final batch, rounded half up."""
    policy = policy or SweepPolicy()
    plans: list[TrainPlan] = []
    for budget in budgets:
        for width in width_grid(budget, policy):
            shape = shape_for_width(width, policy)
            target_tokens = tokens_for_budget(budget, shape.params)
            eta, batch = learning_rate(batch_size(target_tokens, policy), width, policy)
            steps = (target_tokens + batch // 2) // batch
            schedule = wsd_schedule(steps, policy)
            plans.append(
                TrainPlan(
                    budget=float(budget),
                    shape=shape,
                    tokens=batch * steps,
                    batch=batch,
                    steps=steps,
                    lr=eta,
                    schedule=schedule,
                    beta2_effective=policy.beta2,
                )
            )
    return plans
