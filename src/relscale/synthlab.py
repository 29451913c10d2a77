"""Synthetic sweep generation with known ground-truth scaling parameters.

Every fitter in the toolkit is validated against data drawn from known
laws. :func:`generate` emits both forms of spec: a plain spec plants one
power law per subgroup and bows each IsoFLOP slice multiplicatively around
its compute-optimal token count; a mixture spec plants subgroup losses
driven by each group's share of the training data plus cross-group
transfer, at fixed model size over its token schedule. Generation is
deterministic per seed (one derived seed stream per budget or schedule
point, canonical output ordering). A subgroup of either form carries its
planted law as ``alpha`` and ``beta``, which :func:`known_truth` reports.

A spec and each of its subgroups load through
:func:`ioutil.dataclass_from_json`, which rejects unknown and missing keys,
and normalise their numbers as run records do (``12`` becomes ``12.0``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields

from .errors import ValidationError
from .ioutil import dataclass_from_json, finite_float, lazy_module, normalise_fields
from .planner import MAX_WIDTHS_PER_BUDGET
from .store import FLOPS_PER_PARAM_TOKEN, RunRecord, RunSet

np = lazy_module("numpy")

#: Parameter count every mixture-spec run holds fixed.
MIXTURE_PARAMS = 40_000_000


def _finite_floats(values, name: str) -> tuple[float, ...]:
    """``values`` as finite floats; rejects a non-list and a non-number entry."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be a list of numbers, got {values!r}", field=name)
    return tuple(finite_float(v, name, name) for v in values)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup whose error follows alpha * F^-beta exactly."""

    name: str
    alpha: float
    beta: float

    def __post_init__(self):
        if type(self.name) is not str or not self.name:
            raise ValidationError(f"subgroup name must be a non-empty string, got {self.name!r}")
        normalise_fields(self, f"subgroup {self.name!r}: ")
        if self.alpha <= 0:
            raise ValidationError(f"subgroup {self.name!r}: alpha must be positive")

    def metric(self, flops: float, tokens: int) -> float:
        """alpha * F^-beta at the compute-optimal point of budget ``flops``."""
        return self.alpha * flops ** (-self.beta)


@dataclass(frozen=True)
class MixtureSubgroup:
    """A subgroup whose loss is a power law in effective data volume.

    E_g(n) = scale * (n_g + transfer * n_rest)^-exponent with
    n_g = data_share * n. Full transfer (1.0) makes all groups identical;
    zero transfer reduces each group to a pure power law in its own share.
    Either way the loss is the pure power law alpha * n^-beta in total tokens.
    """

    name: str
    data_share: float
    transfer: float
    exponent: float
    scale: float

    def __post_init__(self):
        if type(self.name) is not str or not self.name:
            raise ValidationError(f"subgroup name must be a non-empty string, got {self.name!r}")
        normalise_fields(self, f"subgroup {self.name!r}: ")
        if not 0.0 < self.data_share < 1.0:
            raise ValidationError(
                f"subgroup {self.name!r}: data_share must lie in (0, 1)"
            )
        if not 0.0 <= self.transfer <= 1.0:
            raise ValidationError(
                f"subgroup {self.name!r}: transfer must lie in [0, 1]"
            )
        if self.scale <= 0:
            raise ValidationError(f"subgroup {self.name!r}: scale must be positive")

    @property
    def effective_share(self) -> float:
        return self.data_share + self.transfer * (1.0 - self.data_share)

    @property
    def alpha(self) -> float:
        """Coefficient of the induced pure power law in total tokens."""
        return self.scale * self.effective_share ** (-self.exponent)

    @property
    def beta(self) -> float:
        """Exponent of the induced pure power law in total tokens."""
        return self.exponent

    def metric(self, flops: float, tokens: int) -> float:
        """scale * (effective_share * tokens)^-exponent; ``flops`` is unused."""
        return self.scale * (self.effective_share * tokens) ** (-self.exponent)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic IsoFLOP sweep.

    ``curvature`` bows each slice as metric = E * exp(curvature * dx^2)
    with dx the log10-token offset from the optimum. A least-squares
    parabola recovers the vertex location exactly on the symmetric grid but
    the vertex value only to O(curvature^2) relative error (about
    0.06 * curvature^2 on the default 7-point grid), so the default is kept
    small enough that noiseless roundtrips sit far inside 1e-6.
    ``subgroups`` may hold JSON objects (see :func:`_subgroup`), all of one form.

    A mixture spec needs ``total_tokens_schedule``: the positive total token
    counts of its runs, kept sorted, one run per entry. Its data shares may
    sum to at most 1. A plain spec must leave the schedule empty.
    """

    budgets: tuple[float, ...]
    subgroups: tuple[Subgroup, ...] | tuple[MixtureSubgroup, ...]
    widths_per_budget: int = 7
    noise_sigma: float = 0.0
    curvature: float = 0.002
    seed: int = 0
    total_tokens_schedule: tuple[float, ...] = ()

    def __post_init__(self):
        normalise_fields(self)
        object.__setattr__(self, "budgets", _finite_floats(self.budgets, "budgets"))
        groups = self.subgroups
        if isinstance(groups, (str, dict)) or not isinstance(groups, Iterable):
            raise ValidationError(f"subgroups must be a list, got {groups!r}", field="subgroups")
        object.__setattr__(self, "subgroups", tuple(map(_subgroup, groups)))
        if len({type(g) for g in self.subgroups}) > 1:
            raise ValidationError("subgroups must be all plain or all mixture form")
        if not self.budgets:
            raise ValidationError("budgets must be non-empty")
        if any(b <= 0 for b in self.budgets):
            raise ValidationError("budgets must be positive")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValidationError("budgets must be strictly increasing")
        if not self.subgroups:
            raise ValidationError("at least one subgroup is required")
        if not 1 <= self.widths_per_budget <= MAX_WIDTHS_PER_BUDGET:
            raise ValidationError(f"widths_per_budget must lie in [1, {MAX_WIDTHS_PER_BUDGET}]",
                                  field="widths_per_budget")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")
        if self.curvature <= 0:
            raise ValidationError("curvature must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}", field="seed")
        names = [g.name for g in self.subgroups]
        if len(names) != len(set(names)):
            raise ValidationError("subgroup names must be unique")
        schedule = sorted(_finite_floats(self.total_tokens_schedule, "total_tokens_schedule"))
        object.__setattr__(self, "total_tokens_schedule", tuple(schedule))
        if not self.is_mixture:
            if schedule:
                raise ValidationError("total_tokens_schedule applies to mixture specs only",
                                      field="total_tokens_schedule")
            return
        if not schedule or schedule[0] <= 0:
            raise ValidationError("mixture specs need a non-empty, positive "
                                  "total_tokens_schedule", field="total_tokens_schedule")
        total_share = sum(g.data_share for g in self.subgroups)
        if total_share > 1.0 + 1e-9:
            raise ValidationError(f"data shares sum to {total_share:g}; must not exceed 1")

    @property
    def is_mixture(self) -> bool:
        return isinstance(self.subgroups[0], MixtureSubgroup)

    @classmethod
    def from_dict(cls, obj: dict) -> "SyntheticSpec":
        return dataclass_from_json(cls, obj, "synthetic spec")


def _subgroup(group) -> Subgroup | MixtureSubgroup:
    """A subgroup as given, or built from its JSON object: the mixture form
    when the object has a ``data_share``, else the plain form."""
    if isinstance(group, (Subgroup, MixtureSubgroup)):
        return group
    form = MixtureSubgroup if isinstance(group, dict) and "data_share" in group else Subgroup
    return dataclass_from_json(form, group, "subgroup")


@dataclass(frozen=True)
class PairTruth:
    """Exact relative-law parameters for one (treatment, baseline) pair."""

    treatment: str
    baseline: str
    gamma: float
    delta_beta: float


@dataclass(frozen=True)
class TruthReport:
    """Ground-truth absolute and relative parameters for a spec."""

    absolute: dict[str, tuple[float, float]]
    pairs: tuple[PairTruth, ...]

    def to_dict(self) -> dict:
        """``dataclasses.asdict`` of the report, built without its deep copy."""
        names = [f.name for f in fields(PairTruth)]
        return {"absolute": dict(self.absolute),
                "pairs": tuple({name: getattr(p, name) for name in names} for p in self.pairs)}


def optimal_tokens_for_budget(budget: float) -> float:
    """Compute-optimal token count used to center the synthetic grid.

    Balanced allocation under the 6NT identity: T = sqrt(F / 6).
    """
    return math.sqrt(budget / FLOPS_PER_PARAM_TOKEN)


def _token_offsets(n: int) -> np.ndarray:
    """``n`` log10-token offsets from the optimum, evenly spaced over +-1 decade."""
    if n == 1:
        return np.zeros(1)
    return np.linspace(-1.0, 1.0, n)


def _layout(spec: SyntheticSpec):
    """Each seed stream's runs as (run_id, flops, params, tokens, bow) rows:
    one stream per budget of a plain spec, one per schedule point of a
    mixture spec."""
    if spec.is_mixture:
        for idx, n in enumerate(spec.total_tokens_schedule):
            tokens = max(1, round(n))
            flops = float(FLOPS_PER_PARAM_TOKEN * MIXTURE_PARAMS * tokens)
            yield [(f"mix-{idx:03d}", flops, MIXTURE_PARAMS, tokens, 1.0)]
        return
    offsets = _token_offsets(spec.widths_per_budget)
    for b_idx, budget in enumerate(spec.budgets):
        t_opt = optimal_tokens_for_budget(budget)
        x_opt = math.log10(t_opt)
        rows = []
        for t_idx, offset in enumerate(offsets):
            tokens = max(1, round(t_opt * 10.0**offset))
            params = max(1, round(budget / (FLOPS_PER_PARAM_TOKEN * tokens)))
            dx = math.log10(tokens) - x_opt
            rows.append((f"sim-{b_idx:03d}-{t_idx:03d}", budget, params, tokens,
                         math.exp(spec.curvature * dx * dx)))
        yield rows


def generate(spec: SyntheticSpec) -> RunSet:
    """Emit the runs drawn from the spec's planted laws.

    A plain spec gives an IsoFLOP sweep: for each budget F,
    ``widths_per_budget`` runs are placed at token counts spanning
    +-1 decade around the compute-optimal point, and each
    subgroup metric is alpha_g * F^-beta_g * exp(curvature * dx^2) * exp(eps).
    A mixture spec gives one run per schedule entry n at MIXTURE_PARAMS
    parameters, with each subgroup loss
    scale * ((q + tau*(1-q)) * n)^-exponent * exp(eps).
    eps ~ Normal(0, noise_sigma^2), drawn independently per (run, subgroup)
    from one ``SeedSequence(seed)`` child per stream of :func:`_layout`.
    """
    root = np.random.SeedSequence(spec.seed)
    dataset = "synthetic-mixture" if spec.is_mixture else "synthetic"
    groups = spec.subgroups
    records = []
    for rows in _layout(spec):
        rng = np.random.default_rng(root.spawn(1)[0])
        # One draw per stream takes the values of one scalar draw per (run,
        # subgroup) in row order; at noise_sigma 0 every factor is exp(0) = 1.
        noise = rng.normal(0.0, spec.noise_sigma, size=(len(rows), len(groups))).tolist()
        # A plain stream's rows share one budget, and a plain law reads only
        # the budget; a mixture stream has one row. So each law is read once.
        _, flops, _, tokens, _ = rows[0]
        laws = [(group.name, group.metric(flops, tokens)) for group in groups]
        for (run_id, flops, params, tokens, bow), eps in zip(rows, noise):
            metrics = {name: law * bow * math.exp(e) for (name, law), e in zip(laws, eps)}
            records.append(RunRecord(run_id=run_id, source="internal", dataset=dataset,
                                     flops=flops, params=params, tokens=tokens,
                                     metrics=metrics))
    return RunSet(tuple(records))


def known_truth(spec: SyntheticSpec) -> TruthReport:
    """Exact (alpha, beta) per subgroup and (gamma, delta_beta) per pair.

    gamma = alpha_t / alpha_b and delta_beta = beta_b - beta_t for every
    ordered (treatment, baseline) pair. Each subgroup carries its planted
    law as ``alpha`` and ``beta``: a mixture subgroup's are those of the
    pure power law it induces in total tokens.
    """
    absolute = {g.name: (g.alpha, g.beta) for g in spec.subgroups}
    pairs = []
    for treatment in spec.subgroups:
        for baseline in spec.subgroups:
            if treatment.name == baseline.name:
                continue
            a_t, b_t = absolute[treatment.name]
            a_b, b_b = absolute[baseline.name]
            pairs.append(
                PairTruth(
                    treatment=treatment.name,
                    baseline=baseline.name,
                    gamma=a_t / a_b,
                    delta_beta=b_b - b_t,
                )
            )
    return TruthReport(absolute=absolute, pairs=tuple(pairs))
