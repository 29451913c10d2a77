"""Checks against planted truth that run outside the timed passes.

``delta_beta_panel`` measures how far fitted relative exponents land from
synthlab's planted ones. One fit's error is half-normal across seeds, far
too wide for a regression bound, so the metric is the mean over many
seeded replicates, each a two-metric sweep fitted the way the workload
pairs its metrics.

``known_defect_probes`` reproduce defects that are open at the time the
benchmark was written (a lossy CSV emitter, silently merged budgets, and a
crossover that overflows on nearly parallel curves); each probe passes
once its defect is fixed.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

PANEL_REPLICATES = 1200

#: A replicate's sweep: budgets x widths, kept small so the panel takes a few seconds.
PANEL_BUDGETS, PANEL_WIDTHS = 5, 7


def delta_beta_panel(seed: int, mode: str, noise: float,
                     replicates: int = PANEL_REPLICATES) -> float:
    """Mean |fitted - planted| relative exponent over seeded replicates."""
    from relscale import frontier, lawfit, synthlab

    rng = np.random.default_rng([seed, 104729])
    grid = tuple(np.geomspace(1e18, 1e21, PANEL_BUDGETS).tolist())
    errors = []
    def subgroup(name: str):
        return synthlab.Subgroup(name, float(rng.uniform(5.0, 50.0)),
                                 float(rng.uniform(0.04, 0.16)))

    for _ in range(replicates):
        spec = synthlab.SyntheticSpec(
            budgets=grid,
            subgroups=(subgroup("t"), subgroup("b")),
            widths_per_budget=PANEL_WIDTHS,
            noise_sigma=noise,
            curvature=0.05,
            seed=int(rng.integers(2**31)),
        )
        runs = synthlab.generate(spec)
        if mode == "frontier":
            pairs = lawfit.pairs_from_frontiers(frontier.extract_frontier(runs, "t"),
                                                frontier.extract_frontier(runs, "b"))
        else:
            pairs = lawfit.pairs_from_runs(runs, "t", "b")
        fitted = lawfit.fit_relative(pairs, run_bootstrap=False).delta_beta
        planted = next(p.delta_beta for p in synthlab.known_truth(spec).pairs
                       if p.treatment == "t")
        errors.append(abs(fitted - planted))
    return float(np.mean(errors))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def probe_csv_roundtrip(seed: int, workdir: Path) -> str | None:
    """A RunSet built from ``np.geomspace`` budgets survives CSV emit + ingest."""
    from relscale import errors, store, synthlab

    spec = synthlab.SyntheticSpec(
        budgets=tuple(np.geomspace(1e18, 1e20, 5)),
        subgroups=(synthlab.Subgroup("bpb/a", 12.0, 0.1),),
        widths_per_budget=7, noise_sigma=0.005, curvature=0.05, seed=seed)
    runs = synthlab.generate(spec)
    path = workdir / "probe_roundtrip.csv"
    store.emit_runs(runs, path)
    try:
        back = store.ingest_runs(path)
    except errors.RelscaleError as exc:
        return f"CSV round-trip: ingest failed: {exc}"
    for a, b in zip(runs, back):
        if (a.flops, a.params, a.tokens, a.metrics) != (b.flops, b.params, b.tokens, b.metrics):
            return f"CSV round-trip: run {a.run_id} changed"
    return None if len(runs) == len(back) else "CSV round-trip: run count changed"


def probe_budget_merge(seed: int) -> str | None:
    """Planned budgets 1e19 and 1.04e19 stay two frontier points, or the merge is named."""
    from relscale import errors, frontier, synthlab

    spec = synthlab.SyntheticSpec(
        budgets=(1e19, 1.04e19), subgroups=(synthlab.Subgroup("bpb/a", 12.0, 0.1),),
        widths_per_budget=7, noise_sigma=0.005, curvature=0.05, seed=seed)
    handler = _Messages()
    logger = logging.getLogger("relscale.frontier")
    logger.addHandler(handler)
    try:
        series = frontier.extract_frontier(synthlab.generate(spec), "bpb/a")
    except errors.RelscaleError as exc:
        named = "merg" in str(exc).lower()
        return None if named else f"budget merge: error does not name the merge: {exc}"
    finally:
        logger.removeHandler(handler)
    if len(series) == 2:
        return None
    if any("merg" in m.lower() for m in list(series.warnings) + handler.messages):
        return None
    budgets = ", ".join(f"{p.budget:.5g}" for p in series.points)
    return f"budget merge: {len(series)} point(s) at {budgets} with no warning"


def probe_parallel_crossover() -> str | None:
    """Nearly parallel relative curves give a crossover or a named error, not a crash."""
    from relscale import errors, lawfit

    def curve(gamma: float, delta_beta: float):
        return lawfit.RelativeFit(gamma=gamma, delta_beta=delta_beta, mode="ratio",
                                  p_sign=None, ci_low=None, ci_high=None, n_pairs=10)

    try:
        lawfit.crossover(curve(2.0, -0.05), curve(1.0, -0.0499), (1e18, 1e20))
    except errors.RelscaleError:
        return None
    except OverflowError as exc:
        return f"near-parallel crossover: OverflowError ({exc})"
    return None


def known_defect_probes(seed: int, workdir: Path) -> list[str]:
    """Failure messages of the probes that still fail."""
    probes = (probe_csv_roundtrip(seed, workdir), probe_budget_merge(seed),
              probe_parallel_crossover())
    return [m for m in probes if m]
