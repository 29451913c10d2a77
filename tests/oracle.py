"""A Chinchilla-form planted oracle for relative-law estimators.

Each metric is a function of (params N, tokens D), by default Hoffmann et
al.'s L(N, D) = E + A·N^-a + B·D^-b (arXiv 2203.15556, Approach 3). It is
evaluated on the runs ``plan_sweep`` lays out over six budgets from 1e18 to
1e20 (132 runs, flops = 6·N·D), so every budget holds one width grid and its
slices are not parabolas. For two such laws the truth is closed form: the
OLS slope of ln(L*_t / L*_b) on ln F over the budgets, where L*(F) is the
loss at N* = G·(F/6)^(b/(a+b)), G = (aA/(bB))^(1/(a+b)), and D* = F/(6N*).
"""

import numpy as np

from relscale import RunRecord, RunSet, plan_sweep

BUDGETS = tuple(np.geomspace(1e18, 1e20, 6).tolist())

#: Hoffmann et al.'s fitted law, and the treatments the tests plant against it.
BASELINE = {"E": 1.69, "A": 406.4, "B": 410.7, "a": 0.34, "b": 0.28}
TREATMENTS = {
    "E + 0.2": {**BASELINE, "E": 1.89},
    "A, B x 1.3": {**BASELINE, "A": BASELINE["A"] * 1.3, "B": BASELINE["B"] * 1.3},
    "B x 2": {**BASELINE, "B": BASELINE["B"] * 2},
    "a = b": {"E": 1.69, "A": 300.0, "B": 500.0, "a": 0.30, "b": 0.30},
}


def chinchilla(E, A, B, a, b):
    """The metric L(N, D) = E + A·N^-a + B·D^-b."""
    return lambda n, d: E + A * n ** -a + B * d ** -b


def oracle_runs(metrics, sigma=0.0, run_sigma=0.0, seed=0):
    """The planned runs, each carrying every metric of ``metrics`` (name ->
    function of (N, D)) times exp(run_sigma·z_run + sigma·z_metric). Per run,
    in plan order, z_run is drawn first, then one z per metric in order."""
    rng = np.random.default_rng(seed)
    records = []
    for i, plan in enumerate(plan_sweep(BUDGETS)):
        n, d = plan.shape.params, plan.tokens
        shared = run_sigma * rng.standard_normal()
        values = {name: law(n, d) * float(np.exp(shared + sigma * rng.standard_normal()))
                  for name, law in metrics.items()}
        records.append(RunRecord(run_id=f"r{i}", source="internal", dataset="oracle",
                                 flops=6.0 * n * d, params=n, tokens=d, metrics=values))
    return RunSet(tuple(records))


def optimal_loss(law, flops):
    """L*(F) of one Chinchilla law at the compute-optimal split of ``flops``."""
    E, A, B, a, b = (law[k] for k in ("E", "A", "B", "a", "b"))
    n = (a * A / (b * B)) ** (1 / (a + b)) * (flops / 6) ** (b / (a + b))
    return chinchilla(E, A, B, a, b)(n, flops / (6 * n))


def estimand(treatment, baseline=BASELINE):
    """The planted Δβ: the OLS slope of ln(L*_t / L*_b) on ln F over BUDGETS."""
    flops = np.array(BUDGETS)
    ratio = np.log(optimal_loss(treatment, flops) / optimal_loss(baseline, flops))
    return float(np.polyfit(np.log(flops), ratio, 1)[0])
