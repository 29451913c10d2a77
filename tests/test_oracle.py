"""Relative-law estimators against the Chinchilla-form oracle (tests/oracle.py).

The pins record how far each pairing lands from the closed-form Δβ: run
pairing (``pairs_from_runs``, no longer the CLI's) is 3x off on B x 2 and has
the wrong sign on a = b, while frontier pairing, which ``relfit`` uses on the
flops axis, stays near the truth.
"""

import numpy as np
import pytest

from relscale import extract_frontier, fit_relative, pairs_from_frontiers, pairs_from_runs
from tests.oracle import BASELINE, TREATMENTS, chinchilla, estimand, oracle_runs


def _delta_betas(runs):
    """Δβ of the run-paired and of the frontier-paired fit of 't' on 'b'."""
    run_paired = pairs_from_runs(runs, "t", "b")
    frontiers = pairs_from_frontiers(extract_frontier(runs, "t"), extract_frontier(runs, "b"))
    return tuple(fit_relative(pairs, run_bootstrap=False).delta_beta
                 for pairs in (run_paired, frontiers))


def _runs(treatment, **noise):
    return oracle_runs({"t": chinchilla(**treatment), "b": chinchilla(**BASELINE)}, **noise)


def test_runs_follow_the_plan():
    runs = oracle_runs({"m": lambda n, d: n / d})
    assert len(runs) == 132
    for run in runs:
        assert run.flops == 6.0 * run.params * run.tokens
        assert run.metrics["m"] == run.params / run.tokens


def test_the_shared_run_term_cancels_in_each_ratio():
    quiet, noisy = _runs(BASELINE), _runs(TREATMENTS["B x 2"], run_sigma=0.05, seed=1)
    law = chinchilla(**TREATMENTS["B x 2"])
    for q, n in zip(quiet, noisy):
        assert n.metrics["b"] != q.metrics["b"]
        assert n.metrics["t"] / n.metrics["b"] == pytest.approx(
            law(n.params, n.tokens) / q.metrics["b"], rel=1e-12)


def test_the_baseline_against_itself_plants_no_gap():
    assert estimand(BASELINE) == pytest.approx(0.0, abs=1e-15)
    assert _delta_betas(_runs(BASELINE)) == pytest.approx((0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("case, truth, run_paired, frontier", [
    ("E + 0.2", +0.00415, +0.00561, +0.00412),
    ("A, B x 1.3", -0.00993, -0.01305, -0.00987),
    ("B x 2", -0.01441, -0.04379, -0.01752),
    ("a = b", -0.00212, +0.01222, -0.00217),
])
def test_noiseless_delta_beta(case, truth, run_paired, frontier):
    assert estimand(TREATMENTS[case]) == pytest.approx(truth, abs=1e-5)
    assert _delta_betas(_runs(TREATMENTS[case])) == pytest.approx((run_paired, frontier),
                                                                  abs=1e-5)


@pytest.mark.parametrize("case, run_paired, frontier", [
    ("E + 0.2", 0.0016, 0.0013),
    ("A, B x 1.3", 0.0032, 0.0013),
    ("B x 2", 0.0294, 0.0036),
    ("a = b", 0.0144, 0.0012),
])
def test_rmse_at_sigma_one_percent(case, run_paired, frontier):
    truth = estimand(TREATMENTS[case])
    errors = np.array([_delta_betas(_runs(TREATMENTS[case], sigma=0.01, seed=seed))
                       for seed in range(60)]) - truth
    rmse = np.sqrt(np.mean(errors ** 2, axis=0))
    assert tuple(rmse) == pytest.approx((run_paired, frontier), abs=2e-4)
