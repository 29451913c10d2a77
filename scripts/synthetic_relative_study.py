"""End-to-end synthetic study: plant subgroup laws, recover them, compare.

Generates an IsoFLOP sweep with three planted subgroups (one converging
toward the baseline, one parallel, one diverging), walks the full analysis
pipeline (frontier -> absolute fits -> relative fits with bootstrap ->
crossover), and writes reports plus SVG figures under --outdir.

Run:  python scripts/synthetic_relative_study.py --outdir out
"""

import argparse
from pathlib import Path

import numpy as np

from relscale import (
    SeriesData,
    PlotSeries,
    Subgroup,
    SyntheticSpec,
    bootstrap_slopes,
    crossover,
    emit_plot,
    emit_runs,
    extract_frontier,
    fit_power_law,
    fit_relative,
    generate,
    known_truth,
    pairs_from_frontiers,
    percent_per_decade,
)
from relscale.ioutil import dump_json

BASELINE = "bpb/base"
SUBGROUPS = (
    Subgroup(BASELINE, alpha=3.0, beta=0.100),
    Subgroup("bpb/converging", alpha=3.9, beta=0.125),   # gap narrows
    Subgroup("bpb/parallel", alpha=3.3, beta=0.100),     # gap constant
    Subgroup("bpb/diverging", alpha=2.7, beta=0.085),    # gap widens
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=Path)
    parser.add_argument("--seed", default=0, type=int)
    parser.add_argument("--noise", default=0.004, type=float)
    parser.add_argument("--resamples", default=2000, type=int)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    spec = SyntheticSpec(
        budgets=tuple(np.geomspace(1e18, 1e20, 7)),
        subgroups=SUBGROUPS,
        widths_per_budget=9,
        noise_sigma=args.noise,
        curvature=0.05,
        seed=args.seed,
    )
    truth = known_truth(spec)
    runs = generate(spec)
    emit_runs(runs, args.outdir / "runs.jsonl")
    print(f"generated {len(runs)} runs over {len(spec.budgets)} budgets")

    frontiers = {g.name: extract_frontier(runs, g.name) for g in SUBGROUPS}
    absolute = {name: fit_power_law(s.law_points()) for name, s in frontiers.items()}
    print("\nabsolute laws (fitted vs planted):")
    for name, fit in absolute.items():
        alpha_true, beta_true = truth.absolute[name]
        print(
            f"  {name:16s} alpha={fit.alpha:.3f} ({alpha_true:.3f}) "
            f"beta={fit.beta:.4f} ({beta_true:.4f}) R2={fit.r2:.4f}"
        )

    print("\nrelative laws vs baseline:")
    relatives = {}
    results = {"absolute": {}, "relative": {}}
    for g in SUBGROUPS:
        results["absolute"][g.name] = absolute[g.name].to_dict()
        if g.name == BASELINE:
            continue
        pairs = pairs_from_frontiers(frontiers[g.name], frontiers[BASELINE])
        slopes = bootstrap_slopes(pairs, resamples=args.resamples, seed=args.seed)
        fit = fit_relative(pairs, slopes=slopes)
        relatives[g.name] = fit
        verdict = "significant" if fit.sign_significant else "not significant"
        print(
            f"  {g.name:16s} gamma={fit.gamma:.3f} delta_beta={fit.delta_beta:+.4f} "
            f"({percent_per_decade(fit.delta_beta):+.2f}%/decade) "
            f"p_sign={fit.p_sign:.4f} [{verdict}]"
        )
        results["relative"][g.name] = fit.to_dict()

    cross = crossover(
        relatives["bpb/converging"], relatives["bpb/diverging"],
        (spec.budgets[0], spec.budgets[-1]),
    )
    print(
        f"\nconverging/diverging curves cross at {cross.f_star:.3g} FLOPs "
        f"(within observed span: {cross.in_range})"
    )
    results["crossover"] = cross.to_dict()
    (args.outdir / "study.json").write_text(dump_json(results))

    emit_plot(
        PlotSeries(
            title="compute-optimal frontiers",
            x_label="training FLOPs",
            y_label="bits per byte",
            x_scale="log10",
            series=tuple(
                SeriesData(
                    label=name,
                    points=tuple((p.budget, p.optimal_metric) for p in series.points),
                )
                for name, series in frontiers.items()
            ),
        ),
        args.outdir / "frontiers",
    )
    emit_plot(
        PlotSeries(
            title="relative error vs baseline",
            x_label="training FLOPs",
            y_label="error ratio",
            x_scale="log10",
            series=tuple(
                SeriesData(
                    label=name,
                    points=tuple((f, t / b) for f, t, b in fit.pairs),
                    curve=tuple(
                        (f, float(fit.predict(f)))
                        for f in np.geomspace(spec.budgets[0], spec.budgets[-1], 64)
                    ),
                )
                for name, fit in relatives.items()
            ),
            ref_line_y=1.0,
        ),
        args.outdir / "relative",
    )
    print(f"\nwrote reports and figures to {args.outdir}/")


if __name__ == "__main__":
    main()
