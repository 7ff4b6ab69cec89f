#!/usr/bin/env python3
"""Run all four reverse-process samplers on a spec and compare the outputs
against the data law (histogram TV plus moment z-scores).

Example:
    python scripts/sampler_demo.py --spec specs/standard_mixture_1d.json --n 50000
"""

import argparse

from gmdiff.fileio import load_spec
from gmdiff.metrics import default_histogram_grid, moment_diagnostics, tv_histogram
from gmdiff.schedules import uniform_grid
from gmdiff.solvers import make_score_model, run_predictor_corrector, run_sampler


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="specs/standard_mixture_1d.json")
    ap.add_argument("--T", type=float, default=6.0)
    ap.add_argument("--N", type=int, default=1024)
    ap.add_argument("--n", type=int, default=50000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--epsilon0", type=float, default=0.0)
    args = ap.parse_args()

    spec = load_spec(args.spec)
    model = make_score_model(spec, "perturbed", args.epsilon0, seed=args.seed)
    grid = uniform_grid(args.T, args.N)
    h_pred = args.T / (args.N // 4)
    batches = {
        "em": run_sampler(model, grid, "em", args.n, args.seed),
        "ei": run_sampler(model, grid, "ei", args.n, args.seed),
        "dpom": run_predictor_corrector(model, args.T, h_pred, h_pred / 4, 2,
                                        "overdamped", n=args.n, seed=args.seed),
        "dpum": run_predictor_corrector(model, args.T, h_pred, h_pred / 4, 2,
                                        "underdamped", n=args.n, seed=args.seed),
    }
    hist = default_histogram_grid(spec, bins=100) if spec.dim <= 3 else None
    for name, batch in batches.items():
        z = moment_diagnostics(batch, spec).max_abs_z
        line = f"{name:5s} max |moment z| = {z:7.2f}"
        if hist is not None:
            line += f"   TV to data law = {tv_histogram(batch, spec, hist):.4f}"
        print(line)


if __name__ == "__main__":
    main()
