#!/usr/bin/env python3
"""Sweep the sampler resolution and fit the KL decay rate.

Runs the exponential-integrator sampler on a spec across a range of grid
sizes, estimates KL against the data law with the histogram estimator, and
fits the log-log slope. Writes sweep.csv + sweep.summary.json.

Example:
    python scripts/rate_sweep.py --spec specs/standard_mixture_1d.json \
        --out out/rate --n 60000 --seed 7
"""

import argparse
from pathlib import Path

from gmdiff.fileio import load_spec, save_sweep_csv
from gmdiff.metrics import convergence_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="specs/standard_mixture_1d.json")
    ap.add_argument("--out", default="out/rate")
    ap.add_argument("--T", type=float, default=8.0)
    ap.add_argument("--n", type=int, default=60000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--values", type=int, nargs="+",
                    default=[64, 128, 256, 512, 1024, 2048, 4096])
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    spec = load_spec(args.spec)
    result = convergence_sweep(spec, "ei", "N", args.values, args.n, args.seed,
                               T=args.T, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_sweep_csv(result, out / "sweep.csv")
    for row in result.rows:
        print(f"N={int(row.axis_value):5d}  KL={row.value:.6f} +- {row.stderr:.6f}")
    print(f"log-log slope: {result.slope:.4f} +- {result.slope_half_width:.4f}")


if __name__ == "__main__":
    main()
