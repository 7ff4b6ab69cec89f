#!/usr/bin/env python3
"""Print the smoothness report of a mixture spec across forward times.

Shows how the Lipschitz constant, eigenvalue extremes, and region
calibration evolve as the forward process flows toward the prior.

Example:
    python scripts/bounds_report.py --spec specs/standard_mixture_1d.json \
        --times 0 0.5 1 2 4 8
"""

import argparse

from gmdiff.bounds import bound_report
from gmdiff.fileio import load_spec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="specs/standard_mixture_1d.json")
    ap.add_argument("--times", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    spec = load_spec(args.spec)
    header = (f"{'t':>6} {'log_L':>10} {'sigma_min':>10} {'sigma_max':>10} {'R':>8} "
              f"{'log_gamma':>10}")
    print(header)
    print("-" * len(header))
    for t in args.times:
        rep = bound_report(spec, t, seed=args.seed)
        print(f"{t:6.2f} {rep.log_L:10.4f} {rep.summary.sigma_min:10.5f} "
              f"{rep.summary.sigma_max:10.5f} {rep.params.R:8.3f} {rep.params.log_gamma:10.4f}")
    rep0 = bound_report(spec, 0.0, seed=args.seed)
    print(f"\nm2 = {rep0.m2:.6f}, M2 = {rep0.M2:.6f}, "
          f"KL-to-prior upper bound = {rep0.kl_upper:.6f}")


if __name__ == "__main__":
    main()
