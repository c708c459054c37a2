#!/usr/bin/env python3
"""Growth of h_glo^2 / h_loc with system size, supports-only Monte Carlo.

No dense matrices are built, so sizes in the hundreds are cheap.  With m
scaling like n log n / k the per-site strengths concentrate and the mean
ratio grows like sqrt(n/k); the log-log fit should sit near slope 1/2.
"""

import argparse

from dissip.analysis import concentration_m, glo_loc_ratio_stats, loglog_slope
from dissip.ensembles import SAMPLED_MODELS, EnsembleSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="sparse_pauli", choices=SAMPLED_MODELS)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--sizes", default="8,16,32,64,128")
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    specs = [EnsembleSpec(args.model, n, args.k, concentration_m(n, args.k), seed=0) for n in sizes]
    rows = glo_loc_ratio_stats(specs, draws=args.draws, master_seed=args.seed)

    print(f"{'n':>5s} {'m':>6s} {'mean ratio':>11s} {'stderr':>9s}")
    for row in rows:
        print(f"{row['n']:5d} {row['m']:6d} {row['mean_ratio']:11.4f} {row['stderr']:9.4f}")
    slope = loglog_slope([r["n"] for r in rows], [r["mean_ratio"] for r in rows])
    print(f"\nlog-log slope: {slope:.3f} (sqrt growth is 0.5)")


if __name__ == "__main__":
    main()
