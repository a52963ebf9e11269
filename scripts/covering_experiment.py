#!/usr/bin/env python3
"""Stress the midpoint covering selection beyond its certified regime.

The greedy selector is certified for mass ratios up to 4 (overlap <= 5).
This sweep widens the ratio between the lightest and heaviest interval
and records the worst observed overlap and any coverage misses.  Random
families stay well under the bound even at ratio 256; the selector only
sees the order structure of the intervals, so the numbers coincide
across measures (the per-measure rows are an empirical check of that).
"""

import argparse
import csv
import sys

import numpy as np

from amalgam.covering import random_family, select_cover
from amalgam.measure import lebesgue, power_measure


def trial_block(m, ratio, trials, count, seed0):
    # Masses in [1/sqrt(ratio), sqrt(ratio)]: geometric spread `ratio`
    # around unit mass, same center layout as the default family.  All
    # trials run as one batch; a miss is a trial whose selected intervals
    # leave an in-window midpoint uncovered.
    lo, hi = ratio ** -0.5, ratio ** 0.5
    done = select_cover(random_family(m, count=count, seed=range(seed0, seed0 + trials),
                                      mass_range=(lo, hi)))
    misses = sum(f is not None for f in done.failures)
    return max(done.overlaps, default=0), misses, float(np.mean(done.overlaps))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--ratios", type=float, nargs="+",
                    default=[2.0, 4.0, 8.0, 16.0, 64.0, 256.0])
    ap.add_argument("--csv", default=None)
    args = ap.parse_args(argv)

    measures = [("lebesgue", lebesgue()), ("power_0.5", power_measure(0.5))]
    rows = []
    print(f"{'measure':<10} {'ratio':>7} {'max_ovl':>8} {'mean_ovl':>9} "
          f"{'miss':>5}  ({args.trials} trials, {args.count} intervals)")
    for name, m in measures:
        for ratio in args.ratios:
            worst, misses, mean = trial_block(m, ratio, args.trials,
                                              args.count, args.seed0)
            flag = "" if worst <= 5 else "  <-- past certified bound"
            print(f"{name:<10} {ratio:>7g} {worst:>8d} {mean:>9.3f} "
                  f"{misses:>5d}{flag}")
            rows.append({"measure": name, "ratio": ratio,
                         "max_overlap": worst, "mean_overlap": mean,
                         "coverage_misses": misses})

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
            wr.writeheader()
            wr.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
