#!/usr/bin/env python3
"""Sweep the mean-degree parameter c at fixed d and compare the observed
giant-component fraction against the fixed-point law y(c).

Writes a CSV with one row per c: c, y, mean l1/n, std, max l2.
"""

import argparse
import csv
import statistics
import sys
from pathlib import Path

try:
    import cubeperc as cp
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import cubeperc as cp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=14)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--c-min", type=float, default=1.2)
    parser.add_argument("--c-max", type=float, default=3.0)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default="supercritical_sweep.csv")
    args = parser.parse_args()

    n = 2**args.d
    rows = []
    for i in range(args.steps):
        c = args.c_min + (args.c_max - args.c_min) * i / max(1, args.steps - 1)
        cfg = cp.ExperimentConfig(
            kind="supercritical", d=args.d, c=c, trials=args.trials, seed=args.seed
        )
        report = cp.run_experiment(cfg, workers=args.workers)
        fractions = [r["l1"] / n for r in report.rows]
        rows.append(
            {
                "c": round(c, 6),
                "y": report.theory["y"],
                "l1_frac_mean": round(statistics.fmean(fractions), 6),
                "l1_frac_std": round(statistics.pstdev(fractions), 6),
                "l2_max": max(r["l2"] for r in report.rows),
            }
        )
        print(f"c={c:.3f}  y={rows[-1]['y']:.4f}  observed={rows[-1]['l1_frac_mean']:.4f}", file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
