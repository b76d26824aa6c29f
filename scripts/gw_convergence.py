#!/usr/bin/env python3
"""Show the branching-process survival Bin(d, c/d) converging to y(c) as d
grows, both exactly (fixed point) and by simulation."""

import argparse
import sys
from pathlib import Path

try:
    import cubeperc as cp
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import cubeperc as cp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c", type=float, default=2.0)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dims", type=int, nargs="+", default=[5, 10, 30, 100, 300, 1000])
    args = parser.parse_args()

    rows = cp.gw_survival_limit_check(args.c, args.dims)
    print(f"y({args.c}) = {rows[0].y:.7f}")
    print(f"{'d':>6}  {'exact survival':>15}  {'|exact - y|':>12}  {'simulated':>10}")
    for row in rows:
        cfg = cp.ExperimentConfig(kind="gw", d=row.d, c=args.c, trials=args.trials, seed=args.seed)
        report = cp.run_experiment(cfg, workers=2)
        simulated = report.aggregates["survival_rate"]
        print(f"{row.d:>6}  {row.survival:>15.7f}  {row.deviation:>12.2e}  {simulated:>10.5f}")


if __name__ == "__main__":
    main()
