#!/usr/bin/env python3
"""How much does the sparse second round actually contribute at desk scale?

For each p2 exponent, report how often the large first-round components were
already a single component versus merged only after the union.
"""

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
    parser.add_argument("--d", type=int, default=14)
    parser.add_argument("--c", type=float, default=2.0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--exponents", type=float, nargs="+", default=[5.0, 3.0, 2.0])
    args = parser.parse_args()

    print(f"{'p2 exponent':>12}  {'p2':>12}  {'premerged':>10}  {'merge_ok':>9}  {'mean |W1|':>10}")
    for exponent in args.exponents:
        cfg = cp.ExperimentConfig(
            kind="sprinkling",
            d=args.d,
            c=args.c,
            trials=args.trials,
            seed=args.seed,
            p2_exponent=exponent,
        )
        report = cp.run_experiment(cfg, workers=2)
        agg = report.aggregates
        print(
            f"{exponent:>12.1f}  {report.theory['p2']:>12.3e}"
            f"  {agg['g1_premerged_count']:>7}/{args.trials}"
            f"  {agg['merge_ok_count']:>6}/{args.trials}"
            f"  {agg['w1_size_mean']:>10.1f}"
        )


if __name__ == "__main__":
    main()
