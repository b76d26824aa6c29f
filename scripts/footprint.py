#!/usr/bin/env python3
"""Alternating fresh-process footprints: a parent revision against the working tree.

    python3 scripts/footprint.py --parent HEAD~1 --d 24 --seeds 1 2 3 4
    make footprint PARENT=HEAD~1 D=24 SEEDS="1 2 3 4"

Runs ``python -m cubeperc.cli sim --d D --p 2/D --seed S`` once in each tree
per seed, on the pairs runner of ``bench_pairs.py`` (the same two trees, the
same alternating order and the same per-metric summary).  Each run is a new
process, so its ``peak_rss`` is one trial's footprint.  From the run's stderr
summary line it reads ``wall`` and ``peak_rss`` and logs
``{"side", "seed", "d", "wall_s", "peak_rss_mb"}`` to
``.perfbench_out/footprint-d<D>.jsonl``.  A run fails when it exits nonzero
or prints no summary.  Run it under ``taskset -c 0`` for the one-CPU figure.
``--dry-run`` prints the run order and starts nothing.
"""

import os
import re
import subprocess
import sys

from bench_pairs import OUT, parser, seeded

SUMMARY = re.compile(r"wall=([0-9.]+)s peak_rss=([0-9.]+)MB")
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"}, {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def run(args, side, tree, seed: int) -> dict | None:
    """One fresh ``cubeperc sim`` in ``tree``: its wall time and peak RSS,
    or None when it failed or printed no summary."""
    proc = subprocess.run(
        [sys.executable, "-m", "cubeperc.cli", "sim", "--d", str(args.d), "--p", repr(2 / args.d), "--seed", str(seed)],
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    found = SUMMARY.search(proc.stderr)
    if proc.returncode or not found:
        return None
    return {"d": args.d, "wall_s": float(found[1]), "peak_rss_mb": float(found[2])}


def main(argv=None) -> int:
    tool = parser(__doc__)
    tool.add_argument("--d", type=int, default=24)
    return seeded(tool, argv, run, METRICS, lambda args: OUT / f"footprint-d{args.d}.jsonl")


if __name__ == "__main__":
    sys.exit(main())
