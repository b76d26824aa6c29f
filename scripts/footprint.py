#!/usr/bin/env python3
"""Alternating fresh-process footprints: a parent revision against the working tree.

    python3 scripts/footprint.py --parent HEAD~1 --d 24 --seeds 1 2 3 4
    make footprint PARENT=HEAD~1 D=24 SEEDS="1 2 3 4"

Sets up the same two trees as ``bench_pairs.py`` (a ``git archive`` of the
parent and a copy of the working tree under ``.perfbench_out/pairs/``), then
runs ``python -m cubeperc.cli sim --d D --p 2/D --seed S`` once in each tree
per seed, in the same alternating order: pair k (from 1) runs the parent
first when k is odd.  Each run is a new process, so its ``peak_rss`` is one
trial's footprint.  From the run's stderr summary line it reads ``wall`` and
``peak_rss`` and appends ``{"side", "seed", "d", "wall_s", "peak_rss_mb"}``
to ``.perfbench_out/footprint-d<D>.jsonl``; at the end it prints each side's
median wall time and peak RSS.  It exits 1 when a run failed.  Run it under
``taskset -c 0`` for the one-CPU figure.  ``--dry-run`` prints the run order
and starts nothing.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

from bench_pairs import OUT, make_trees, plan

SUMMARY = re.compile(r"wall=([0-9.]+)s peak_rss=([0-9.]+)MB")


def run(tree, d: int, seed: int) -> dict | None:
    """One fresh ``cubeperc sim`` in ``tree``: its wall time and peak RSS,
    or None when it failed or printed no summary."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cubeperc.cli", "sim", "--d", str(d), "--p", repr(2 / d), "--seed", str(seed)],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    found = SUMMARY.search(proc.stderr)
    if proc.returncode or not found:
        return None
    return {"wall_s": float(found[1]), "peak_rss_mb": float(found[2])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--d", type=int, default=24)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--dry-run", action="store_true", help="print the run order only")
    args = parser.parse_args(argv)
    if len(set(args.seeds)) != len(args.seeds):
        parser.error("--seeds must not repeat")
    order = plan(args.seeds)
    if args.dry_run:
        for side, seed in order:
            print(f"{side} {seed}")
        return 0

    trees = make_trees(args.parent)
    records, ok = [], True
    with open(OUT / f"footprint-d{args.d}.jsonl", "a") as log:
        for side, seed in order:
            result = run(trees[side], args.d, seed)
            ok &= result is not None
            if result:
                records.append({"side": side, "seed": seed, "d": args.d, **result})
                log.write(json.dumps(records[-1]) + "\n")
                log.flush()
            print(f"{side} seed {seed}: {result or 'failed'}", flush=True)
    for side in ("parent", "change"):
        mine = [r for r in records if r["side"] == side]
        if mine:
            wall = statistics.median(r["wall_s"] for r in mine)
            rss = statistics.median(r["peak_rss_mb"] for r in mine)
            print(f"{side}: {len(mine)} runs, median wall {wall:.2f} s, median peak RSS {rss:.0f} MB")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
