#!/usr/bin/env python3
"""Alternating whole-trial timings in one process: a parent revision against the working tree.

    python3 scripts/trial_pairs.py --parent HEAD~1 --d 16 17 18 19 20 --n 60
    make trials PARENT=HEAD~1 D="16 17 18 19 20" N=60

Sets up the same two trees as ``bench_pairs.py`` (a ``git archive`` of the
parent and a copy of the working tree under ``.perfbench_out/pairs/``) and
copies each tree's ``src/cubeperc`` into a temporary directory as the
packages ``cubeperc_parent`` and ``cubeperc_change``.  The package imports
itself only relatively, so both load side by side in this process.

For each d it times N supercritical trials at p = 2/d of each side (``C``,
seed ``SEED``), ``_supercritical_trial((seed, draw, d, p, w_threshold,
gap_lo, gap_hi), thread_count(d))`` with each side's own theory block and thread count, after
one untimed warm-up call of each.  Draw k (from 1) runs the parent first
when k is odd and the change first when k is even.  Both sides must return
the same row.  Per d it prints each side's thread count and median ms
[quartiles], the median of the per-draw speedups (parent ms / change ms) and
how many draws the change won, and appends that summary to
``.perfbench_out/trials.jsonl``.  It exits 1 when a row differs.
``--dry-run`` prints the timed calls in order, and sets up and imports
nothing.
"""

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import OUT, _quartiles, make_trees

SIDES = ("parent", "change")
C, SEED = 2.0, 1  # p = C/d, as footprint.py fixes p = 2/D


def plan(dims: list[int], n: int) -> list[tuple[int, int, str]]:
    """(d, draw, side) in run order: the parent first on odd draws."""
    order = []
    for d in dims:
        for k in range(1, n + 1):
            sides = SIDES if k % 2 else SIDES[::-1]
            order += [(d, k - 1, side) for side in sides]
    return order


def load(trees: dict[str, Path], into: Path) -> dict:
    """Each side's ``experiments`` module, from its tree's package copied
    into ``into`` as ``cubeperc_<side>``."""
    for side, tree in trees.items():
        shutil.copytree(tree / "src" / "cubeperc", into / f"cubeperc_{side}")
    sys.path.insert(0, str(into))
    return {side: importlib.import_module(f"cubeperc_{side}.experiments") for side in trees}


def trial_call(experiments, d: int):
    """One side's trial at Q^d, p = C/d: (draw -> row, thread count)."""
    cfg = experiments.ExperimentConfig(kind="supercritical", d=d, c=C, seed=SEED)
    _, params = experiments.KINDS["supercritical"].theory(cfg)
    threads = experiments.thread_count(d)
    return (lambda draw: experiments._supercritical_trial((SEED, draw, *params), threads)), threads


def summarize(d: int, threads: dict, ms: dict) -> dict:
    speedups = [p / q for p, q in zip(ms["parent"], ms["change"])]
    q = {side: [round(x, 3) for x in _quartiles(ms[side])] for side in SIDES}
    return {
        "d": d, "c": C, "seed": SEED, "draws": len(speedups),
        **{side: {"threads": threads[side], "median_ms": q[side][1], "quartiles_ms": q[side][::2]} for side in SIDES},
        "speedup": round(statistics.median(speedups), 4),
        "change_wins": sum(s > 1 for s in speedups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--d", type=int, nargs="+", required=True, dest="dims")
    parser.add_argument("--n", type=int, default=60, help="timed draws per side and d")
    parser.add_argument("--dry-run", action="store_true", help="print the timed calls in order only")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be >= 1")
    order = plan(args.dims, args.n)
    if args.dry_run:
        for d, draw, side in order:
            print(f"d {d} draw {draw} {side}")
        return 0

    trees = make_trees(args.parent)
    ok = True
    with tempfile.TemporaryDirectory() as tmp, open(OUT / "trials.jsonl", "a") as log:
        modules = load(trees, Path(tmp))
        for d in args.dims:
            calls = {side: trial_call(modules[side], d) for side in SIDES}
            for side in SIDES:
                calls[side][0](args.n)  # warm-up, on a draw that is not timed
            ms, rows = {side: [] for side in SIDES}, {side: [] for side in SIDES}
            for _, draw, side in (step for step in order if step[0] == d):
                start = time.perf_counter()
                rows[side].append(calls[side][0](draw))
                ms[side].append(1e3 * (time.perf_counter() - start))
            ok &= rows["parent"] == rows["change"]
            summary = summarize(d, {side: calls[side][1] for side in SIDES}, ms)
            log.write(json.dumps(summary) + "\n")
            log.flush()
            print(
                f"d {d}: "
                + "; ".join(f"{side} {summary[side]['threads']} thread(s) {summary[side]['median_ms']:.2f} ms "
                            f"{summary[side]['quartiles_ms']}" for side in SIDES)
                + f"; speedup {summary['speedup']:.3f}; change wins {summary['change_wins']}/{args.n}"
                + ("" if rows["parent"] == rows["change"] else "; ROWS DIFFER"),
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
