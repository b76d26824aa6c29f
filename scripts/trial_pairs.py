#!/usr/bin/env python3
"""Alternating whole-trial timings in one process: a parent revision against the working tree.

    python3 scripts/trial_pairs.py --parent HEAD~1 --d 16 17 18 19 20 --n 60
    make trials PARENT=HEAD~1 D="16 17 18 19 20" N=60
    make trials PARENT=HEAD~1 D="13 14 15 16" N=20 TRIALS=10 WORKERS=2

Sets up the same two trees as ``bench_pairs.py`` and copies each tree's
``src/cubeperc`` into a temporary directory as the packages
``cubeperc_parent`` and ``cubeperc_change``.  The package imports itself
only relatively, so both load side by side in this process.

For each d it prints each side's thread count and, after one untimed warm-up
call of each side, runs the pairs runner of ``bench_pairs.py`` over draws 0
.. N-1: one probe times one trial of ``--kind`` (supercritical by default,
or sprinkling) at p = 2/d (``C``, seed ``SEED``), ``KINDS[kind].trial((seed,
draw, *params), threads)`` with the side's own theory block and thread
count, ``thread_count(d)`` unless ``--threads PARENT CHANGE`` sets the two,
and logs ``{"side", "seed": draw, "d", "ms", "row"}`` to
``.perfbench_out/trials.jsonl``.  Draw k (from 1) runs the parent first when
k is odd.  The runner prints each side's median ms [quartiles], the median
change/parent ratio and the change's wins.  Both sides must return the same
rows: the tool exits 1 when they differ.  ``--dry-run`` prints the timed
calls in order, and sets up and imports nothing.

With ``--trials T``, a probe times one whole ``run_experiment`` call of T
trials with config seed ``draw`` on ``--workers`` (1 by default; ``--workers
PARENT CHANGE`` sets the two sides apart), so a pool's start-up is timed
too, and ``row`` is the call's list of rows.  Per d it prints each side's
process count in place of its thread count.

With ``--parent HEAD --threads 1 2`` on a clean tree, both sides run the
same code, and the pairs time one thread against two; ``--parent HEAD
--trials 10 --workers 2 1`` times a pooled call against a serial one.
"""

import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import OUT, SIDES, make_trees, parser, plan, run_pairs

C, SEED = 2.0, 1  # p = C/d, as footprint.py fixes p = 2/D
KINDS = ("supercritical", "sprinkling")  # the labeling kinds that read c
METRICS = [{"name": "ms", "unit": "ms", "better": "lower"}]


def load(trees: dict[str, Path], into: Path) -> dict:
    """Each side's ``experiments`` module, from its tree's package copied
    into ``into`` as ``cubeperc_<side>``."""
    for side, tree in trees.items():
        shutil.copytree(tree / "src" / "cubeperc", into / f"cubeperc_{side}")
    sys.path.insert(0, str(into))
    return {side: importlib.import_module(f"cubeperc_{side}.experiments") for side in trees}


def trial_call(experiments, d: int, threads: int | None = None, kind: str = "supercritical"):
    """One side's trial of ``kind`` at Q^d, p = C/d, on ``threads`` threads,
    by default the side's ``thread_count(d)``: (draw -> row, thread count)."""
    cfg = experiments.ExperimentConfig(kind=kind, d=d, c=C, seed=SEED)
    spec = experiments.KINDS[kind]
    _, params = spec.theory(cfg)
    threads = experiments.thread_count(d) if threads is None else threads
    return (lambda draw: spec.trial((SEED, draw, *params), threads)), threads


def experiment_call(experiments, d: int, trials: int, workers: int, kind: str = "supercritical"):
    """One side's whole ``run_experiment`` call of ``trials`` trials of
    ``kind`` at Q^d, p = C/d, on at most ``workers`` processes: (draw -> the
    rows of config seed ``draw``, process count)."""

    def call(draw):
        cfg = experiments.ExperimentConfig(kind=kind, d=d, c=C, trials=trials, seed=draw)
        return experiments.run_experiment(cfg, workers=workers).rows

    # a revision before process_count pooled min(workers, trials)
    processes = getattr(experiments, "process_count", lambda d, trials, workers: min(workers, trials))
    return call, processes(d, trials, workers)


def main(argv=None) -> int:
    tool = parser(__doc__)
    tool.add_argument("--d", type=int, nargs="+", required=True, dest="dims")
    tool.add_argument("--n", type=int, default=60, help="timed draws per side and d")
    tool.add_argument("--kind", choices=KINDS, default="supercritical")
    tool.add_argument("--threads", type=int, nargs=2, metavar=("PARENT", "CHANGE"),
                      help="each side's thread count, in place of its thread_count(d)")
    tool.add_argument("--trials", type=int, help="time whole run_experiment calls of this many trials")
    tool.add_argument("--workers", type=int, nargs="+", default=[1], metavar="W",
                      help="the calls' workers: one for both sides, or PARENT CHANGE (with --trials)")
    args = tool.parse_args(argv)
    if args.n < 1:
        tool.error("--n must be >= 1")
    if args.threads and min(args.threads) < 1:
        tool.error("--threads must be >= 1")
    if args.trials is not None and args.trials < 1:
        tool.error("--trials must be >= 1")
    if len(args.workers) > 2 or min(args.workers) < 1:
        tool.error("--workers takes one or two counts >= 1")
    if args.trials is None and args.workers != [1]:
        tool.error("--workers needs --trials")
    if args.trials is not None and args.threads:
        tool.error("--threads times single trials: leave out --trials")
    if args.dry_run:
        for d in args.dims:
            for side, draw in plan(range(args.n)):
                print(f"d {d} draw {draw} {side}")
        return 0

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        modules = load(make_trees(args.parent), Path(tmp))
        for d in args.dims:
            if args.trials is None:
                counts = args.threads or (None, None)
                calls = {side: trial_call(modules[side], d, n, args.kind) for side, n in zip(SIDES, counts)}
                unit = "thread(s)"
            else:
                workers = args.workers if len(args.workers) == 2 else args.workers * 2
                calls = {side: experiment_call(modules[side], d, args.trials, w, args.kind)
                         for side, w in zip(SIDES, workers)}
                unit = "process(es)"
            print(f"d {d}: " + "; ".join(f"{side} {calls[side][1]} {unit}" for side in SIDES), flush=True)
            for call, _ in calls.values():
                call(args.n)  # warm-up, on a draw that is not timed

            def probe(side, tree, draw):
                start = time.perf_counter()
                row = calls[side][0](draw)
                return {"d": d, "ms": 1e3 * (time.perf_counter() - start), "row": row}

            records, _ = run_pairs(args.parent, range(args.n), probe, METRICS, OUT / "trials.jsonl")
            rows = {(r["side"], r["seed"]): r["row"] for r in records}
            same = all(rows["parent", draw] == rows["change", draw] for draw in range(args.n))
            ok &= same
            print(f"d {d}: rows {'agree' if same else 'DIFFER'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
