#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload giant-d20 --seeds 41 42 43
    make pairs PARENT=HEAD~1 WORKLOAD=giant-d20 SEEDS="41 42 43"

Runs ``perfbench/run.py --workload W --seed S`` once in each tree per seed
and compares the end-to-end metrics of ``BENCHMARK.json``.  A run fails
unless it reports ``"correct": true``.  The log is
``.perfbench_out/pairs-W.jsonl``.

This module is also the pairs runner that ``footprint.py`` and
``trial_pairs.py`` share (``run_pairs``).  It puts a ``git archive`` of the
parent and a copy of the working tree (tracked and untracked files, less the
ignored ones) under ``.perfbench_out/pairs/``, fresh once per process, and
calls the tool's probe once per side and seed.  Pair k (from 1) runs the
parent first when k is odd and the change first when k is even, so neither
side always runs on a host that the other has just warmed.  Each run appends
``{"side", "seed", <metrics>}`` to the tool's JSONL log; a failed run logs
no metrics.  Over the pairs where both runs succeeded it then prints, per
metric, each side's median [q1, q3], the median change/parent ratio and how
many pairs the change won.  A tool exits 1 when a run failed.  ``--dry-run``
prints the run order and touches nothing.
"""

import argparse
import functools
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
SIDES = ("parent", "change")


def plan(seeds) -> list[tuple[str, int]]:
    """(side, seed) in run order: the parent first on odd pairs."""
    return [(side, seed) for k, seed in enumerate(seeds, start=1) for side in (SIDES if k % 2 else SIDES[::-1])]


def _git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, check=True).stdout


@functools.cache  # trial_pairs.py runs the runner once per d, on the same trees
def make_trees(parent: str) -> dict[str, Path]:
    trees = {side: OUT / "pairs" / side for side in SIDES}
    for path in trees.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    # git archive pipes straight into tar: holding the archive as bytes and
    # freeing it would raise glibc's mmap threshold in this process, and a
    # tool that times trials in process (trial_pairs.py) would then miss the
    # page faults a fresh process pays
    archive = subprocess.Popen(["git", "archive", "--format=tar", parent], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        archive.wait()
    if archive.returncode:
        raise subprocess.CalledProcessError(archive.returncode, archive.args)
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a deleted file is still listed as cached
            target = trees["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return trees


def summarize(records: list[dict], metrics: list[dict]) -> list[str]:
    """Per metric (``name``, ``unit``, ``better``): each side's median [q1,
    q3], the median change/parent ratio and the change's wins, over the
    pairs where both runs gave every metric."""
    runs = {(r["side"], r["seed"]): r for r in records if all(m["name"] in r for m in metrics)}
    seeds = [s for s in dict.fromkeys(r["seed"] for r in records) if all((side, s) in runs for side in SIDES)]
    lines = [f"{len(seeds)} complete pairs"]
    for m in metrics if seeds else []:
        pairs = [(runs["parent", s][m["name"]], runs["change", s][m["name"]]) for s in seeds]
        wins = sum((c > p) if m["better"] == "higher" else (c < p) for p, c in pairs)
        spread = {side: _quartiles(values) for side, values in zip(SIDES, zip(*pairs))}
        lines.append(
            f"{m['name']} ({m['unit']}, {m['better']} is better): "
            + "; ".join(f"{side} {q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for side, q in spread.items())
            + f"; median ratio {statistics.median(map(_ratio, pairs)):.4f}; change wins {wins}/{len(seeds)}"
        )
    return lines


def _ratio(pair) -> float:
    # change/parent.  A parent value of 0 (a wall time printed to 1 ms may
    # read 0) ties with a change of 0 and loses to any other
    parent, change = pair
    return change / parent if parent else 1.0 if change == parent else math.inf


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_pairs(parent: str, seeds, probe, metrics: list[dict], log: Path) -> tuple[list[dict], bool]:
    """Call ``probe(side, tree, seed)`` in ``plan(seeds)`` order, log and
    print each record and then the summary: (the records, whether every run
    succeeded).  A probe returns a dict with a value per metric (it may carry
    more), or None when the run failed."""
    trees = make_trees(parent)
    records, ok = [], True
    with open(log, "a") as out:
        for side, seed in plan(seeds):
            result = probe(side, trees[side], seed)
            ok &= result is not None
            records.append({"side": side, "seed": seed, **(result or {})})
            out.write(json.dumps(records[-1]) + "\n")
            out.flush()
            shown = ", ".join(f"{m['name']} {result[m['name']]:.6g}" for m in metrics) if result else "failed"
            print(f"{side} seed {seed}: {shown}", flush=True)
    print("\n".join(summarize(records, metrics)), flush=True)
    return records, ok


def parser(doc: str) -> argparse.ArgumentParser:
    """A tool's parser, with the ``--parent`` and ``--dry-run`` that every pairs tool takes."""
    parser = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--dry-run", action="store_true", help="print the run order only")
    return parser


def seeded(parser: argparse.ArgumentParser, argv, probe, metrics: list[dict], log) -> int:
    """The main of a tool that pairs runs by ``--seeds``; ``probe(args,
    side, tree, seed)`` and ``log(args)`` read the tool's own options."""
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(set(args.seeds)) != len(args.seeds):
        parser.error("--seeds must not repeat")
    if args.dry_run:
        for side, seed in plan(args.seeds):
            print(f"{side} {seed}")
        return 0
    return 0 if run_pairs(args.parent, args.seeds, functools.partial(probe, args), metrics, log(args))[1] else 1


def run(args, side: str, tree: Path, seed: int) -> dict | None:
    """One perfbench run in ``tree``: each metric's value, or None when it
    failed or did not report ``"correct": true``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed)],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not (result and result.get("correct") is True):
        print(f"not correct: {result}", flush=True)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    tool = parser(__doc__)
    tool.add_argument("--workload", required=True)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return seeded(tool, argv, run, metrics, lambda args: OUT / f"pairs-{args.workload}.jsonl")


if __name__ == "__main__":
    sys.exit(main())
