#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload giant-d20 --seeds 41 42 43
    make pairs PARENT=HEAD~1 WORKLOAD=giant-d20 SEEDS="41 42 43"

Puts a ``git archive`` of the parent and a copy of the working tree (tracked
and untracked files, less the ignored ones) under ``.perfbench_out/pairs/``,
then runs ``perfbench/run.py --workload W --seed S`` once in each tree per
seed, from a fresh copy each time the tool starts.  Pair k (from 1) runs the
parent first when k is odd and the change first when k is even, so neither
side always runs on a host that the other has just warmed.  Each run appends
``{"side", "seed", "result"}`` to ``.perfbench_out/pairs-W.jsonl``, where
``result`` is the run's last stdout line (null when it printed none).  At the
end it prints, per end-to-end metric, each side's median and quartiles, the
median change/parent ratio and how many pairs the change won.  It exits 1
when a run failed or did not report ``"correct": true``.  ``--dry-run``
prints the run order and touches nothing.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"


def plan(seeds: list[int]) -> list[tuple[str, int]]:
    """(side, seed) in run order: the parent first on odd pairs."""
    order = []
    for k, seed in enumerate(seeds, start=1):
        sides = ("parent", "change") if k % 2 else ("change", "parent")
        order += [(side, seed) for side in sides]
    return order


def _git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, check=True).stdout


def make_trees(parent: str) -> dict[str, Path]:
    trees = {side: OUT / "pairs" / side for side in ("parent", "change")}
    for path in trees.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=_git("archive", "--format=tar", parent), check=True)
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a deleted file is still listed as cached
            target = trees["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return trees


def run(tree: Path, workload: str, seed: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def summarize(records: list[dict], metrics: list[dict]) -> list[str]:
    """Per metric: each side's median [q1, q3], the median pair ratio and
    the change's wins, over the pairs where both runs gave a result."""
    results = {(r["side"], r["seed"]): r["result"] for r in records}
    seeds = [s for s in dict.fromkeys(r["seed"] for r in records) if results[("parent", s)] and results[("change", s)]]
    lines = [f"{len(seeds)} complete pairs"]
    for m in metrics if seeds else []:
        name = m["name"]
        value = {side: [results[side, s]["metrics"][name]["value"] for s in seeds] for side in ("parent", "change")}
        ratios = [c / p for p, c in zip(value["parent"], value["change"])]
        wins = sum((c > p) if m["better"] == "higher" else (c < p) for p, c in zip(value["parent"], value["change"]))
        spread = {side: _quartiles(v) for side, v in value.items()}
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): "
            + "; ".join(f"{side} {q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for side, q in spread.items())
            + f"; median ratio {statistics.median(ratios):.4f}; change wins {wins}/{len(seeds)}"
        )
    return lines


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True)
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

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = make_trees(args.parent)
    records, ok = [], True
    with open(OUT / f"pairs-{args.workload}.jsonl", "a") as log:
        for side, seed in order:
            result = run(trees[side], args.workload, seed)
            correct = bool(result and result.get("correct") is True)
            ok &= correct
            records.append({"side": side, "seed": seed, "result": result})
            log.write(json.dumps(records[-1]) + "\n")
            log.flush()
            shown = json.dumps(result["metrics"]) if correct else f"failed: {result}"
            print(f"{side} seed {seed}: {shown}", flush=True)
    print("\n".join(summarize(records, metrics)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
