"""cubeperc benchmark: one workload, end-to-end or traced per-layer figures.

    python3 perfbench/run.py --workload giant-d20 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Each measurement runs in a fresh worker process (worker.py), so set-up time
and peak RSS belong to that workload alone.  With ``--trace 0`` it prints the
end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` the per-layer
ones; ``--smoke`` shrinks every workload for the benchmark's own tests.  The
last stdout line is one JSON object; the lines before it restate every
metric with its unit, the machine facts and the checks.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # fresh processes per run whose set-up time is measured
COLD_SAMPLES = 3  # fresh processes per cold-start probe
BUDGET_S = 170.0  # every worker is killed past this, inside the 180 s limit
CLI_ARGS = ("theory", "--c", "2", "--d", "20")
CLI_Y = 0.79681213002  # y(2) as the CLI prints it, to 12 significant digits

DROPPED = {
    "failed_ratio": "it is 0 whenever the program is correct, so it cannot carry a bound "
    "relative to its median; the result line carries it as failed / attempted",
}


class BenchError(Exception):
    pass


class Workers:
    """Starts workers in their own process group and kills the whole group,
    pool children included, if the run's time budget runs out."""

    def __init__(self, root: Path, env: dict, deadline: float):
        self.root, self.env, self.deadline = root, env, deadline

    def call(self, argv) -> tuple[str, float]:
        """(stdout, wall seconds) of one process that must exit 0."""
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} ran past the time budget") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {proc.returncode}")
        return out, time.monotonic() - start

    def worker(self, mode: str, args, out_dir: Path) -> dict:
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            mode,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--out-dir", str(out_dir),
            "--spawned", repr(time.monotonic()),
        ] + (["--smoke"] if args.smoke else [])  # fmt: skip
        out, _ = self.call(argv)
        return json.loads(out.strip().splitlines()[-1])


def machine_facts(root: Path, versions: dict) -> dict:
    git = root / ".git"
    commit = "none: not a git checkout"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        ref = commit.removeprefix("ref: ")
        if (git / ref).is_file():
            commit = (git / ref).read_text().strip()
        elif (git / "packed-refs").is_file():
            packed = dict(line.split()[::-1] for line in (git / "packed-refs").read_text().splitlines() if line[:1] not in "#^")
            commit = packed.get(ref, commit)
    source = hashlib.sha256()
    for path in sorted((root / "src" / "cubeperc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "cubeperc": versions["cubeperc"],
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


def end_to_end(args, workers: Workers, out_dir: Path) -> tuple[dict, dict]:
    setups = [workers.worker("setup", args, out_dir)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = workers.worker("run", args, out_dir)
    setups.append(run["setup_s"])
    values = {name: run[name] for name in ("trials_per_s", "trial_ms_p50", "trial_ms_tail", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    tail = run["tail"]
    notes = [
        f"trial_ms_tail is p{tail['percentile']:g}: {tail['beyond']} of {tail['samples']} samples lie beyond it",
        f"trial times are divided by the host slowdown next to them (mean {run['slowdown']:.4f}); "
        + "undivided: "
        + ", ".join(f"{k} {v:.6g}" for k, v in run["raw"].items()),
        f"setup_s is the median of {SETUP_SAMPLES} fresh processes, each divided by the host slowdown "
        + "measured right after it: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"failed_ratio = {run['failed']}/{run['attempted']} = {run['failed'] / run['attempted']:.6g}",
    ]
    if wl.WORKLOADS[args.workload].workers > 1:
        notes.append("trial times here are each run_experiment call's wall time over its trials")
    return values, {**run, "notes": notes}


def per_layer(args, workers: Workers, out_dir: Path) -> tuple[dict, dict]:
    w = wl.WORKLOADS[args.workload]
    d, _ = w.size(args.smoke)
    cold = [workers.worker("probe", args, out_dir)["endpoints_cold_s"] for _ in range(COLD_SAMPLES)]
    startups, printed = [], set()
    for _ in range(COLD_SAMPLES):
        out, wall = workers.call([sys.executable, "-m", "cubeperc.cli", *CLI_ARGS])
        printed.add(json.loads(out).get("y"))
        startups.append(wall)
    traced = workers.worker("trace", args, out_dir)
    if printed != {CLI_Y}:
        traced["problems"].append(f"cubeperc.cli {' '.join(CLI_ARGS)} printed y = {printed}, not {CLI_Y}")
    values = {
        "hypercube.endpoints_cold_s": statistics.median(cold),
        "hypercube.endpoint_bytes": 16 * (d << (d - 1)),
        "cli.startup_s": statistics.median(startups),
        **traced.pop("metrics"),
    }
    notes = [
        "hypercube.endpoint_bytes is computed as 16 m, not measured",
        "layer self time over all spans (s): "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(traced["layer_self_s"].items())),
    ]
    return values, {**traced, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must lie in [0, 2^40)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "cubeperc" / "__init__.py").is_file():
        print(f"error: {root} holds no src/cubeperc; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    workers = Workers(root, env, time.monotonic() + BUDGET_S)

    try:
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(args, workers, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value measured for {', '.join(missing)}", file=sys.stderr)
        return 1

    facts = machine_facts(root, detail["versions"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": detail["failed"] == 0 and not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps(
            {
                **result,
                "machine": facts,
                "unscaled": detail.get("raw"),
                "slowdown": detail.get("slowdown"),
                "notes": detail["notes"],
                "problems": detail["problems"],
            },
            indent=2,
        )
    )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in facts.items():
        print(f"machine.{key} = {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, reason in DROPPED.items():
            print(f"dropped {name}: {reason}")
    for note in detail["notes"]:
        print(f"note: {note}")
    for problem in detail["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
