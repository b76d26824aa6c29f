"""One benchmark process, started fresh by run.py for each measurement.

Modes:
  setup  import the package, validate the first configs and do the lazy
         per-d set-up, then exit.  This is everything before the first trial.
  run    set-up, then the timed closed loop through ``run_experiment`` and
         ``write_report``, then the output checks.  End-to-end figures.
  trace  set-up, an untraced loop as the base, the traced replay of the same
         runs, probes of the layers off the workload's path, and a separate
         tracemalloc pass.  Per-layer figures.
  probe  one cold ``edge_endpoint_arrays`` call.

Every mode prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

import spans
import workloads as wl
import reference
from reference import Reference

ROOT = Path.cwd()  # run.py starts every worker from the checkout root
MB = float(1 << 20)

now = time.perf_counter


def import_package():
    import cubeperc as cp

    src = (ROOT / "src").resolve()
    if Path(cp.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cubeperc was imported from {cp.__file__}, not from {src}")
    return cp


def set_up(w: wl.Workload, d: int, trials: int, seed: int):
    cp = import_package()
    for c in w.cs:
        cp.ExperimentConfig(kind=w.kind, d=d, c=c, trials=trials, seed=wl.batch_seed(seed, 0))
    if w.labels:
        cp.edge_endpoint_arrays(cp.CubeGraph(d))
    return cp


def plans(w: wl.Workload, seed: int):
    """(batch, c, config seed) of every run_experiment call, in loop order."""
    batch = 0
    while True:
        for c in w.cs:
            yield batch, c, wl.batch_seed(seed, batch)
        batch += 1


def one_run(cp, kind, d, c, trials, seed, workers, path, ref=None) -> dict:
    """One run_experiment call and its report.  With ``ref``, reference
    bursts run between serial trials, and the trial times and the call's
    wall time leave them out."""
    cfg = cp.ExperimentConfig(kind=kind, d=d, c=c, trials=trials, seed=seed)
    resumed = [now()]
    ends = []

    def on_trial(done, total):
        ends.append(now())
        resumed.append(ref.maybe() if ref and workers == 1 else ends[-1])

    paused = ref.paused if ref else 0.0
    report = cp.run_experiment(cfg, workers=workers, on_trial=on_trial)
    ran = now()
    cp.write_report(report, path, "json")
    written = now()
    return {
        "rows": report.rows,
        "start": resumed[0],
        "end": written,
        "wall": ran - resumed[0] - ((ref.paused - paused) if ref else 0.0),
        "write_s": written - ran,
        "trials_at": list(zip(resumed, ends)),
    }


def closed_loop(cp, w, d, trials, seed, seconds, out_dir) -> dict:
    """Call run_experiment and write_report back to back until batch 0 is
    complete, ``seconds`` have passed and the tail has its samples: one per
    trial, or one per call where a pool hides the trials.  Reference bursts
    run between trials and calls; their time is not part of the timed
    phase."""
    path = out_dir / f"report-{w.name}-{os.getpid()}.json"
    per_call = trials if w.workers == 1 else 1
    runs = []
    ref = Reference()
    start, paused = now(), ref.paused
    for batch, c, config_seed in plans(w, seed):
        if batch > 0 and now() - start - (ref.paused - paused) >= seconds and len(runs) * per_call >= w.min_samples:
            break
        runs.append(guarded_run(cp, w, d, c, trials, batch, config_seed, w.workers, path, ref))
        ref.maybe()
    elapsed = now() - start - (ref.paused - paused)
    ref.burst()  # closes the last call
    path.unlink(missing_ok=True)
    return {"runs": runs, "trials": len(runs) * trials, "elapsed": elapsed, "ref": ref}


def guarded_run(cp, w, d, c, trials, batch, config_seed, workers, path, ref=None) -> dict:
    """One call; a call that raises is kept, marked, and fails its trials.
    Batch 0 keeps its report bytes for the checks."""
    run = {"batch": batch, "c": c, "seed": config_seed}
    try:
        run.update(one_run(cp, w.kind, d, c, trials, config_seed, workers, path, ref))
        run["bytes"] = path.stat().st_size
        if batch == 0:
            run["data"] = path.read_bytes()
    except Exception:
        traceback.print_exc()
        run["error"] = True
    return run


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def check_runs(cp, w, d, trials, seed, smoke, runs, out_dir) -> tuple[set, list[str]]:
    """Failed (run index, trial) pairs and the problems found."""
    failed, problems = set(), []

    def fail(indices, problem):
        failed.update((i, t) for i in indices for t in range(trials))
        problems.append(problem)

    by_c = defaultdict(list)
    for i, run in enumerate(runs):
        if run.get("error"):
            fail([i], f"run {run['batch']}/c={run['c']} raised")
        elif [r["trial"] for r in run["rows"]] != list(range(trials)):
            fail([i], f"run {run['batch']}/c={run['c']} rows out of order")
        else:
            by_c[run["c"]].append(i)
    for c, indices in by_c.items():
        rows = [(i, r) for i in indices for r in runs[i]["rows"]]
        bad, found = wl.check_rows(w, cp, d, c, [r for _, r in rows])
        if found:
            fail(indices, "; ".join(found))
        failed.update((i, r["trial"]) for k, (i, r) in enumerate(rows) if k in bad)

    batch0 = [i for i, run in enumerate(runs) if run["batch"] == 0]
    if len(batch0) < len(w.cs) or any("data" not in runs[i] for i in batch0):
        fail(batch0, "batch 0 did not complete")
        return failed, problems
    if seed == wl.DEFAULT_SEED:
        got = wl.digest(runs[i]["data"] for i in batch0)
        if got != wl.PINNED_DIGESTS[(w.name, smoke)]:
            fail(batch0, f"batch 0 report digest {got} differs from the pinned one")
    if w.workers > 1:
        i = batch0[seed % len(batch0)]
        path = out_dir / f"serial-{w.name}-{os.getpid()}.json"
        cp.write_report(
            cp.run_experiment(
                cp.ExperimentConfig(kind=w.kind, d=d, c=runs[i]["c"], trials=trials, seed=runs[i]["seed"]), workers=1
            ),
            path,
            "json",
        )
        if path.read_bytes() != runs[i]["data"]:
            fail([i], f"c={runs[i]['c']}: pooled report bytes differ from a workers=1 rerun")
        path.unlink()
    return failed, problems


def run_mode(cp, w, d, trials, seed, seconds, smoke, out_dir, setup_s) -> dict:
    loop = closed_loop(cp, w, d, trials, seed, seconds, out_dir)
    rss = peak_rss_mb()
    runs = loop["runs"]
    failed, problems = check_runs(cp, w, d, trials, seed, smoke, runs, out_dir)
    ok = [r for r in runs if not r.get("error")]
    ref = loop["ref"]
    if w.workers == 1:
        raw_ms = [(end - start) * 1e3 for r in ok for start, end in r["trials_at"]]
        samples = [(end - start) * 1e3 / ref.around(start, end) for r in ok for start, end in r["trials_at"]]
    else:  # pooled trials finish out of sight: one sample per call, its wall time over its trials
        raw_ms = [r["wall"] * 1e3 / trials for r in ok]
        samples = [r["wall"] * 1e3 / trials / ref.around(r["start"], r["end"]) for r in ok]
    calibrated_s = sum((r["wall"] + r["write_s"]) / ref.around(r["start"], r["end"]) for r in ok)
    q, tail_ms, beyond = wl.tail(samples, w.tail_q)
    raw = {
        "trials_per_s": loop["trials"] / loop["elapsed"],
        "trial_ms_p50": wl.median(raw_ms),
        "trial_ms_tail": wl.tail(raw_ms, w.tail_q)[1],
    }
    return {
        "raw": raw,
        "slowdown": statistics.fmean(ref.slowdowns),
        "setup_s": setup_s,
        "trials_per_s": len(ok) * trials / calibrated_s,
        "trial_ms_p50": wl.median(samples),
        "trial_ms_tail": tail_ms,
        "tail": {"percentile": q, "beyond": beyond, "samples": len(samples)},
        "peak_rss_mb": rss,
        "attempted": loop["trials"],
        "failed": len(failed),
        "problems": problems,
    }


def probe_layers(cp, w, d, seed, tracer, counts) -> None:
    """Measure the layers the workload's own trials do not reach, once, at
    its d and c = PROBE_C: exploration for labeling workloads, sampling,
    labeling and distance for the exploring one."""
    if w.labels:
        spans.replay_run(cp, tracer, "hitprob", d, wl.PROBE_C, wl.batch_seed(seed, 0), wl.PROBE_EXPLORATIONS, counts)
    else:
        cp.edge_endpoint_arrays(cp.CubeGraph(d))
        spans.replay_run(cp, tracer, "supercritical", d, wl.PROBE_C, wl.batch_seed(seed, 0), 1, counts)


def alloc_pass(cp, d, seed) -> tuple[float, float]:
    """tracemalloc peaks of one sample_edges and one label_components call,
    kept apart from the timed spans."""
    g = cp.CubeGraph(d)
    cp.edge_endpoint_arrays(g)
    tracemalloc.start()
    try:
        sample = cp.sample_edges(g, cp.SampleKey(wl.batch_seed(seed, 0), 0, 0), wl.PROBE_C / d)
        sample_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cp.label_components(g, sample)
        label_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return sample_peak / MB, label_peak / MB


def trace_mode(cp, w, d, trials, seed, seconds, smoke, out_dir) -> dict:
    """Each call runs untraced through run_experiment, again with workers=1
    when the workload pools, then replayed layer by layer, so the three
    timings of one call sit side by side."""
    path = out_dir / f"report-{w.name}-{os.getpid()}.json"
    tracer, counts = spans.Tracer(), defaultdict(list)
    runs, serial, traced, harness, mismatched = [], [], [], [], []
    start = now()
    for batch, c, config_seed in plans(w, seed):
        if batch > 0 and now() - start >= seconds:
            break
        run = guarded_run(cp, w, d, c, trials, batch, config_seed, w.workers, path)
        runs.append(run)
        if run.get("error"):
            continue
        serial.append(run["wall"] if w.workers == 1 else one_run(cp, w.kind, d, c, trials, config_seed, 1, path)["wall"])
        t0 = now()
        rows = spans.replay_run(cp, tracer, w.kind, d, c, config_seed, trials, counts)
        traced.append(now() - t0)
        if rows != run["rows"]:
            mismatched.append(len(runs) - 1)
        harness.append(run["wall"] - tracer.covered(spans.run_id(w.kind, d, c, config_seed)) / w.workers)
    path.unlink(missing_ok=True)

    failed, problems = check_runs(cp, w, d, trials, seed, smoke, runs, out_dir)
    for i in mismatched:
        failed.update((i, t) for t in range(trials))
        problems.append(f"c={runs[i]['c']} seed={runs[i]['seed']}: traced replay rows differ from the runner's")
    good = [r for r in runs if not r.get("error")]

    probe_layers(cp, w, d, seed, tracer, counts)
    sample_mb, label_mb = alloc_pass(cp, d, seed)
    tracer.write(out_dir / f"spans-{w.name}-seed{seed}.jsonl")

    def med(name):
        return wl.median(tracer.durations(name))

    def mean(name):
        return statistics.fmean(counts[name])

    untraced_tps = len(serial) * trials / sum(serial)
    return {
        "metrics": {
            "sampler.sample_edges_s": med("sampler.sample_edges"),
            "sampler.peak_alloc_mb": sample_mb,
            "sampler.bitstream_bits": mean("bitstream_bits"),
            "sampler.bitstream_use_ratio": sum(counts["bitstream_bits"]) / sum(counts["bitstream_generated"]),
            "components.label_s": med("components.label_components"),
            "components.label_peak_alloc_mb": label_mb,
            "components.open_edges": mean("open_edges"),
            "components.n_components": mean("n_components"),
            "components.distance_s": med("components.distance_to_set"),
            "components.distance_levels": mean("distance_levels"),
            "components.explore_s": med("components.explore_component"),
            "components.edges_queried": mean("edges_queried"),
            "components.cap_hit_ratio": mean("cap_hit"),
            "experiments.harness_self_s": wl.median(harness),
            "experiments.pool_efficiency": sum(serial) / (w.workers * sum(r["wall"] for r in good)),
            "experiments.write_report_s": wl.median([r["write_s"] for r in good]),
            "experiments.report_bytes": wl.median([r["bytes"] for r in good]),
            "theory.block_s": med("theory.block"),
            "trace.overhead_ratio": (len(traced) * trials / sum(traced)) / untraced_tps,
            "trace.untraced_trials_per_s": untraced_tps,
        },
        "layer_self_s": tracer.layer_self_seconds(),
        "attempted": len(runs) * trials,
        "failed": len(failed),
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "run", "trace", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() when run.py spawned us")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    d, trials = w.size(args.smoke)
    out_dir = Path(args.out_dir)

    if args.mode == "probe":
        cp = import_package()
        t0 = now()
        cp.edge_endpoint_arrays(cp.CubeGraph(d))
        result = {"endpoints_cold_s": now() - t0}
    else:
        cp = set_up(w, d, trials, args.seed)
        setup_s = (time.monotonic() - args.spawned) / reference.slowdown_now()
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "run":
            result = run_mode(cp, w, d, trials, args.seed, args.seconds, args.smoke, out_dir, setup_s)
        else:
            result = trace_mode(cp, w, d, trials, args.seed, args.seconds, args.smoke, out_dir)
    import numpy

    result["versions"] = {"numpy": numpy.__version__, "cubeperc": cp.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
