"""The benchmark's own tests: smoke runs of every workload in both modes, plus
the statistics and checks they rest on.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark's definition names, by mode.
NAMED = {
    0: ("trials_per_s", "trial_ms_p50", "trial_ms_tail", "peak_rss_mb", "setup_s", "failed_ratio"),
    1: (
        "hypercube.endpoints_cold_s",
        "hypercube.endpoint_bytes",
        "sampler.sample_edges_s",
        "sampler.peak_alloc_mb",
        "sampler.bitstream_bits",
        "sampler.bitstream_use_ratio",
        "components.label_s",
        "components.label_peak_alloc_mb",
        "components.open_edges",
        "components.n_components",
        "components.distance_s",
        "components.distance_levels",
        "components.explore_s",
        "components.edges_queried",
        "components.cap_hit_ratio",
        "experiments.harness_self_s",
        "experiments.pool_efficiency",
        "experiments.write_report_s",
        "experiments.report_bytes",
        "theory.block_s",
        "cli.startup_s",
        "trace.overhead_ratio",
        "trace.untraced_trials_per_s",
    ),
}


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in NAMED[trace]:
        if name in declared:
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {declared[name]}") for line in lines), name
        else:
            assert name in bench.DROPPED and f"dropped {name}: {bench.DROPPED[name]}" in lines


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "giant-d20", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond_it():
    assert wl.tail(range(1, 26), 60.0) == (60.0, 15, 10)
    assert wl.tail(range(1, 25), 60.0) == (50.0, 12, 12)
    assert wl.tail(range(1, 1001), 99.0) == (99.0, 990, 10)
    with pytest.raises(ValueError):
        wl.tail(range(19), 99.0)
    for w in wl.WORKLOADS.values():
        assert wl.tail(range(w.min_samples), w.tail_q)[0] == w.tail_q


def test_self_time_and_coverage():
    tracer = spans.Tracer()
    tracer.spans = [
        ("theory.block", 0.0, 1.0, -1, "run"),
        ("replay.trial", 1.0, 10.0, -1, "run:0"),
        ("sampler.sample_edges", 2.0, 4.0, 1, "run:0"),
        ("components.label_components", 4.0, 9.0, 1, "run:0"),
        ("replay.trial", 10.0, 12.0, -1, "other:0"),
    ]
    assert tracer.self_times() == [1.0, 2.0, 2.0, 5.0, 2.0]
    assert tracer.layer_self_seconds() == {"theory": 1.0, "replay": 4.0, "sampler": 2.0, "components": 5.0}
    assert tracer.covered("run") == 8.0


def test_supercritical_checks_flag_law_violations():
    import math

    class Theory:
        @staticmethod
        def second_component_bound(c, d):
            return d / (c - 1 - math.log(c))

        @staticmethod
        def solve_y(c):
            return 0.7968121300200202

    good = {"trial": 0, "l1": 835_000, "l2": 30, "n_components": 100, "w_density": 0.8}
    big_l2 = dict(good, l2=66)
    bad, problems = wl.check_supercritical(Theory, 20, 2.0, [good, big_l2])
    assert bad == {1} and problems == []
    small = dict(good, l1=10_000)
    _, problems = wl.check_supercritical(Theory, 20, 2.0, [small])
    assert problems and "l1/n" in problems[0]
    # c = 1.2 at d = 14 sits outside the law's regime: only invariants apply
    assert not wl.law_applies(Theory, 1.2, 14)
    assert wl.check_supercritical(Theory, 14, 1.2, [dict(good, l1=3000, l2=1061)]) == (set(), [])
