"""Smoke tests: each study script runs to completion at tiny sizes, the
package API that ``perfbench/`` calls is still there at d = 4, and the
benchmark-pairs, footprint and trial-pairs tools plan their runs in
alternating order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubeperc as cp

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("supercritical_sweep.py", "--d 6 --trials 2 --steps 2 --workers 1 --out sweep.csv"),
    ("gw_convergence.py", "--trials 20 --dims 5 10 40"),  # d = 40 > MAX_DIMENSION: gw is unbounded
    ("sprinkling_study.py", "--d 6 --trials 2 --exponents 3"),
]


@pytest.mark.parametrize("script,argv", SCRIPTS, ids=[name for name, _ in SCRIPTS])
def test_script_runs(tmp_path, script, argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv.split()],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_perfbench_api_surface(tmp_path):
    # the calls and attribute reads of perfbench/spans.py and worker.py; the
    # Tier-1 run does not collect perfbench/, so a deletion shows up here
    d, c, seed = 4, 2.0, 3
    g = cp.CubeGraph(d)
    us, vs = cp.edge_endpoint_arrays(g)
    assert us.shape == vs.shape == (g.m,)
    cp.solve_y(c)
    cp.second_component_bound(c, d)
    cfg = cp.ExperimentConfig(kind="supercritical", d=d, c=c, trials=2, seed=seed)
    lo, hi = cfg.resolved_gap_window()
    sample = cp.sample_edges(g, cp.SampleKey(seed, 0, 0), c / d)
    labeling = cp.label_components(g, sample)
    w = cp.w_set(labeling, labeling.l1)  # nonempty, as distance_to_set needs
    _, max_dist = cp.distance_to_set(g, w.members)
    gap = cp.size_gap_count(labeling, lo, hi)
    assert 0 <= sample.open_count <= g.m
    assert labeling.l1 >= labeling.l2 >= 0 and labeling.n_components >= 1
    assert 0.0 < w.density <= 1.0 and max_dist >= 0 and gap >= 0
    stream = cp.BitStream(cp.SampleKey(seed, 0, 0), c / d)
    result = cp.explore_component(g, 0, stream, cap=d * d)
    assert stream.consumed == result.edges_queried
    assert isinstance(result.cap_hit, bool) and 1 <= result.size <= d * d
    for kind in ("supercritical", "hitprob"):
        cfg = cp.ExperimentConfig(kind=kind, d=d, c=c, trials=2, seed=seed)
        report = cp.run_experiment(cfg, workers=1, on_trial=lambda done, total: None)
        cp.write_report(report, tmp_path / f"{kind}.json", "json")
        assert [row["trial"] for row in report.rows] == [0, 1]
    assert cp.__version__


def test_bench_pairs_dry_run_alternates(tmp_path):
    # the parent runs first on odd pairs, the change on even ones; a dry run
    # only prints the order
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--dry-run",
         "--parent", "HEAD", "--workload", "giant-d20", "--seeds", "41", "42", "43", "44", "45"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "parent 41", "change 41",
        "change 42", "parent 42",
        "parent 43", "change 43",
        "change 44", "parent 44",
        "parent 45", "change 45",
        "",
    ]


def test_footprint_dry_run_alternates(tmp_path):
    # the same order as the benchmark pairs; a dry run starts no process and
    # sets up no tree, so even a revision that does not exist is not read
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "footprint.py"), "--dry-run",
         "--parent", "no-such-revision", "--d", "24", "--seeds", "7", "8", "9"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["parent 7", "change 7", "change 8", "parent 8", "parent 9", "change 9", ""]


def test_trial_pairs_dry_run_alternates(tmp_path):
    # per d, the parent times first on odd draws; a dry run sets up no tree
    # (the revision does not exist) and imports neither numpy nor a package
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import trial_pairs; "
        "trial_pairs.main(['--dry-run', '--parent', 'no-such-revision', '--d', '16', '19', '--n', '3']); "
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'cubeperc'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "scripts")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "d 16 draw 0 parent", "d 16 draw 0 change",
        "d 16 draw 1 change", "d 16 draw 1 parent",
        "d 16 draw 2 parent", "d 16 draw 2 change",
        "d 19 draw 0 parent", "d 19 draw 0 change",
        "d 19 draw 1 change", "d 19 draw 1 parent",
        "d 19 draw 2 parent", "d 19 draw 2 change",
        "[]", "",
    ]
