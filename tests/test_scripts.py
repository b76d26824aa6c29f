"""Smoke tests: each study script runs to completion at tiny sizes, the
package API that ``perfbench/`` calls is still there at d = 4, the
benchmark-pairs, footprint and trial-pairs tools plan their runs in
alternating order, the trial-pairs probes time single trials or whole
calls, their shared runner logs, summarizes and reports failed
runs, and the code-line count skips blanks, comments and docstrings."""

import importlib
import json
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


def test_trial_pairs_dry_run_for_whole_calls(tmp_path):
    # --trials times whole run_experiment calls in the same alternating
    # order; --workers takes one count or the two sides' and needs --trials
    script = str(ROOT / "scripts" / "trial_pairs.py")
    base = [sys.executable, script, "--dry-run", "--parent", "no-such-revision", "--d", "14", "--n", "2"]
    for workers in (["2"], ["2", "1"]):
        proc = subprocess.run([*base, "--trials", "10", "--workers", *workers],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["d 14 draw 0 parent", "d 14 draw 0 change",
                                           "d 14 draw 1 change", "d 14 draw 1 parent", ""]
    for bad in (["--workers", "2"], ["--trials", "10", "--workers", "2", "1", "1"], ["--trials", "0"],
                ["--trials", "10", "--threads", "1", "2"]):
        proc = subprocess.run([*base, *bad], cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and "error:" in proc.stderr, bad


def test_experiment_call_times_a_whole_call(monkeypatch):
    # a probe's call is run_experiment with config seed = draw; its count is
    # the side's process_count, or min(workers, trials) on a side without one
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    trial_pairs = importlib.import_module("trial_pairs")
    import cubeperc.experiments as experiments

    call, processes = trial_pairs.experiment_call(experiments, 8, 3, 2, "sprinkling")
    assert processes == 1
    cfg = cp.ExperimentConfig(kind="sprinkling", d=8, c=trial_pairs.C, trials=3, seed=5)
    assert call(5) == cp.run_experiment(cfg).rows
    assert trial_pairs.experiment_call(experiments, 17, 3, 2)[1] == 2
    monkeypatch.delattr(experiments, "process_count")
    assert trial_pairs.experiment_call(experiments, 8, 3, 2)[1] == 2


def test_trial_call_takes_a_thread_count(monkeypatch):
    # --threads sets a side's thread count in place of thread_count(d); the
    # rows do not depend on it
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    trial_pairs = importlib.import_module("trial_pairs")
    import cubeperc.experiments as experiments

    default, threads = trial_pairs.trial_call(experiments, 10)
    assert threads == experiments.thread_count(10) == 1
    forced, threads = trial_pairs.trial_call(experiments, 10, 2)
    assert threads == 2 and forced(3) == default(3)
    sprinkled, threads = trial_pairs.trial_call(experiments, 10, 2, "sprinkling")
    assert threads == 2 and sprinkled(3) == trial_pairs.trial_call(experiments, 10, 1, "sprinkling")[0](3)


CODE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A docstring."""
    s = """a string,
not a docstring"""
    return (x +
            1)


class C:
    "One-line docstring."
    y = 1
'''


def test_code_lines_skips_blanks_comments_and_docstrings(monkeypatch, tmp_path, capsys):
    # 8 lines hold code: the import, the def, the two-line string and the
    # two-line return, the class and its body; every module is listed in
    # path order, then the total
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    code_lines = importlib.import_module("code_lines")
    assert code_lines.code_lines(CODE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CODE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# only a comment\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.split("\n") == ["     8  a.py", "     1  b.py", "     9  total", ""]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("bench_pairs")


METRICS = [
    {"name": "rate", "unit": "1/s", "better": "higher"},
    {"name": "ms", "unit": "ms", "better": "lower"},
    {"name": "wall_s", "unit": "s", "better": "lower"},  # printed to 1 ms, so it may read 0
]


def _records(parent: dict, change: dict) -> list[dict]:
    return [
        {"side": side, "seed": seed, **dict(zip(("rate", "ms", "wall_s"), values))}
        for side, runs in (("parent", parent), ("change", change))
        for seed, values in runs.items()
    ]


def test_pairs_summary_statistics(bench_pairs):
    # quartiles are statistics.quantiles' exclusive ones; a tie is no win; a
    # zero parent value ties with a zero change (ratio 1) and loses to any
    # other (ratio inf); seed 4's change run failed, so its pair is left out
    parent = {1: (10, 5.0, 0.0), 2: (20, 6.0, 0.0), 3: (30, 7.0, 0.01), 4: (40, 8.0, 0.0),
              5: (50, 9.0, 0.0)}
    change = {1: (11, 5.5, 0.0), 2: (19, 5.0, 0.01), 3: (33, 7.0, 0.01), 5: (55, 8.1, 0.0)}
    records = _records(parent, change) + [{"side": "change", "seed": 4}]
    assert bench_pairs.summarize(records, METRICS) == [
        "4 complete pairs",
        "rate (1/s, higher is better): parent 25 [12.5, 45]; change 26 [13, 49.5]; "
        "median ratio 1.1000; change wins 3/4",
        "ms (ms, lower is better): parent 6.5 [5.25, 8.5]; change 6.25 [5.125, 7.825]; "
        "median ratio 0.9500; change wins 2/4",
        "wall_s (s, lower is better): parent 0 [0, 0.0075]; change 0.005 [0, 0.01]; median ratio 1.0000; "
        "change wins 0/4",
    ]
    assert bench_pairs.summarize(records[:1], METRICS) == ["0 complete pairs"]


def test_make_trees_waits_for_git_archive_when_tar_fails(bench_pairs, monkeypatch, tmp_path):
    # a failed tar still closes the archive's pipe and reaps git archive
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    def failing_tar(argv, **kwargs):
        raise subprocess.CalledProcessError(2, argv)

    monkeypatch.setattr(bench_pairs, "OUT", tmp_path)
    monkeypatch.setattr(subprocess, "Popen", spy)
    monkeypatch.setattr(subprocess, "run", failing_tar)
    with pytest.raises(subprocess.CalledProcessError) as failed:
        bench_pairs.make_trees.__wrapped__("HEAD")
    assert failed.value.cmd[0] == "tar"
    [archive] = started
    assert archive.stdout.closed and archive.returncode is not None


def test_run_pairs_logs_each_run_and_reports_a_failure(bench_pairs, monkeypatch, tmp_path, capsys):
    # the probe sees each side's tree in the alternating order; a failed run
    # is logged without metrics and makes the run report failure
    trees = {side: tmp_path / side for side in ("parent", "change")}
    monkeypatch.setattr(bench_pairs, "make_trees", lambda parent: trees)
    calls = []

    def probe(side, tree, seed):
        calls.append((side, tree, seed))
        return None if (side, seed) == ("change", 2) else {"rate": seed + (side == "change"), "ms": 1.0, "wall_s": 0.0}

    log = tmp_path / "pairs.jsonl"
    records, ok = bench_pairs.run_pairs("HEAD", [1, 2, 3], probe, METRICS, log)
    assert not ok
    assert calls == [(side, trees[side], seed) for side, seed in bench_pairs.plan([1, 2, 3])]
    assert [json.loads(line) for line in log.read_text().splitlines()] == records
    assert records[2] == {"side": "change", "seed": 2}
    out = capsys.readouterr().out.splitlines()
    assert "change seed 2: failed" in out
    assert out[-4] == "2 complete pairs"
    assert out[-3].endswith("median ratio 1.6667; change wins 2/2")  # seeds 1 and 3: 2/1 and 4/3
