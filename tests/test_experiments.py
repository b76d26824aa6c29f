import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import pytest

import cubeperc.experiments as experiments
from cubeperc.errors import CapacityError, ConfigError
from cubeperc.experiments import (
    CONFIG_KEYS,
    KINDS,
    ExperimentConfig,
    parse_config_file,
    run_experiment,
    write_report,
)
from cubeperc.hypercube import MAX_DIMENSION
from cubeperc.theory import gw_extinction, solve_y


def _small_super(trials=4, seed=0):
    return ExperimentConfig(kind="supercritical", d=8, c=2.0, trials=trials, seed=seed)


def test_config_validation_collects_problems():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(kind="nope", d=1, trials=0)
    message = str(err.value)
    assert "kind" in message and "d" in message and "trials" in message


def test_config_requires_matching_parameter():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="supercritical", d=8)  # c missing
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="supercritical", d=8, c=0.9)  # not supercritical
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="subcritical", d=8, eps=1.2)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="subcritical", d=8, eps=0.3, c=2.0)  # both set


def test_config_defaults():
    cfg = _small_super()
    assert cfg.resolved_w_threshold() == 64
    lo, hi = cfg.resolved_gap_window()
    assert lo == math.ceil(8 / (1.0 - math.log(2.0)))
    assert hi == lo  # 0.01 n < bound at tiny d: window clamps to a point
    big = ExperimentConfig(kind="supercritical", d=18, c=2.0)
    assert big.resolved_gap_window() == (59, math.floor(0.01 * 2**18))


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_mapping({"kind": "gw", "d": 3, "c": 2, "bogus": 1})
    assert "bogus" in str(err.value)


def test_from_mapping_requires_kind():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_mapping({"d": 8})
    assert "kind" in str(err.value)


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nkind = supercritical\nd = 8\nc = 2.0\ntrials = 3  # inline\n\n")
    mapping = parse_config_file(path)
    cfg = ExperimentConfig.from_mapping(mapping)
    assert cfg.kind == "supercritical"
    assert cfg.d == 8 and cfg.c == 2.0 and cfg.trials == 3


def test_config_keys_are_the_dataclass_fields():
    assert CONFIG_KEYS == (
        "kind", "d", "c", "eps", "trials", "seed", "w_threshold", "p2_exponent",
        "gap_lo", "gap_hi", "gw_progeny_cap", "out", "format",
    )
    cfg = ExperimentConfig(kind="gw", d=3, c=2.0, out="x.json", format="csv")
    assert list(cfg.echo()) == list(CONFIG_KEYS[:-2])  # out and format stay out of reports


def test_from_mapping_coerces_by_field_type():
    cfg = ExperimentConfig.from_mapping(
        {"kind": "sprinkling", "d": "9", "c": "2", "trials": "4", "seed": "11",
         "w_threshold": "5", "p2_exponent": "3", "out": "r.csv", "format": "csv"}
    )
    assert (cfg.d, cfg.trials, cfg.seed, cfg.w_threshold) == (9, 4, 11, 5)
    assert type(cfg.c) is float and type(cfg.p2_exponent) is float
    assert (cfg.out, cfg.format) == ("r.csv", "csv")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_mapping({"kind": "gw", "d": "3.5", "c": "2"})
    assert "d" in str(err.value)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_mapping({"kind": "gw", "d": "3", "c": "two"})
    assert "c" in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("d", 3.9),  # once truncated to d = 3
        ("trials", True),  # once 1
        ("c", True),  # once 1.0
        ("gap_lo", 1.9),  # once 1, with gap_hi 9.99 once 9
        ("gap_hi", 9.99),
        ("seed", 2.0),
        ("kind", 3),
    ],
)
def test_from_mapping_refuses_inexact_typed_values(key, value):
    # a typed value passes only where the coercion is exact; the error names the key
    mapping = {"kind": "supercritical", "d": 10, "c": 2, "gap_lo": 1, "gap_hi": 9, key: value}
    with pytest.raises(ConfigError, match=f"config key {key} must be of type"):
        ExperimentConfig.from_mapping(mapping)


def test_from_mapping_passes_exact_typed_values():
    mapping = {"kind": "supercritical", "d": 10, "c": 2, "trials": 3, "gap_lo": 1, "gap_hi": 9}
    cfg = ExperimentConfig.from_mapping(mapping)
    assert (cfg.d, cfg.trials, cfg.gap_lo, cfg.gap_hi) == (10, 3, 1, 9)
    assert cfg.c == 2.0 and type(cfg.c) is float  # an int is exact for a float key


def _param(kind):
    return {KINDS[kind].param: 0.3 if KINDS[kind].param == "eps" else 2.0}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_config_rejects_seed_beyond_64_bits(kind):
    param = _param(kind)
    ExperimentConfig(kind=kind, d=8, seed=2**64 - 1, **param)
    for seed in (2**64, 2**70, -1):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, d=8, seed=seed, **param)
        assert "seed" in str(err.value)


def test_config_rejects_trials_beyond_32_bit_index():
    ExperimentConfig(kind="gw", d=3, c=2.0, trials=2**32)  # last trial index 2^32 - 1
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(kind="gw", d=3, c=2.0, trials=2**32 + 1)
    assert "trials" in str(err.value)


@pytest.mark.parametrize("kind", sorted(k for k in KINDS if "w_threshold" in KINDS[k].reads))
def test_config_rejects_unreachable_w_threshold(kind):
    # neither the W-set nor the exploration cap can exceed n = 2^d
    ExperimentConfig(kind=kind, d=4, w_threshold=16, **_param(kind))
    ExperimentConfig(kind=kind, d=4, **_param(kind))  # default d^2 = 16
    for extra in ({"d": 4, "w_threshold": 17}, {"d": 3}):  # at d = 3 the default d^2 = 9 exceeds 8
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, **extra, **_param(kind))
        assert "w_threshold" in str(err.value)


@pytest.mark.parametrize("name, bad", [
    ("gw_progeny_cap", 0), ("gw_progeny_cap", -1), ("gw_progeny_cap", 2.5), ("gw_progeny_cap", True),
    ("w_threshold", 2.5), ("w_threshold", True), ("gap_lo", 1.5), ("gap_hi", 9.5), ("gap_lo", True),
    ("d", True), ("trials", True), ("seed", False),
])
def test_config_rejects_non_integer_counts(name, bad):
    # a bool is no count; gw_progeny_cap = 0 made every trial "survive" at once
    good = {"kind": "gw", "d": 8, "c": 2.0}
    if name != "gw_progeny_cap":
        good.update(kind="supercritical", gap_lo=1, gap_hi=9)
    ExperimentConfig(**good)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**{**good, name: bad})
    assert name in str(err.value)


@pytest.mark.parametrize("kind, key, value", [
    ("supercritical", "c", "2"), ("subcritical", "eps", "0.3"), ("gw", "p2_exponent", "5"), ("gw", "out", 5),
])
def test_config_refuses_values_of_another_type(kind, key, value):
    # the first three once escaped a comparison as TypeError; out = 5 was accepted
    good = {"kind": kind, "d": 10, **_param(kind)}
    ExperimentConfig(**good)
    with pytest.raises(ConfigError, match=f"config key {key} must be of type"):
        ExperimentConfig(**{**good, key: value})


@pytest.mark.parametrize("key, value", [("c", 10**400), ("c", -(2**1024)), ("p2_exponent", 2**1024 - 2**970)])
def test_config_refuses_an_int_too_large_for_a_float(key, value):
    # such an int once escaped ``validate`` as OverflowError, at c / d
    with pytest.raises(ConfigError, match=f"config key {key} must be of type float"):
        ExperimentConfig(**{"kind": "gw", "d": 4, "c": 2.0, key: value})
    big = sys.float_info.max
    assert ExperimentConfig(kind="gw", d=4, c=2, p2_exponent=int(big)).p2_exponent == big  # the largest that fits


def test_from_mapping_refuses_an_int_too_large_for_a_float():
    # once an OverflowError at the widening float(value)
    with pytest.raises(ConfigError, match="config key c must be of type float"):
        ExperimentConfig.from_mapping({"kind": "gw", "d": 4, "c": 10**400})


@pytest.mark.parametrize("kind", sorted(k for k in KINDS if KINDS[k].param == "c"))
def test_config_rejects_c_beyond_d(kind):
    # these kinds sample or branch at p = c/d, which must not exceed 1
    ExperimentConfig(kind=kind, d=4, c=4.0)
    for d, c in ((4, 5.0), (4, 4.000001), (20, 1e9), (4, math.inf)):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, d=d, c=c)
        assert f"c = {c}" in str(err.value) and "exceed 1" in str(err.value)


@pytest.mark.parametrize("exponent", [0.0, -1.0, math.nan])
def test_config_rejects_nonpositive_p2_exponent(exponent):
    # NaN fails every comparison, so it must be refused as "not > 0"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(kind="sprinkling", d=8, c=2.0, p2_exponent=exponent)
    assert "p2_exponent must be positive" in str(err.value)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_config_bounds_d_for_cube_kinds(kind):
    # raised at construction: before the theory block and before any pool
    if KINDS[kind].cube:
        with pytest.raises(CapacityError):
            ExperimentConfig(kind=kind, d=MAX_DIMENSION + 1, **_param(kind))
    else:
        ExperimentConfig(kind=kind, d=1000, **_param(kind))


def test_parse_config_file_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("kind = gw\nd = 3\nc = 2.0\nd = 4\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(path)
    assert f"{path}:4:" in str(err.value)
    assert "d" in str(err.value)


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("kind supercritical\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_report_shape_and_determinism():
    a = run_experiment(_small_super())
    b = run_experiment(_small_super())
    assert len(a.rows) == 4
    assert a.to_json_bytes() == b.to_json_bytes()
    doc = json.loads(a.to_json_bytes())
    assert set(doc) == {"config", "theory", "rows", "aggregates"}
    assert doc["theory"]["y"] == pytest.approx(solve_y(2.0), abs=1e-9)


def test_rows_depend_only_on_seed_and_trial():
    short = run_experiment(_small_super(trials=3, seed=7)).rows
    longer = run_experiment(_small_super(trials=5, seed=7)).rows
    assert short == longer[:3]
    other_seed = run_experiment(_small_super(trials=3, seed=8)).rows
    assert short != other_seed


class _SpyPool(futures.ProcessPoolExecutor):
    """A real ProcessPoolExecutor that records its size and each map call,
    so a test can tell that the trials ran in worker processes."""

    calls = []

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.max_workers = max_workers

    def map(self, fn, *iterables, **kwargs):
        self.calls.append(self.max_workers)
        return super().map(fn, *iterables, **kwargs)


def test_workers_do_not_change_output(monkeypatch):
    # 4 trials of 2^16 vertices label two _TASK ranges: a real pool starts
    cfg = ExperimentConfig(kind="supercritical", d=16, c=2.0, trials=4, seed=0)
    sequential = run_experiment(cfg)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _SpyPool)  # _map_trials imports it per pool
    _SpyPool.calls = []
    parallel = run_experiment(cfg, workers=2)
    assert _SpyPool.calls == [2]
    assert sequential.to_json_bytes() == parallel.to_json_bytes()


def test_workers_must_be_positive():
    for workers in (0, -3, True):  # True once ran on one worker
        with pytest.raises(ConfigError) as err:
            run_experiment(_small_super(trials=2), workers=workers)
        assert "workers" in str(err.value)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and maps
    in-process, so no worker process is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def test_pool_never_exceeds_trials(monkeypatch):
    # at d = 17 each trial labels one _TASK range, so every trial pays for a process
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingPool)  # _map_trials imports it per pool
    _RecordingPool.sizes = []
    cfg = ExperimentConfig(kind="supercritical", d=17, c=2.0, trials=3, seed=0)
    pooled = run_experiment(cfg, workers=64)
    assert _RecordingPool.sizes == [3]
    one = ExperimentConfig(kind="supercritical", d=17, c=2.0, trials=1, seed=0)
    run_experiment(one, workers=64)  # one trial: no pool at all
    assert _RecordingPool.sizes == [3]
    assert pooled.to_json_bytes() == run_experiment(cfg).to_json_bytes()


@pytest.mark.parametrize(
    "d,trials,workers,processes",
    [
        (13, 10, 2, 1),  # 10 * 2^13 vertices, 0.6 _TASK ranges: no pool
        (14, 10, 2, 1),  # 1.25 ranges, a sweep-d14 call: still serial
        (14, 20, 2, 2),  # 2.5 ranges: a pool of two
        (15, 10, 2, 2),
        (16, 10, 2, 2),
        (12, 100, 2, 2),  # many small trials add up
        (12, 100, 8, 8),  # past two ranges the pool takes every worker
        (16, 1, 2, 1),  # one trial never pools
        (20, 1, 2, 1),
        (20, 10, 1, 1),  # one worker never pools
    ]
    + [(d, trials, 64, trials) for d in (17, 18, 20, 24) for trials in (1, 2, 3, 50)],  # d >= 17: min(workers, trials)
)
def test_process_count_rule(d, trials, workers, processes):
    assert experiments.process_count(d, trials, workers) == processes


@pytest.mark.parametrize(
    "cfg,pools",
    [
        (ExperimentConfig(kind="supercritical", d=14, c=2.0, trials=10, seed=0), []),
        (ExperimentConfig(kind="sprinkling", d=14, c=2.0, trials=10, seed=0), []),
        (ExperimentConfig(kind="subcritical", d=14, eps=0.3, trials=20, seed=0), [2]),
        # the kinds that do not label the cube keep min(workers, trials)
        (ExperimentConfig(kind="gw", d=3, c=2.0, trials=4, seed=0), [2]),
        (ExperimentConfig(kind="hitprob", d=10, c=2.0, trials=3, seed=0), [2]),
    ],
    ids=["supercritical", "sprinkling", "subcritical", "gw", "hitprob"],
)
def test_run_experiment_pools_by_process_count(monkeypatch, cfg, pools):
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.sizes = []
    report = run_experiment(cfg, workers=2)
    assert _RecordingPool.sizes == pools
    assert report.to_json_bytes() == run_experiment(cfg).to_json_bytes()


def _usable_cpus(monkeypatch, cpus):
    # a process allowed ``cpus`` CPUs of a 64-CPU host
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _record_threads(monkeypatch, cpus):
    # every label_sample call's thread count, on a host of ``cpus`` CPUs,
    # with pooled trials mapped in-process by _RecordingPool
    seen = []
    real = experiments.label_sample

    def recording(g, key, p, threads=1):
        seen.append(threads)
        return real(g, key, p, threads)

    _usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(experiments, "label_sample", recording)
    return seen


@pytest.mark.parametrize(
    "workers,trials,d,threads",
    [
        (1, 2, 19, 2),  # one process: both CPUs label
        (2, 2, 19, 1),  # two processes: one CPU each
        (2, 1, 19, 2),  # one trial needs no pool, so its process has both
        (1, 2, 18, 2),  # each half of 2^17 vertices fills a _TASK range
        (1, 2, 17, 1),  # a half smaller than a _TASK range: one thread
        (2, 2, 16, 1),  # and so does a smaller cube: one range, so no pool
        (2, 4, 16, 1),  # two ranges: a pool of two, one thread each
        (1, 2, 15, 1),
    ],
)
def test_thread_count_rule(monkeypatch, workers, trials, d, threads):
    seen = _record_threads(monkeypatch, 2)
    cfg = ExperimentConfig(kind="supercritical", d=d, c=2.0, trials=trials, seed=3)
    report = run_experiment(cfg, workers=workers)
    assert seen == [threads] * trials
    # the thread count is in no report field, and moves no byte
    assert "threads" not in report.config and "threads" not in report.to_json_bytes().decode()
    _usable_cpus(monkeypatch, 1)
    assert run_experiment(cfg, workers=workers).to_json_bytes() == report.to_json_bytes()


def test_processes_times_threads_never_exceed_the_cpus(monkeypatch):
    for cpus in range(1, 9):
        _usable_cpus(monkeypatch, cpus)
        for processes in range(1, cpus + 1):
            threads = experiments.thread_count(20, processes)
            assert 1 <= threads and processes * threads <= cpus
        for d in (18, 19, 20):
            assert experiments.thread_count(d, 1) == min(cpus, 2)  # capped at the 2 measured
        for d in (2, 15, 16, 17):  # a half smaller than a _TASK range: one thread
            assert experiments.thread_count(d, 1) == 1


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    from cubeperc.components import usable_cpus

    _usable_cpus(monkeypatch, 3)
    assert usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_import_loads_no_process_pool():
    # a serial run never pays for multiprocessing: it loads with the first pool
    src = str(Path(experiments.__file__).parents[1])
    modules = ("concurrent.futures", "concurrent.futures.process", "multiprocessing")
    probe = f"import sys, cubeperc; print([m for m in {modules!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_aggregates_recomputable_from_rows():
    report = run_experiment(_small_super(trials=5))
    l1s = [r["l1"] for r in report.rows]
    assert report.aggregates["l1_mean"] == float(f"{sum(l1s) / len(l1s):.12g}")
    assert report.aggregates["l1_min"] == min(l1s)
    assert report.aggregates["l1_max"] == max(l1s)


def test_on_trial_counter():
    seen = []
    run_experiment(_small_super(trials=3), on_trial=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_subcritical_runner():
    cfg = ExperimentConfig(kind="subcritical", d=8, eps=0.4, trials=5, seed=0)
    report = run_experiment(cfg)
    assert report.theory["p"] == pytest.approx(0.6 / 7)
    assert all(r["l1"] >= 1 for r in report.rows)
    assert report.aggregates["exceed_count"] == sum(r["exceeds_bound"] for r in report.rows)


def test_supercritical_deviation_shrinks_with_dimension():
    # the asymptotic law tightens: |mean l1/n - y| at d=18 stays within
    # the d=12 deviation plus slack
    y = solve_y(2.0)
    deviations = {}
    for d in (12, 18):
        cfg = ExperimentConfig(kind="supercritical", d=d, c=2.0, trials=20, seed=0)
        report = run_experiment(cfg, workers=2)
        mean_fraction = sum(r["l1"] for r in report.rows) / (20 * 2**d)
        deviations[d] = abs(mean_fraction - y)
    assert deviations[18] <= deviations[12] + 0.02


def test_sprinkling_negligible_second_round_still_merges():
    # with p2 ~ 0 the union is G1 itself; premerged trials must report merge_ok
    cfg = ExperimentConfig(kind="sprinkling", d=10, c=2.0, trials=8, seed=0, p2_exponent=30.0)
    report = run_experiment(cfg)
    for row in report.rows:
        if row["g1_premerged"]:
            assert row["merge_ok"] == 1


def test_sprinkling_runner_coupling():
    cfg = ExperimentConfig(kind="sprinkling", d=10, c=2.0, trials=10, seed=0)
    report = run_experiment(cfg)
    p = 2.0 / 10
    m = 10 * 2**9
    rate = report.aggregates["union_open_rate_pooled"]
    se = math.sqrt(p * (1 - p) / (10 * m))
    assert abs(rate - p) <= 4 * se
    assert report.theory["p2"] == pytest.approx(10.0**-5)
    for row in report.rows:
        assert row["merge_ok"] in (0, 1)
        assert row["w1_size"] >= 0


def test_gw_runner_against_exact():
    cfg = ExperimentConfig(kind="gw", d=3, c=2.0, trials=4000, seed=0, gw_progeny_cap=5000)
    report = run_experiment(cfg)
    exact = gw_extinction(3, 2 / 3).survival
    rate = report.aggregates["survival_rate"]
    se = math.sqrt(exact * (1 - exact) / 4000)
    assert abs(rate - exact) <= 3 * se


def test_gw_runner_p_zero():
    cfg = ExperimentConfig(kind="gw", d=3, c=0.0, trials=50, seed=0)
    report = run_experiment(cfg)
    assert report.aggregates["survived_count"] == 0
    assert report.theory["exact_survival"] == 0.0


def test_gw_large_d_matches_y():
    cfg = ExperimentConfig(kind="gw", d=1000, c=2.0, trials=10_000, seed=0)
    report = run_experiment(cfg, workers=2)
    y = solve_y(2.0)
    se = math.sqrt(y * (1 - y) / 10_000)
    assert abs(report.aggregates["survival_rate"] - y) <= 3 * se + 1e-3


def test_hitprob_runner():
    cfg = ExperimentConfig(kind="hitprob", d=10, c=2.0, trials=400, seed=0)
    report = run_experiment(cfg)
    assert report.theory["threshold"] == 100
    rate = report.aggregates["hit_rate"]
    assert 0.5 < rate < 1.0  # supercritical: a solid fraction reach the cap


def test_run_experiment_dispatch():
    report = run_experiment(_small_super(trials=2))
    assert report.config["kind"] == "supercritical"


def test_csv_round_trip(tmp_path):
    report = run_experiment(_small_super(trials=5, seed=3))
    path = tmp_path / "report.csv"
    write_report(report, path, "csv")
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert lines[:len(comments)] == comments  # the config header comes first
    meta = dict((part.strip() for part in line[1:].split("=", 1)) for line in comments)
    assert meta["kind"] == "supercritical"
    header, *body = (line.split(",") for line in lines[len(comments):])
    assert header == ["trial", "l1", "l2", "n_components", "w_density", "gap_count", "max_dist_w"]
    assert header == list(report.rows[0])

    def number(text):
        try:
            return int(text)
        except ValueError:
            return float(text)

    assert [dict(zip(header, map(number, values))) for values in body] == report.rows


def test_json_report_write(tmp_path):
    report = run_experiment(_small_super(trials=3))
    path = tmp_path / "report.json"
    write_report(report, path, "json")
    assert path.read_bytes() == report.to_json_bytes()


def test_write_report_bad_format(tmp_path):
    report = run_experiment(_small_super(trials=2))
    with pytest.raises(ValueError):
        write_report(report, tmp_path / "x", "yaml")


def test_write_report_path_context():
    report = run_experiment(_small_super(trials=2))
    with pytest.raises(OSError) as err:
        write_report(report, "/nonexistent-dir/report.json", "json")
    assert "/nonexistent-dir/report.json" in str(err.value)


# Report digests captured before the runner refactor: every kind at small
# sizes, seed 0 and a nonzero seed with non-default optional keys.  Configs
# go through from_mapping with string values, as a config file delivers them.
# The gw rows come from numpy's PCG64 binomial draws, so the gw digests hold
# only for the numpy version they were captured with (2.4.6); see the
# reproducibility contract in the README.
GOLDEN_REPORTS = [
    (
        {"kind": "supercritical", "d": "8", "c": "2.0", "trials": "3", "seed": "0"},
        "c7de97cea7fbde22a903e33a6c298e313a484cc6a6abcfbecebefe23f48221e5",
        "3e8fbfb9502093f0b1772476a8f9fb01b81f3568b9b2e0fff96f20e5818c3e37",
    ),
    (
        {"kind": "supercritical", "d": "7", "c": "1.5", "trials": "3", "seed": "5",
         "w_threshold": "10", "gap_lo": "2", "gap_hi": "20"},
        "2280d0ae44b7fd60ceb7202d35519c7db72646bbe49289d62372c717d111b4d0",
        "2ba92a7c2b76e0a0548f03c87d34b34d4feb28c62cd6e7d6918c415cd3f28072",
    ),
    (
        {"kind": "subcritical", "d": "8", "eps": "0.3", "trials": "3", "seed": "0"},
        "710fce90d7f350cd0a8e27216cf7b4fe364b1c1cd8a111850a3a42fdeabbea97",
        "0e97307dfb1f2384f4220f3547f41c33aaaad98c53b849b030dc8bbfaf88c2cd",
    ),
    (
        {"kind": "subcritical", "d": "8", "eps": "0.5", "trials": "3", "seed": "5"},
        "d733c2f43b1d25ef13fc8fc5ec4d83e03cb61dc983e7b132690ffd1170648f2c",
        "3d8dbef5c185d48a154280b405ea37129e293de16151636b6d98a99297f7a2d0",
    ),
    (
        {"kind": "sprinkling", "d": "8", "c": "2.0", "trials": "3", "seed": "0"},
        "aadca48914faaefe7406a789d2c02f0311a8340039d47b79ac4eac7f5818a43e",
        "629ac09ee3fd830e51ce3980e5fa99aad8a44d7975979a9c3a8ce90556228f89",
    ),
    (
        {"kind": "sprinkling", "d": "8", "c": "2.5", "trials": "3", "seed": "5",
         "p2_exponent": "3", "w_threshold": "16"},
        "b1a3d6450ea4fd72d82caae4282b161e5a800cfc7fad91da83a4263c0ac6948d",
        "447881a3581e219b8f5dd4012d099c196744ac2deded706f3417287e9801187d",
    ),
    (
        {"kind": "gw", "d": "6", "c": "2.0", "trials": "20", "seed": "0"},
        "fe5ed88e79747699ef94a024d9179f7dec6ff6856e98be6fd284ed420eb0ab8a",
        "6bee83fc20db6f3ecdd16449799db73c3c64a8559584208918c1928e7f2686a7",
    ),
    (
        {"kind": "gw", "d": "6", "c": "0.8", "trials": "20", "seed": "5", "gw_progeny_cap": "200"},
        "e79cda72fdd5075df527a28ec9173eef5f7b7b74490d96ddb91b9b2aa064f19b",
        "1f738d32e10d10d7c482488a65f93bca0e335720e55df52cc8a75cc3989c03c8",
    ),
    (
        {"kind": "hitprob", "d": "8", "c": "2.0", "trials": "10", "seed": "0"},
        "35e9b117c548fda767c614653bbc89231da9591aa5f9a2641a52889c953fbb8b",
        "dad32aac828268741f1396dae14713d9a1e2c372999d7428f39cfb58619305e1",
    ),
    (
        {"kind": "hitprob", "d": "8", "c": "1.5", "trials": "10", "seed": "5", "w_threshold": "30"},
        "8bf254e5355973a831977ed505e8b42ec1b74d507379340d62b94eb29c75d943",
        "63e75b8967949e953856b352e434e11d4481105d8415965fea380fe79b0deafd",
    ),
]


@pytest.mark.parametrize(
    "mapping,json_sha,csv_sha",
    GOLDEN_REPORTS,
    ids=[f"{m['kind']}-seed{m['seed']}" for m, _, _ in GOLDEN_REPORTS],
)
def test_golden_report_bytes(tmp_path, mapping, json_sha, csv_sha):
    report = run_experiment(ExperimentConfig.from_mapping(mapping))
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == json_sha
    path = tmp_path / "report.csv"
    write_report(report, path, "csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
