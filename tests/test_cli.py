import hashlib
import json
import os
import re

import pytest

from cubeperc.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theory_supercritical(capsys):
    code, out, _ = _run(capsys, "theory", "--c", "2", "--d", "18")
    assert code == 0
    doc = json.loads(out)
    assert doc["y"] == pytest.approx(0.796812, abs=1e-6)
    assert doc["second_bound"] == pytest.approx(58.66, abs=0.01)
    assert doc["gw_survival"] == pytest.approx(0.821417, abs=1e-5)


def test_theory_subcritical(capsys):
    code, out, _ = _run(capsys, "theory", "--d", "18", "--eps", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["subcritical_k"] == pytest.approx(1247.7, abs=0.1)


def test_theory_domain_error(capsys):
    code, out, err = _run(capsys, "theory", "--c", "0.5")
    assert code == 1
    assert out == ""
    assert "c" in err or "1" in err


@pytest.mark.parametrize("extra", [(), ("--c", "2"), ("--eps", "0.3")])
@pytest.mark.parametrize("d", ["0", "-1"])
def test_theory_rejects_nonpositive_d(capsys, d, extra):
    code, out, err = _run(capsys, "theory", "--d", d, *extra)
    assert code == 1
    assert out == ""
    assert "--d" in err


@pytest.mark.parametrize("c,d", [("5", "4"), ("2", "1")])
def test_theory_rejects_c_beyond_d(capsys, c, d):
    code, out, err = _run(capsys, "theory", "--c", c, "--d", d)
    assert code == 1
    assert out == ""
    assert "--c" in err and "--d" in err


def test_theory_no_flags(capsys):
    code, _, _ = _run(capsys, "theory")
    assert code == 1


def test_sim_full_graph(capsys):
    code, out, _ = _run(capsys, "sim", "--d", "2", "--p", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["l1"] == 4
    assert doc["n_components"] == 1


def test_sim_empty_graph(capsys):
    code, out, _ = _run(capsys, "sim", "--d", "2", "--p", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["l1"] == 1
    assert doc["n_components"] == 4


def test_sim_deterministic(capsys):
    _, out1, _ = _run(capsys, "sim", "--d", "6", "--p", "0.3", "--seed", "5")
    _, out2, _ = _run(capsys, "sim", "--d", "6", "--p", "0.3", "--seed", "5")
    assert out1 == out2


def test_sim_capacity_exit(capsys):
    code, _, err = _run(capsys, "sim", "--d", "31", "--p", "0.5")
    assert code == 2
    assert "capacity" in err


def test_sim_summary_reports_wall_time_and_peak_rss(capsys):
    code, _, err = _run(capsys, "sim", "--d", "6", "--p", "0.3")
    assert code == 0
    summary = err.splitlines()[0]
    assert re.fullmatch(r"Q\^6 at p=0\.3: l1=\d+ l2=\d+ components=\d+ wall=\d+\.\d{3}s peak_rss=\d+MB", summary)
    assert int(summary.rsplit("peak_rss=", 1)[1][:-2]) > 0


def test_sim_histogram(capsys, tmp_path):
    path = tmp_path / "hist.csv"
    code, _, _ = _run(capsys, "sim", "--d", "4", "--p", "0.5", "--hist", str(path))
    assert code == 0
    assert path.read_text().startswith("size,count")


# sha256 of `cubeperc sim` stdout and of its --hist CSV; both cases have
# many distinct component sizes, so the CSV pins every (size, count) row
GOLDEN_SIMS = [
    (
        ("--d", "10", "--p", "0.12", "--seed", "0"),
        "0647aa78d2cad5644c6fbdc848d5f09c6c1f757b6e8eef09c8241d1d8d4b4b9c",
        "a8bd1415768dbb0a68b34f6ffda8c534f061132358a697b12904321923d04915",
    ),
    (
        ("--d", "12", "--p", "0.1", "--seed", "7", "--trial", "3"),
        "f33731f061aa66daeba8cbd89378cd01b26117f5f9fc67461e344d4a92321260",
        "999fa479dc9dda2e72f3e6daceeafa8367917d0441bedd09498c2fde96c8307f",
    ),
]


@pytest.mark.parametrize("argv,out_sha,hist_sha", GOLDEN_SIMS, ids=["d10", "d12"])
def test_golden_sim_bytes(capsys, tmp_path, argv, out_sha, hist_sha):
    path = tmp_path / "hist.csv"
    code, out, _ = _run(capsys, "sim", *argv, "--hist", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == hist_sha


def _usable_cpus(monkeypatch, cpus):
    # a process allowed ``cpus`` CPUs of a 64-CPU host
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


# every usable CPU, up to the two that the split was measured on, from
# d = 18, where each half of the cube fills a _TASK range
@pytest.mark.parametrize(
    "cpus,d,threads", [(2, 19, 2), (3, 19, 2), (1, 19, 1), (2, 18, 2), (2, 17, 1), (1, 16, 1), (2, 15, 1)]
)
def test_sim_labels_on_every_cpu(capsys, monkeypatch, cpus, d, threads):
    import cubeperc.cli as cli_module

    seen = []
    real = cli_module.label_sample
    _usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli_module, "label_sample", lambda *a: seen.append(a[-1]) or real(*a))
    code, out, _ = _run(capsys, "sim", "--d", str(d), "--p", "0.1")
    assert code == 0 and seen == [threads]
    _usable_cpus(monkeypatch, 1)
    assert _run(capsys, "sim", "--d", str(d), "--p", "0.1")[1] == out


def test_sim_bad_p(capsys):
    code, _, _ = _run(capsys, "sim", "--d", "4", "--p", "1.5")
    assert code == 1


def test_experiment_from_config_file(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    out_path = tmp_path / "report.json"
    cfg.write_text(f"kind = supercritical\nd = 8\nc = 2.0\ntrials = 3\nout = {out_path}\n")
    code, out, _ = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["trials"] == 3
    report = json.loads(out_path.read_text())
    assert len(report["rows"]) == 3


def test_experiment_flag_overrides_file(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    out_csv = tmp_path / "report.out"
    cfg.write_text(f"kind = supercritical\nd = 8\nc = 2.0\ntrials = 2\nformat = json\nout = {out_csv}\n")
    code, _, _ = _run(capsys, "experiment", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out_csv.read_text().startswith("# kind = supercritical")


def test_experiment_missing_kind(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("d = 8\nc = 2.0\n")
    code, _, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 1
    assert "kind" in err


def test_experiment_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = gw\nd = 3\nc = 2.0\nbogus = 1\n")
    code, _, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


def test_experiment_progress_counter(capsys):
    code, _, err = _run(
        capsys, "experiment", "--kind", "gw", "--d", "3", "--c", "2",
        "--trials", "3", "--progress",
    )
    assert code == 0
    assert "trial 3/3" in err


def test_experiment_flags_cover_config_keys(capsys, tmp_path):
    out_path = tmp_path / "r.csv"
    code, out, _ = _run(
        capsys, "experiment", "--kind", "supercritical", "--d", "6", "--c", "2", "--trials", "2",
        "--seed", "4", "--w-threshold", "9", "--p2-exponent", "4", "--gap-lo", "2", "--gap-hi", "9",
        "--gw-progeny-cap", "50", "--out", str(out_path), "--format", "csv",
    )
    assert code == 0
    assert json.loads(out)["config"] == {
        "kind": "supercritical", "d": 6, "c": 2.0, "eps": None, "trials": 2, "seed": 4,
        "w_threshold": 9, "p2_exponent": 4.0, "gap_lo": 2, "gap_hi": 9, "gw_progeny_cap": 50,
    }
    assert out_path.read_text().startswith("# kind = supercritical")
    code, _, err = _run(capsys, "experiment", "--kind", "sprinkling", "--d", "6", "--eps", "0.3")
    assert code == 1 and "eps" in err


@pytest.mark.parametrize("workers", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_experiment_workers_bounded(capsys, workers):
    # rejected before any trial runs, so no pool is started
    code, out, err = _run(
        capsys, "experiment", "--kind", "gw", "--d", "3", "--c", "2", "--trials", "2",
        "--workers", workers,
    )
    assert code == 1
    assert out == ""
    assert "--workers" in err


def test_experiment_workers_bounded_by_the_usable_cpus(capsys, monkeypatch):
    # a 2-CPU cpuset on a 64-CPU host takes at most 2 workers
    _usable_cpus(monkeypatch, 2)
    code, out, err = _run(
        capsys, "experiment", "--kind", "gw", "--d", "3", "--c", "2", "--trials", "2",
        "--workers", "3",
    )
    assert code == 1 and out == "" and "[1, 2]" in err


def test_experiment_unreachable_w_threshold(capsys):
    code, out, err = _run(
        capsys, "experiment", "--kind", "hitprob", "--d", "4", "--c", "2", "--trials", "3",
        "--w-threshold", "1000",
    )
    assert code == 1
    assert out == ""
    assert "w_threshold" in err


def test_experiment_capacity_exit(capsys):
    code, out, err = _run(capsys, "experiment", "--kind", "supercritical", "--d", "31", "--c", "2")
    assert code == 2
    assert out == ""
    assert "capacity" in err


def test_experiment_sprinkling_second_round_named(capsys):
    # d^-p2_exponent = 8^-0.5 = 0.354 exceeds p = c/d = 0.25
    code, _, err = _run(
        capsys, "experiment", "--kind", "sprinkling", "--d", "8", "--c", "2", "--p2-exponent", "0.5",
    )
    assert code == 1
    assert "p2_exponent" in err


def test_experiment_rejects_nan_p2_exponent(capsys):
    code, out, err = _run(
        capsys, "experiment", "--kind", "sprinkling", "--d", "8", "--c", "2", "--trials", "1",
        "--p2-exponent", "nan",
    )
    assert code == 1
    assert out == ""
    assert "p2_exponent" in err


def test_experiment_rejects_zero_progeny_cap(capsys):
    code, out, err = _run(capsys, "experiment", "--kind", "gw", "--d", "4", "--c", "2", "--gw-progeny-cap", "0")
    assert code == 1
    assert out == ""
    assert "gw_progeny_cap" in err


_HUGE_D = "9" * 401  # c / d would overflow a float


@pytest.mark.parametrize(
    "argv, code, message",
    [
        *[pytest.param(("--kind", kind, "--d", _HUGE_D), 2, "exceeds the supported maximum", id=f"{kind}-huge-d")
          for kind in ("supercritical", "sprinkling", "hitprob")],
        pytest.param(("--kind", "gw", "--d", _HUGE_D), 1, "d * gw_progeny_cap", id="gw-huge-d"),
        pytest.param(("--kind", "gw", "--d", str(2**62)), 1, "d * gw_progeny_cap", id="gw-d-2^62"),
        pytest.param(("--kind", "gw", "--d", "20", "--gw-progeny-cap", str(2**63 - 1)), 1, "d * gw_progeny_cap",
                     id="gw-cap-2^63-1"),
        pytest.param(("--kind", "gw", "--d", "2", "--gw-progeny-cap", str(2**62)), 1, "d * gw_progeny_cap",
                     id="gw-at-the-bound"),
        pytest.param(("--kind", "gw", "--d", "2", "--gw-progeny-cap", str(2**62 - 1)), 0, '"survived_count": 1',
                     id="gw-below-the-bound"),
    ],
)
def test_experiment_bounds_d_before_dividing_by_it(capsys, argv, code, message):
    # a cube kind refuses d > MAX_DIMENSION as capacity before c / d; gw
    # refuses d * gw_progeny_cap >= 2^63, which would overflow the int64
    # trial count alive * d of its binomial draw (at p = 1 the last draw
    # of the run just below the bound takes 2^61 * 2 trials)
    got, out, err = _run(capsys, "experiment", *argv, "--c", "2", "--trials", "1")
    assert got == code
    assert message in (out if code == 0 else err)
    assert "internal error" not in err


_OPTIONAL = {"w_threshold": "4", "gap_lo": "5", "gap_hi": "9"}
# the optional keys that each kind does not read
_UNREAD = {
    "supercritical": [],
    "subcritical": ["w_threshold", "gap_lo", "gap_hi"],
    "sprinkling": ["gap_lo", "gap_hi"],
    "gw": ["w_threshold", "gap_lo", "gap_hi"],
    "hitprob": ["gap_lo", "gap_hi"],
}


@pytest.mark.parametrize("kind", sorted(_UNREAD))
def test_experiment_refuses_keys_its_kind_ignores(capsys, kind):
    # a key the kind does not read would be echoed into the report as a
    # setting that did nothing: exit 1, naming the key and the kind; the
    # keys it reads run
    param = ["--eps", "0.3"] if kind == "subcritical" else ["--c", "2"]
    base = ["experiment", "--kind", kind, "--d", "10", *param, "--trials", "1"]
    for key in _UNREAD[kind]:
        code, out, err = _run(capsys, *base, "--" + key.replace("_", "-"), _OPTIONAL[key])
        assert code == 1 and out == ""
        assert f"{key} must be unset for kind={kind}" in err
    read = [key for key in _OPTIONAL if key not in _UNREAD[kind]]
    code, out, _ = _run(capsys, *base, *[arg for key in read for arg in ("--" + key.replace("_", "-"), _OPTIONAL[key])])
    assert code == 0
    assert {key: json.loads(out)["config"][key] for key in read} == {key: int(_OPTIONAL[key]) for key in read}


@pytest.mark.parametrize("kind", ["supercritical", "gw"])
def test_experiment_rejects_c_beyond_d(capsys, kind):
    # p = c/d = 1.25: refused by validation, before the theory block or a pool
    code, out, err = _run(capsys, "experiment", "--kind", kind, "--d", "4", "--c", "5", "--trials", "2")
    assert code == 1
    assert out == ""
    assert "c = 5.0" in err and "exceed 1" in err


def test_experiment_duplicate_config_key(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = gw\nd = 3\nc = 2.0\nc = 3.0\n")
    code, _, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 1
    assert f"{cfg}:4:" in err


def test_oracle_harper(capsys):
    code, out, _ = _run(capsys, "oracle", "harper", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "harper"
    assert doc["violations"] == 0


def test_oracle_subtrees(capsys):
    code, out, _ = _run(capsys, "oracle", "subtrees", "--d", "3", "--k", "3", "--v", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["count"] == 9
    assert doc["values"]["bound"] == pytest.approx(66.5, abs=0.01)


def test_oracle_exactdist(capsys):
    code, out, _ = _run(capsys, "oracle", "exactdist", "--d", "2", "--p", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["expected_l1"] == pytest.approx(2.8125, abs=1e-9)


def test_oracle_capacity_exit(capsys):
    code, _, err = _run(capsys, "oracle", "harper", "--d", "5")
    assert code == 2
    assert "capacity" in err


def test_bad_flags_exit_one(capsys):
    code, _, _ = _run(capsys, "theory", "--c", "abc")
    assert code == 1


def test_seed_random_opt_in(capsys):
    code, out, err = _run(capsys, "sim", "--d", "3", "--p", "0.5", "--seed", "random")
    assert code == 0
    assert "seed = " in err  # the drawn seed is reported for reproducibility
    assert json.loads(out)["seed"] >= 0


def test_seed_rejects_garbage(capsys):
    code, _, _ = _run(capsys, "sim", "--d", "3", "--p", "0.5", "--seed", "xyz")
    assert code == 1


def test_internal_error_exit_two(capsys, monkeypatch):
    import cubeperc.cli as cli_module

    monkeypatch.setattr(cli_module, "cmd_theory", lambda args: 1 / 0)
    code, _, err = _run(capsys, "theory", "--c", "2")
    assert code == 2
    assert "internal error" in err


def test_missing_config_file_exit_one(capsys, tmp_path):
    code, out, err = _run(capsys, "experiment", "--config", str(tmp_path / "missing.cfg"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "missing.cfg" in err


def test_report_in_missing_directory_refused_before_the_run(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "r.json"
    code, out, err = _run(
        capsys, "experiment", "--kind", "gw", "--d", "3", "--c", "2", "--trials", "2", "--progress", "--out", str(path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "missing-dir" in err
    assert "trial" not in err and not path.parent.exists()


def test_histogram_in_missing_directory_refused_before_sampling(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "h.csv"
    code, out, err = _run(capsys, "sim", "--d", "4", "--p", "0.5", "--hist", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "missing-dir" in err
    assert "l1=" not in err  # no labeling summary: nothing was sampled


@pytest.mark.parametrize("command", ["experiment", "sim"])
def test_unwritable_output_exit_one(capsys, tmp_path, command):
    # the directory exists but the path is itself a directory: the write
    # fails after the run, as an input error
    argv = {
        "experiment": ["experiment", "--kind", "gw", "--d", "3", "--c", "2", "--trials", "2", "--out", str(tmp_path)],
        "sim": ["sim", "--d", "4", "--p", "0.5", "--hist", str(tmp_path)],
    }[command]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "error: " in err and "internal error" not in err


def test_stdout_is_json_only(capsys):
    for argv in (
        ["theory", "--c", "2"],
        ["sim", "--d", "3", "--p", "0.5"],
        ["oracle", "harper", "--d", "2"],
        ["experiment", "--kind", "gw", "--d", "3", "--c", "2", "--trials", "2"],
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        json.loads(out)  # must parse as a single JSON document
