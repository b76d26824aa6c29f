"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest failure is the corresponding FAIL.  The supercritical d=18
study (criteria 6, 10, 11) is shared through a module fixture.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import cubeperc as cp

Y2 = 0.7968121300200199  # root of y = 1 - exp(-2y), frozen from the bisection


def _ok(number, message):
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


@pytest.fixture(scope="module")
def super_report():
    cfg = cp.ExperimentConfig(kind="supercritical", d=18, c=2.0, trials=20, seed=0)
    return cp.run_experiment(cfg, workers=2)


def test_criterion_01_fixed_point_law():
    start = time.perf_counter()
    for c in (1.01, 1.1, 1.5, 2.0, 3.0, 10.0):
        y = cp.solve_y(c)
        assert abs(y - 1.0 + math.exp(-c * y)) <= 1e-12
    # independent oracle: plain fixed-point iteration y <- 1 - e^(-2y)
    y_iter = 0.5
    for _ in range(10_000):
        nxt = 1.0 - math.exp(-2.0 * y_iter)
        if abs(nxt - y_iter) <= 1e-14:
            break
        y_iter = nxt
    assert abs(cp.solve_y(2.0) - y_iter) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"solve_y residuals <= 1e-12 on the c grid; y(2) matches iteration oracle ({elapsed:.3f} s)")


def test_criterion_02_gw_duality():
    start = time.perf_counter()
    exact_large_d = cp.gw_extinction(1000, 2.0 / 1000).survival
    assert abs(exact_large_d - cp.solve_y(2.0)) <= 1e-3
    exact_small = cp.gw_extinction(3, 2.0 / 3.0).survival  # ~0.9509
    assert abs(exact_small - 0.9509618943233451) <= 1e-12
    cfg = cp.ExperimentConfig(kind="gw", d=3, c=2.0, trials=100_000, seed=0)
    report = cp.run_experiment(cfg, workers=2)
    rate = report.aggregates["survival_rate"]
    se = math.sqrt(exact_small * (1.0 - exact_small) / 100_000)
    assert abs(rate - exact_small) <= 3 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(2, f"survival(1000) within 1e-3 of y(2); 1e5-trial estimate {rate:.5f} within 3 SE of {exact_small:.5f} ({elapsed:.1f} s)")


def test_criterion_03_harper_exhaustive():
    start = time.perf_counter()
    checked = []
    for d in (2, 3, 4):
        report = cp.harper_check(d)
        assert report.violations == []
        assert report.weak_violations == []
        checked.append(report.subsets_checked)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(3, f"edge-isoperimetry holds on every subset at d=2,3,4 ({checked} subsets, {elapsed:.1f} s)")


def test_criterion_04_subtree_bound():
    for d in (3, 4):
        g = cp.SmallGraph.from_cube(cp.CubeGraph(d))
        for v in range(g.n):
            for k in range(1, 6):
                count = cp.count_subtrees(g, v, k)
                assert count <= (math.e * d) ** (k - 1)
    g3 = cp.SmallGraph.from_cube(cp.CubeGraph(3))
    assert cp.count_subtrees(g3, 0, 3) == 9
    _ok(4, "subtree counts within (e*d)^(k-1) on Q^3 and Q^4 for k <= 5; t(0,3)=9 exact")


def test_criterion_05_sampler_ground_truth():
    start = time.perf_counter()
    small = cp.SmallGraph.from_cube(cp.CubeGraph(2))
    dist = cp.exact_percolation_distribution(small, 0.5)
    exact = {1: 1 / 16, 2: 6 / 16, 3: 4 / 16, 4: 5 / 16}
    for l1, prob in exact.items():
        assert abs(dist.l1_marginal[l1] - prob) <= 1e-12
    assert abs(dist.expected_l1 - 2.8125) <= 1e-12
    # cross-check against the exact rational expectation
    assert Fraction(45, 16) == Fraction(2.8125)

    g = cp.CubeGraph(2)
    trials = 100_000
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for t in range(trials):
        lab = cp.label_components(g, cp.sample_edges(g, cp.SampleKey(0, t, 0), 0.5))
        counts[lab.l1] += 1
    for l1, prob in exact.items():
        se = math.sqrt(prob * (1.0 - prob) / trials)
        assert abs(counts[l1] / trials - prob) <= 3 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(5, f"Q^2 exact law (1,6,4,5)/16 reproduced; 1e5 Monte Carlo trials within 3 SE ({elapsed:.1f} s)")


def test_criterion_06_supercritical_law(super_report):
    rows = super_report.rows
    assert len(rows) == 20
    n = 2**18
    mean_fraction = sum(r["l1"] for r in rows) / (20 * n)
    assert 0.7168 <= mean_fraction <= 0.8768  # y(2) +/- 0.08
    assert all(r["l2"] <= 180 for r in rows)  # 10 d
    gap_zero = sum(1 for r in rows if r["gap_count"] == 0)
    assert gap_zero >= 18
    _ok(6, f"d=18 c=2: mean l1/n={mean_fraction:.4f} in [0.7168, 0.8768]; max l2={max(r['l2'] for r in rows)} <= 180; gap-free trials {gap_zero}/20")


def test_criterion_07_subcritical_law():
    cfg = cp.ExperimentConfig(kind="subcritical", d=18, eps=0.3, trials=50, seed=0)
    report = cp.run_experiment(cfg, workers=2)
    assert report.theory["p"] == pytest.approx(0.7 / 17, abs=1e-12)
    within = sum(1 for r in report.rows if r["l1"] <= 1248)
    assert within >= 49
    _ok(7, f"d=18 eps=0.3: l1 <= 1248 in {within}/50 trials (max l1 = {max(r['l1'] for r in report.rows)})")


def test_criterion_08_chernoff_domination():
    violations = 0
    for d in (5, 10, 20):
        for eps in (0.1, 0.2, 0.3):
            for k in range(20, 401, 20):
                tail = cp.binom_tail_geq(k * (d - 1) + 1, (1.0 - eps) / (d - 1), k)
                if tail > cp.chernoff_interval_bound(eps, k):
                    violations += 1
    assert violations == 0
    _ok(8, "exact binomial tail <= exp(-eps^2 k/4) on the full 180-point grid")


def test_criterion_09_sprinkling():
    cfg = cp.ExperimentConfig(kind="sprinkling", d=16, c=2.0, trials=20, seed=0)
    report = cp.run_experiment(cfg, workers=2)
    p = 2.0 / 16.0
    m = 16 * 2**15
    rate = report.aggregates["union_open_rate_pooled"]
    se = math.sqrt(p * (1.0 - p) / (20 * m))
    assert abs(rate - p) <= 3 * se
    merged = report.aggregates["merge_ok_count"]
    assert merged >= 18
    _ok(9, f"d=16 c=2: pooled union rate {rate:.6f} within 3 SE of {p}; merge_ok in {merged}/20 trials")


def test_criterion_10_w_set_coverage(super_report):
    assert super_report.theory["w_threshold"] == 324
    densities = [r["w_density"] for r in super_report.rows]
    mean_density = sum(densities) / len(densities)
    assert abs(mean_density - Y2) <= 0.08
    covered = sum(1 for r in super_report.rows if 0 <= r["max_dist_w"] <= 2)
    assert covered >= 18
    _ok(10, f"w_density mean {mean_density:.4f} within 0.08 of y(2); dist-to-W <= 2 in {covered}/20 trials")


def test_criterion_11_determinism(super_report, tmp_path):
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    cp.write_report(super_report, first, "json")
    cfg = cp.ExperimentConfig(kind="supercritical", d=18, c=2.0, trials=20, seed=0)
    rerun = cp.run_experiment(cfg, workers=1)  # different worker count on purpose
    cp.write_report(rerun, second, "json")
    assert first.read_bytes() == second.read_bytes()
    _ok(11, "repeating criterion 6's run yields byte-identical JSON reports")
