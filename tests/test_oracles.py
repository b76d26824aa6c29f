import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubeperc.components import label_components
from cubeperc.errors import CapacityError
from cubeperc.hypercube import CubeGraph
from cubeperc.oracles import (
    SmallGraph,
    _mask_boundary,
    count_subtrees,
    edge_boundary,
    exact_percolation_distribution,
    harper_check,
)
from cubeperc.sampler import SampleKey, sample_edges


def test_small_graph_validation():
    with pytest.raises(ValueError):
        SmallGraph(n=3, edges=[(0, 0)])
    with pytest.raises(ValueError):
        SmallGraph(n=3, edges=[(0, 1), (1, 0)])
    with pytest.raises(CapacityError):
        SmallGraph(n=25, edges=[])
    g = SmallGraph(n=4, edges=[(0, 1), (1, 2)])
    assert g.max_degree == 2
    assert g.adj[1] == [0, 2]


def test_from_cube():
    g = SmallGraph.from_cube(CubeGraph(3))
    assert g.n == 8
    assert len(g.edges) == 12
    assert g.max_degree == 3


def test_edge_boundary_singleton():
    for d in (2, 3, 4):
        assert edge_boundary(CubeGraph(d), {0}) == d


def test_edge_boundary_subcube_meets_harper_with_equality():
    # a k-dimensional subcube has boundary 2^k (d-k) = |S| (d - log2 |S|)
    d = 4
    g = CubeGraph(d)
    for k in range(0, d):
        s = set(range(1 << k))  # fix the top d-k coordinates to 0
        boundary = edge_boundary(g, s)
        assert boundary == (1 << k) * (d - k)
        assert boundary == len(s) * (d - math.log2(len(s)))


def test_edge_boundary_pair():
    assert edge_boundary(CubeGraph(3), {0, 1}) == 4


@pytest.mark.parametrize("d", [2, 3])
def test_harper_no_violations_small(d):
    report = harper_check(d)
    assert report.subsets_checked > 0
    assert report.violations == []
    assert report.weak_violations == []


def test_harper_capacity():
    with pytest.raises(CapacityError):
        harper_check(5)


def test_boundary_complement_symmetry_exhaustive():
    for d in (2, 3, 4):
        g = CubeGraph(d)
        adj = [[v for v in range(g.n) if bin(u ^ v).count("1") == 1] for u in range(g.n)]
        pairs = [(u, v) for u in range(g.n) for v in adj[u] if u < v]
        full = (1 << g.n) - 1
        table = [_mask_boundary(pairs, mask) for mask in range(1 << g.n)]
        assert all(table[mask] == table[mask ^ full] for mask in range(1 << g.n))


def test_count_subtrees_trivials():
    g = SmallGraph.from_cube(CubeGraph(3))
    assert count_subtrees(g, 0, 1) == 1
    assert count_subtrees(g, 0, 2) == 3  # one per incident edge
    assert count_subtrees(g, 0, 3) == 9


def test_count_subtrees_guard():
    g = SmallGraph.from_cube(CubeGraph(3))
    with pytest.raises(CapacityError):
        count_subtrees(g, 0, 9)
    with pytest.raises(ValueError):
        count_subtrees(g, 0, 0)


def test_count_subtrees_within_bound_q3():
    g = SmallGraph.from_cube(CubeGraph(3))
    for v in range(g.n):
        for k in range(1, 6):
            assert count_subtrees(g, v, k) <= (math.e * 3) ** (k - 1)


def test_count_subtrees_path_graph():
    # a path has exactly one subtree per (length, anchor-side) choice
    g = SmallGraph(n=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
    assert count_subtrees(g, 0, 3) == 1
    assert count_subtrees(g, 2, 3) == 3  # shift window across the middle


def test_exact_distribution_q2_half():
    g = SmallGraph.from_cube(CubeGraph(2))
    dist = exact_percolation_distribution(g, 0.5)
    assert abs(dist.l1_marginal[1] - 1 / 16) <= 1e-12
    assert abs(dist.l1_marginal[2] - 6 / 16) <= 1e-12
    assert abs(dist.l1_marginal[3] - 4 / 16) <= 1e-12
    assert abs(dist.l1_marginal[4] - 5 / 16) <= 1e-12
    assert abs(dist.expected_l1 - 2.8125) <= 1e-12


def test_exact_distribution_extremes():
    g = SmallGraph.from_cube(CubeGraph(2))
    at_zero = exact_percolation_distribution(g, 0.0)
    assert at_zero.l1_marginal == {1: 1.0}
    at_one = exact_percolation_distribution(g, 1.0)
    assert at_one.l1_marginal == {4: 1.0}
    assert at_one.component_count_marginal == {1: 1.0}


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_exact_distribution_total_mass(p):
    g = SmallGraph.from_cube(CubeGraph(2))
    assert abs(exact_percolation_distribution(g, p).total_mass() - 1.0) <= 1e-12


def test_exact_distribution_capacity():
    g = SmallGraph(n=22, edges=[(i, i + 1) for i in range(21)])
    with pytest.raises(CapacityError):
        exact_percolation_distribution(g, 0.5)


def test_exact_distribution_agrees_with_sampled_labeling_q3():
    # cross-check the DFS oracle against array labeling on Q^3
    g = CubeGraph(3)
    small = SmallGraph.from_cube(g)
    dist = exact_percolation_distribution(small, 0.3)
    trials = 20000
    hits = {}
    for t in range(trials):
        lab = label_components(g, sample_edges(g, SampleKey(8, t, 0), 0.3))
        key = (lab.l1, lab.n_components)
        hits[key] = hits.get(key, 0) + 1
    for key, prob in dist.joint.items():
        if prob < 0.005:
            continue
        emp = hits.get(key, 0) / trials
        se = math.sqrt(prob * (1 - prob) / trials)
        assert abs(emp - prob) <= 4 * se
