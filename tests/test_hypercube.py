import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubeperc.components import distance_to_set
from cubeperc.errors import CapacityError
from cubeperc.hypercube import (
    CubeGraph,
    EdgeRef,
    edge_endpoint_arrays,
    edge_from_index,
    edge_index,
    export_adjacency,
    neighbors,
)


def test_counts():
    g = CubeGraph(3)
    assert g.n == 8
    assert g.m == 12
    assert CubeGraph(1).m == 1
    assert CubeGraph(10).m == 5120


def test_dimension_validation():
    with pytest.raises(ValueError):
        CubeGraph(0)
    with pytest.raises(CapacityError):
        CubeGraph(31)


def test_neighbors_examples():
    assert neighbors(CubeGraph(3), 0) == [1, 2, 4]
    assert neighbors(CubeGraph(3), 5) == [4, 7, 1]
    assert neighbors(CubeGraph(1), 0) == [1]


def test_neighbors_range_check():
    with pytest.raises(ValueError):
        neighbors(CubeGraph(3), 8)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_neighbors_are_distinct_at_distance_one(d, data):
    g = CubeGraph(d)
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    nbrs = neighbors(g, v)
    assert len(nbrs) == d
    assert len(set(nbrs)) == d
    assert all((v ^ w).bit_count() == 1 for w in nbrs)


def test_edge_index_examples():
    g = CubeGraph(3)
    assert edge_index(g, EdgeRef(0, 0)) == 0
    assert edge_index(g, EdgeRef(2, 0)) == 1
    assert edge_index(g, EdgeRef(1, 2)) == 9


def test_edge_ref_rejects_set_bit():
    with pytest.raises(ValueError):
        EdgeRef(1, 0)


@pytest.mark.parametrize("d", range(1, 11))
def test_edge_index_bijection_exhaustive(d):
    g = CubeGraph(d)
    seen = set()
    for idx in range(g.m):
        ref = edge_from_index(g, idx)
        assert edge_index(g, ref) == idx
        seen.add(ref.endpoints())
    assert len(seen) == g.m


@pytest.mark.parametrize("d", range(1, 11))
def test_degree_regularity_exhaustive(d):
    g = CubeGraph(d)
    degree = [0] * g.n
    for idx in range(g.m):
        u, v = edge_from_index(g, idx).endpoints()
        degree[u] += 1
        degree[v] += 1
    assert all(deg == d for deg in degree)


def test_edge_endpoint_arrays_match_scalar_path():
    for d in (1, 2, 3, 7, 12):
        g = CubeGraph(d)
        us, vs = edge_endpoint_arrays(g)
        assert us.dtype == vs.dtype == np.int64
        assert us.shape == vs.shape == (g.m,)
        assert not us.flags.writeable and not vs.flags.writeable
        assert [edge_from_index(g, idx).endpoints() for idx in range(g.m)] == list(zip(us.tolist(), vs.tolist()))


def test_hamming_examples():
    assert (0 ^ 0).bit_count() == 0
    assert (0 ^ 5).bit_count() == 2
    assert (3 ^ 4).bit_count() == 3
    # popcount(u XOR v) is the graph distance in Q^d
    g = CubeGraph(4)
    for u in range(g.n):
        dist, _ = distance_to_set(g, np.arange(g.n) == u)
        assert dist.tolist() == [(u ^ v).bit_count() for v in range(g.n)]


def test_export_adjacency_small():
    adj1 = export_adjacency(CubeGraph(1))
    assert adj1 == [[1], [0]]
    adj2 = export_adjacency(CubeGraph(2))
    # Q^2 is the 4-cycle 0-1-3-2-0
    assert adj2 == [[1, 2], [0, 3], [3, 0], [2, 1]]
    adj3 = export_adjacency(CubeGraph(3))
    assert all(len(a) == 3 for a in adj3)
    assert sum(len(a) for a in adj3) == 2 * 12


def test_export_adjacency_capacity():
    with pytest.raises(CapacityError):
        export_adjacency(CubeGraph(15))
