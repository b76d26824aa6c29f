"""Component extraction and the statistics the percolation study measures.

Full labeling hooks minimum labels along the open edges, with numpy pointer
jumping, and so names every component by its smallest vertex; local structure
is probed by a capped BFS exploration that consumes one random bit per edge.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .hypercube import CubeGraph, _insertbit
from .sampler import EdgeSample


@dataclass
class ComponentLabeling:
    """Vertex -> component map plus the derived size statistics.

    Labels are canonical: every component is named by its smallest vertex id,
    so labelings are deterministic given the open set.  ``component_sizes``
    lists the sizes by ascending label.  l2 is 0 when the graph has a single
    component.
    """

    labels: np.ndarray
    l1: int
    l2: int
    component_sizes: np.ndarray
    n_components: int
    vertex_component_size: np.ndarray


def _open_endpoints(g: CubeGraph, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # direction i owns edge indices [i * 2^(d-1), (i+1) * 2^(d-1)); within it
    # the offset is dropbit(base, i), so insertbit recovers the base endpoint
    half = 1 << (g.d - 1)
    us, vs = [], []
    for i in range(g.d):
        base = _insertbit(mask[i * half:(i + 1) * half].nonzero()[0].astype(np.int32), i)
        us.append(base)
        vs.append(base | (1 << i))
    return np.concatenate(us), np.concatenate(vs)


def label_components(g: CubeGraph, open_edges) -> ComponentLabeling:
    """Label every vertex of Q^d with its component under the open edges.

    ``open_edges`` is an EdgeSample or a boolean mask over edge indices.

    Min-label hooking with pointer jumping (Shiloach & Vishkin 1982): start
    from f = identity; while some open edge (u, v) has f[u] != f[v], hook the
    larger of the two labels onto the smaller (np.minimum.at), then jump
    f -> f[f] to its fixed point.  Each round hooks at least one root onto a
    smaller vertex, so the loop ends.

    Canonical labels follow without a sort.  f[x] is always a vertex of x's
    component and f[x] <= x, so a component's minimum never moves off itself.
    When the loop ends every open edge joins equal labels, so each component
    has exactly one root, and that root is its minimum.
    """
    mask = open_edges.open_mask if isinstance(open_edges, EdgeSample) else np.asarray(open_edges, dtype=bool)
    if mask.shape != (g.m,):
        raise ValueError(f"open mask must have shape ({g.m},), got {mask.shape}")
    u, v = _open_endpoints(g, mask)
    f = np.arange(g.n, dtype=np.int32)
    lu, lv = u, v  # f[u], f[v] while f is the identity
    while lu.size:
        np.minimum.at(f, np.maximum(lu, lv), np.minimum(lu, lv))
        nxt = f[f]
        while (nxt != f).any():
            f, nxt = nxt, nxt[nxt]
        lu, lv = f[u], f[v]
        differ = lu != lv
        u, v, lu, lv = u[differ], v[differ], lu[differ], lv[differ]
    sizes = np.bincount(f, minlength=g.n)
    counts = sizes[sizes > 0]  # component sizes, by ascending label
    l1 = int(counts.max())
    l2 = int(np.partition(counts, -2)[-2]) if counts.size >= 2 else 0
    return ComponentLabeling(
        labels=f.astype(np.int64),
        l1=l1,
        l2=l2,
        component_sizes=counts,
        n_components=int(counts.size),
        vertex_component_size=sizes[f],
    )


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of one capped BFS exploration.

    ``open_found`` counts every queried edge that came back open, including
    edges closing cycles, so open_found >= size - 1 always, with equality
    whenever the revealed component is a tree.
    """

    size: int
    cap_hit: bool
    edges_queried: int
    open_found: int


def explore_component(g: CubeGraph, v: int, stream, cap: int) -> ExplorationResult:
    """BFS from v driven by a bit source, stopping at ``cap`` discovered vertices.

    Each dequeued vertex queries its d incident edges in increasing direction
    order, each edge at most once.  The edge to a neighbour w was queried
    before u is dequeued iff w was dequeued earlier (every dequeued vertex
    queries all its edges, and the cap ends the search), and such an edge
    cannot discover w, so it is skipped without a bit.  ``queue`` is the FIFO
    with read index j and ``order`` maps each discovered vertex to its queue
    position, so "w was dequeued earlier" is ``order[w] < j``.  ``stream`` is
    any object with a ``query(edge_index) -> 0|1`` method.
    """
    g.check_vertex(v)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValueError(f"cap must be an integer >= 1, got {cap!r}")
    n, half = g.n, 1 << (g.d - 1)
    # edge index of (u, u ^ bit) is i * 2^(d-1) + dropbit(u, i), whichever
    # endpoint is the base, and dropbit(u, i) = ((u >> 1) & high) + (u & low)
    dirs = [(1 << i, i * half, ~((1 << i) - 1), (1 << i) - 1) for i in range(g.d)]
    queue = [v]
    order = {v: 0}
    get = order.get
    query = stream.query
    j = edges_queried = open_found = 0
    cap_hit = cap <= 1
    while j < len(queue) and not cap_hit:
        u = queue[j]
        uh = u >> 1
        for bit, off, high, low in dirs:
            w = u ^ bit
            k = get(w, n)  # w's queue position; n when undiscovered
            if k < j:
                continue
            edges_queried += 1
            if query(off + (uh & high) + (u & low)):
                open_found += 1
                if k == n:
                    order[w] = len(queue)
                    queue.append(w)
                    if len(queue) >= cap:
                        cap_hit = True
                        break
        j += 1
    return ExplorationResult(len(queue), cap_hit, edges_queried, open_found)


@dataclass
class WSet:
    """Vertices whose component reaches the size threshold."""

    members: np.ndarray
    density: float


def w_set(labeling: ComponentLabeling, threshold: int) -> WSet:
    """Membership and density of {v : |C(v)| >= threshold}."""
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")
    members = labeling.vertex_component_size >= threshold
    return WSet(members=members, density=float(members.mean()))


def size_gap_count(labeling: ComponentLabeling, lo: int, hi: int) -> int:
    """Number of components with size in [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty window: lo={lo} > hi={hi}")
    sizes = labeling.component_sizes
    return int(np.count_nonzero((sizes >= lo) & (sizes <= hi)))


def _flip_bit(arr: np.ndarray, i: int) -> np.ndarray:
    # the permutation v -> v XOR 2^i of a flat per-vertex array
    return arr.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(arr.shape)


def distance_to_set(g: CubeGraph, members: np.ndarray) -> tuple[np.ndarray, int]:
    """Multi-source BFS distances in the FULL cube from the member set, given
    as a boolean mask of shape (2^d,).

    Returns (per-vertex distance array, maximum distance).  The percolated
    subgraph plays no role here; this measures how well the set spreads
    through Q^d itself.
    """
    if not isinstance(members, np.ndarray) or members.dtype != bool or members.shape != (g.n,):
        raise ValueError(f"members must be a boolean mask of shape ({g.n},)")
    if not members.any():
        raise ValueError("member set must be nonempty")
    dist = np.full(g.n, -1, dtype=np.int32)
    dist[members] = 0
    frontier = members
    level = 0
    while True:
        nbr = np.zeros(g.n, dtype=bool)
        for i in range(g.d):
            nbr |= _flip_bit(frontier, i)
        frontier = nbr & (dist < 0)
        if not frontier.any():
            break
        level += 1
        dist[frontier] = level
    return dist, int(dist.max())


def write_histogram_csv(labeling: ComponentLabeling, path) -> None:
    """Component-size histogram as CSV (size,count), sizes ascending."""
    sizes, counts = np.unique(labeling.component_sizes, return_counts=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "count"])
        writer.writerows(zip(sizes.tolist(), counts.tolist()))
