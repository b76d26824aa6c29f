"""Exact brute-force verifiers at tiny scale.

These are the ground truth the fast paths are tested against: boundary
counts and the isoperimetric check over every subset, exact subtree
enumeration, and the full 2^|E| percolation distribution.  Loops are plain
iteration over integer-encoded subsets; desk-scale budgets make clarity
preferable to cleverness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CapacityError
from .hypercube import CubeGraph, export_adjacency, neighbors

MAX_SMALL_VERTICES = 24
MAX_SUBTREE_SIZE = 8
MAX_DIST_EDGES = 20
HARPER_MAX_DIM = 4


@dataclass
class SmallGraph:
    """Undirected simple graph small enough for exhaustive enumeration."""

    n: int
    edges: list[tuple[int, int]]
    adj: list[list[int]] = field(default_factory=list)
    max_degree: int = 0

    def __post_init__(self):
        if self.n < 1 or self.n > MAX_SMALL_VERTICES:
            raise CapacityError(
                f"small graphs carry at most {MAX_SMALL_VERTICES} vertices, got {self.n}"
            )
        seen = set()
        adj = [[] for _ in range(self.n)]
        canon = []
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of vertex range [0, {self.n})")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
            adj[u].append(v)
            adj[v].append(u)
        self.edges = canon
        self.adj = adj
        self.max_degree = max((len(a) for a in adj), default=0)

    @classmethod
    def from_cube(cls, g: CubeGraph) -> "SmallGraph":
        if g.n > MAX_SMALL_VERTICES:
            raise CapacityError(f"Q^{g.d} has {g.n} vertices, above {MAX_SMALL_VERTICES}")
        adj = export_adjacency(g)
        edges = [(u, v) for u in range(g.n) for v in adj[u] if u < v]
        return cls(n=g.n, edges=edges)


def edge_boundary(g: CubeGraph, s) -> int:
    """Number of full-cube edges with exactly one endpoint in s."""
    members = set(s)
    for v in members:
        g.check_vertex(v)
    count = 0
    for v in members:
        for w in neighbors(g, v):
            if w not in members:
                count += 1
    return count


def _mask_boundary(edge_pairs, mask: int) -> int:
    count = 0
    for u, v in edge_pairs:
        count += ((mask >> u) ^ (mask >> v)) & 1
    return count


@dataclass
class HarperViolation:
    subset: int
    size: int
    boundary: int
    bound: float


@dataclass
class HarperReport:
    d: int
    subsets_checked: int
    violations: list[HarperViolation]
    weak_violations: list[HarperViolation]


def harper_check(d: int) -> HarperReport:
    """Exhaustively verify e(S, S-bar) >= |S| (d - log2 |S|) on Q^d.

    Every nonempty subset with |S| <= 2^(d-1) is checked, along with the
    weaker form e(S, S-bar) >= |S|.  Expected outcome: no violations.
    """
    if d > HARPER_MAX_DIM:
        raise CapacityError(f"exhaustive Harper check limited to d <= {HARPER_MAX_DIM}")
    g = CubeGraph(d)
    adj = export_adjacency(g)
    edge_pairs = [(u, v) for u in range(g.n) for v in adj[u] if u < v]
    half = g.n // 2
    violations = []
    weak = []
    checked = 0
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        if size > half:
            continue
        checked += 1
        boundary = _mask_boundary(edge_pairs, mask)
        bound = size * (d - math.log2(size))
        if boundary + 1e-9 < bound:
            violations.append(HarperViolation(mask, size, boundary, bound))
        if boundary < size:
            weak.append(HarperViolation(mask, size, boundary, float(size)))
    return HarperReport(d=d, subsets_checked=checked, violations=violations, weak_violations=weak)


def count_subtrees(g: SmallGraph, v: int, k: int) -> int:
    """Exact number of k-vertex subtrees of g containing v.

    A subtree is a tree subgraph identified by its edge set; growth proceeds
    by attaching one new leaf at a time, with edge-set bitmasks deduplicating
    the many construction orders of the same tree.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range [0, {g.n})")
    if k < 1:
        raise ValueError(f"subtree size must be positive, got {k}")
    if k > MAX_SUBTREE_SIZE:
        raise CapacityError(f"subtree enumeration limited to k <= {MAX_SUBTREE_SIZE}")
    if k == 1:
        return 1
    edge_id = {}
    for idx, (a, b) in enumerate(g.edges):
        edge_id[(a, b)] = idx
        edge_id[(b, a)] = idx
    frontier = {0: 1 << v}  # edge mask -> vertex mask
    for _ in range(k - 1):
        grown: dict[int, int] = {}
        for emask, vmask in frontier.items():
            rest = vmask
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                rest ^= low
                for w in g.adj[u]:
                    if (vmask >> w) & 1:
                        continue
                    grown.setdefault(emask | (1 << edge_id[(u, w)]), vmask | (1 << w))
        frontier = grown
    return len(frontier)


def _subset_component_sizes(n: int, edges_in: list[tuple[int, int]]) -> list[int]:
    # iterative DFS over the included edges only; isolated vertices are size-1
    adj: dict[int, list[int]] = {}
    for u, v in edges_in:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        if start not in adj:
            sizes.append(1)
            continue
        stack = [start]
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for w in adj.get(u, ()):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        sizes.append(size)
    return sizes


@dataclass
class PercolationDistribution:
    """Exact joint law of (largest component, component count) at probability p."""

    p: float
    joint: dict[tuple[int, int], float]
    l1_marginal: dict[int, float]
    component_count_marginal: dict[int, float]
    expected_l1: float

    def total_mass(self) -> float:
        return math.fsum(self.joint.values())


def exact_percolation_distribution(g: SmallGraph, p: float) -> PercolationDistribution:
    """Iterate all 2^|E| open sets, weighting each by p^open (1-p)^closed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    m = len(g.edges)
    if m > MAX_DIST_EDGES:
        raise CapacityError(f"exact distribution limited to {MAX_DIST_EDGES} edges, got {m}")
    joint: dict[tuple[int, int], float] = {}
    for mask in range(1 << m):
        included = [g.edges[i] for i in range(m) if (mask >> i) & 1]
        cnt = len(included)
        weight = p**cnt * (1.0 - p) ** (m - cnt)
        if weight == 0.0:
            continue
        sizes = _subset_component_sizes(g.n, included)
        key = (max(sizes), len(sizes))
        joint[key] = joint.get(key, 0.0) + weight
    l1_marginal: dict[int, float] = {}
    count_marginal: dict[int, float] = {}
    for (l1, ncomp), w in joint.items():
        l1_marginal[l1] = l1_marginal.get(l1, 0.0) + w
        count_marginal[ncomp] = count_marginal.get(ncomp, 0.0) + w
    expected_l1 = math.fsum(l1 * w for l1, w in l1_marginal.items())
    return PercolationDistribution(
        p=float(p),
        joint=joint,
        l1_marginal=l1_marginal,
        component_count_marginal=count_marginal,
        expected_l1=expected_l1,
    )
