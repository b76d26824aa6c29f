"""Canonical model of the d-dimensional binary cube.

Vertices are machine integers in [0, 2^d); bit i of a vertex id is
coordinate i, so the neighbors of v are v XOR 2^i for i = 0..d-1.

Edges are identified by (base, dir) where ``base`` is the endpoint whose
bit ``dir`` is 0, and indexed by

    index = dir * 2^(d-1) + dropbit(base, dir)

where dropbit removes bit ``dir`` and shifts the higher bits down one
position.  This is a bijection onto [0, d * 2^(d-1)).  The formula is
frozen: seeded randomness keys on the edge index, so changing it would
change every sampled subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

MAX_DIMENSION = 30
ADJACENCY_EXPORT_MAX = 14  # explicit lists guard


@dataclass(frozen=True)
class CubeGraph:
    """The cube Q^d: n = 2^d vertices, m = d * 2^(d-1) edges, d-regular."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        if self.d > MAX_DIMENSION:
            raise CapacityError(
                f"dimension {self.d} exceeds the supported maximum {MAX_DIMENSION}"
            )

    @property
    def n(self) -> int:
        return 1 << self.d

    @property
    def m(self) -> int:
        return self.d << (self.d - 1)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")


@dataclass(frozen=True)
class EdgeRef:
    """An edge as (base, dir): base has bit ``dir`` clear, the edge flips it."""

    base: int
    dir: int

    def __post_init__(self):
        if self.dir < 0:
            raise ValueError(f"direction must be nonnegative, got {self.dir}")
        if (self.base >> self.dir) & 1:
            raise ValueError(
                f"bit {self.dir} of base {self.base} must be 0 for a canonical edge"
            )

    def endpoints(self) -> tuple[int, int]:
        return self.base, self.base ^ (1 << self.dir)


def neighbors(g: CubeGraph, v: int) -> list[int]:
    """All d neighbors of v, in increasing coordinate order."""
    g.check_vertex(v)
    return [v ^ (1 << i) for i in range(g.d)]


def _dropbit(x: int, i: int) -> int:
    return ((x >> (i + 1)) << i) | (x & ((1 << i) - 1))


def _insertbit(x: int, i: int) -> int:
    # x = high * 2^i + low becomes high * 2^(i+1) + low
    return x + ((x >> i) << i)


def direction_bases(mask: np.ndarray, i: int) -> np.ndarray:
    """Base endpoints, as int32 in increasing order, of the open edges of
    direction i, given direction i's bool slice of an edge mask: entry k is
    edge i * 2^(d-1) + k, whose base is insertbit(k, i).

    insertbit runs in place on the int32 copy, as k + (k & -2^i) (the bits
    of k from i up, added once more, move up by one), so that it leaves one
    short-lived array where the shifts left three: fewer holes for the
    allocator to keep when threads sample."""
    k = mask.nonzero()[0].astype(np.int32)
    k += k & -(1 << i)
    return k


def edge_index(g: CubeGraph, e: EdgeRef) -> int:
    """Bijective edge id in [0, m) for the (base, dir) pair."""
    g.check_vertex(e.base)
    if e.dir >= g.d:
        raise ValueError(f"direction {e.dir} out of range [0, {g.d})")
    return e.dir * (1 << (g.d - 1)) + _dropbit(e.base, e.dir)


def edge_from_index(g: CubeGraph, index: int) -> EdgeRef:
    """Inverse of edge_index."""
    if not 0 <= index < g.m:
        raise ValueError(f"edge index {index} out of range [0, {g.m})")
    half = 1 << (g.d - 1)
    direction = index // half
    return EdgeRef(base=_insertbit(index % half, direction), dir=direction)


def export_adjacency(g: CubeGraph) -> list[list[int]]:
    """Explicit adjacency lists, for oracles and generic-graph consumers."""
    if g.d > ADJACENCY_EXPORT_MAX:
        raise CapacityError(
            f"adjacency export limited to d <= {ADJACENCY_EXPORT_MAX}, got d={g.d}"
        )
    return [neighbors(g, v) for v in range(g.n)]


def edge_endpoint_arrays(g: CubeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of every edge as two read-only int64 arrays indexed by edge
    index: the vectorized form of edge_from_index over [0, m), built one
    direction at a time and not cached."""
    half = 1 << (g.d - 1)
    u = np.empty(g.m, dtype=np.int64)
    v = np.empty(g.m, dtype=np.int64)
    rest = np.arange(half, dtype=np.int64)
    for i in range(g.d):  # u = _insertbit(rest, i), written in place
        block = slice(i * half, (i + 1) * half)
        np.left_shift(rest >> i, i + 1, out=u[block])
        u[block] |= rest & ((1 << i) - 1)
        np.bitwise_or(u[block], 1 << i, out=v[block])
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v
