"""Component extraction and the statistics the percolation study measures.

Full labeling hooks minimum labels along the open edges, with numpy pointer
jumping, and so names every component by its smallest vertex.  Its input is
the open edges one direction at a time, as int32 base endpoints, so a trial
never holds the m-length edge mask (``label_sample``).  Local structure is
probed by a capped BFS exploration that consumes one random bit per edge,
and distances to a vertex set run as a BFS on bit-packed frontiers.

One size, ``_TASK``, cuts the labeling's passes: every pointer jump,
relabel of the label pairs and gather runs over consecutive ranges of at
most ``_TASK`` entries, in order, so that np.take's intp copy of an index
stays small.  On two threads (``thread_count`` picks when) the labeling
splits the cube, not the passes: Q^d is two copies of Q^(d-1) joined by
the perfect matching of its top direction.  Each half samples its own
window of every direction's counters and is labeled in its own vertex ids
on a thread of its own; the calling thread joins the halves along the top
direction; each half maps back to vertex labels and counts its components
on its own thread, and the calling thread merges the two counts.  numpy
releases the interpreter lock inside its kernels.  The counters are keyed
and the labels canonical, so no bit and no label depends on the split.
The join's rounds, the merge and the statistics run on the calling thread.
A call starts a process pool only when it labels at least two ``_TASK``
ranges of vertices (``process_count``).

Only the first hook and jump of a labeling run on n-length label arrays
(of each half's length, on two threads).  The labeling then contracts onto
that jump's k roots: the first relabel gathers each vertex's root id, every
later round (np.minimum.at, the pointer jumps and the pair relabels) runs
on k-length arrays, and one ranged gather maps each vertex back to a vertex
label at the end.  A labeling extends along more open edges (``extend``)
by the same later rounds, over its component ids alone.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .hypercube import CubeGraph, direction_bases
from .sampler import EdgeSample, SampleKey, sample_directions


@dataclass
class ComponentLabeling:
    """Vertex -> component map plus the derived size statistics.

    Labels are canonical: every component is named by its smallest vertex id,
    so labelings are deterministic given the open set.  ``component_sizes``
    lists the sizes by ascending label.  l2 is 0 when the graph has a single
    component.  ``open_edges`` counts the open edges labeled.

    The labeling keeps the int32 label of every vertex and the ascending
    labels of the components; ``labels`` is the int64 per-vertex form, built
    on first use.
    """

    l1: int
    l2: int
    component_sizes: np.ndarray
    n_components: int
    open_edges: int
    _vertex_labels: np.ndarray = field(repr=False)
    _component_labels: np.ndarray = field(repr=False)

    @cached_property
    def labels(self) -> np.ndarray:
        return self._vertex_labels.astype(np.int64)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (taskset, a container's cpuset), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The longest index range that one pass works on at a time.  np.take copies
# its whole index to intp, so a range of 2^17 entries bounds that copy at
# 1 MB (128 MB at d = 24 for an unranged gather).  The gathers are np.take
# in clip mode, which every label, a vertex, leaves alone: it skips the
# per-index check and gathers ~1.5x faster than f[idx].
_TASK = 1 << 17

# The most threads one labeling uses: two, one per half of the cube.  The
# split was measured on 2 CPUs only.
_MAX_THREADS = 2


def thread_count(d: int, processes: int = 1) -> int:
    """Threads for one labeling of Q^d while ``processes`` trials run side
    by side: 1 while each half of the cube is smaller than a ``_TASK``
    range (d <= 17), else the CPUs left to each process,
    ``usable_cpus() // processes``, at most ``_MAX_THREADS``.

    Whole supercritical trials at c = 2 on 2 CPUs, the halves on two
    threads against the whole on one (one-thread over two-thread time,
    median per-draw ratios, ``BENCH_23.json``, 60 draws each): d = 16
    0.72x, d = 17 1.09x, d = 18 1.18x, d = 19 1.40x and d = 20 1.59x.
    An earlier run read d = 17 at 0.92x, so d = 17 keeps one thread.
    When the host takes CPU time from the process, two threads gain less
    or lose (``BENCH_20.json``)."""
    if 1 << d <= _TASK:
        return 1
    return max(1, min(_MAX_THREADS, usable_cpus() // processes))


def process_count(d: int, trials: int, workers: int) -> int:
    """Processes for ``trials`` labelings of Q^d on at most ``workers``:
    ``min(workers, trials)`` once the call labels at least two ``_TASK``
    ranges of vertices, else 1.  Only a pool of two against one process
    was measured, so the pool's size does not scale with the ranges.

    Whole ``run_experiment`` calls on 2 CPUs, a pool of two against one
    process (medians of 20 alternating calls, ``BENCH_25.json``): 10
    supercritical trials at d = 14 (1.25 ranges) took 32.3 against 25.3 ms,
    at d = 16 (5 ranges) 59.4 against 61.0 ms; sprinkling trials, 31 at
    d = 13 (1.9 ranges) 72.9 against 75.0 ms and 10 at d = 15 (2.5 ranges)
    52.2 against 66.7 ms.  The crossover lies between 2 and 5 ranges for
    supercritical trials and near 2 for sprinkling."""
    return min(workers, trials) if (trials << d) // _TASK > 1 else 1


def _checked(threads: int) -> int:
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    return threads


def _side_by_side(first: Callable[[], object], second: Callable[[], object]) -> tuple:
    # first() on this thread while second() runs on a thread of its own;
    # both results, once the second thread is joined.  concurrent.futures
    # is imported only here, so a one-thread process never loads it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        later = pool.submit(second)
        return first(), later.result()


def _tasks(n: int) -> list[slice]:
    # [0, n) as consecutive, disjoint, nonempty ranges of near-equal length
    # and at most _TASK entries, in order; one range when n <= _TASK, built
    # without the per-range arithmetic, which a small cube would feel
    parts = -(-n // _TASK)
    return [slice(0, n)] if parts <= 1 else [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _jump_range(f: np.ndarray, out: np.ndarray, s: slice) -> int:
    # one pointer jump over a vertex range: out[s] = f[f[s]], reading only f
    # and writing only out[s]; returns how many labels moved
    fs, outs = f[s], out[s]
    f.take(fs, out=outs, mode="clip")
    return int(np.count_nonzero(outs != fs))


def _jump(f: np.ndarray, spare: np.ndarray) -> None:
    # f jumped in place to its fixed point f = f[f].  Full passes by ranges
    # alternate between the two arrays.  On an array longer than one range,
    # once a pass moves at most 1/8 of the labels, the passes after it
    # visit only the labels it moved (``_jump_tail``); on one range the
    # tail's own calls cost what they save (d = 14 trials ran 2 % slower
    # with it).  A pass that moves no label leaves the two arrays equal, so
    # f holds the fixed point whichever of them it wrote
    sparse = f.size >> 3 if f.size > _TASK else 0
    src, dst = f, spare
    while (moved := sum(_jump_range(src, dst, s) for s in _tasks(f.size))) > sparse:
        src, dst = dst, src
    if moved:
        _jump_tail(f, dst, src, moved)


def _jump_tail(f: np.ndarray, last: np.ndarray, before: np.ndarray, moved: int) -> None:
    # f jumped to its fixed point after a full pass read ``before``, wrote
    # ``last`` (one of the two is f) and moved ``moved`` labels.  A label x
    # that the pass left alone has before[before[x]] = before[x], a root,
    # which no pass moves, so x never moves again: the later passes visit
    # the moved labels alone, as int32 ids, by ranges of them, and each
    # drops those it leaves alone.  The first reads ``last`` and writes f,
    # which equals ``last`` off the moved labels.  A range that reads f
    # after an earlier range wrote it reads labels jumped further, which
    # are still ancestors, so the fixed point is the same
    at = np.empty(moved, dtype=np.int32)
    j = 0
    for s in _tasks(f.size):
        x = np.flatnonzero(last[s] != before[s])
        x += s.start
        at[j:j + x.size] = x
        j += x.size
    src = last
    while at.size:
        kept = []
        for s in _tasks(at.size):
            x = at[s]
            old = src.take(x, mode="clip")
            new = src.take(old, mode="clip")
            f.put(x, new, mode="clip")
            kept.append(x.compress(new != old))
        at = _concatenated(kept)
        src = f


def _unjoined(lu: np.ndarray, lv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the label pairs that differ, in order.  compress reads the mask in one
    # branch-free pass; lu[differ] takes numpy's boolean-index path, which at
    # d = 20 filtered a first round's million pairs ~4x slower
    differ = lu != lv
    return lu.compress(differ), lv.compress(differ)


def _relabel(f: np.ndarray, lu: np.ndarray, lv: np.ndarray) -> list:
    # the label pairs (lu, lv) after a jump, less those now joined, as parts
    # per pair range, filtered by compress (``_unjoined``)
    return [_unjoined(f.take(lu[s], mode="clip"), f.take(lv[s], mode="clip")) for s in _tasks(lu.size)]


def _relabel_direction(f: np.ndarray, i: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the label pairs of direction i's open edges (u, u | 2^i) after the
    # first jump, less those already joined.  One intp copy of u indexes
    # both gathers, where each int32 index would be converted on its own
    at = u.astype(np.intp)
    lu = f.take(at, mode="clip")
    at |= 1 << i
    return _unjoined(lu, f.take(at, mode="clip"))


def _concatenated(arrays: list) -> np.ndarray:
    # the int32 arrays of the list as one, in order.  The list is emptied
    # as it is copied, from the back, so that each part is freed once copied
    # and the parts are never all held beside their copy; one part is
    # returned as it is
    if len(arrays) == 1:
        return arrays.pop()
    out = np.empty(sum(a.size for a in arrays), dtype=np.int32)
    end = out.size
    while arrays:
        part = arrays.pop()
        out[end - part.size:end] = part
        end -= part.size
    return out


def _joined(parts: list) -> tuple[np.ndarray, np.ndarray]:
    # the label pairs of the parts, in order, as one list each; ``parts``
    # is emptied, so that the caller holds no pair twice
    lus, lvs = [lu for lu, _ in parts], [lv for _, lv in parts]
    parts.clear()
    return _concatenated(lus), _concatenated(lvs)


def _gather(src: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # out = src[idx], in place in idx by default, by ranges: np.take casts
    # a range's index to an intp copy before it writes; returns out
    out = idx if out is None else out
    for s in _tasks(idx.size):
        src.take(idx[s], out=out[s], mode="clip")
    return out


def _rank_range(f: np.ndarray, rank: np.ndarray, k: int, s: slice) -> int:
    # ids k, k + 1, ... to the roots (f[x] = x) of a vertex range, in order;
    # returns how many there are.  Its temporaries die on return, before the
    # next range allocates its own
    at = (f[s] == np.arange(s.start, s.stop, dtype=f.dtype)).nonzero()[0]
    if s.start:
        at += s.start
    rank[at] = np.arange(k, k + at.size, dtype=f.dtype)
    return at.size


def _compact(f: np.ndarray, rank: np.ndarray) -> tuple[int, list]:
    # number the k roots (f[x] = x) of the star f 0..k-1 in increasing
    # order, then map f in place to each vertex's root id; ``rank`` is
    # scratch of f's length (a root's id, negative elsewhere).  Returns k
    # and the roots as bitmaps per range, (range, packed bits), read off
    # rank after the map, so that no bitmap is held beside the map's
    # gathers.  The numbering is one sequential pass over f by ranges
    np.invert(f, out=rank)  # -f - 1 < 0 until a root's id is written
    k = 0
    for s in _tasks(f.size):
        k += _rank_range(f, rank, k, s)
    _gather(rank, f)
    return k, [(s, np.packbits(rank[s] >= 0)) for s in _tasks(f.size)]


def _roots(bits: list, k: int, offset: int = 0) -> np.ndarray:
    # the k roots that ``_compact`` packed, as vertices in increasing order
    # plus ``offset``: root id j's vertex at [j]
    out = np.empty(k, dtype=np.int32)
    j = 0
    for s, packed in bits:
        # nonzero on bool, ~8x faster than on unpackbits' uint8
        at = np.unpackbits(packed, count=s.stop - s.start).view(bool).nonzero()[0]
        if s.start + offset:
            at += s.start + offset
        out[j:j + at.size] = at
        j += at.size
    return out


# Below this many open edges per direction on average, the first relabel
# joins the endpoints into one pair list: a call per direction costs more
# than it saves (``label_sample``).
_DIRECT = 1 << 11


def _first_phase(f: np.ndarray, scratch: list, bases: list[np.ndarray]) -> tuple[int, list, list]:
    # the labeling's first phase over f = identity, in f's own vertex ids:
    # the hook, the first jump, the root numbering and the first relabel.
    # ``scratch`` holds one array of f's length; it is taken out of the
    # list, so that it is freed after the numbering, before the relabel
    # allocates.  Returns k, the root bitmaps and the unjoined pairs as parts
    for i, u in enumerate(bases):
        f[np.bitwise_or(u, 1 << i, dtype=np.intp)] = u
    spare = scratch.pop()
    _jump(f, spare)
    k, bits = _compact(f, spare)
    del spare
    if sum(u.size for u in bases) < _DIRECT * len(bases):  # small directions: one list of all endpoints
        return k, bits, _relabel(f, np.concatenate(bases), np.concatenate([u | (1 << i) for i, u in enumerate(bases)]))
    return k, bits, list(map(partial(_relabel_direction, f), range(len(bases)), bases))


def _later_rounds(k: int, parts: list, fk: np.ndarray | None = None) -> np.ndarray:
    # the labels fk of the root ids 0..k-1 after the later rounds along the
    # unjoined label pairs of ``parts`` (emptied by the join): hook, jump,
    # relabel until no pair is left.  They start from ``fk``, a star over
    # the ids, or from the identity, allocated only after the join
    lu, lv = _joined(parts)
    fk = np.arange(k, dtype=np.int32) if fk is None else fk
    while lu.size:
        np.minimum.at(fk, np.maximum(lu, lv), np.minimum(lu, lv))
        _jump(fk, np.empty_like(fk))
        parts = _relabel(fk, lu, lv)
        del lu, lv
        lu, lv = _joined(parts)
    return fk


def _result(f: np.ndarray, sizes: np.ndarray, labels: np.ndarray, open_edges: int) -> ComponentLabeling:
    # the labeling of the vertex labels f, given its component sizes and
    # labels by ascending label: l1 is the largest size, at the first index
    # that holds it, and l2 the largest of the others (l1 again on a tie, 0
    # for one component).  Two reductions: np.partition, which copies and
    # selects, took 6.0 ms against 0.065 ms on the 156,599 mostly equal
    # sizes of a d = 20, c = 2 draw
    top = int(sizes.argmax())
    return ComponentLabeling(
        l1=int(sizes[top]),
        l2=int(max(sizes[:top].max(initial=0), sizes[top + 1:].max(initial=0))),
        component_sizes=sizes,
        n_components=int(sizes.size),
        open_edges=open_edges,
        _vertex_labels=f,
        _component_labels=labels,
    )


def _labeled(f: np.ndarray, scratch: list, bases: list[np.ndarray], offset: int) -> tuple[np.ndarray, np.ndarray]:
    # a part of the cube, the whole or a half, labeled in its own ids from
    # f = identity: the first phase and the later rounds over its bases,
    # one array per direction.  ``bases`` is emptied once the first phase
    # has read it, so that a fresh list is freed before the later rounds.
    # Returns the labels of its root ids and its roots as vertices of the
    # cube: its own ids plus ``offset``
    k, bits, parts = _first_phase(f, scratch, bases)
    bases.clear()
    return _later_rounds(k, parts), _roots(bits, k, offset)


def _counted(fk: np.ndarray, f: np.ndarray, ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a part's labels f mapped from its root ids to vertex labels through
    # fk, in place; returns the sizes and the labels of the components in
    # f, by ascending label.  ``ordered`` is scratch of f's length, f
    # sorted.  On the giant-dominated labels of a supercritical draw the
    # sort beats bincount, and it needs no intp copy of f or n-length int64
    # counts
    _gather(fk, f)
    np.copyto(ordered, f)
    ordered.sort()
    first = np.empty(f.size + 1, dtype=bool)  # a label starts at k; k = n closes the last
    first[0] = first[f.size] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:-1])
    starts = first.nonzero()[0]
    del first
    return starts[1:] - starts[:-1], ordered[starts[:-1]]


def _label_whole(g: CubeGraph, bases: list[np.ndarray]) -> ComponentLabeling:
    # the labeling on this thread (see label_sample)
    f = np.arange(g.n, dtype=np.int32)
    open_edges = sum(u.size for u in bases)
    fk, roots = _labeled(f, [np.empty_like(f)], bases, 0)
    _gather(roots, fk)  # each root id's label, as a vertex
    del roots
    return _result(f, *_counted(fk, f, np.empty_like(f)), open_edges)


def _half(f: np.ndarray, scratch: list, bases_of: Callable[[range], list], window: range) -> tuple:
    # one half labeled in its own ids (``_labeled``) over its ``window`` of
    # every direction's counters, the top direction's bases left for the
    # join as lower-half vertices: a window from counter s holds them from
    # vertex s, and the half's own vertices from 2s.  Returns (top bases,
    # open edges, the labels of the root ids, the roots as vertices)
    f[:] = np.arange(f.size, dtype=f.dtype)
    bases = bases_of(window)
    top = bases.pop()
    top += window.start
    opened = top.size + sum(u.size for u in bases)
    return top, opened, *_labeled(f, scratch, bases, 2 * window.start)


def _top_pairs(fa: np.ndarray, fb: np.ndarray, fk: np.ndarray, ka: int, tops: tuple) -> list:
    # the label pairs (fk[fa[u]], fk[ka + fb[u]]) of the top direction's
    # open edges (u, u + 2^(d-1)), as parts per range; a lower and an upper
    # label, so never joined yet
    return [
        (fk.take(fa.take(top[s], mode="clip"), mode="clip"), fk[ka:].take(fb.take(top[s], mode="clip"), mode="clip"))
        for top in tops
        for s in _tasks(top.size)
    ]


def _merged(h: int, lower: tuple, upper: tuple) -> tuple[np.ndarray, np.ndarray]:
    # the sizes and labels of the cube's components from each half's.  A
    # label is its component's minimum, so an upper label below h is a
    # lower vertex's label, in the lower list: its count is added there.
    # The other upper labels are upper components', above every lower one
    (sizes_a, labels_a), (sizes_b, labels_b) = lower, upper
    j = int(np.searchsorted(labels_b, h))
    sizes_a[np.searchsorted(labels_a, labels_b[:j])] += sizes_b[:j]
    return np.concatenate((sizes_a, sizes_b[j:])), np.concatenate((labels_a, labels_b[j:]))


def _label_halves(g: CubeGraph, bases_of: Callable[[range], list]) -> ComponentLabeling:
    # the labeling with each half on a thread of its own (see label_sample),
    # each over its half of every direction's counters.  f and every
    # half-length scratch array are allocated on this thread
    h = g.n >> 1
    f = np.empty(g.n, dtype=np.int32)
    fa, fb = f[:h], f[h:]
    (top_a, open_a, fk_a, roots_a), (top_b, open_b, fk_b, roots_b) = _side_by_side(
        partial(_half, fa, [np.empty(h, dtype=np.int32)], bases_of, range(h >> 1)),
        partial(_half, fb, [np.empty(h, dtype=np.int32)], bases_of, range(h >> 1, h)),
    )
    ka, kb = fk_a.size, fk_b.size
    fk = np.empty(ka + kb, dtype=np.int32)  # the upper half's ids follow the lower half's ka
    fk[:ka] = fk_a
    np.add(fk_b, ka, out=fk[ka:])
    del fk_a, fk_b
    fk = _later_rounds(ka + kb, _top_pairs(fa, fb, fk, ka, (top_a, top_b)), fk)
    del top_a, top_b
    roots = np.concatenate((roots_a, roots_b))
    del roots_a, roots_b
    _gather(roots, fk)  # each root id's label, as a vertex
    del roots
    ordered = np.empty_like(f)
    counts = _side_by_side(partial(_counted, fk[:ka], fa, ordered[:h]), partial(_counted, fk[ka:], fb, ordered[h:]))
    del fk, ordered
    return _result(f, *_merged(h, *counts), open_a + open_b)


def label_components(g: CubeGraph, open_edges) -> ComponentLabeling:
    """``label_sample``'s labeling of an EdgeSample or a boolean mask over
    edge indices; direction i owns the indices [i * 2^(d-1), (i+1) * 2^(d-1))."""
    mask = open_edges.open_mask if isinstance(open_edges, EdgeSample) else np.asarray(open_edges, dtype=bool)
    if mask.shape != (g.m,):
        raise ValueError(f"open mask must have shape ({g.m},), got {mask.shape}")
    rows = mask.reshape(g.d, -1)
    return label_windows(g, lambda window: [direction_bases(row[window.start:window.stop], i) for i, row in enumerate(rows)])


def label_windows(g: CubeGraph, bases_of: Callable[[range], list], threads: int = 1) -> ComponentLabeling:
    """The labeling of the open edges that ``bases_of(window)`` gives for a
    window of every direction's counters (``sample_directions``): for each
    direction i, the ``direction_bases(open, i)`` of the window's open bits,
    unshifted, so entry k is counter window.start + k, in a list of its own,
    which the labeling empties, of arrays it may write to.  On one thread
    the window is all 2^(d-1) counters and the bases are the cube's
    vertices.  With ``threads`` >= 2 each half of the cube calls ``bases_of``
    on its own half of the counters, on a thread of its own, and gets its
    own vertex ids below the top direction; its top direction's bases are
    shifted by window.start where the halves split, to lower-half vertices
    (see ``label_sample``).  Both thread counts run one labeling core: the
    first phase, the later rounds and the roots of a part of the cube (the
    whole or a half), then its map back to vertex labels and its count."""
    if _checked(threads) == 1 or g.d == 1:
        return _label_whole(g, bases_of(range(g.n >> 1)))
    return _label_halves(g, bases_of)


def _sample_bases(g: CubeGraph, key: SampleKey, p: float, window: range) -> list[np.ndarray]:
    # the open base endpoints of every direction over a window of its
    # counters, sampled into one buffer, as label_windows takes them
    return [direction_bases(mask, i) for i, mask in enumerate(sample_directions(g, key, p, window))]


def label_sample(g: CubeGraph, key: SampleKey, p: float, threads: int = 1) -> ComponentLabeling:
    """Label every vertex of Q^d with its component in the draw
    ``sample_edges(g, key, p)``, as ``label_components`` would, streamed:
    each direction is sampled into one reused buffer and kept only as the
    int32 base endpoints u of its open edges (u, u | 2^i), as
    ``direction_bases`` gives them, so the m-length mask is never held.

    Min-label hooking with pointer jumping (Shiloach & Vishkin 1982): start
    from f = identity; while some open edge (u, v) has f[u] != f[v], hook the
    larger of the two labels onto the smaller (np.minimum.at), then jump
    f -> f[f] to its fixed point.  Each round hooks at least one root onto a
    smaller vertex, so the loop ends.

    The first hook runs against the identity one direction at a time, in
    increasing order: direction i writes f[u | 2^i] = u.  Any such write
    keeps f[v] < v in v's component, and as u = v - 2^i falls with i, the
    last write is v's smallest open lower neighbour, as np.minimum.at would
    leave it.  The hook scatters through intp indices: at d = 20 and c = 2
    it took 6.3 ms on one thread against 9.0 ms through int32 ones (best of
    7).  After the first jump each direction is relabeled on its own: f
    gathered at its bases u and at u | 2^i, keeping only the pairs still
    unjoined, so no array of all the endpoints is built.  Where the
    directions average fewer than ``_DIRECT`` open edges, a call per
    direction costs more than it saves, and the endpoints are joined into
    one pair list and relabeled by ranges like a later round.  From then on
    the loop carries only the label pairs (lu, lv) of the edges still
    unjoined, not the edges: hooks write only roots and f is a star after
    jumping, so u's new label f'[u] equals f'[f[u]], i.e. lu -> f[lu].

    After the first jump the labeling contracts onto its k roots
    (``_compact``): they are numbered 0..k-1 in increasing vertex order by
    one sequential pass over f, and f is mapped in place to each vertex's
    root id.  The first relabel, on either branch, gathers these ids, and
    every later round (np.minimum.at, the pointer jumps and the pair
    relabels) runs on a k-length array fk over the root ids, so no later
    jump reads all n labels.  At d = 20 and c = 2 the first jump leaves
    ~36 % of the vertices as roots.  When no pair is left, f is mapped
    through its root ids and fk to vertex labels, in place.

    A pointer jump over more than ``_TASK`` labels ends sparse (Ligra's
    active set, Shun & Blelloch 2013): only a label that moved in a pass
    can move in the next, so once a full pass moves at most 1/8 of the
    labels, the passes after it visit the labels it moved alone.  The first jump of a d = 20, c = 2 draw
    moves ~39 %, 23 % and 7 % of the labels in full passes, then the rest
    sparsely, where two more full passes moved 0.3 % and none; the last
    later round's one full pass over the ~4 * 10^5 root ids moves a few
    hundred of them.

    With ``threads`` >= 2 (any such count; d >= 2) the two halves of the
    cube are labeled side by side (``label_windows``).  Q^d is two copies
    of Q^(d-1), the vertices below 2^(d-1) and those above, joined by the
    perfect matching of the top direction d - 1.  Each half samples its own
    window of every direction's counters (the counters are keyed, so the
    split moves no bit) and runs the same core as the whole cube, first
    phase, later rounds and root unpacking, in its own vertex ids, the
    lower half on the calling thread and the upper on a second one; only
    its top direction's bases, shifted to lower-half vertices, are left
    for the join.  The calling thread then joins them: the upper half's
    root ids follow the lower half's k_A, each half's labels of its root
    ids start the joined labels fk, and each open top edge (u, u + 2^(d-1))
    adds the pair (fk[f_A[u]], fk[k_A + f_B[u]]).  The later rounds run
    unchanged on the k_A + k_B root ids along these pairs, and fk is
    mapped to vertices.  Each half then maps back to vertex labels, sorts
    them and counts its components on its own thread, as the whole cube
    does on one, and the calling thread merges the two lists: an upper
    label below 2^(d-1) names a component whose minimum is a lower vertex,
    so it is in the lower list, and its count is added there; the other
    upper labels follow the lower ones.  So one labeling forks twice, and
    the later rounds of each half, which at d = 24 took a third of a
    two-thread labeling when they ran after the join, run side by side as
    well.  The two threads share no array they write: each writes its own
    half of f, of the scratch and of the sort's copy, which the calling
    thread allocates, so that the largest arrays do not live in the second
    thread's malloc arena.

    Memory decides where each array lives.  The scratch array (the first
    jump's spare, then the numbering's ranks) is the one extra n-length
    array, and it is freed before the first relabel.  While the bases are
    alive the roots are held only as a packed bitmap (n / 8 bytes); the
    int32 roots are unpacked from it after the later rounds, when the pair
    lists are gone.  The pair parts are joined into one list while each
    part is freed once copied.  fk is allocated only after that join:
    allocated before it, it left a d = 24 labeling on one CPU up to 17 MB
    (7 %) more peak RSS, with the same traced peak.

    Labels come out canonical with no relabeling pass.  f[x] is always a
    vertex of x's component and f[x] <= x, so a component's minimum never
    moves off itself, and so a component's minimum vertex is always a
    first-jump root (of its half, on two threads).  The numbering keeps the
    vertex order, the lower half's ids before the upper half's, so the
    rounds over root ids name each component by its minimum id, which is
    the id of its minimum root.  When the loop ends every open edge joins
    equal labels, so each component has exactly one root id, and it maps
    back to the component's minimum vertex.  The component sizes are
    counted from the sorted labels; on two threads each half sorts and
    counts its own.

    Every pass (the jumps, the relabels, the gathers) runs over ranges of
    at most ``_TASK`` entries, so that np.take's intp copy of an index
    stays small.  The labels, and every field of the result, are the same
    to the byte for any thread count.
    """
    return label_windows(g, partial(_sample_bases, g, key, p), threads)


def extend(labeling: ComponentLabeling, extra: list) -> ComponentLabeling:
    """The labeling after more edges open: ``extra`` lists (i, u), the int32
    base endpoints u, in vertex ids, of open edges (u, u | 2^i) of
    direction i that ``labeling`` did not count.

    The new components are the labeling's components joined along the new
    edges, so the hooking runs over its k component ids alone, numbered in
    ascending label order.  One n-length table maps each component's label
    to its id; the new edges' endpoints are gathered through the vertex
    labels and the table, the pairs still unjoined run through the later
    rounds of ``label_sample`` over the ids, and every id ends labeled by
    the smallest id joined to it, which is the id of the smallest label.
    The sizes are the joined components' sums (np.add.at of the old sizes
    over the ids), and the table, rewritten to each component's new label,
    maps every vertex in one ranged gather.  No sort and no n-length jump
    runs; the result equals the labeling of both edge sets at once, to
    every field.
    """
    f, labels = labeling._vertex_labels, labeling._component_labels
    k = labeling.n_components
    table = np.empty(f.size, dtype=np.int32)  # only its entries at labels are read
    table[labels] = np.arange(k, dtype=np.int32)
    # each new edge's endpoints (u, u | 2^i), as the ids of their components
    ends = [table.take(f.take(np.stack((u, u | (1 << i))), mode="clip"), mode="clip") for i, u in extra]
    fk = _later_rounds(k, [_unjoined(lu, lv) for lu, lv in ends])
    sizes = np.zeros(k, dtype=np.intp)
    np.add.at(sizes, fk, labeling.component_sizes)
    roots = (fk == np.arange(k, dtype=fk.dtype)).nonzero()[0]  # the ids that label themselves
    table[labels] = labels[fk]  # each component's label to its new one
    out = _gather(table, f, np.empty_like(f))
    return _result(out, sizes[roots], labels[roots], labeling.open_edges + sum(u.size for _, u in extra))


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
    big = np.zeros(labeling._vertex_labels.size, dtype=bool)
    big[labeling._component_labels[labeling.component_sizes >= threshold]] = True
    # a gather by np.take (every label is a vertex, so clip mode moves
    # none), ~2x faster than big[labels]; by _TASK ranges, since np.take
    # copies its whole index to intp (128 MB at d = 24)
    members = _gather(big, labeling._vertex_labels, np.empty(big.size, dtype=bool))
    return WSet(members=members, density=np.count_nonzero(members) / members.size)


def size_gap_count(labeling: ComponentLabeling, lo: int, hi: int) -> int:
    """Number of components with size in [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty window: lo={lo} > hi={hi}")
    sizes = labeling.component_sizes
    return int(np.count_nonzero((sizes >= lo) & (sizes <= hi)))


# _LOW_HALF[i] has bit b set iff bit i of b is 0: the bits that a flip in
# direction i < 6 moves up by 2^i inside a 64-bit word
_LOW_HALF = [np.uint64(w) for w in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
)]


def _or_flipped(out: np.ndarray, words: np.ndarray, i: int) -> None:
    # out |= the vertex set of ``words`` moved by v -> v XOR 2^i
    if i < 6:
        shift = np.uint64(1 << i)
        out |= (words & _LOW_HALF[i]) << shift
        out |= (words >> shift) & _LOW_HALF[i]
    else:
        blocks = (-1, 2, 1 << (i - 6))
        out.reshape(blocks)[...] |= words.reshape(blocks)[:, ::-1, :]


def _packed(mask: np.ndarray) -> np.ndarray:
    # the vertex set of a boolean mask as little-endian uint64 words, vertex
    # v at bit v % 64 of word v // 64, zero-padded to at least one word
    words = np.zeros(max(mask.size, 64) // 64, dtype="<u8")
    words.view(np.uint8)[:(mask.size + 7) // 8] = np.packbits(mask, bitorder="little")
    return words


def distance_to_set(g: CubeGraph, members: np.ndarray) -> tuple[np.ndarray, int]:
    """Multi-source BFS distances in the FULL cube from the member set, given
    as a boolean mask of shape (2^d,).

    Returns (per-vertex int32 distance array, maximum distance).  The
    percolated subgraph plays no role here; this measures how well the set
    spreads through Q^d itself.

    The frontier and the unseen set are packed, vertex v at bit v % 64 of
    uint64 word v // 64, with n padded to at least one word.  A flip in
    direction i < 6 is a masked shift inside each word; one in direction
    i >= 6 swaps blocks of 2^(i-6) words.  Bits at or above n are never set,
    since each flip maps [0, 2^d) to itself.

    The distances are counted, not stored level by level: dist[v] is the
    number of BFS levels k >= 0 at which v is still unseen, because v is
    unseen exactly at the levels k < dist(v).  So dist starts as ~members
    (level 0) and adds the unpacked unseen set after each new level, one
    branch-free pass each, where a masked store dist[new] = k would take
    numpy's boolean-index path.  The level that empties the unseen set adds
    nothing and is skipped.
    """
    if not isinstance(members, np.ndarray) or members.dtype != bool or members.shape != (g.n,):
        raise ValueError(f"members must be a boolean mask of shape ({g.n},)")
    if not members.any():
        raise ValueError("member set must be nonempty")
    dist = (~members).astype(np.int32)
    frontier, unseen = _packed(members), _packed(~members)
    nbr = np.empty_like(frontier)
    level = 0
    while unseen.any():
        nbr[:] = 0
        for i in range(g.d):
            _or_flipped(nbr, frontier, i)
        nbr &= unseen
        unseen ^= nbr
        level += 1
        if unseen.any():
            dist += np.unpackbits(unseen.view(np.uint8), count=g.n, bitorder="little")
        frontier, nbr = nbr, frontier
    return dist, level


def write_histogram_csv(labeling: ComponentLabeling, path) -> None:
    """Component-size histogram as CSV (size,count), sizes ascending."""
    sizes, counts = np.unique(labeling.component_sizes, return_counts=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "count"])
        writer.writerows(zip(sizes.tolist(), counts.tolist()))
