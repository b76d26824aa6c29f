import sys
import threading
from collections import Counter, deque
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubeperc.components as components
from cubeperc.components import (
    _TASK,
    ExplorationResult,
    _tasks,
    distance_to_set,
    explore_component,
    extend,
    label_components,
    label_sample,
    label_windows,
    size_gap_count,
    w_set,
    write_histogram_csv,
)
from cubeperc.experiments import ExperimentConfig, _round1_bases, _sprinkling_trial, run_experiment
from cubeperc.hypercube import CubeGraph, EdgeRef, direction_bases, edge_endpoint_arrays, edge_index, export_adjacency
from cubeperc.sampler import BitStream, EdgeKeyedBitSource, SampleKey, sample_edges


def _mask_from_subset(g, subset):
    mask = np.zeros(g.m, dtype=bool)
    for e in subset:
        mask[e] = True
    return mask


def _closure_components(g, mask):
    # independent oracle: boolean transitive closure by repeated squaring; the
    # float32 product counts paths, at most n <= 2^24, so "> 0" is exact
    n = g.n
    us, vs = edge_endpoint_arrays(g)
    reach = np.eye(n, dtype=bool)
    reach[us[mask], vs[mask]] = True
    reach[vs[mask], us[mask]] = True
    while True:
        r = reach.astype(np.float32)
        nxt = reach | (r @ r > 0)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    labels = np.array([int(np.flatnonzero(row)[0]) for row in reach])
    return labels


def _vertex_sizes(lab):
    # each vertex's component size: component_sizes lists the sizes by
    # ascending label, so a vertex's size sits at its label's rank
    return lab.component_sizes[np.unique(lab.labels, return_inverse=True)[1]]


def _assert_matches_closure(g, mask):
    # every field of the labeling against the closure oracle
    lab = label_components(g, mask)
    oracle = _closure_components(g, mask).tolist()
    sizes = Counter(oracle)
    ranked = sorted(sizes.values(), reverse=True) + [0]
    assert lab.labels.dtype == np.int64
    assert lab.labels.tolist() == oracle
    assert _vertex_sizes(lab).tolist() == [sizes[x] for x in oracle]
    assert lab.component_sizes.tolist() == [sizes[x] for x in sorted(sizes)]
    assert lab.n_components == len(sizes)
    assert (lab.l1, lab.l2) == (ranked[0], ranked[1])
    return lab


def test_label_no_open_edges():
    g = CubeGraph(4)
    lab = label_components(g, np.zeros(g.m, dtype=bool))
    assert lab.l1 == 1
    assert lab.l2 == 1
    assert lab.n_components == g.n
    assert lab.component_sizes.tolist() == [1] * g.n


def test_label_all_open():
    g = CubeGraph(4)
    lab = label_components(g, np.ones(g.m, dtype=bool))
    assert lab.l1 == g.n
    assert lab.l2 == 0  # single component
    assert lab.n_components == 1


def test_label_hand_traced_q2():
    # Q^2 is the cycle 0-1-3-2-0; edge ids: (0,1)=0, (2,3)=1, (0,2)=2, (1,3)=3
    g = CubeGraph(2)
    mask = np.zeros(4, dtype=bool)
    mask[0] = True  # (0,1)
    mask[3] = True  # (1,3)
    lab = label_components(g, mask)
    assert lab.l1 == 3
    assert lab.l2 == 1
    assert lab.labels.tolist() == [0, 0, 2, 0]
    assert _vertex_sizes(lab).tolist() == [3, 3, 1, 3]


def test_label_canonical_min_vertex():
    g = CubeGraph(3)
    lab = label_components(g, sample_edges(g, SampleKey(5), 0.4))
    vertex_sizes = _vertex_sizes(lab)
    for v in range(g.n):
        members = [u for u in range(g.n) if lab.labels[u] == lab.labels[v]]
        assert lab.labels[v] == min(members)
        assert vertex_sizes[v] == len(members)


@pytest.mark.parametrize("d", [2, 3])
def test_label_matches_transitive_closure_exhaustively(d):
    g = CubeGraph(d)
    for subset in range(1 << g.m):
        mask = np.array([(subset >> e) & 1 for e in range(g.m)], dtype=bool)
        lab = label_components(g, mask)
        oracle = _closure_components(g, mask)
        assert np.array_equal(lab.labels, oracle)


@given(
    st.integers(1, 6),
    st.integers(0, 2**64 - 1),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
@settings(max_examples=80, deadline=None)
def test_label_matches_closure_on_keyed_masks(d, seed, p):
    g = CubeGraph(d)
    _assert_matches_closure(g, sample_edges(g, SampleKey(seed), p).open_mask)


def _distance_reference(g, members):
    # the BFS as first written: one bool per vertex, each flip a reversed view
    def flip(arr, i):
        return arr.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(arr.shape)

    dist = np.full(g.n, -1, dtype=np.int32)
    dist[members] = 0
    frontier, level = members, 0
    while True:
        nbr = np.zeros(g.n, dtype=bool)
        for i in range(g.d):
            nbr |= flip(frontier, i)
        frontier = nbr & (dist < 0)
        if not frontier.any():
            return dist, int(dist.max())
        level += 1
        dist[frontier] = level


def _labeling_fields(lab, threshold, g):
    members = w_set(lab, threshold).members
    max_dist = distance_to_set(g, members)[1] if members.any() else -1
    return (
        lab.labels.tolist(),
        _vertex_sizes(lab).tolist(),
        lab.component_sizes.tolist(),
        lab.l1,
        lab.l2,
        lab.n_components,
        lab.open_edges,
        members.tolist(),
        max_dist,
    )


@given(
    st.integers(1, 13),  # one sampling call for every direction through d = 12, one per direction at d = 13
    st.integers(0, 2**64 - 1),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_label_sample_matches_adapter_and_oracle(d, seed, p, data):
    # the streamed trial path against label_components(sample_edges) and,
    # where the n x n closure fits, the closure oracle
    g = CubeGraph(d)
    key = SampleKey(seed, data.draw(st.integers(0, 2**32 - 1), label="trial"))
    threshold = data.draw(st.integers(1, g.n), label="threshold")
    sample = sample_edges(g, key, p)
    streamed = _labeling_fields(label_sample(g, key, p), threshold, g)
    assert streamed == _labeling_fields(label_components(g, sample), threshold, g)
    assert streamed[6] == sample.open_count
    if d <= 7:
        oracle = _closure_components(g, sample.open_mask)
        sizes = Counter(oracle.tolist())
        members = np.array([sizes[x] >= threshold for x in oracle.tolist()])
        assert streamed[0] == oracle.tolist()
        assert streamed[2] == [sizes[x] for x in sorted(sizes)]
        assert streamed[7] == members.tolist()
        assert streamed[8] == (_distance_reference(g, members)[1] if members.any() else -1)


@pytest.mark.parametrize("d", [14, 15])  # one buffer per direction, one and two blocks each
def test_label_sample_matches_adapter_per_direction(d):
    g = CubeGraph(d)
    for trial, p in enumerate((0.0, 1.0, 2 / d, 1.2 / d)):
        key = SampleKey(99, trial)
        assert _labeling_fields(label_sample(g, key, p), d * d, g) == _labeling_fields(
            label_components(g, sample_edges(g, key, p)), d * d, g
        )


def _label_bases(g, bases, threads=1):
    # the labeling of the given bases of every direction (``direction_bases``)
    # through label_windows: a window of counters from s to t holds each
    # direction's sorted bases from vertex 2s to 2t below the top direction
    # and from s to t in it, in the window's own ids.  The windows are the
    # whole cube's on one thread and each half's on two or more
    def bases_of(window):
        out = []
        for i, u in enumerate(bases):
            scale = 1 if i == g.d - 1 else 2
            lo, hi = scale * window.start, scale * window.stop
            out.append(u[np.searchsorted(u, lo):np.searchsorted(u, hi)] - lo)
        return out

    return label_windows(g, bases_of, threads)


def _all_fields(lab):
    # every ComponentLabeling field, the per-vertex forms included
    return (
        lab.l1,
        lab.l2,
        lab.component_sizes.tolist(),
        lab.n_components,
        lab.open_edges,
        lab._vertex_labels.tolist(),
        lab._component_labels.tolist(),
        lab.labels.tolist(),
        _vertex_sizes(lab).tolist(),
    )


@given(
    st.integers(1, 10),
    st.integers(0, 2**64 - 1),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
@settings(max_examples=40, deadline=None)
def test_label_bases_equal_across_thread_counts(d, seed, p):
    # the halves (any thread count >= 2) give the one-thread labeling to the
    # field, and that labeling is the closure oracle's; with _TASK at 7
    # every pass of more than 7 entries runs over several ranges, as on a
    # large cube
    g = CubeGraph(d)
    mask = sample_edges(g, SampleKey(seed), p).open_mask
    bases = [direction_bases(row, i) for i, row in enumerate(mask.reshape(d, -1))]
    serial = _all_fields(_label_bases(g, bases))
    assert serial[7] == _closure_components(g, mask).tolist()
    for threads in (2, 3, 5):
        assert _all_fields(_label_bases(g, bases, threads)) == serial
    with mock.patch.object(components, "_TASK", 7):
        for threads in (1, 2, 3, 5):
            assert _all_fields(_label_bases(g, bases, threads)) == serial


def _bfs_labels(g, mask):
    # pure-Python oracle: a BFS from each unlabeled vertex in increasing
    # order names its component by the component's minimum vertex
    open_rows = mask.reshape(g.d, -1).tolist()
    labels = [-1] * g.n
    for root in range(g.n):
        if labels[root] >= 0:
            continue
        labels[root] = root
        queue = [root]
        for u in queue:
            for i, row in enumerate(open_rows):
                w = u ^ (1 << i)
                base = min(u, w)
                if labels[w] < 0 and row[((base >> (i + 1)) << i) | (base & ((1 << i) - 1))]:
                    labels[w] = root
                    queue.append(w)
    return labels


def _assert_matches_bfs(g, mask, lab):
    # the labeling's labels, sizes and counts against the BFS oracle
    oracle = _bfs_labels(g, mask)
    sizes = Counter(oracle)
    ranked = sorted(sizes.values(), reverse=True) + [0]
    assert lab.labels.tolist() == oracle
    assert lab.component_sizes.tolist() == [sizes[x] for x in sorted(sizes)]
    assert (lab.l1, lab.l2, lab.n_components, lab.open_edges) == (ranked[0], ranked[1], len(sizes), mask.sum())


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("p", [0.1, 0.5])
@pytest.mark.parametrize("d", [10, 11, 12, 13])
def test_label_bases_on_both_sides_of_one_task_range(d, p, threads):
    # both sides of a pass that fits one _TASK range: with _TASK at 2048, a
    # whole cube of n = 1024 and 2048 jumps in one range and n = 4096 and
    # 8192 over two or more; on two threads a half of d = 12 (2048
    # vertices) jumps in one and a half of d = 13 over two.  The pair lists
    # fall on either side as well
    g = CubeGraph(d)
    mask = sample_edges(g, SampleKey(2**33 + d, 7), p).open_mask
    with mock.patch.object(components, "_TASK", 1 << 11):
        lab = _label_bases(g, [direction_bases(row, i) for i, row in enumerate(mask.reshape(d, -1))], threads)
    _assert_matches_bfs(g, mask, lab)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("p", [0.1, 0.5])
@pytest.mark.parametrize("d", [10, 11, 12])
def test_label_bases_on_both_sides_of_direct(monkeypatch, d, p, threads):
    # the same draw with the first relabel per direction (_DIRECT at 1) and
    # as one list of all endpoints (_DIRECT above any open-edge count), on
    # the whole cube and on each half
    calls = []
    real = components._relabel_direction
    monkeypatch.setattr(components, "_relabel_direction", lambda f, i, u: calls.append(i) or real(f, i, u))
    g = CubeGraph(d)
    mask = sample_edges(g, SampleKey(2**33 + d, 7), p).open_mask
    bases = [direction_bases(row, i) for i, row in enumerate(mask.reshape(d, -1))]
    for direct in (1, 1 << 30):
        calls.clear()
        with mock.patch.object(components, "_DIRECT", direct):
            lab = _label_bases(g, bases, threads)
        assert bool(calls) == (direct == 1)
        _assert_matches_bfs(g, mask, lab)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize(
    "d, p, closed, whole, halves",
    [
        # ids d-p-closed-whole
        pytest.param(*row, id="-".join(map(str, row[:4])))
        for row in [
            (8, 0.2, None, False, False),  # 205 open edges: one list of all endpoints
            (8, 0.2, 3, False, False),
            (13, 0.6, None, True, False),  # ~2460 open edges per direction, ~1230 per half
            (13, 0.6, 0, True, False),
            (13, 0.6, 12, True, False),  # the top direction closed
            (14, 0.6, None, True, True),  # ~2460 per direction of a half
            (14, 0.6, 0, True, True),
            (14, 0.6, 13, True, True),
            (9, 0.0, None, False, False),
            (9, 1.0, None, False, False),  # 256 per direction
            (12, 1.0, None, True, False),  # 2048 = _DIRECT per direction
            (13, 1.0, None, True, True),  # 2048 = _DIRECT per direction of a half
        ]
    ],
)
def test_first_relabel_per_direction(monkeypatch, d, p, closed, whole, halves, threads):
    # the first relabel on both sides of _DIRECT open edges per direction,
    # of the whole cube on one thread and of each half on two, with a
    # direction that has no open edge, and at p = 0 and 1.  Each half
    # relabels its d - 1 directions on its own; the top direction's pairs
    # are gathered where the halves join.  The caller's base arrays come
    # back unchanged
    calls = Counter()
    lock = threading.Lock()
    real = components._relabel_direction

    def counting(f, i, u):
        with lock:
            calls[i] += 1
        return real(f, i, u)

    monkeypatch.setattr(components, "_relabel_direction", counting)
    g = CubeGraph(d)
    mask = sample_edges(g, SampleKey(2**41 + d, 3), p).open_mask.copy()
    rows = mask.reshape(d, -1)
    if closed is not None:
        rows[closed] = False
    bases = [direction_bases(row, i) for i, row in enumerate(rows)]
    kept = [u.copy() for u in bases]
    lab = _label_bases(g, bases, threads)
    if threads == 1:
        assert calls == (Counter(range(d)) if whole else Counter())
    else:
        assert calls == (Counter(2 * list(range(d - 1))) if halves else Counter())
    assert all(np.array_equal(u, k) and u.dtype == k.dtype for u, k in zip(bases, kept))
    _assert_matches_bfs(g, mask, lab)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("d", [17, 18])
def test_label_sample_equal_across_thread_counts(d, threads):
    # a direction's counters fill whole sampling passes, and on two threads
    # each half samples its window of them, one pass at d = 17 and two at
    # d = 18, where a half's first jump fills one _TASK range
    g = CubeGraph(d)
    key = SampleKey(2**50 + 1, d)
    expected = _labeling_fields(label_components(g, sample_edges(g, key, 2 / d)), d * d, g)
    assert _labeling_fields(label_sample(g, key, 2 / d), d * d, g) == expected
    assert _labeling_fields(label_sample(g, key, 2 / d, threads), d * d, g) == expected


def test_threads_under_a_short_switch_interval():
    # more threads than cores, switching every microsecond: the labels stay
    # the serial ones, the call finishes within its bound, and no thread of
    # its pools outlives it
    g = CubeGraph(17)
    key = SampleKey(4, 4)
    expected = label_sample(g, key, 2 / 17).labels
    before = threading.active_count()
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: result.append(label_sample(g, key, 2 / 17, 4)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert threading.active_count() == before
    assert np.array_equal(result[0].labels, expected)


@pytest.mark.parametrize("threads", [0, -1, 1.5, True, None])
def test_label_rejects_a_bad_thread_count(threads):
    g = CubeGraph(4)
    with pytest.raises(ValueError, match="threads"):
        label_sample(g, SampleKey(0), 0.5, threads)


def test_split_covers_in_order(monkeypatch):
    # the passes' ranges (``_tasks``): consecutive, disjoint, nonempty,
    # near-equal ranges of at most _TASK entries that cover [0, n), as few
    # as fit; one range iff n <= _TASK, an empty one when n = 0
    for task in (1, 2, 3, 5, 8, 2000, _TASK):
        monkeypatch.setattr(components, "_TASK", task)
        for n in (0, 1, 2, 7, 64, 1000, task - 1, task, task + 1, 2 * task, 5 * task + 3):
            slices = _tasks(n)
            assert len(slices) == max(1, -(-n // task))
            assert slices[0].start == 0 and slices[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
            lengths = [s.stop - s.start for s in slices]
            assert n == 0 or min(lengths) >= 1
            assert max(lengths) - min(lengths) <= 1 and max(lengths) <= task


@pytest.mark.parametrize("d", range(2, 13))
def test_label_windows_takes_unshifted_bases_per_window(d):
    # bases_of(window) gives, for each direction, the direction_bases of the
    # window's bits of a fixed mask, unshifted: label_windows labels the
    # mask as label_components and the BFS oracle do, to every field, on one
    # thread over one window of every counter and on two over each half's
    g = CubeGraph(d)
    windows = []
    for trial, p in enumerate((0.0, 1.0, float(np.random.default_rng(d).random()))):
        rows = sample_edges(g, SampleKey(2**43 + d, trial), p).open_mask.reshape(d, -1)

        def bases_of(window):
            windows.append(window)
            return [direction_bases(row[window.start:window.stop], i) for i, row in enumerate(rows)]

        expected = _all_fields(label_components(g, rows.ravel()))
        assert expected[7] == _bfs_labels(g, rows.ravel())
        q = g.n >> 2
        for threads, cut in ((1, [range(2 * q)]), (2, [range(q), range(q, 2 * q)])):
            windows.clear()
            assert _all_fields(label_windows(g, bases_of, threads)) == expected
            assert sorted(windows, key=lambda w: w.start) == cut


def test_a_labeling_forks_twice_on_two_threads_and_never_on_one(monkeypatch):
    # on two threads a labeling has one parallel section, the halves' first
    # phases, plus the back-map; no pass is mapped on a pool, and one
    # thread starts none
    forks = []
    real = components._side_by_side

    def counting(first, second):
        forks.append(threading.current_thread())
        return real(first, second)

    monkeypatch.setattr(components, "_side_by_side", counting)
    g = CubeGraph(19)  # each half's first jump runs over two _TASK ranges
    key = SampleKey(2**36, 1)
    mask = sample_edges(g, key, 2 / 19).open_mask
    bases = [direction_bases(row, i) for i, row in enumerate(mask.reshape(g.d, -1))]
    whole = _all_fields(_label_bases(g, bases))
    assert not forks
    assert _all_fields(_label_bases(g, bases, 2)) == whole
    assert _all_fields(label_sample(g, key, 2 / 19, 2)) == whole
    assert forks == [threading.current_thread()] * 4


def test_jump_ranges_partition_the_vertices(monkeypatch):
    # every jump pass over an array runs the same ranges, and they
    # partition the array: an overlap would write some labels twice
    # (harmlessly, so no labeling shows it), a gap would leave some
    # unjumped.  On two threads each half's first jump spans its 2^(d-1)
    # vertices, the same ranges in each half's own ids; every later one
    # spans the root ids of a half (k_A, k_B) or of both (k_A + k_B)
    seen = {}
    lock = threading.Lock()
    real = components._jump_range

    def recording(f, out, s):
        with lock:
            seen.setdefault(f.size, Counter())[s.start, s.stop] += 1
        return real(f, out, s)

    monkeypatch.setattr(components, "_jump_range", recording)
    g = CubeGraph(19)
    label_sample(g, SampleKey(8), 2 / 19, 2)
    sizes = sorted(seen, reverse=True)
    assert sizes[0] == g.n // 2 and 3 <= len(sizes) <= 4
    for size, steps in seen.items():
        ranges = sorted(steps)
        assert (len(ranges) >= 2) == (size > _TASK) and len(set(steps.values())) == 1
        assert ranges[0][0] == 0 and ranges[-1][1] == size
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def _fixed_point(f):
    # the reference pointer jump: full passes f -> f[f] until none moves a
    # label; returns the fixed point and the number of passes
    f, passes = f.copy(), 0
    while True:
        passes += 1
        nxt = f[f]
        if np.array_equal(nxt, f):
            return f, passes
        f = nxt


def _forests(n):
    # forests over 0..n-1 with f[x] <= x, as a hook leaves them: shallow
    # (random recursive trees) and deep (each vertex a few below its
    # parent), whose full passes stop at odd and even counts
    rng = np.random.default_rng(n)
    x = np.arange(n)
    yield (rng.random(n) * (x + 1)).astype(np.int32)
    for w in (3, 9, 40):
        yield np.maximum(0, x - rng.integers(1, w, n)).astype(np.int32)
    f = (rng.random(n) * (x + 1)).astype(np.int32)
    roots = rng.random(n) < 0.5
    f[roots] = x[roots]
    yield f


@pytest.mark.parametrize("task", [1 << 5, 1 << 9, 1 << 12])
def test_jump_tail_reaches_the_fixed_point(monkeypatch, task):
    # the sparse tail after the last full pass, whichever array that pass
    # wrote, over the moved labels by ranges of several sizes: f ends at
    # the reference fixed point.  Only an array longer than one range
    # takes the tail
    wrote = Counter()
    real = components._jump_tail

    def tail(f, last, before, moved):
        assert f.size > task
        wrote[last is f] += 1
        return real(f, last, before, moved)

    monkeypatch.setattr(components, "_jump_tail", tail)
    monkeypatch.setattr(components, "_TASK", task)
    for n in (1, 7, 100, 4096, 20000, 50000):
        for f0 in _forests(n):
            f = f0.copy()
            components._jump(f, np.empty_like(f))
            assert f.tolist() == _fixed_point(f0)[0].tolist()
    assert wrote[True] and wrote[False]  # the last full pass wrote f, and the spare


@pytest.mark.parametrize("d", [10, 12])
@pytest.mark.parametrize("task", [1 << 5, 1 << 7, 1 << 9])
def test_gray_code_path_through_the_jump_tail(monkeypatch, d, task):
    # the Gray-code Hamiltonian path hooks into deep trees, whose jumps end
    # in long sparse tails: one component labeled 0, on one thread and two
    tails = []
    real = components._jump_tail

    def tail(f, last, before, moved):
        tails.append(moved)
        return real(f, last, before, moved)

    monkeypatch.setattr(components, "_jump_tail", tail)
    monkeypatch.setattr(components, "_TASK", task)
    g = CubeGraph(d)
    bases = [direction_bases(row, i) for i, row in enumerate(_gray_mask(g).reshape(d, -1))]
    for threads in (1, 2):
        lab = _label_bases(g, bases, threads)
        assert (lab.l1, lab.l2, lab.n_components) == (g.n, 0, 1) and not lab.labels.any()
    assert tails


def test_jump_tail_saves_full_passes_at_d20(monkeypatch):
    # every jump of a d = 20 labeling reaches the reference fixed point in
    # no more full passes (_jump_range calls per range) than the reference
    # takes, the same on arrays of one range, and the labeling in fewer:
    # the first jump alone drops two
    calls, ranges = [], Counter()
    real_jump, real_range = components._jump, components._jump_range

    def jump(f, spare):
        before, start = f.copy(), ranges["full"]
        real_jump(f, spare)
        calls.append((before, f.copy(), ranges["full"] - start))

    def jump_range(f, out, s):
        ranges["full"] += 1
        return real_range(f, out, s)

    monkeypatch.setattr(components, "_jump", jump)
    monkeypatch.setattr(components, "_jump_range", jump_range)
    label_sample(CubeGraph(20), SampleKey(3), 2 / 20)
    full, reference = [], []
    for before, after, calls_made in calls:
        fixed, passes = _fixed_point(before)
        assert np.array_equal(after, fixed)
        full.append(calls_made // len(_tasks(before.size)))
        reference.append(passes)
        assert full[-1] == passes or before.size > _TASK
    assert all(a <= b for a, b in zip(full, reference))
    assert full[0] <= reference[0] - 2 and sum(full) < sum(reference)


def _gray_mask(g):
    # the reflected Gray code's Hamiltonian path through Q^d: one component
    # spanned by one long path, which takes many hooking rounds
    mask = np.zeros(g.m, dtype=bool)
    for k in range(g.n - 1):
        a, b = k ^ (k >> 1), (k + 1) ^ ((k + 1) >> 1)
        mask[edge_index(g, EdgeRef(min(a, b), (a ^ b).bit_length() - 1))] = True
    return mask


def _rounds(d, p, trial, whole, halves):
    # a row (d, p, trial, later rounds on one thread, on two): the range each
    # count lies in, None where any count is right; its id names the least
    # one-thread count, as d-p-trial-least
    return pytest.param(d, p, trial, whole, halves, id=f"{d}-{p}-{trial}-{whole and whole.start}")


_CONTRACTED = [_rounds(d, p, 5, None, None) for d in (2, 5, 10, 12, 16) for p in sorted({1 / d, 2 / d, 0.5} - {1.0})]
_CONTRACTED += [_rounds(d, 0.0, 5, range(1), range(1)) for d in (2, 5, 10, 12, 16)]  # k = n, no pair
_CONTRACTED += [_rounds(d, 1.0, 5, range(1), range(1, 2)) for d in (2, 5, 10, 12, 16)]  # one root; one per half
_CONTRACTED += [_rounds(5, 1 / 5, 8, range(1), None)]  # 15 open edges, no pair left on one thread
_CONTRACTED += [_rounds(d, "gray", 0, range(3, 99), range(3, 99)) for d in (10, 12)]


@pytest.mark.parametrize("d, p, trial, whole, halves", _CONTRACTED)
def test_label_bases_contracted_rounds_match_bfs(monkeypatch, d, p, trial, whole, halves):
    # the rounds after the first jump run on the k root ids: the labeling is
    # the BFS oracle's on every thread count and range split, and the
    # caller's bases come back unchanged.  One thread makes one first jump
    # and one contraction, two make one per half; the later rounds count
    # each half's own and the join's.  No later round runs at p = 0 (k = n)
    # or where the first relabel joins every pair; at p = 1 the whole cube
    # has one root and each half one, which the top direction joins in one
    # round; the Gray-code path takes at least three
    rounds, roots = Counter(), []
    lock, phase = threading.Lock(), threading.local()
    real_jump, real_compact, real_first = components._jump, components._compact, components._first_phase

    def jump(f, spare):
        with lock:
            rounds[getattr(phase, "later", True)] += 1
        real_jump(f, spare)

    def compact(f, rank):
        k, bits = real_compact(f, rank)
        with lock:
            roots.append(k)
        return k, bits

    def first_phase(f, scratch, bases):  # on each half's own thread
        phase.later = False
        try:
            return real_first(f, scratch, bases)
        finally:
            phase.later = True

    monkeypatch.setattr(components, "_jump", jump)
    monkeypatch.setattr(components, "_compact", compact)
    monkeypatch.setattr(components, "_first_phase", first_phase)
    g = CubeGraph(d)
    mask = _gray_mask(g) if p == "gray" else sample_edges(g, SampleKey(2**35 + d, trial), p).open_mask
    bases = [direction_bases(row, i) for i, row in enumerate(mask.reshape(d, -1))]
    kept = [u.copy() for u in bases]
    oracle = _bfs_labels(g, mask)
    sizes = Counter(oracle)
    ranked = sorted(sizes.values(), reverse=True) + [0]
    for threads, task in [(1, None), (2, None), (3, None), (1, 1 << 9), (2, 1 << 9)]:
        rounds.clear()
        roots.clear()
        parts = 1 if threads == 1 else 2
        # with _TASK at 2^9 every pass of a cube from d = 10 on runs over
        # several ranges, as a large cube's do
        with mock.patch.object(components, "_TASK", task or components._TASK):
            lab = _label_bases(g, bases, threads)
        assert lab.labels.tolist() == oracle
        assert lab.component_sizes.tolist() == [sizes[x] for x in sorted(sizes)]
        assert (lab.l1, lab.l2, lab.n_components, lab.open_edges) == (ranked[0], ranked[1], len(sizes), mask.sum())
        assert all(np.array_equal(u, k) and u.dtype == k.dtype for u, k in zip(bases, kept))
        assert rounds[False] == len(roots) == parts  # one first jump and one contraction per part
        assert sum(roots) == {0.0: g.n, 1.0: parts}.get(p, sum(roots))
        expected = whole if threads == 1 else halves
        assert expected is None or rounds[True] in expected


def _assert_halves_match(g, mask):
    # the labeling on two threads (the halves) against one thread and the
    # BFS oracle, to every field; returns the oracle's labels
    bases = [direction_bases(row, i) for i, row in enumerate(mask.reshape(g.d, -1))]
    whole = _all_fields(_label_bases(g, bases))
    oracle = _bfs_labels(g, mask)
    assert whole[7] == oracle
    assert _all_fields(_label_bases(g, bases, 2)) == whole
    return oracle


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 12, 16])
def test_halves_match_one_thread_and_bfs(d):
    # label_sample samples each half's window on its own thread, _label_bases
    # slices the given bases; both join the halves along the top direction
    g = CubeGraph(d)
    for trial, p in enumerate(sorted({0.0, 1 / d, min(1.0, 2 / d), 0.5, 1.0})):
        key = SampleKey(2**37 + d, trial)
        mask = sample_edges(g, key, p).open_mask
        _assert_halves_match(g, mask)
        assert _all_fields(label_sample(g, key, p, 2)) == _all_fields(label_sample(g, key, p))


def _mask_of(g, edges):
    # the edge mask of the open edges (u, v), given as vertex pairs
    mask = np.zeros(g.m, dtype=bool)
    for u, v in edges:
        mask[edge_index(g, EdgeRef(min(u, v), (u ^ v).bit_length() - 1))] = True
    return mask


def test_halves_join_a_component_through_several_top_edges():
    # Q^3: the lower half is {0..3}, the upper {4..7}, and the top edges
    # join u and u + 4.  The 4-cycle 0-1-5-4 crosses twice, and 2-6-7-3
    # crosses at both ends; 2 and 3 meet only through the upper half
    g = CubeGraph(3)
    oracle = _assert_halves_match(g, _mask_of(g, [(0, 1), (1, 5), (5, 4), (4, 0), (2, 6), (6, 7), (7, 3)]))
    assert oracle == [0, 0, 2, 2, 0, 0, 2, 2]


def test_halves_join_lower_components_only_through_the_upper_half():
    # in Q^4 the lower vertices 0 and 7 share no lower path; the upper path
    # 8-9-11-15 joins them through the top edges 0-8 and 7-15, and the
    # upper component, labeled 0 in the upper half's own ids, takes the
    # lower vertex 0 as its label
    g = CubeGraph(4)
    oracle = _assert_halves_match(g, _mask_of(g, [(0, 8), (8, 9), (9, 11), (11, 15), (15, 7), (5, 7), (12, 14)]))
    assert [oracle[v] for v in (0, 5, 7, 8, 9, 11, 15)] == [0] * 7
    assert oracle[12] == oracle[14] == 12 and oracle[13] == 13 and oracle[1] == 1


@pytest.mark.parametrize("d", [2, 5, 10])
def test_halves_with_the_top_direction_closed(d):
    # no top edge: each half's components stay apart, and every upper
    # label is an upper vertex
    g = CubeGraph(d)
    for trial, p in enumerate((0.3, 0.7, 1.0)):
        mask = sample_edges(g, SampleKey(2**38 + d, trial), p).open_mask.copy()
        mask.reshape(d, -1)[d - 1] = False
        oracle = _assert_halves_match(g, mask)
        assert all(label >= g.n // 2 for label in oracle[g.n // 2:])


@pytest.mark.parametrize("d", [5, 10])
def test_sprinkling_rows_on_halves(d):
    # a sprinkling trial labels both rounds' bases, sliced into halves
    for trial in range(4):
        args = (11, trial, d, 1.5 / d, d ** -2.0, d)
        assert _sprinkling_trial(args, threads=2) == _sprinkling_trial(args)


def test_halves_count_a_component_mostly_in_the_upper_half():
    # Q^5, lower half 0..15: the component of the lower vertex 3 holds one
    # lower vertex and seven upper ones, so the upper half counts seven under
    # the label 3, which only the lower half lists; {25, 27, 31} lies in
    # the upper half alone, so its label follows every lower one
    g = CubeGraph(5)
    edges = [(3, 19), (19, 17), (17, 16), (16, 18), (18, 22), (22, 20), (17, 21), (25, 27), (27, 31), (0, 1)]
    mask = _mask_of(g, edges)
    oracle = _assert_halves_match(g, mask)
    lab = _label_bases(g, [direction_bases(row, i) for i, row in enumerate(mask.reshape(g.d, -1))], 2)
    assert [oracle[:16].count(3), oracle[16:].count(3), oracle[16:].count(25)] == [1, 7, 3]
    sizes = Counter(oracle)
    assert lab._component_labels.tolist() == sorted(sizes)
    assert lab.component_sizes.tolist() == [sizes[x] for x in sorted(sizes)]
    assert lab.component_sizes.dtype == np.intp and (lab.l1, lab.l2) == (8, 3)


@pytest.mark.parametrize(
    "lower, upper, merged",
    [
        # p = 0 on Q^3: every vertex alone
        (([1] * 4, [0, 1, 2, 3]), ([1] * 4, [4, 5, 6, 7]), ([1] * 8, list(range(8)))),
        # p = 1: one component, counted by both halves under label 0
        (([4], [0]), ([4], [0]), ([8], [0])),
        # upper counts under lower labels, one upper-only component
        (([2, 1, 1], [0, 1, 3]), ([1, 2, 1], [0, 3, 6]), ([3, 1, 3, 1], [0, 1, 3, 6])),
    ],
)
def test_halves_counts_merge(lower, upper, merged):
    # the merge of each half's sizes and labels into the cube's (h = 4)
    def lists(sizes, labels):
        return np.array(sizes, dtype=np.intp), np.array(labels, dtype=np.int32)

    sizes, labels = components._merged(4, lists(*lower), lists(*upper))
    assert (sizes.tolist(), labels.tolist()) == merged
    assert (sizes.dtype, labels.dtype) == (np.intp, np.int32)


@pytest.mark.parametrize(
    "sizes, top",
    [([7], (7, 0)), ([3, 5, 5, 1], (5, 5)), ([1, 2, 9], (9, 2)), ([9, 2, 9], (9, 9)), ([2, 1, 1], (2, 1)), ([1, 1], (1, 1))],
)
def test_result_takes_the_two_largest_sizes(sizes, top):
    # l1 and l2: a tie for the largest gives l2 = l1, one component l2 = 0,
    # and the largest may come first or last
    sizes = np.array(sizes, dtype=np.intp)
    lab = components._result(np.zeros(2, dtype=np.int32), sizes, np.arange(sizes.size, dtype=np.int32), 0)
    assert (lab.l1, lab.l2) == top


def test_label_sample_footprint_d16():
    # the traced peak of a one-thread d = 16 labeling: the contraction adds
    # no n-length array beside those of the first jump (f, the spare, the
    # bases and a range's intp index), and the roots stay packed while the
    # bases are alive.  Measured 1_315_756 B before the contraction and
    # 1_315_916 B with it (numpy 2.4.6); the 4 KB of slack covers Python
    # objects and is half of the smallest per-vertex array, a d = 16 bitmap
    import tracemalloc

    bound = 1_315_756 + 4096
    g = CubeGraph(16)
    label_sample(CubeGraph(10), SampleKey(0), 0.2)  # first-call allocations
    tracemalloc.start()
    try:
        label_sample(g, SampleKey(0), 2 / 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_sprinkling_rows_equal_across_thread_counts():
    # at d = 18 each half samples two passes of every direction's counters
    for d in (17, 18):
        args = (3, 1, d, 1.5 / d, d ** -2.0, d * d)
        assert _sprinkling_trial(args, threads=2) == _sprinkling_trial(args)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 5, 10, 14])
def test_sprinkling_union_extends_round_one(d, threads):
    # each window keeps round 1's bases and collects the edges that only
    # round 2 opens, in vertex ids (the upper half's top-direction edges
    # offset by its window): round 1 is the labeling of its own draw, and
    # its extension is the labeling of both rounds' union, to every field
    g = CubeGraph(d)
    p1, p2 = 1.5 / d, d ** -1.0
    extra = ([], [])
    lab1 = label_windows(g, partial(_round1_bases, g, 11, 3, p1, p2, extra), threads)
    mask1 = sample_edges(g, SampleKey(11, 3, 1), p1).open_mask
    mask2 = sample_edges(g, SampleKey(11, 3, 2), p2).open_mask
    assert bool(extra[1]) == (threads > 1)
    assert sum(u.size for _, u in extra[0] + extra[1]) == np.count_nonzero(mask2 & ~mask1)
    assert _all_fields(lab1) == _all_fields(label_components(g, mask1))
    assert _all_fields(extend(lab1, extra[0] + extra[1])) == _all_fields(label_components(g, mask1 | mask2))


@pytest.mark.parametrize("d", range(1, 13))
def test_extend_matches_labeling_the_union(d):
    # round 1's labeling extended along the edges only round 2 opens is the
    # labeling of the union, to every field: with no edge added, at p2 = 0,
    # 1/n, 0.3 and 1, and along every closed edge inside a round-1
    # component, which joins nothing
    g = CubeGraph(d)
    mask1 = sample_edges(g, SampleKey(2**42 + d, 1, 1), min(0.6, 1.2 / d)).open_mask
    lab1 = label_components(g, mask1)
    assert _all_fields(extend(lab1, [])) == _all_fields(lab1)
    for trial, p2 in enumerate((0.0, 1 / g.n, 0.3, 1.0)):
        mask2 = sample_edges(g, SampleKey(2**42 + d, trial, 2), p2).open_mask
        added = (mask2 & ~mask1).reshape(d, -1)
        extra = [(i, direction_bases(row, i)) for i, row in enumerate(added)]
        extended, union = extend(lab1, extra), label_components(g, mask1 | mask2)
        assert _all_fields(extended) == _all_fields(union)
        assert extended.component_sizes.dtype == union.component_sizes.dtype == np.intp
    rows = mask1.reshape(d, -1).copy()
    inside = []
    for i, row in enumerate(rows):
        u = direction_bases(np.ones(row.size, dtype=bool), i)  # every base of direction i, by counter
        same = ~row & (lab1.labels[u] == lab1.labels[u | (1 << i)])
        inside.append((i, u[same]))
        row |= same
    assert d < 4 or sum(u.size for _, u in inside)
    extended = extend(lab1, inside)
    assert _all_fields(extended) == _all_fields(label_components(g, rows.ravel()))
    assert extended.labels.tolist() == lab1.labels.tolist()


def test_label_gray_code_hamiltonian_path():
    g = CubeGraph(10)
    mask = _gray_mask(g)
    assert mask.sum() == g.n - 1
    lab = _assert_matches_closure(g, mask)
    assert lab.n_components == 1 and not lab.labels.any()


def test_label_isolated_vertices():
    g = CubeGraph(6)
    isolated = [0, 37, 63]
    us, vs = edge_endpoint_arrays(g)
    mask = sample_edges(g, SampleKey(11), 0.6).open_mask & ~np.isin(us, isolated) & ~np.isin(vs, isolated)
    lab = _assert_matches_closure(g, mask)
    assert lab.labels[isolated].tolist() == isolated
    assert _vertex_sizes(lab)[isolated].tolist() == [1, 1, 1]


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_histogram_consistency(d, seed):
    g = CubeGraph(d)
    lab = label_components(g, sample_edges(g, SampleKey(seed), 0.3))
    assert lab.component_sizes.sum() == g.n
    _, sizes = np.unique(lab.labels, return_counts=True)
    assert sizes.tolist() == lab.component_sizes.tolist()
    assert sizes.size == lab.n_components
    assert lab.l1 == sizes.max()


def test_monotonicity_under_edge_addition():
    rng = np.random.default_rng(0)
    for _ in range(25):
        d = int(rng.integers(2, 11))
        g = CubeGraph(d)
        mask = sample_edges(g, SampleKey(int(rng.integers(0, 2**32))), 0.25).open_mask.copy()
        closed = np.flatnonzero(~mask)
        if closed.size == 0:
            continue
        l1_before = label_components(g, mask).l1
        mask[int(rng.choice(closed))] = True
        assert label_components(g, mask).l1 >= l1_before


def _explore_reference(g, v, stream, cap):
    # the BFS as first written: a determined-edge dict, every edge of every
    # dequeued vertex looked up, indices from the frozen edge_index
    discovered = {v}
    queue = deque((v,))
    determined = {}
    edges_queried = open_found = 0
    cap_hit = len(discovered) >= cap
    while queue and not cap_hit:
        u = queue.popleft()
        for i in range(g.d):
            w = u ^ (1 << i)
            eidx = edge_index(g, EdgeRef(min(u, w), i))
            bit = determined.get(eidx)
            if bit is None:
                bit = determined[eidx] = stream.query(eidx)
                edges_queried += 1
                open_found += bit
            if bit and w not in discovered:
                discovered.add(w)
                queue.append(w)
                if len(discovered) >= cap:
                    cap_hit = True
                    break
    return ExplorationResult(len(discovered), cap_hit, edges_queried, open_found)


@given(
    st.integers(1, 10),
    st.integers(0, 2**64 - 1),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.sampled_from([BitStream, EdgeKeyedBitSource]),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_explore_matches_reference(d, seed, p, source, data):
    # skipping edges back to dequeued vertices changes no bit drawn and no field
    g = CubeGraph(d)
    v = data.draw(st.integers(0, g.n - 1), label="start")
    cap = data.draw(st.one_of(st.sampled_from([1, 2, g.n, g.n + 1]), st.integers(1, g.n + 1)), label="cap")
    key = SampleKey(seed)
    stream, reference = source(key, p), source(key, p)
    assert explore_component(g, v, stream, cap) == _explore_reference(g, v, reference, cap)
    assert stream.consumed == reference.consumed


def test_explore_matches_reference_across_blocks():
    # the whole of Q^11 queries 11264 edges, past BitStream's first 8192-bit block
    g = CubeGraph(11)
    for p in (0.6, 1.0):
        stream, reference = BitStream(SampleKey(5), p), BitStream(SampleKey(5), p)
        assert explore_component(g, 7, stream, g.n + 1) == _explore_reference(g, 7, reference, g.n + 1)
        assert stream.consumed == reference.consumed == g.m


def test_explore_all_zero_stream():
    g = CubeGraph(3)
    result = explore_component(g, 0, BitStream(SampleKey(0), 0.0), cap=10)
    assert result.size == 1
    assert result.edges_queried == g.d
    assert result.open_found == 0
    assert not result.cap_hit


def test_explore_all_one_stream_cap():
    g = CubeGraph(3)
    result = explore_component(g, 0, BitStream(SampleKey(0), 1.0), cap=5)
    assert result.size == 5
    assert result.cap_hit


def test_explore_full_graph_open_found_has_cycle_edges():
    g = CubeGraph(2)
    result = explore_component(g, 0, BitStream(SampleKey(0), 1.0), cap=g.n + 1)
    assert result.size == 4
    assert result.edges_queried == 4
    assert result.open_found == 4  # one cycle edge beyond the BFS tree
    assert result.open_found >= result.size - 1


def test_explore_agrees_with_labeling():
    # same per-edge randomness on both routes, 100 random keys across d <= 8
    rng = np.random.default_rng(1234)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        g = CubeGraph(d)
        key = SampleKey(int(rng.integers(0, 2**60)), int(rng.integers(0, 1000)), 0)
        p = float(rng.uniform(0.05, 0.95))
        v = int(rng.integers(0, g.n))
        lab = label_components(g, sample_edges(g, key, p))
        result = explore_component(g, v, EdgeKeyedBitSource(key, p), cap=g.n)
        assert result.size == _vertex_sizes(lab)[v]
        assert result.open_found >= result.size - 1


def test_explore_cap_one_halts_immediately():
    g = CubeGraph(4)
    result = explore_component(g, 3, BitStream(SampleKey(0), 1.0), cap=1)
    assert result.size == 1
    assert result.cap_hit
    assert result.edges_queried == 0


def test_explore_rejects_non_integer_cap():
    g = CubeGraph(4)
    for cap in (2.5, True, 4.0, "4"):
        with pytest.raises(ValueError, match="cap"):
            explore_component(g, 0, BitStream(SampleKey(0), 1.0), cap=cap)
    with pytest.raises(ValueError, match="cap"):
        explore_component(g, 0, BitStream(SampleKey(0), 1.0), cap=0)


def test_hit_probability_extremes():
    # no exploration reaches 2 vertices at p = 0; every one reaches all n at p = 1
    g = CubeGraph(5)
    for trial in range(50):
        key = SampleKey(0, trial, 0)
        assert not explore_component(g, 0, BitStream(key, 0.0), cap=2).cap_hit
        assert explore_component(g, 0, BitStream(key, 1.0), cap=g.n).cap_hit


def test_hit_probability_matches_survival_fraction():
    # d=18, c=2, s=d^2: hit rate approaches y(2)=0.796812 (finite-size slack)
    cfg = ExperimentConfig(kind="hitprob", d=18, c=2.0, trials=2000, seed=0, w_threshold=324)
    aggregates = run_experiment(cfg).aggregates
    assert abs(aggregates["hit_rate"] - 0.796812) <= 0.05
    assert aggregates["hit_se"] < 0.02


def test_w_set_extremes():
    g = CubeGraph(4)
    lab = label_components(g, sample_edges(g, SampleKey(3), 0.5))
    assert w_set(lab, 1).density == 1.0
    assert w_set(lab, g.n + 1).density == 0.0


def test_size_gap_count():
    g = CubeGraph(3)
    lab = label_components(g, np.zeros(g.m, dtype=bool))
    assert size_gap_count(lab, 1, g.n) == lab.n_components
    assert size_gap_count(lab, 2, g.n) == 0
    assert size_gap_count(lab, -5, 1) == lab.n_components
    assert size_gap_count(lab, -5, 0) == 0
    with pytest.raises(ValueError):
        size_gap_count(lab, 5, 4)
    g = CubeGraph(6)
    lab = label_components(g, sample_edges(g, SampleKey(4), 0.25))
    sizes = Counter(lab.labels.tolist()).values()
    for lo, hi in [(-5, 3), (0, 0), (0, 2), (2, 5), (3, 64), (-64, 64)]:
        assert size_gap_count(lab, lo, hi) == sum(1 for s in sizes if lo <= s <= hi)


def test_distance_all_members():
    g = CubeGraph(4)
    dist, mx = distance_to_set(g, np.ones(g.n, dtype=bool))
    assert mx == 0
    assert dist.sum() == 0


def test_distance_single_source_diameter():
    g = CubeGraph(3)
    dist, mx = distance_to_set(g, np.arange(g.n) == 0)
    assert mx == 3  # antipode
    for v in range(g.n):
        assert dist[v] == bin(v).count("1")


def test_distance_empty_set_rejected():
    g = CubeGraph(3)
    with pytest.raises(ValueError):
        distance_to_set(g, np.zeros(g.n, dtype=bool))


@pytest.mark.parametrize("members", [[0], np.array([0, 1]), np.ones(8, dtype=np.int64), np.ones(4, dtype=bool)])
def test_distance_takes_only_a_full_boolean_mask(members):
    with pytest.raises(ValueError):
        distance_to_set(CubeGraph(3), members)


def test_distance_single_source_counts_sixteen_levels():
    # every vertex's distance from one source is its Hamming distance, so
    # the count runs over all 16 levels, one per bit
    g = CubeGraph(16)
    u = 0b1010_0110_0101_1001
    dist, mx = distance_to_set(g, np.arange(g.n) == u)
    popcount = np.unpackbits((np.arange(g.n, dtype=">u4") ^ u).view(np.uint8)).reshape(g.n, -1).sum(axis=1)
    assert mx == 16
    assert dist.dtype == np.int32
    assert np.array_equal(dist, popcount)


@pytest.mark.parametrize("d", range(1, 13))  # d < 6 pads the single word
def test_distance_matches_bool_reference(d):
    g = CubeGraph(d)
    rng = np.random.default_rng(d)
    masks = [np.arange(g.n) == int(rng.integers(g.n)), np.ones(g.n, dtype=bool)]
    for density in (0.01, 0.1, 0.5):
        mask = rng.random(g.n) < density
        mask[int(rng.integers(g.n))] = True
        masks.append(mask)
    for members in masks:
        dist, mx = distance_to_set(g, members)
        ref, ref_mx = _distance_reference(g, members)
        assert dist.dtype == np.int32
        assert np.array_equal(dist, ref)
        assert mx == ref_mx


def test_distance_w_set_typical_trial():
    # d=16, c=2: W at threshold d^2 covers everything within distance 2
    g = CubeGraph(16)
    lab = label_components(g, sample_edges(g, SampleKey(0, 0, 0), 2 / 16))
    w = w_set(lab, 256)
    _, mx = distance_to_set(g, w.members)
    assert mx <= 2


def test_histogram_csv(tmp_path):
    g = CubeGraph(3)
    lab = label_components(g, sample_edges(g, SampleKey(9), 0.5))
    path = tmp_path / "hist.csv"
    write_histogram_csv(lab, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "size,count"
    parsed = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert parsed == sorted(parsed)
    assert dict(parsed) == Counter(lab.component_sizes.tolist())
