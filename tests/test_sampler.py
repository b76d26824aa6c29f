import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubeperc.sampler as sampler
from cubeperc.hypercube import CubeGraph
from cubeperc.sampler import (
    _BLOCK,
    _GAMMA,
    _M64,
    _PASS,
    BitStream,
    EdgeKeyedBitSource,
    SampleKey,
    _mix64,
    _open_bits,
    _stream_state,
    _threshold,
    read_sample,
    sample_directions,
    sample_edges,
    split_probability,
    uniform01,
    write_sample,
)

# chi-square critical value, 15 degrees of freedom at significance 0.001
CHI2_15_001 = 37.697


def test_uniform_determinism():
    key = SampleKey(123456789, 7, 1)
    assert uniform01(key, 42) == uniform01(key, 42)
    assert 0.0 <= uniform01(key, 42) < 1.0


def test_uniform_vector_matches_scalar():
    # the vectorized draw agrees with the scalar oracle, ties included
    key = SampleKey(2**63 + 11, 9, 2)
    g = CubeGraph(10)  # m = 5120 counters
    for i in (0, 1, 17, 999):
        u = uniform01(key, i)
        for p in (0.5, u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)):
            assert sample_edges(g, key, p).open_mask[i] == (u < p)


def test_uniform_mean():
    # open rate of 10^6+ edges (d = 17) is the uniform CDF at p
    g = CubeGraph(17)
    key = SampleKey(7, 0, 0)
    for p in (0.25, 0.5, 0.75):
        assert abs(float(sample_edges(g, key, p).open_mask.mean()) - p) <= 0.002


def test_round_tags_decorrelate():
    g = CubeGraph(17)
    m1 = sample_edges(g, SampleKey(7, 0, 1), 0.5).open_mask
    m2 = sample_edges(g, SampleKey(7, 0, 2), 0.5).open_mask
    r = float(np.corrcoef(m1, m2)[0, 1])
    assert abs(r) < 0.01


def _stream_bits(key, p, count):
    stream = BitStream(key, p)
    return [stream.query() for _ in range(count)]


def _assert_kernel_matches_oracle(g, key, p):
    mask = sample_edges(g, key, p).open_mask
    expected = [uniform01(key, e) < p for e in range(g.m)]
    assert mask.tolist() == expected
    assert _stream_bits(key, p, g.m) == [int(b) for b in expected]
    source = EdgeKeyedBitSource(key, p)
    assert [source.query(e) for e in range(g.m)] == [int(b) for b in expected]


_KEYS = st.builds(
    SampleKey,
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
)


@st.composite
def _probabilities(draw):
    # the endpoints, dyadic k/2^53 (where the float and integer tests could
    # first disagree) and their float neighbours
    k = draw(st.integers(0, 2**53))
    p = k / 2**53
    return draw(st.sampled_from([0.0, 1.0, p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)]))


@settings(deadline=None)
@given(st.integers(1, 10), _KEYS, _probabilities())
def test_kernel_matches_uniform_oracle(d, key, p):
    _assert_kernel_matches_oracle(CubeGraph(d), key, p)


@settings(deadline=None)
@given(st.integers(1, 10), _KEYS, st.data())
def test_kernel_matches_oracle_at_ties(d, key, data):
    # p equal to a drawn uniform01 value (closed) and its two float
    # neighbours: the exact ties of the strict comparison
    g = CubeGraph(d)
    e = data.draw(st.integers(0, g.m - 1))
    u = uniform01(key, e)
    for p, is_open in ((u, False), (math.nextafter(u, 0.0), False), (math.nextafter(u, 1.0), True)):
        assert sample_edges(g, key, p).open_mask[e] == is_open
        _assert_kernel_matches_oracle(g, key, p)


# m = 1.375 and 6.5 blocks (0.8125 passes): the last block is partial;
# m = 1.75 and 8 passes: a partial last pass, and whole passes only.  Every
# pass boundary is a block boundary.
@pytest.mark.parametrize("d", [11, 13, 14, 16])
def test_sample_edges_block_boundaries(d):
    g = CubeGraph(d)
    key = SampleKey(2**40 + 3, 5, 1)
    edges = sorted({e for start in range(0, g.m, _BLOCK) for e in (start - 1, start) if e >= 0} | {g.m - 1})
    for p in (0.5, 0.1, uniform01(key, _BLOCK), uniform01(key, _PASS)):
        mask = sample_edges(g, key, p).open_mask
        assert [bool(mask[e]) for e in edges] == [uniform01(key, e) < p for e in edges]


def _raw_tie_key(e):
    # a key whose counter e has raw bits with the low 11 bits 0, so that at
    # p = (bits >> 11) / 2^53 they equal threshold << 11 exactly
    for seed in range(1 << 20):
        key = SampleKey(seed, 3, 0)
        bits = _mix64((_stream_state(key) + e * _GAMMA) & _M64)
        if bits & 0x7FF == 0:
            return key, (bits >> 11) / 2**53
    raise AssertionError("no raw tie found")


# the smallest cube whose m spans more than 3 passes and ends in a partial one
_TIE_D = next(d for d in range(1, 31) if (d << (d - 1)) > 3 * _PASS and (d << (d - 1)) % _PASS)


@pytest.mark.parametrize("e", [_PASS - 1, _PASS, _PASS + 1, 3 * _PASS], ids=["pass-1", "pass", "pass+1", "3pass"])
def test_raw_tie_at_a_pass_boundary(e):
    # the raw-bits tie on either side of a pass boundary, through
    # sample_edges and sample_directions
    key, p = _raw_tie_key(e)
    g = CubeGraph(_TIE_D)
    half = 1 << (g.d - 1)
    for q, is_open in ((p, False), (math.nextafter(p, 1.0), True)):
        assert (uniform01(key, e) < q) == is_open
        assert sample_edges(g, key, q).open_mask[e] == is_open
        row = next(r for i, r in enumerate(sample_directions(g, key, q)) if i == e // half)
        assert row[e % half] == is_open


@pytest.mark.parametrize(
    "start,count",
    [
        (0, 1),
        (7, _BLOCK),
        (5, 3 * _BLOCK + 7),
        (2**40 - 3, _BLOCK + 1),
        (0, 32767),  # windows within one pass and across two
        (0, 32768),
        (5, 3 * 32768 + 7),
        (2**40 - 3, 32769),
        (0, _PASS - 1),
        (0, _PASS),
        (5, 3 * _PASS + 7),
        (2**40 - 3, _PASS + 1),
    ],
)
@pytest.mark.parametrize("p", [0.0, 1.0, 0.3])
def test_open_bits_fills_any_window(start, count, p):
    # p = 1 is the 2^64 limit the raw comparison cannot hold; windows start
    # off a block boundary and span a partial last block or pass; every
    # block (so every pass) boundary is checked on both sides
    key = SampleKey(2**63 + 9, 4, 1)
    out = np.empty(count, dtype=bool)
    _open_bits(_stream_state(key), start, _threshold(p), out)
    counters = sorted(({0, 1, count - 1} | {c + k for c in range(_BLOCK, count, _BLOCK) for k in (-1, 0)}) & set(range(count)))
    assert [bool(out[k]) for k in counters] == [uniform01(key, start + k) < p for k in counters]
    if p in (0.0, 1.0):
        assert out.all() == (p == 1.0) and out.any() == (p == 1.0)


def test_open_bits_at_a_tie_of_the_raw_bits():
    # a counter whose low 11 bits are 0 and p = k / 2^53 for its k = bits >> 11:
    # the raw bits equal threshold << 11 exactly, so the bit is closed, and
    # opens at the next float above p
    key = SampleKey(12345, 6, 0)
    state = _stream_state(key)
    e = next(e for e in range(1 << 16) if _mix64((state + e * _GAMMA) & _M64) & 0x7FF == 0)
    p = (_mix64((state + e * _GAMMA) & _M64) >> 11) / 2**53
    g = CubeGraph(11)
    assert e < g.m
    for q, is_open in ((p, False), (math.nextafter(p, 1.0), True)):
        assert (uniform01(key, e) < q) == is_open
        out = np.empty(1, dtype=bool)
        _open_bits(state, e, _threshold(q), out)
        assert out[0] == is_open
        assert sample_edges(g, key, q).open_mask[e] == is_open


@pytest.mark.parametrize("d", [1, 2, 12, 13, 14, 15])  # one buffer of all m counters through d = 12
@pytest.mark.parametrize("p", [0.0, 1.0, 0.2])
def test_sample_directions_split_the_edge_mask(d, p):
    g = CubeGraph(d)
    key = SampleKey(2**33 + 1, 7, 2)
    rows = [mask.copy() for mask in sample_directions(g, key, p)]
    assert len(rows) == d and all(row.shape == (1 << (d - 1),) for row in rows)
    assert np.array_equal(np.concatenate(rows), sample_edges(g, key, p).open_mask)


@pytest.mark.parametrize("d, joined", [(1, True), (2, True), (12, True), (13, False), (14, False)])
def test_sample_directions_join_only_small_directions(monkeypatch, d, joined):
    # one _open_bits call samples all d whole directions while 2^(d-1) <
    # _BLOCK / 2 (through d = 12), one call per direction from d = 13 on
    # and over any window less than a whole direction; the rows are the
    # draw's either way
    calls = []
    real = sampler._open_bits

    def counting(state, start, threshold, out):
        calls.append((start, out.size))
        real(state, start, threshold, out)

    monkeypatch.setattr(sampler, "_open_bits", counting)
    g = CubeGraph(d)
    key = SampleKey(2**33 + 5, 1, 0)
    half = 1 << (d - 1)
    rows = [mask.copy() for mask in sample_directions(g, key, 0.3)]
    assert calls == ([(0, g.m)] if joined else [(i * half, half) for i in range(d)])
    assert np.array_equal(np.concatenate(rows), sample_edges(g, key, 0.3).open_mask)
    if d > 1:
        calls.clear()
        list(sample_directions(g, key, 0.3, range(half >> 1, half)))
        assert calls == [(i * half + (half >> 1), half >> 1) for i in range(d)]


@pytest.mark.parametrize("d", [2, 3, 13, 14, 16])
def test_sample_directions_over_a_window(d):
    # a window of each direction's counters, such as a half of the cube's,
    # samples exactly those columns of the full draw in every direction
    g = CubeGraph(d)
    key = SampleKey(2**33 + 9, 2, 0)
    full = sample_edges(g, key, 0.3).open_mask.reshape(d, -1)
    q = 1 << (d - 2)
    for window in (range(q), range(q, 2 * q), range(1, 2 * q), range(2 * q)):
        rows = [mask.copy() for mask in sample_directions(g, key, 0.3, window)]
        assert len(rows) == d
        assert all(np.array_equal(row, full[i, window.start:window.stop]) for i, row in enumerate(rows))


def test_key_validation():
    with pytest.raises(ValueError):
        SampleKey(-1)
    with pytest.raises(ValueError):
        SampleKey(0, 2**32)
    with pytest.raises(ValueError):
        SampleKey(0, 0, -2)


def test_sample_edges_extremes():
    g = CubeGraph(5)
    key = SampleKey(0)
    assert sample_edges(g, key, 0.0).open_count == 0
    assert sample_edges(g, key, 1.0).open_count == g.m


def test_sample_edges_rejects_bad_p():
    g = CubeGraph(3)
    makers = (
        lambda p: sample_edges(g, SampleKey(0), p),
        lambda p: BitStream(SampleKey(0), p),
        lambda p: EdgeKeyedBitSource(SampleKey(0), p),
    )
    for make in makers:
        for p in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                make(p)


def test_sample_edges_binomial_band():
    # Binomial(5120, 0.2): mean 1024, sd ~28.6
    g = CubeGraph(10)
    counts = [sample_edges(g, SampleKey(3, t, 0), 0.2).open_count for t in range(100)]
    band = 3 * math.sqrt(5120 * 0.2 * 0.8)
    assert abs(sum(counts) / 100 - 1024) <= band


def test_sample_determinism_bit_identical():
    g = CubeGraph(8)
    a = sample_edges(g, SampleKey(11, 5, 0), 0.37)
    b = sample_edges(g, SampleKey(11, 5, 0), 0.37)
    assert np.array_equal(a.open_mask, b.open_mask)


def test_open_sets_equidistributed_on_q2():
    # all 16 open sets of Q^2 at p=1/2, 1e5 trials, chi-square at 0.001
    g = CubeGraph(2)
    weights = np.array([1, 2, 4, 8])
    counts = np.zeros(16, dtype=np.int64)
    for t in range(100_000):
        mask = sample_edges(g, SampleKey(0, t, 0), 0.5).open_mask
        counts[int(mask @ weights)] += 1
    expected = 100_000 / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_15_001


def test_split_examples():
    s = split_probability(0.2, 0.0)
    assert s.p1 == 0.2
    s = split_probability(0.2, 1e-5)
    # exact rational value of 1 - 0.8/(1 - 1e-5) is 19999/99999
    assert abs(s.p1 - 19999 / 99999) < 1e-11


def test_split_validation():
    with pytest.raises(ValueError):
        split_probability(0.2, 0.3)
    with pytest.raises(ValueError):
        split_probability(1.0, 1.0)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
)
def test_split_identity(p, p2):
    if p2 > p:
        p, p2 = p2, p  # keep the precondition
    s = split_probability(p, p2)
    assert abs((1.0 - s.p1) * (1.0 - s.p2) - (1.0 - p)) <= 1e-15
    assert -1e-15 <= s.p1 <= p + 1e-15


def test_union_identity_and_absorbing():
    g = CubeGraph(4)
    a = sample_edges(g, SampleKey(1, 0, 1), 0.4)
    empty = sample_edges(g, SampleKey(1, 0, 2), 0.0)
    full = sample_edges(g, SampleKey(1, 0, 2), 1.0)
    assert np.array_equal(a.open_mask | empty.open_mask, a.open_mask)
    assert (a.open_mask | full.open_mask).all()


def test_union_rate_matches_total_probability():
    # d=12: split p = 2/12 with p2 = 12^-5, union open-rate ~ Bernoulli(p)
    g = CubeGraph(12)
    p = 2 / 12
    split = split_probability(p, 12.0**-5)
    total_open = 0
    trials = 200
    for t in range(trials):
        g1 = sample_edges(g, SampleKey(5, t, 1), split.p1)
        g2 = sample_edges(g, SampleKey(5, t, 2), split.p2)
        total_open += int((g1.open_mask | g2.open_mask).sum())
    rate = total_open / (trials * g.m)
    se = math.sqrt(p * (1 - p) / (trials * g.m))
    assert abs(rate - p) <= 3 * se


def test_bit_stream_extremes():
    zeros = BitStream(SampleKey(0), 0.0)
    assert [zeros.query() for _ in range(20)] == [0] * 20
    ones = BitStream(SampleKey(0), 1.0)
    assert [ones.query() for _ in range(20)] == [1] * 20


def test_bit_stream_ones_count_band():
    stream = BitStream(SampleKey(99), 0.5)
    n = 100_000
    total = sum(stream.query() for _ in range(n))
    assert abs(total - 50_000) <= 3 * math.sqrt(25_000)
    assert stream.consumed == n


def test_bit_stream_matches_uniform_contract():
    key = SampleKey(31, 2, 0)
    # 20000 bits span three of the stream's 8192-bit blocks
    bits = _stream_bits(key, 0.3, 20_000)
    expected = [int(uniform01(key, i) < 0.3) for i in range(20_000)]
    assert bits == expected


def test_edge_keyed_source_matches_sample():
    g = CubeGraph(6)
    key = SampleKey(77, 4, 0)
    sample = sample_edges(g, key, 0.41)
    source = EdgeKeyedBitSource(key, 0.41)
    for e in range(g.m):
        assert source.query(e) == int(sample.open_mask[e])


def test_binary_dump_round_trip(tmp_path):
    g = CubeGraph(9)
    sample = sample_edges(g, SampleKey(2**40 + 5, 17, 2), 0.123)
    path = tmp_path / "sample.bin"
    write_sample(sample, path)
    back = read_sample(path)
    assert back.d == sample.d
    assert back.key == sample.key
    assert back.p == sample.p
    assert np.array_equal(back.open_mask, sample.open_mask)
    # header is 28 bytes, bitmap is ceil(m/8)
    assert path.stat().st_size == 28 + (g.m + 7) // 8


def _dump(tmp_path, d=4):
    path = tmp_path / "sample.bin"
    write_sample(sample_edges(CubeGraph(d), SampleKey(3, 1, 0), 0.5), path)
    return path, path.read_bytes()


def test_binary_dump_truncated_rejected(tmp_path):
    path, raw = _dump(tmp_path)
    path.write_bytes(raw[:-2])
    with pytest.raises(ValueError):
        read_sample(path)
    path.write_bytes(raw[:10])  # not even a header
    with pytest.raises(ValueError):
        read_sample(path)


def test_binary_dump_trailing_byte_rejected(tmp_path):
    path, raw = _dump(tmp_path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        read_sample(path)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_binary_dump_padding_bit_rejected(tmp_path, d):
    # m = 1, 4, 12 leaves padding bits in the last byte; a dump with one of
    # them set would read back as a sample that writes different bytes
    path, raw = _dump(tmp_path, d)
    m = d << (d - 1)
    assert read_sample(path).open_mask.size == m
    for bit in (m % 8, 7):
        path.write_bytes(raw[:-1] + bytes([raw[-1] | 1 << bit]))
        with pytest.raises(ValueError, match=f"{path.name}.*padding"):
            read_sample(path)


@pytest.mark.parametrize("d,p", [(0, 0.5), (31, 0.5), (4, 1.5), (4, -0.1), (4, float("nan"))])
def test_binary_dump_header_out_of_range_rejected(tmp_path, d, p):
    path, raw = _dump(tmp_path)
    path.write_bytes(struct.pack("<IQIId", d, 3, 1, 0, p) + raw[28:])
    with pytest.raises(ValueError):
        read_sample(path)
