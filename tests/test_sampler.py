import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubeperc.hypercube import CubeGraph
from cubeperc.sampler import (
    BitStream,
    EdgeKeyedBitSource,
    SampleKey,
    read_sample,
    sample_edges,
    split_probability,
    uniform01,
    uniform01_array,
    union_samples,
    write_sample,
)

# chi-square critical value, 15 degrees of freedom at significance 0.001
CHI2_15_001 = 37.697


def test_uniform_determinism():
    key = SampleKey(123456789, 7, 1)
    assert uniform01(key, 42) == uniform01(key, 42)
    assert 0.0 <= uniform01(key, 42) < 1.0


def test_uniform_vector_matches_scalar():
    key = SampleKey(2**63 + 11, 9, 2)
    counters = np.arange(1000, dtype=np.uint64)
    vec = uniform01_array(key, counters)
    for i in (0, 1, 17, 999):
        assert vec[i] == uniform01(key, i)


def test_uniform_mean():
    key = SampleKey(7, 0, 0)
    u = uniform01_array(key, np.arange(10**6, dtype=np.uint64))
    assert abs(float(u.mean()) - 0.5) <= 0.002


def test_round_tags_decorrelate():
    counters = np.arange(10**6, dtype=np.uint64)
    u1 = uniform01_array(SampleKey(7, 0, 1), counters)
    u2 = uniform01_array(SampleKey(7, 0, 2), counters)
    r = float(np.corrcoef(u1, u2)[0, 1])
    assert abs(r) < 0.01


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
    with pytest.raises(ValueError):
        sample_edges(g, SampleKey(0), 1.5)


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
    assert np.array_equal(union_samples(a, empty).open_mask, a.open_mask)
    assert union_samples(a, full).open_count == g.m


def test_union_dimension_mismatch():
    a = sample_edges(CubeGraph(3), SampleKey(0, 0, 1), 0.5)
    b = sample_edges(CubeGraph(4), SampleKey(0, 0, 2), 0.5)
    with pytest.raises(ValueError):
        union_samples(a, b)


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
        total_open += union_samples(g1, g2).open_count
    rate = total_open / (trials * g.m)
    se = math.sqrt(p * (1 - p) / (trials * g.m))
    assert abs(rate - p) <= 3 * se


def test_bit_stream_extremes():
    zeros = BitStream(SampleKey(0), 0.0)
    assert [zeros.next_bit() for _ in range(20)] == [0] * 20
    ones = BitStream(SampleKey(0), 1.0)
    assert [ones.next_bit() for _ in range(20)] == [1] * 20


def test_bit_stream_ones_count_band():
    stream = BitStream(SampleKey(99), 0.5)
    n = 100_000
    total = sum(stream.next_bit() for _ in range(n))
    assert abs(total - 50_000) <= 3 * math.sqrt(25_000)
    assert stream.consumed == n


def test_bit_stream_matches_uniform_contract():
    key = SampleKey(31, 2, 0)
    stream = BitStream(key, 0.3)
    bits = [stream.next_bit() for _ in range(500)]
    expected = [int(uniform01(key, i) < 0.3) for i in range(500)]
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


@pytest.mark.parametrize("d,p", [(0, 0.5), (31, 0.5), (4, 1.5), (4, -0.1), (4, float("nan"))])
def test_binary_dump_header_out_of_range_rejected(tmp_path, d, p):
    path, raw = _dump(tmp_path)
    path.write_bytes(struct.pack("<IQIId", d, 3, 1, 0, p) + raw[28:])
    with pytest.raises(ValueError):
        read_sample(path)


def test_union_sample_cannot_be_dumped(tmp_path):
    g = CubeGraph(4)
    a = sample_edges(g, SampleKey(0, 0, 1), 0.2)
    b = sample_edges(g, SampleKey(0, 0, 2), 0.2)
    with pytest.raises(ValueError):
        write_sample(union_samples(a, b), tmp_path / "u.bin")
