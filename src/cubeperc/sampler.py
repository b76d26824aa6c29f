"""Reproducible Bernoulli edge sampling.

Every coin flip is a pure function of (seed, trial, round, counter), so
samples are random-access, trivially parallel across trials, and
bit-identical on every platform.  The construction is frozen:

    mix64(x):                      # splitmix64 finalizer (Stafford mix 13)
        x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9   (mod 2^64)
        x ^= x >> 27;  x *= 0x94D049BB133111EB   (mod 2^64)
        x ^= x >> 31
        return x

    state(seed, trial, round):
        k = mix64(seed XOR 0x9E3779B97F4A7C15)
        k = mix64(k XOR (trial * 0xBF58476D1CE4E5B9 mod 2^64))
        k = mix64(k XOR (round * 0x94D049BB133111EB mod 2^64))
        return k

    bits(key, counter)   = mix64(state + counter * 0x9E3779B97F4A7C15 mod 2^64)
    uniform01(key, counter) = (bits >> 11) / 2^53

The top 53 bits are used so the result is exactly representable and lies in
[0, 1); an edge e is open iff uniform01(key, e) < p, which ``_open_bits``
decides exactly in integers.  For a fixed key the output is splitmix64
seeded at ``state``, i.e. a bijection of the counter.

Since every bit is a function of its counter alone, any split of the
counters samples the same draw: ``sample_directions`` over disjoint windows
of each direction's counters may run on threads side by side.
``_open_bits`` runs every window in passes of at most ``_PASS`` = 65536
counters on one import-time step table: each numpy call is long enough
that two threads sampling side by side overlap inside it rather than wait
on the interpreter lock between calls.  A ``BitStream`` block of
``_BLOCK`` = 8192 counters is one pass.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .hypercube import MAX_DIMENSION

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_TO_UNIT = 2.0**-53
_BLOCK = 8192  # BitStream's block
# The splitmix64 pass: the most counters one numpy call works on.  Its
# uint64 work block, shift temporary and step table take 1.5 MB, inside a
# 2 MB L2 per core.  Sampling every d = 20 mask on a 2-CPU Xeon took
# 27.3 ms on two threads against 34.2 ms with 32768-counter passes, which
# trade the interpreter lock twice as often, and 42.8 ms on one thread
# either way; 131072-counter passes spill the L2 (83 ms on one thread)
_PASS = 65536
_PASS_STEP = (_PASS * _GAMMA) & _M64
_STEPS = np.arange(_PASS, dtype=np.uint64)
_STEPS *= np.uint64(_GAMMA)  # c * GAMMA mod 2^64, in place
_STEPS.setflags(write=False)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U_MIX_A, _U_MIX_B = np.uint64(_MIX_A), np.uint64(_MIX_B)


def _mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_A) & _M64
    x ^= x >> 27
    x = (x * _MIX_B) & _M64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class SampleKey:
    """Stream identity: distinct (seed, trial, round) give independent streams.

    round 0 tags single-round draws; rounds 1 and 2 tag the two sprinkling
    exposures.
    """

    seed: int
    trial: int = 0
    round: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if not 0 <= self.trial < (1 << 32):
            raise ValueError(f"trial must fit in 32 unsigned bits, got {self.trial}")
        if not 0 <= self.round < (1 << 32):
            raise ValueError(f"round must be a small nonnegative tag, got {self.round}")


def _stream_state(key: SampleKey) -> int:
    k = _mix64(key.seed ^ _GAMMA)
    k = _mix64(k ^ ((key.trial * _MIX_A) & _M64))
    k = _mix64(k ^ ((key.round * _MIX_B) & _M64))
    return k


def uniform01(key: SampleKey, counter: int) -> float:
    """The keyed uniform in [0, 1): deterministic in (key, counter)."""
    bits = _mix64((_stream_state(key) + counter * _GAMMA) & _M64)
    return (bits >> 11) * _TO_UNIT


def _threshold(p: float) -> int:
    """Validate 0 <= p <= 1 (NaN fails); return ceil(p * 2^53) for ``_open_bits``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return math.ceil(p * 2**53)


def _open_bits(state: int, start: int, threshold: int, out: np.ndarray) -> None:
    """Fill the bool array ``out`` with the open bits of counters
    [start, start + out.size) of the stream at ``state``: out[k] is
    uniform01(key, start + k) < p, given threshold = _threshold(p).

    Exact: write bits = k * 2^11 + r with k = bits >> 11 and 0 <= r < 2^11.
    Then k * 2^-53 < p iff k < p * 2^53 (exact, as it scales by a power of
    two) iff k < T = ceil(p * 2^53) iff bits < T * 2^11, so the raw bits are
    compared without the shift.  T * 2^11 fits in 64 bits unless T = 2^53,
    i.e. p = 1, where every bit is open.

    splitmix64 runs one pass of at most ``_PASS`` counters at a time, in
    place on one uint64 work block and one shift temporary, wrapping mod
    2^64: the pass at counter s starts from _STEPS + (state + s * GAMMA),
    where _STEPS[c] = c * GAMMA, and the offset grows by _PASS * GAMMA.  A
    window of at most ``_PASS`` counters, such as a ``BitStream`` block, is
    one pass.  A pass is long enough that threads sampling other windows
    overlap each numpy call.
    """
    if threshold == 1 << 53:
        out[:] = True
        return
    limit = np.uint64(threshold << 11)
    work = np.empty(min(out.size, _PASS), dtype=np.uint64)
    tmp = np.empty_like(work)
    offset = (state + start * _GAMMA) & _M64
    for lo in range(0, out.size, _PASS):
        dst = out[lo:lo + _PASS]
        x, t = work[:dst.size], tmp[:dst.size]
        np.add(_STEPS[:dst.size], np.uint64(offset), out=x)
        np.right_shift(x, _U30, out=t)
        x ^= t
        x *= _U_MIX_A
        np.right_shift(x, _U27, out=t)
        x ^= t
        x *= _U_MIX_B
        np.right_shift(x, _U31, out=t)
        x ^= t
        np.less(x, limit, out=dst)
        offset = (offset + _PASS_STEP) & _M64


@dataclass(frozen=True)
class EdgeSample:
    """The open-edge set of one percolation draw over Q^d:
    ``open_mask[e]`` is True iff uniform01(key, e) < p."""

    d: int
    p: float
    open_mask: np.ndarray
    key: SampleKey

    def __post_init__(self):
        self.open_mask.setflags(write=False)

    @property
    def open_count(self) -> int:
        return int(self.open_mask.sum())


def sample_edges(g, key: SampleKey, p: float) -> EdgeSample:
    """Draw Q^d_p: edge e is open iff uniform01(key, e) < p, decided by
    ``_open_bits`` in passes of ``_PASS`` counters, so its uint64 work
    arrays hold one pass, not all m counters."""
    mask = np.empty(g.m, dtype=bool)
    _open_bits(_stream_state(key), 0, _threshold(p), mask)
    return EdgeSample(d=g.d, p=float(p), open_mask=mask, key=key)


def sample_directions(g, key: SampleKey, p: float, window: range | None = None):
    """The draw of ``sample_edges`` one direction at a time, without the
    m-length mask: yields, for each direction i in increasing order, the
    bool array whose entry k is whether edge i * 2^(d-1) + window[k] is
    open.  ``window`` is a nonempty range of consecutive offsets in
    [0, 2^(d-1)), all of them by default; a half of the cube owns one half
    of every direction's offsets.

    Each item is a view into one reused buffer, valid until the next item.
    The buffer holds one window, or all d directions when the window is a
    whole direction and 2^(d-1) < _BLOCK / 2 (d <= 12): a direction that
    small costs little more than numpy's fixed overhead per call, so one
    ``_open_bits`` call samples them all.  A call per direction, over one
    joined call, on 2 CPUs: one-thread ``label_sample`` at c = 2 read
    1.29-1.38x at d = 8-11 (300 alternating draws), and whole c = 2
    experiments in fresh processes read 1.18x at d = 12 and 0.81x at
    d = 13 (20 alternating pairs each).  Calls over disjoint windows share
    nothing, so threads may sample them side by side.
    """
    half = 1 << (g.d - 1)
    window = range(half) if window is None else window
    threshold, state = _threshold(p), _stream_state(key)
    size = len(window)
    step = g.d if size == half < _BLOCK // 2 else 1  # directions per call
    buf = np.empty(size * step, dtype=bool)
    for i in range(0, g.d, step):
        _open_bits(state, i * half + window.start, threshold, buf)
        for lo in range(0, buf.size, size):
            yield buf[lo:lo + size]


@dataclass(frozen=True)
class SprinklingSplit:
    """Two-round decomposition with (1-p1)(1-p2) = 1-p."""

    p: float
    p1: float
    p2: float


def split_probability(p: float, p2: float) -> SprinklingSplit:
    """Solve 1-p = (1-p1)(1-p2) for the first-round probability p1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"total probability must lie in [0, 1], got {p}")
    if not 0.0 <= p2 < 1.0:
        raise ValueError(f"second-round probability must lie in [0, 1), got {p2}")
    if p2 > p:
        raise ValueError(f"second-round probability {p2} exceeds total {p}")
    # degenerate split is the exact identity, not 1 - (1 - p)
    p1 = p if p2 == 0.0 else 1.0 - (1.0 - p) / (1.0 - p2)
    return SprinklingSplit(p=float(p), p1=float(p1), p2=float(p2))


class BitStream:
    """Sequential Bernoulli(p) bit source: bit i is uniform01(key, i) < p.

    Bits are drawn ``_BLOCK`` at a time; only the current block is held, as
    ``bytes`` so that indexing it yields a plain int, and ``consumed`` counts
    the bits used so far.
    """

    def __init__(self, key: SampleKey, p: float):
        self._threshold = _threshold(p)
        self._state = _stream_state(key)
        self._buf = b""
        self._pos = _BLOCK
        self.consumed = 0

    def query(self, edge_index: int | None = None) -> int:
        # sequential source: the edge identity is irrelevant, order is all;
        # a spent block ends exactly at counter ``consumed``
        pos = self._pos
        if pos >= _BLOCK:
            block = np.empty(_BLOCK, dtype=bool)
            _open_bits(self._state, self.consumed, self._threshold, block)
            self._buf = block.tobytes()
            pos = 0
        self._pos = pos + 1
        self.consumed += 1
        return self._buf[pos]


class EdgeKeyedBitSource:
    """Bit source keyed by edge index: answers exactly as sample_edges would.

    Adapter for cross-checking exploration against full labeling under the
    same per-edge randomness.
    """

    def __init__(self, key: SampleKey, p: float):
        self._threshold = _threshold(p)
        self._state = _stream_state(key)
        self.consumed = 0

    def query(self, edge_index: int) -> int:
        self.consumed += 1
        bits = _mix64((self._state + edge_index * _GAMMA) & _M64)
        return int((bits >> 11) < self._threshold)


_DUMP_HEADER = struct.Struct("<IQIId")  # d, seed, trial, round, p


def write_sample(sample: EdgeSample, path) -> None:
    """Binary dump: header (d, seed, trial, round, p) then a packed bitmap of
    m bits, little-endian bit order by edge index."""
    header = _DUMP_HEADER.pack(
        sample.d, sample.key.seed, sample.key.trial, sample.key.round, sample.p
    )
    packed = np.packbits(sample.open_mask.view(np.uint8), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def read_sample(path) -> EdgeSample:
    """Inverse of write_sample; rejects a dump whose header is out of range,
    whose length is not exactly header + ceil(m/8) bytes, or whose last byte
    sets a padding bit past the m edge bits (possible for d <= 3)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _DUMP_HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {_DUMP_HEADER.size}-byte header")
    d, seed, trial, round_, p = _DUMP_HEADER.unpack_from(raw, 0)
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"{path}: dimension {d} out of range [1, {MAX_DIMENSION}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{path}: edge probability {p} out of range [0, 1]")
    m = d << (d - 1)
    expected = _DUMP_HEADER.size + (m + 7) // 8
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {expected} for a d={d} dump")
    if m % 8 and raw[-1] >> (m % 8):
        raise ValueError(f"{path}: padding bits past the {m} edge bits are set")
    packed = np.frombuffer(raw, dtype=np.uint8, offset=_DUMP_HEADER.size)
    mask = np.unpackbits(packed, count=m, bitorder="little").astype(bool)
    return EdgeSample(d=d, p=p, open_mask=mask, key=SampleKey(seed, trial, round_))
