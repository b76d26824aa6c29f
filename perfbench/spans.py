"""Spans recorded from outside the package, and the traced replay of a trial.

A span is (name, start, end, parent, trial): ``parent`` is the index of the
enclosing span or -1, and every span of one trial carries that trial's id.
Spans stay in memory and are written out once, at the end of a run.  The
replay calls each layer's public functions in the order the runner's trial
workers do, so its rows must equal the runner's rows for the same
(seed, trial); the benchmark checks that they do.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import workloads as wl

# BitStream's default block: bits are generated 8192 at a time.
BITSTREAM_BLOCK = 8192


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []
        self.trial = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.trial))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, trial = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, trial)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer, the span-name prefix."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[name.split(".", 1)[0]] += own
        return dict(totals)

    def covered(self, rid: str) -> float:
        """Time the layer spans of one replayed run cover: the theory block
        and each trial's layer calls, without the replay's own bookkeeping."""
        total = 0.0
        for name, start, end, parent, trial in self.spans:
            if (trial == rid or trial.startswith(rid + ":")) and not name.startswith("replay."):
                if parent < 0 or self.spans[parent][0].startswith("replay."):
                    total += end - start
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "trial": trial}
                    )
                    + "\n"
                )


def run_id(kind: str, d: int, c: float, seed: int) -> str:
    """Trace id of one replayed call; its trials append ``:trial``."""
    return f"{kind}:{d}:{c}:{seed}"


def replay_run(cp, tracer: Tracer, kind: str, d: int, c: float, seed: int, trials: int, counts) -> list[dict]:
    """One ``run_experiment`` call replayed layer by layer: the runner's
    theory block, then every trial in order."""
    rid = tracer.trial = run_id(kind, d, c, seed)
    with tracer.span("theory.block"):
        cp.solve_y(c)
        if kind == "supercritical":
            cp.second_component_bound(c, d)
            window = cp.ExperimentConfig(kind=kind, d=d, c=c, seed=seed).resolved_gap_window()
    if kind == "supercritical":
        return [supercritical_trial(cp, tracer, rid, d, c, seed, t, window, counts) for t in range(trials)]
    return [hitprob_trial(cp, tracer, rid, d, c, seed, t, counts) for t in range(trials)]


def supercritical_trial(cp, tracer: Tracer, rid, d, c, seed, trial, window, counts) -> dict:
    """One trial of ``run_supercritical``, layer by layer."""
    tracer.trial = f"{rid}:{trial}"
    with tracer.span("replay.trial"):
        with tracer.span("hypercube.CubeGraph"):
            g = cp.CubeGraph(d)
        with tracer.span("sampler.sample_edges"):
            sample = cp.sample_edges(g, cp.SampleKey(seed, trial, 0), c / d)
        with tracer.span("components.label_components"):
            labeling = cp.label_components(g, sample)
        with tracer.span("components.w_set"):
            w = cp.w_set(labeling, d * d)
        if w.members.any():
            with tracer.span("components.distance_to_set"):
                _, max_dist = cp.distance_to_set(g, w.members)
        else:
            max_dist = -1
        with tracer.span("components.size_gap_count"):
            gap = cp.size_gap_count(labeling, *window)
    counts["open_edges"].append(sample.open_count)
    counts["n_components"].append(labeling.n_components)
    counts["distance_levels"].append(max(max_dist, 0))
    return {
        "trial": trial,
        "l1": labeling.l1,
        "l2": labeling.l2,
        "n_components": labeling.n_components,
        "w_density": wl.r12(w.density),
        "gap_count": gap,
        "max_dist_w": max_dist,
    }


def hitprob_trial(cp, tracer: Tracer, rid, d, c, seed, trial, counts) -> dict:
    """One trial of ``run_hitprob``: a capped exploration from vertex 0."""
    tracer.trial = f"{rid}:{trial}"
    with tracer.span("replay.trial"):
        with tracer.span("hypercube.CubeGraph"):
            g = cp.CubeGraph(d)
        with tracer.span("sampler.BitStream"):
            stream = cp.BitStream(cp.SampleKey(seed, trial, 0), c / d)
        with tracer.span("components.explore_component"):
            result = cp.explore_component(g, 0, stream, cap=d * d)
    counts["bitstream_bits"].append(stream.consumed)
    counts["bitstream_generated"].append(-(-stream.consumed // BITSTREAM_BLOCK) * BITSTREAM_BLOCK)
    counts["edges_queried"].append(result.edges_queried)
    counts["cap_hit"].append(int(result.cap_hit))
    return {
        "trial": trial,
        "hit": int(result.cap_hit),
        "size": result.size,
        "edges_queried": result.edges_queried,
    }
