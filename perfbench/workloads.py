"""Workload table, output checks and small statistics shared by the benchmark.

Every workload is a closed loop: one process calls ``run_experiment`` and
``write_report`` back to back, starting the next call only when the previous
report is on disk.  README.md in this directory says why each one exists.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass

# The tail reported is each workload's ``tail_q`` percentile, fixed so that a
# faster program is not measured further out in its tail; the timed phase
# runs until at least TAIL_BEYOND samples lie beyond it.  Should a run still
# fall short, the next lower percentile of TAIL_LADDER that has them is used.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 60.0, 50.0)
TAIL_BEYOND = 10

# Tolerances of the acceptance suite: mean l1/n and mean w_density within
# 0.08 of y(c) (criteria 06 and 10), hit rate within 0.05 of y(c)
# (test_hit_probability_matches_survival_fraction).
L1_TOL = 0.08
W_TOL = 0.08
HIT_TOL = 0.05

# c used by the probes that measure a layer off a workload's own path.
PROBE_C = 2.0
PROBE_EXPLORATIONS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "supercritical" or "hitprob"
    d: int
    smoke_d: int
    cs: tuple[float, ...]
    workers: int
    trials: int  # trials per run_experiment call
    smoke_trials: int
    tail_q: float  # the highest percentile with ten samples beyond it at this size

    @property
    def min_samples(self) -> int:
        """Samples needed for TAIL_BEYOND of them to lie beyond tail_q."""
        return math.ceil(TAIL_BEYOND / (1.0 - self.tail_q / 100.0))

    def size(self, smoke: bool) -> tuple[int, int]:
        """(d, trials per call) at full or smoke size."""
        return (self.smoke_d, self.smoke_trials) if smoke else (self.d, self.trials)

    @property
    def labels(self) -> bool:
        """Whether the trials sample the whole cube and label it."""
        return self.kind == "supercritical"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("giant-d20", "supercritical", 20, 10, (2.0,), 1, 1, 1, 60.0),
        Workload("explore-d20", "hitprob", 20, 10, (2.0,), 1, 200, 50, 99.0),
        Workload(
            "sweep-d14",
            "supercritical",
            14,
            8,
            tuple(round(1.2 + 0.2 * i, 1) for i in range(10)),
            2,
            10,
            4,
            95.0,
        ),
    )
}

# sha256 over the JSON report bytes of batch 0 at --seed 0 (all grid points in
# order), pinned from the package as it stood when the benchmark was added.
PINNED_DIGESTS = {
    ("giant-d20", False): "4f5da2803b786171b30126493452bfb0d8661a297ee231ba4b97e044f53d3302",
    ("explore-d20", False): "393a4529bc10a432de9d6aea094a0fb7f3746f9607630b8f0fa4df7a8d2f9e01",
    ("sweep-d14", False): "e531e04952efa100dc11d02624267ec9b523e329b2cc154400f56db76c5b2917",
    ("giant-d20", True): "8176eb83e913c772b4de43882e7a11525db0970995c70747bf641c3380e715aa",
    ("explore-d20", True): "5e79bf671371a21c20490584a78e7ef3e11964f080fe3e64f238ccf7cacc1740",
    ("sweep-d14", True): "706219723e1ebe4bb81a9499ad502c4b69884e78a7bc34c480591c5aa67b857e",
}

DEFAULT_SEED = 0


def batch_seed(seed: int, batch: int) -> int:
    """Config seed of the ``batch``-th closed-loop iteration of a run."""
    return seed * 100_000 + batch


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def r12(x: float) -> float:
    """The report float contract: 12 significant digits."""
    return float(f"{x:.12g}")


def tail(values, q: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at percentile ``q`` by nearest
    rank, or at the highest lower ladder percentile that has TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (q, *(p for p in TAIL_LADDER if p < q)):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# output checks


def law_applies(theory, c: float, d: int) -> bool:
    """The asymptotic law is checked only where the runner's own gap window
    [d/(c-1-ln c), 0.01 n] is non-empty, i.e. where the second-component
    bound sits below the giant-component scale at this n.  At d = 14 this
    leaves out c = 1.2 and 1.4, which sit in the finite-size crossover."""
    return math.ceil(theory.second_component_bound(c, d)) <= math.floor(0.01 * (1 << d))


def check_supercritical(theory, d: int, c: float, rows) -> tuple[set[int], list[str]]:
    n = 1 << d
    bad = set()
    for i, r in enumerate(rows):
        if not (
            1 <= r["l1"] <= n
            and 0 <= r["l2"] <= r["l1"]
            and 1 <= r["n_components"] <= n
            and 0.0 <= r["w_density"] <= 1.0
        ):
            bad.add(i)
    problems = []
    if law_applies(theory, c, d):
        bound = theory.second_component_bound(c, d)
        bad |= {i for i, r in enumerate(rows) if r["l2"] > bound}
        y = theory.solve_y(c)
        l1n = statistics.fmean(r["l1"] for r in rows) / n
        wd = statistics.fmean(r["w_density"] for r in rows)
        if abs(l1n - y) > L1_TOL:
            problems.append(f"c={c}: mean l1/n {l1n:.4f} not within {L1_TOL} of y={y:.4f}")
        if abs(wd - y) > W_TOL:
            problems.append(f"c={c}: mean w_density {wd:.4f} not within {W_TOL} of y={y:.4f}")
    return bad, problems


def check_hitprob(theory, d: int, c: float, rows) -> tuple[set[int], list[str]]:
    cap = d * d
    bad = set()
    for i, r in enumerate(rows):
        if not (
            r["hit"] in (0, 1)
            and 1 <= r["size"] <= cap
            and bool(r["hit"]) == (r["size"] == cap)
            and r["edges_queried"] >= r["size"] - 1
        ):
            bad.add(i)
    problems = []
    if law_applies(theory, c, d):
        y = theory.solve_y(c)
        rate = statistics.fmean(r["hit"] for r in rows)
        if abs(rate - y) > HIT_TOL:
            problems.append(f"c={c}: hit rate {rate:.4f} not within {HIT_TOL} of y={y:.4f}")
    return bad, problems


def check_rows(w: Workload, theory, d: int, c: float, rows) -> tuple[set[int], list[str]]:
    """Indices of rows that fail a check, and aggregate problems (which fail
    every row of the grid point), for all rows of one grid point."""
    check = check_supercritical if w.labels else check_hitprob
    return check(theory, d, c, rows)
