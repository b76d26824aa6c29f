"""Monte Carlo experiment harness.

Declarative dataclass configs, trials keyed by (seed, trial) so rows are
reproducible and order-independent, and reports written as commented CSV or
structured JSON with floats rounded to 12 significant digits.

Each experiment kind is one entry of ``KINDS``: its parameter and domain, a
per-trial worker, a theory block and an aggregate.  ``run_experiment`` is the
one runner; the config keys, their parsing and the CLI flags all come from the
``ExperimentConfig`` fields.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from contextlib import ExitStack
from dataclasses import MISSING, Field, dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import theory
from .components import (
    distance_to_set,
    explore_component,
    extend,
    label_sample,
    label_windows,
    process_count,
    size_gap_count,
    thread_count,
    w_set,
)
from .errors import CapacityError, ConfigError
from .hypercube import MAX_DIMENSION, CubeGraph, direction_bases
from .sampler import BitStream, SampleKey, sample_directions, split_probability

REPORT_FORMATS = ("csv", "json")
MAX_TRIALS = 1 << 32  # trial indices must fit SampleKey's 32-bit field

_GW_DOMAIN_TAG = 0x47570001  # keeps numpy-backed draws out of the edge-sampler streams


def _r12(x):
    """Round every float, also inside dicts and lists, to 12 significant
    digits; the float contract for all reports and CLI output."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _r12(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_r12(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# per-trial workers (module level so process pools can pickle them); each
# takes (seed, trial, *params) with the params from its kind's theory block,
# and those that label the whole cube take the number of threads to use


def _supercritical_trial(args, threads: int = 1) -> dict:
    seed, trial, d, p, w_threshold, gap_lo, gap_hi = args
    g = CubeGraph(d)
    labeling = label_sample(g, SampleKey(seed, trial, 0), p, threads)
    w = w_set(labeling, w_threshold)
    if w.members.any():
        _, max_dist = distance_to_set(g, w.members)
    else:
        max_dist = -1
    return {
        "trial": trial,
        "l1": labeling.l1,
        "l2": labeling.l2,
        "n_components": labeling.n_components,
        "w_density": _r12(w.density),
        "gap_count": size_gap_count(labeling, gap_lo, gap_hi),
        "max_dist_w": max_dist,
    }


def _subcritical_trial(args, threads: int = 1) -> dict:
    seed, trial, d, p, bound = args
    labeling = label_sample(CubeGraph(d), SampleKey(seed, trial, 0), p, threads)
    return {
        "trial": trial,
        "l1": labeling.l1,
        "l2": labeling.l2,
        "n_components": labeling.n_components,
        "exceeds_bound": int(labeling.l1 > bound),
    }


def _round1_bases(g, seed, trial, p1, p2, extra, window) -> list:
    # round 1's open bases over a window of every direction's counters, in
    # the window's own ids, as label_windows takes them.  The edges that
    # only round 2 opens go to extra[1] from the upper half's window and to
    # extra[0] from any other, so no list is written by two threads, as
    # (direction, bases in vertex ids): a window from counter s starts at
    # vertex 2s below the top direction and at vertex s in it
    added = extra[window.start > 0]
    rounds = zip(
        sample_directions(g, SampleKey(seed, trial, 1), p1, window),
        sample_directions(g, SampleKey(seed, trial, 2), p2, window),
    )
    bases = []
    for i, (open1, open2) in enumerate(rounds):
        bases.append(direction_bases(open1, i))
        added.append((i, direction_bases(open2 & ~open1, i) + (window.start if i == g.d - 1 else 2 * window.start)))
    return bases


def _sprinkling_trial(args, threads: int = 1) -> dict:
    seed, trial, d, p1, p2, w_threshold = args
    g = CubeGraph(d)
    extra = ([], [])
    labeling1 = label_windows(g, partial(_round1_bases, g, seed, trial, p1, p2, extra), threads)
    # independent rounds with (1-p1)(1-p2) = 1-p: the union is a draw at p,
    # round 1's components joined along the edges only round 2 opened
    labeling_u = extend(labeling1, extra[0] + extra[1])
    w1 = w_set(labeling1, w_threshold)
    w1_size = int(np.count_nonzero(w1.members))
    w1_components = int(np.count_nonzero(labeling1.component_sizes >= w_threshold))
    union_labels = labeling_u._vertex_labels.compress(w1.members)  # int32, no int64 copy
    merged = int(union_labels.min() == union_labels.max()) if w1_size else 1  # vacuously: nothing to merge
    union_open = labeling_u.open_edges
    return {
        "trial": trial,
        "w1_size": w1_size,
        "w1_g1_components": w1_components,
        "g1_premerged": int(w1_components <= 1),
        "merge_ok": merged,
        "l1_union": labeling_u.l1,
        "union_open_count": union_open,
        "union_open_rate": _r12(union_open / g.m),
    }


def _gw_trial(args) -> dict:
    seed, trial, d, p, cap = args
    # total offspring of a z-strong generation is Bin(z*d, p) exactly, so a
    # generation is one binomial draw; PCG64 keyed by (seed, trial) keeps
    # rows a pure function of their trial index
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial, _GW_DOMAIN_TAG)))
    alive = 1
    total = 1
    generations = 0
    while alive > 0 and total < cap:
        alive = int(rng.binomial(alive * d, p))
        total += alive
        generations += 1
    return {
        "trial": trial,
        "survived": int(total >= cap),
        "total_progeny": total,
        "generations": generations,
    }


def _hitprob_trial(args) -> dict:
    seed, trial, d, p, threshold = args
    g = CubeGraph(d)
    stream = BitStream(SampleKey(seed, trial, 0), p)
    result = explore_component(g, 0, stream, cap=threshold)
    return {
        "trial": trial,
        "hit": int(result.cap_hit),
        "size": result.size,
        "edges_queried": result.edges_queried,
    }


# ---------------------------------------------------------------------------
# theory blocks: (theory values the run is judged against, per-trial params)


def _supercritical_theory(cfg: ExperimentConfig) -> tuple[dict, tuple]:
    p = cfg.c / cfg.d
    w_threshold = cfg.resolved_w_threshold()
    gap_lo, gap_hi = cfg.resolved_gap_window()
    block = {
        "p": _r12(p),
        "y": _r12(theory.solve_y(cfg.c)),
        "second_component_bound": _r12(theory.second_component_bound(cfg.c, cfg.d)),
        "w_threshold": w_threshold,
        "gap_lo": gap_lo,
        "gap_hi": gap_hi,
    }
    return block, (cfg.d, p, w_threshold, gap_lo, gap_hi)


def _subcritical_theory(cfg: ExperimentConfig) -> tuple[dict, tuple]:
    p = (1.0 - cfg.eps) / (cfg.d - 1)
    bound = theory.subcritical_bound(cfg.d, cfg.eps)
    block = {"p": _r12(p), "eps": cfg.eps, "subcritical_bound": _r12(bound)}
    return block, (cfg.d, p, bound)


def _sprinkling_theory(cfg: ExperimentConfig) -> tuple[dict, tuple]:
    split = split_probability(cfg.c / cfg.d, cfg.d ** (-cfg.p2_exponent))
    w_threshold = cfg.resolved_w_threshold()
    block = {
        "p": _r12(split.p),
        "p1": _r12(split.p1),
        "p2": _r12(split.p2),
        "y": _r12(theory.solve_y(cfg.c)),
        "w_threshold": w_threshold,
    }
    return block, (cfg.d, split.p1, split.p2, w_threshold)


def _gw_theory(cfg: ExperimentConfig) -> tuple[dict, tuple]:
    p = cfg.c / cfg.d
    block = {
        "p": _r12(p),
        "exact_survival": _r12(theory.gw_extinction(cfg.d, p).survival),
        "y": _r12(theory.solve_y(cfg.c)) if cfg.c > 1.0 + 1e-9 else None,
        "progeny_cap": cfg.gw_progeny_cap,
    }
    return block, (cfg.d, p, cfg.gw_progeny_cap)


def _hitprob_theory(cfg: ExperimentConfig) -> tuple[dict, tuple]:
    p = cfg.c / cfg.d
    threshold = cfg.resolved_w_threshold()
    block = {"p": _r12(p), "y": _r12(theory.solve_y(cfg.c)), "threshold": threshold}
    return block, (cfg.d, p, threshold)


# ---------------------------------------------------------------------------
# aggregates over the rows, in trial order


def _column(rows, name):
    return [row[name] for row in rows]


def _summary(values, prefix):
    return {
        f"{prefix}_mean": _r12(statistics.fmean(values)),
        f"{prefix}_std": _r12(statistics.pstdev(values)),
        f"{prefix}_min": _r12(min(values)),
        f"{prefix}_max": _r12(max(values)),
    }


def _rate(count, trials, name):
    rate = count / trials
    return {
        f"{name}_rate": _r12(rate),
        f"{name}_se": _r12(math.sqrt(rate * (1.0 - rate) / trials)),
    }


def _supercritical_aggregate(cfg: ExperimentConfig, rows) -> dict:
    l1s = _column(rows, "l1")
    return {
        **_summary(l1s, "l1"),
        "l1_over_n_mean": _r12(statistics.fmean(l1s) / cfg.n),
        **_summary(_column(rows, "l2"), "l2"),
        **_summary(_column(rows, "n_components"), "n_components"),
        **_summary(_column(rows, "w_density"), "w_density"),
        "gap_zero_trials": sum(1 for r in rows if r["gap_count"] == 0),
        "max_dist_w_max": max(_column(rows, "max_dist_w")),
    }


def _subcritical_aggregate(cfg: ExperimentConfig, rows) -> dict:
    return {
        **_summary(_column(rows, "l1"), "l1"),
        **_summary(_column(rows, "n_components"), "n_components"),
        "exceed_count": sum(_column(rows, "exceeds_bound")),
    }


def _sprinkling_aggregate(cfg: ExperimentConfig, rows) -> dict:
    total_open = sum(_column(rows, "union_open_count"))
    return {
        "merge_ok_count": sum(_column(rows, "merge_ok")),
        "g1_premerged_count": sum(_column(rows, "g1_premerged")),
        **_summary(_column(rows, "w1_size"), "w1_size"),
        **_summary(_column(rows, "l1_union"), "l1_union"),
        "union_open_total": total_open,
        "union_open_rate_pooled": _r12(total_open / (cfg.trials * CubeGraph(cfg.d).m)),
    }


def _gw_aggregate(cfg: ExperimentConfig, rows) -> dict:
    survived = sum(_column(rows, "survived"))
    return {
        "survived_count": survived,
        **_rate(survived, cfg.trials, "survival"),
        **_summary(_column(rows, "generations"), "generations"),
    }


def _hitprob_aggregate(cfg: ExperimentConfig, rows) -> dict:
    hits = sum(_column(rows, "hit"))
    return {"hit_count": hits, **_rate(hits, cfg.trials, "hit")}


class Kind(NamedTuple):
    """One experiment kind: the config field that sets its edge probability
    and that field's domain, the per-trial worker, the theory block and the
    aggregate; whether its trials build Q^d (``cube``), the optional keys it
    reads besides ``param`` (``reads``: another kind's key must be unset)
    and whether it labels the whole cube (``labels``: the worker takes
    ``threads``, and ``process_count`` sizes its pool)."""

    param: str
    domain: str
    in_domain: Callable[[float], bool]
    trial: Callable[[tuple], dict]
    theory: Callable[[ExperimentConfig], tuple[dict, tuple]]
    aggregate: Callable[[ExperimentConfig, list], dict]
    cube: bool
    reads: tuple[str, ...]
    labels: bool


_EXCEED_1 = ("c", "exceed 1", lambda c: c > 1.0)

KINDS = {
    "supercritical": Kind(*_EXCEED_1, _supercritical_trial, _supercritical_theory, _supercritical_aggregate,
                          True, ("w_threshold", "gap_lo", "gap_hi"), True),
    "subcritical": Kind("eps", "lie in (0, 1)", lambda e: 0.0 < e < 1.0,
                        _subcritical_trial, _subcritical_theory, _subcritical_aggregate, True, (), True),
    "sprinkling": Kind(*_EXCEED_1, _sprinkling_trial, _sprinkling_theory, _sprinkling_aggregate,
                       True, ("w_threshold",), True),
    "gw": Kind("c", "be nonnegative", lambda c: c >= 0.0, _gw_trial, _gw_theory, _gw_aggregate, False, (), False),
    "hitprob": Kind(*_EXCEED_1, _hitprob_trial, _hitprob_theory, _hitprob_aggregate, True, ("w_threshold",), False),
}

# the keys that only some kinds read: each kind's param and optional keys
_KIND_KEYS = sorted({key for k in KINDS.values() for key in (k.param, *k.reads)})


# ---------------------------------------------------------------------------
# config


_SCALAR_TYPES = {"int": int, "float": float, "str": str}


def _typed(typ: type, value) -> bool:
    # a ``typ`` itself, or an int for a float key that a float can hold
    # (a larger one would overflow where it is divided or widened).  A bool
    # is refused for every key: it is an int, but True is no count,
    # dimension or rate
    if isinstance(value, bool):
        return False
    if typ is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, typ)


def _parsed(typ: type, value):
    # a string parsed by ``typ`` and an int widened for a float key; any
    # other value, an int too large for a float among them, is left for
    # ``validate`` to check
    if isinstance(value, str):
        return typ(value)
    return float(value) if typ is float and _typed(float, value) else value


def config_field_type(f: Field) -> type:
    """The scalar type a config field's values are coerced to.  Annotations
    are strings here (``from __future__ import annotations``), such as
    ``"int | None"``."""
    return _SCALAR_TYPES[f.type.split(" | ")[0]]


@dataclass
class ExperimentConfig:
    """One experiment: what to run, at which parameters, under which seed.

    Exactly one of ``c`` (supercritical-style kinds) or ``eps`` (subcritical)
    is set.  Defaults: w_threshold = d^2, p2_exponent = 5, gap window
    [ceil(d/(c-1-ln c)), floor(0.01 * 2^d)].  The fields are the config keys
    and the ``cubeperc experiment`` flags; a field's metadata may carry its
    ``choices``, a ``help`` line, and ``echo=False`` to keep it out of the
    report.
    """

    kind: str = field(metadata={"choices": tuple(KINDS)})
    d: int
    c: float | None = None
    eps: float | None = None
    trials: int = 20
    seed: int = 0
    w_threshold: int | None = None
    p2_exponent: float = 5.0
    gap_lo: int | None = None
    gap_hi: int | None = None
    gw_progeny_cap: int = 10_000
    out: str | None = field(default=None, metadata={"help": "report destination path", "echo": False})
    format: str = field(default="json", metadata={"choices": REPORT_FORMATS, "echo": False})

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """ConfigError listing every problem, or CapacityError for d > MAX_DIMENSION on a cube kind."""
        wrong = []
        for f in fields(self):
            value, typ = getattr(self, f.name), config_field_type(f)
            if not (value is None and f.default is None or _typed(typ, value)):
                wrong.append(f"config key {f.name} must be of type {typ.__name__}, got {value!r}")
        if wrong:  # the checks below compare, so a value of another type stops here
            raise ConfigError("invalid config: " + "; ".join(wrong))
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if "choices" in f.metadata and value not in f.metadata["choices"]:
                problems.append(f"{f.name} must be one of {f.metadata['choices']}, got {value!r}")
        if self.d < 2:
            problems.append(f"d must be an integer >= 2, got {self.d!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            problems.append(f"trials must be an integer in [1, 2^32], got {self.trials!r}")
        if not 0 <= self.seed < 1 << 64:
            problems.append(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        spec = KINDS.get(self.kind)
        if spec is not None:
            # the d a trial can take, checked before c / d (a float): Q^d up
            # to MAX_DIMENSION (a larger d is refused below), and gw's draws
            # Bin(alive * d, p), alive < gw_progeny_cap, in numpy's int64
            sized = self.d <= MAX_DIMENSION if spec.cube else self.d * self.gw_progeny_cap < 1 << 63
            if not sized and not spec.cube:
                problems.append(f"d * gw_progeny_cap must be below 2^63 for kind={self.kind}")
            value = getattr(self, spec.param)
            if value is None:
                problems.append(f"{spec.param} is required for kind={self.kind}")
            elif not spec.in_domain(value):
                problems.append(f"{spec.param} must {spec.domain} for kind={self.kind}, got {value}")
            elif spec.param == "c" and sized and self.d >= 2 and value / self.d > 1.0:
                problems.append(f"c = {value} makes p = c/d = {value / self.d:.6g} exceed 1 for kind={self.kind}")
            for other in _KIND_KEYS:
                if other not in (spec.param, *spec.reads) and getattr(self, other) is not None:
                    problems.append(f"{other} must be unset for kind={self.kind}, which does not read it")
            if 2 <= self.d <= MAX_DIMENSION:  # a larger d is refused below
                w = self.resolved_w_threshold()  # the default d^2 exceeds 2^d at d = 3
                if "w_threshold" in spec.reads and w > self.n:
                    problems.append(f"w_threshold {w} exceeds 2^d = {self.n} for kind={self.kind}")
                if self.kind == "sprinkling" and value is not None and self.p2_exponent > 0:
                    p2 = self.d ** -self.p2_exponent  # as the theory block computes it
                    if p2 > value / self.d:
                        problems.append(f"p2_exponent = {self.p2_exponent} makes d^-p2_exponent = {p2:.6g} exceed c/d")
        if self.w_threshold is not None and self.w_threshold < 1:
            problems.append(f"w_threshold must be >= 1, got {self.w_threshold}")
        if self.gw_progeny_cap < 1:
            problems.append(f"gw_progeny_cap must be an integer >= 1, got {self.gw_progeny_cap!r}")
        if not self.p2_exponent > 0:  # NaN fails too
            problems.append(f"p2_exponent must be positive, got {self.p2_exponent}")
        if (self.gap_lo is None) != (self.gap_hi is None):
            problems.append("gap_lo and gap_hi must be given together")
        if self.gap_lo is not None and self.gap_hi is not None and self.gap_lo > self.gap_hi:
            problems.append(f"gap window is empty: [{self.gap_lo}, {self.gap_hi}]")
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))
        if spec.cube and self.d > MAX_DIMENSION:
            raise CapacityError(f"dimension {self.d} exceeds the supported maximum {MAX_DIMENSION}")

    @property
    def n(self) -> int:
        return 1 << self.d

    def resolved_w_threshold(self) -> int:
        return self.w_threshold if self.w_threshold is not None else self.d * self.d

    def resolved_gap_window(self) -> tuple[int, int]:
        if self.gap_lo is not None:
            return self.gap_lo, self.gap_hi
        lo = math.ceil(theory.second_component_bound(self.c, self.d))
        hi = math.floor(0.01 * self.n)
        return lo, max(lo, hi)

    def echo(self) -> dict:
        """Semantic fields only; output destination/format stay out so the
        report bytes do not depend on where they are written."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.metadata.get("echo", True)}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build a config from key -> value (strings from a config file, or
        typed values); a string is parsed by its field's type, an int for a
        float key becomes a float, and None leaves a field at its default.
        ``validate`` then refuses a value of another type."""
        bad = sorted(k for k in mapping if k not in CONFIG_KEYS)
        if bad:
            raise ConfigError(f"unknown config keys: {', '.join(bad)}")
        kwargs = {}
        for f in fields(cls):
            value = mapping.get(f.name)
            if value is None:
                if f.default is MISSING:
                    raise ConfigError(f"missing config key: {f.name}")
                continue
            typ = config_field_type(f)
            try:
                kwargs[f.name] = _parsed(typ, value)
            except ValueError:
                raise ConfigError(f"config key {f.name} must be of type {typ.__name__}, got {value!r}") from None
        return cls(**kwargs)


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def parse_config_file(path) -> dict:
    """Flat key = value text; '#' starts a comment, blank lines ignored, and a
    key may appear once."""
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in mapping:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
            mapping[key] = value
    return mapping


# ---------------------------------------------------------------------------
# the runner


@dataclass
class ExperimentReport:
    """Config echo, attached theory values, per-trial rows, and aggregates."""

    config: dict
    theory: dict
    rows: list[dict]
    aggregates: dict

    def to_json_bytes(self) -> bytes:
        doc = {
            "config": self.config,
            "theory": self.theory,
            "rows": self.rows,
            "aggregates": self.aggregates,
        }
        return (json.dumps(doc, indent=2) + "\n").encode()


def _map_trials(fn, args_list, workers, on_trial):
    total = len(args_list)
    with ExitStack() as stack:
        if workers <= 1:
            mapped = map(fn, args_list)
        else:
            # imported here: a serial run loads neither multiprocessing nor logging
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            mapped = pool.map(fn, args_list, chunksize=max(1, total // (workers * 8)))
        rows = []
        for row in mapped:
            rows.append(row)
            if on_trial:
                on_trial(len(rows), total)
        return rows


def run_experiment(cfg: ExperimentConfig, workers: int = 1, on_trial=None) -> ExperimentReport:
    """Run the config's trials, on at most ``min(workers, trials)`` processes.
    Kinds that label the whole cube start a pool only when the call's
    labelings pay for it (``process_count``: at least two ``_TASK`` ranges
    of vertices labeled), and each trial runs on the CPUs its process leaves
    (``thread_count``).

    Rows depend only on (seed, trial), so the report bytes do not depend on
    ``workers`` or on the thread count.  ``on_trial(done, total)`` is called
    as trials complete.
    """
    if not _typed(int, workers) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    spec = KINDS[cfg.kind]
    block, params = spec.theory(cfg)
    args = [(cfg.seed, t, *params) for t in range(cfg.trials)]
    if spec.labels:
        processes = process_count(cfg.d, cfg.trials, workers)
        trial = partial(spec.trial, threads=thread_count(cfg.d, processes))
    else:
        processes, trial = min(workers, cfg.trials), spec.trial
    rows = _map_trials(trial, args, processes, on_trial)
    return ExperimentReport(cfg.echo(), block, rows, spec.aggregate(cfg, rows))


# ---------------------------------------------------------------------------
# report I/O


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_report(report: ExperimentReport, path, format: str = "json") -> None:
    """Write the report; CSV is one row per trial under a commented config
    header, JSON is the full structure.  Deterministic byte-for-byte."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    try:
        if format == "json":
            with open(path, "wb") as fh:
                fh.write(report.to_json_bytes())
            return
        columns = list(report.rows[0].keys())
        lines = [f"# {k} = {_format_value(v)}" for k, v in report.config.items()]
        lines += [f"# theory.{k} = {_format_value(v)}" for k, v in report.theory.items()]
        lines.append(",".join(columns))
        for row in report.rows:
            lines.append(",".join(_format_value(row[c]) for c in columns))
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
