"""Command-line entry point: theory, oracle, sim, and experiment subcommands.

Machine output (JSON, CSV) goes to stdout; human-readable notes and the
trial counter go to stderr.  Exit codes: 0 success, 1 config/input error,
2 capacity/internal error.  A config file that cannot be read and a report
or histogram that cannot be written are input errors, and an output path
whose directory does not exist is refused before any sampling.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import fields

from . import theory
from .components import label_sample, thread_count, usable_cpus, write_histogram_csv
from .errors import CapacityError, ConfigError
from .experiments import (
    ExperimentConfig,
    _r12,
    config_field_type,
    parse_config_file,
    run_experiment,
    write_report,
)
from .hypercube import CubeGraph
from .oracles import SmallGraph, count_subtrees, exact_percolation_distribution, harper_check
from .sampler import SampleKey


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; bad input is exit 1 in this tool
    def error(self, message):
        raise ConfigError(message)


def _seed(text: str) -> int:
    """Seeds default to 0 for reproducibility; entropy is opt-in via 'random'."""
    if text == "random":
        import secrets

        value = secrets.randbits(63)
        print(f"seed = {value}", file=sys.stderr)
        return value
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--seed takes an integer or 'random', got {text!r}") from None


def _io(fn, *args):
    # fn(*args) with an OSError (a missing config, an unwritable output) as
    # an input error
    try:
        return fn(*args)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc


def _check_out_dir(path) -> None:
    # refuse an output path whose directory does not exist, before the run
    # that would write it
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"no such directory for the output {path!r}: {folder!r}")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_theory(args) -> int:
    if args.d is not None and args.d < 1:
        raise ConfigError(f"--d must be >= 1, got {args.d}")
    if args.c is not None and args.d is not None and args.c / args.d > 1.0:
        raise ConfigError(f"--c {args.c} and --d {args.d} make p = c/d = {args.c / args.d:.6g} exceed 1")
    out: dict = {}
    if args.c is not None:
        out["c"] = args.c
        out["y"] = theory.solve_y(args.c)
        if args.d is not None:
            out["second_bound"] = theory.second_component_bound(args.c, args.d)
            out["gw_survival"] = theory.gw_extinction(args.d, args.c / args.d).survival
    if args.d is not None:
        out["d"] = args.d
        out["n"] = 1 << args.d
    if args.eps is not None:
        if args.d is None:
            raise ConfigError("--eps requires --d (the bound depends on n = 2^d)")
        out["eps"] = args.eps
        out["subcritical_k"] = theory.subcritical_bound(args.d, args.eps)
    if not out:
        raise ConfigError("nothing to compute: pass --c and/or --d/--eps")
    _emit(_r12(out))
    return 0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def cmd_sim(args) -> int:
    start = time.perf_counter()
    g = CubeGraph(args.d)
    if not 0.0 <= args.p <= 1.0:
        raise ConfigError(f"--p must lie in [0, 1], got {args.p}")
    if args.hist:
        _check_out_dir(args.hist)
    labeling = label_sample(g, SampleKey(args.seed, args.trial, 0), args.p, thread_count(args.d))
    print(
        f"Q^{args.d} at p={args.p}: l1={labeling.l1} l2={labeling.l2} "
        f"components={labeling.n_components} "
        f"wall={time.perf_counter() - start:.3f}s peak_rss={_peak_rss_mb():.0f}MB",
        file=sys.stderr,
    )
    if args.hist:
        _io(write_histogram_csv, labeling, args.hist)
        print(f"histogram written to {args.hist}", file=sys.stderr)
    _emit(
        {
            "d": args.d,
            "p": args.p,
            "seed": args.seed,
            "trial": args.trial,
            "open_edges": labeling.open_edges,
            "l1": labeling.l1,
            "l2": labeling.l2,
            "n_components": labeling.n_components,
        }
    )
    return 0


def cmd_experiment(args) -> int:
    cpus = usable_cpus()
    if not 1 <= args.workers <= cpus:
        raise ConfigError(f"--workers must lie in [1, {cpus}] (the usable CPU count), got {args.workers}")
    mapping = _io(parse_config_file, args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            mapping[f.name] = getattr(args, f.name)
    cfg = ExperimentConfig.from_mapping(mapping)
    if cfg.out:
        _check_out_dir(cfg.out)

    def counter(done, total):
        print(f"trial {done}/{total}", file=sys.stderr)

    report = run_experiment(cfg, workers=args.workers, on_trial=counter if args.progress else None)
    if cfg.out:
        _io(write_report, report, cfg.out, cfg.format)
        print(f"report written to {cfg.out} ({cfg.format})", file=sys.stderr)
    _emit({"config": report.config, "theory": report.theory, "aggregates": report.aggregates})
    return 0


def cmd_oracle(args) -> int:
    if args.check == "harper":
        report = harper_check(args.d)
        _emit(
            {
                "check": "harper",
                "instance": {"d": args.d, "subsets_checked": report.subsets_checked},
                "violations": len(report.violations),
                "weak_violations": len(report.weak_violations),
            }
        )
    elif args.check == "subtrees":
        g = SmallGraph.from_cube(CubeGraph(args.d))
        count = count_subtrees(g, args.v, args.k)
        bound = theory.tree_count_bound(args.d, args.k)
        _emit(
            _r12(
                {
                    "check": "subtrees",
                    "instance": {"d": args.d, "v": args.v, "k": args.k},
                    "values": {"count": count, "bound": bound.loose, "sharp_bound": bound.sharp},
                }
            )
        )
    else:  # exactdist
        g = SmallGraph.from_cube(CubeGraph(args.d))
        dist = exact_percolation_distribution(g, args.p)
        _emit(
            _r12(
                {
                    "check": "exactdist",
                    "instance": {"d": args.d, "p": args.p},
                    "values": {
                        "expected_l1": dist.expected_l1,
                        "l1_marginal": {str(k): v for k, v in sorted(dist.l1_marginal.items())},
                        "component_count_marginal": {
                            str(k): v for k, v in sorted(dist.component_count_marginal.items())
                        },
                    },
                }
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubeperc", description="Percolation laboratory for the binary cube")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="closed-form values as JSON")
    p_theory.add_argument("--c", type=float, help="supercritical mean-degree parameter (> 1)")
    p_theory.add_argument("--d", type=int, help="cube dimension")
    p_theory.add_argument("--eps", type=float, help="subcritical margin in (0, 1)")
    p_theory.set_defaults(func=cmd_theory)

    p_sim = sub.add_parser("sim", help="one percolation draw + component summary")
    p_sim.add_argument("--d", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--trial", type=int, default=0)
    p_sim.add_argument("--hist", help="write the size histogram CSV here")
    p_sim.set_defaults(func=cmd_sim)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("--config", help="flat key = value config file")
    for f in fields(ExperimentConfig):  # one flag per config key; it overrides the file
        p_exp.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=_seed if f.name == "seed" else config_field_type(f),
            choices=f.metadata.get("choices"),
            help=f.metadata.get("help"),
        )
    p_exp.add_argument("--workers", type=int, default=1,
                       help="processes, at most; fewer when the trials are too small to pay for a pool")
    p_exp.add_argument("--progress", action="store_true", help="trial counter on stderr")
    p_exp.set_defaults(func=cmd_experiment)

    p_oracle = sub.add_parser("oracle", help="exact brute-force checks")
    oracle_sub = p_oracle.add_subparsers(dest="check", required=True)
    o_harper = oracle_sub.add_parser("harper")
    o_harper.add_argument("--d", type=int, required=True)
    o_trees = oracle_sub.add_parser("subtrees")
    o_trees.add_argument("--d", type=int, required=True)
    o_trees.add_argument("--k", type=int, required=True)
    o_trees.add_argument("--v", type=int, default=0)
    o_dist = oracle_sub.add_parser("exactdist")
    o_dist.add_argument("--d", type=int, required=True)
    o_dist.add_argument("--p", type=float, required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unplanned is an internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
