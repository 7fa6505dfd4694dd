"""Command-line front end for the synthesis and robustness pipeline.

Exit codes: 0 success, 2 configuration/validation error, 3 completed with an
empty result set.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .lattice import BiasVector, NOMINAL_PARAMS
from .dynamics import fidelity_trace
from .biasopt import optimize_biases
from .dmdopt import validate_solution
# unused here, but benchmarks/spans.py wraps `cli.optimize_pattern`
from .dmdopt import optimize_pattern  # noqa: F401
from .sensitivity import sensitivity_record
from .pipeline import (ConfigError, ControllerDatabase, PipelineConfig,
                       antisymmetric_target, color_contexts, emit_report,
                       filter_controllers, run_pipeline, search_patterns,
                       stage1_config)
from . import report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3


def _load_config(args, db: ControllerDatabase = None) -> PipelineConfig:
    """`--config`, else the config stored in `db`, else the defaults; then overrides.

    A database carries the config it was made with, so the commands that
    read one score and filter it with that config unless told otherwise.
    """
    if args.config:
        cfg = PipelineConfig.from_json(args.config)
    elif db is not None:
        cfg = PipelineConfig.from_dict(db.config)
    else:
        cfg = PipelineConfig.from_dict({})
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _write_json(path: Path, data) -> None:
    """Write `data` to `path`, making its directory only now, so a command
    that fails before it writes leaves no empty output directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_optimize_bias(args) -> int:
    cfg = _load_config(args)
    candidates = optimize_biases(stage1_config(cfg), cfg.problem, NOMINAL_PARAMS)
    path = Path(cfg.out_dir) / "bias_candidates.json"
    _write_json(path, [c.to_dict() for c in candidates])
    best = candidates[0]
    print(f"{len(candidates)} candidates -> {path}")
    print(f"best: e={best.error:.3e} T={best.transfer_time:.2f}")
    return EXIT_OK if any(c.converged for c in candidates) else EXIT_EMPTY


def cmd_optimize_dmd(args) -> int:
    cfg = _load_config(args)
    target = antisymmetric_target(BiasVector(json.loads(args.target)))
    colors = cfg.stage2.colors
    searches = [cfg.stage2.search_config(target, color, cfg.seed, cfg.stage2.counts,
                                         cfg.stage2.heights) for color in colors]
    solutions = search_patterns(searches, color_contexts(cfg, colors), args.threads)
    results = []
    for color, sol in zip(colors, solutions):
        sol = validate_solution(sol, cfg.problem, NOMINAL_PARAMS,
                                cfg.thresholds, cfg.t_limit)
        results.append(sol.to_dict())
        print(f"{color}: objective={sol.objective:.4e} accepted={sol.accepted}")
    path = Path(cfg.out_dir) / "dmd_solutions.json"
    _write_json(path, results)
    print(f"-> {path}")
    return EXIT_OK if any(r["accepted"] for r in results) else EXIT_EMPTY


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    delta = BiasVector(json.loads(args.delta))
    if not delta.is_dynamical():
        print("bias vector reaches the |delta| = 1 singularity", file=sys.stderr)
        return EXIT_CONFIG
    tau = cfg.tau
    t_max = cfg.t_limit if args.t_max is None else args.t_max
    trace = fidelity_trace(delta, cfg.problem, NOMINAL_PARAMS, t_max)
    report.trace_files(out / "trace", trace.times, trace.errors,
                       trace.times * tau * 1e3, trace.t_min, trace.e_min)
    print(f"e_min={trace.e_min:.4e} at T={trace.t_min:.2f} "
          f"({trace.t_min * tau * 1e3:.2f} ms) -> {out}/trace.csv")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    db = ControllerDatabase.from_json(args.database)
    cfg = _load_config(args, db)
    # one context per colour, as in run_pipeline, so records share its memo
    contexts = color_contexts(cfg, [r.color for r in db.records if r.accepted])
    updated = []
    for rec in db.records:
        if rec.accepted and rec.sensitivity is None:
            rec = replace(rec, sensitivity=sensitivity_record(
                rec.solution, contexts[rec.color], cfg.problem, NOMINAL_PARAMS))
        updated.append(rec)
    db = replace(db, records=tuple(updated))
    path = Path(cfg.out_dir) / "controllers.json"
    db.to_json(path)
    n = sum(1 for r in db.records if r.sensitivity is not None)
    print(f"{n} sensitivity records -> {path}")
    return EXIT_OK if n else EXIT_EMPTY


def cmd_report(args) -> int:
    db = ControllerDatabase.from_json(args.database)
    cfg = _load_config(args, db)
    if args.filter:
        db = filter_controllers(db, cfg.thresholds)
    summary = emit_report(db, cfg.out_dir)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if summary["records"] else EXIT_EMPTY


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    db = run_pipeline(cfg, n_workers=args.threads)
    db.to_json(out / "controllers.json")
    emit_report(db, out)
    print(f"stage-1 survivors: {db.diagnostics.get('stage1_survivors', 0)}, "
          f"stage-2 runs: {db.diagnostics.get('stage2_runs', 0)}, "
          f"accepted: {len(db.accepted)}")
    print(f"database -> {out / 'controllers.json'}")
    return EXIT_OK if db.accepted else EXIT_EMPTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinscape",
        description="Synthesize and analyze static energy-landscape controllers "
                    "for lattice spin chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None,
                       help="pipeline configuration JSON (default: the "
                            "database's own config where one is read)")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", type=str, default=None, help="output directory")

    def threads(p):
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker processes for stage-2 searches")

    p = sub.add_parser("optimize-bias", help="stage 1: bias/time synthesis")
    common(p)
    p.set_defaults(func=cmd_optimize_bias)

    p = sub.add_parser("optimize-dmd", help="stage 2: pattern search for a target")
    common(p)
    threads(p)
    p.add_argument("--target", required=True,
                   help="JSON list of target biases, e.g. '[0.9,0.8,0.8,0.9]'")
    p.set_defaults(func=cmd_optimize_dmd)

    p = sub.add_parser("evaluate", help="fidelity trace for a bias vector")
    common(p)
    p.add_argument("--delta", required=True, help="JSON list of biases")
    p.add_argument("--t-max", type=float, default=None,
                   help="trace window in normalized time units")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sensitivity", help="fill sensitivity records in a database")
    common(p)
    p.add_argument("--database", required=True, help="controllers.json path")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("report", help="emit CSV/SVG report from a database")
    common(p)
    p.add_argument("--database", required=True, help="controllers.json path")
    p.add_argument("--filter", action="store_true",
                   help="re-apply acceptance thresholds before reporting")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run both stages plus analysis end to end")
    common(p)
    threads(p)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
