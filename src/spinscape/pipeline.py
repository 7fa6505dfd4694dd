"""End-to-end orchestration: bias synthesis, pattern synthesis, robustness report.

Stage 1 produces mirror-symmetric bias targets; survivors of the acceptance
filters become targets for per-(color, count, height) pattern searches;
validated solutions get sensitivity records; everything lands in a
deterministic, JSON-serializable controller database.

The default lattice alignment parks the chain a sixteenth of a spacing off
the projector axis.  A perfectly centered chain is a degenerate special
case: every mirror-symmetric pattern is then first-order insensitive to
alignment drift (symmetric d(delta)/dx against an antisymmetric error
gradient), so its drift sensitivity would vanish identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace, asdict
from pathlib import Path

import numpy as np
# named here so that numpy.random loads at import, not in the first run
from numpy.random import SeedSequence

from .lattice import (LatticeConfig, BiasVector, NOMINAL_PARAMS, bias_from_json,
                      time_unit, finite_positive, require_stored)
from .dynamics import TransferProblem, fidelity_trace
from .optics import (COLOR_WAVELENGTHS, GRID_POINTS_PER_SPACING, OpticsConfig,
                     make_context)
from .biasopt import BiasOptimConfig, optimize_biases
from .dmdopt import (AcceptanceThresholds, DMDOptimConfig, DMDSolution,
                     check_counts, check_search_settings, optimize_pattern,
                     validate_solution)
from .sensitivity import SensitivityRecord, sensitivity_record, correlations
from . import report


class ConfigError(ValueError):
    """A pipeline configuration field is missing, malformed, or inconsistent."""


#: Generic chain-to-projector alignment: potential minima sit d/16 off the
#: DMD array center rather than exactly on it.
DEFAULT_PIPELINE_PHASE = 7 * math.pi / 8


@dataclass(frozen=True)
class Stage2Config:
    """A run's pattern-search settings, defaulting to `DMDOptimConfig`'s."""

    colors: tuple = tuple(COLOR_WAVELENGTHS)
    counts: tuple = DMDOptimConfig.counts
    heights: tuple = DMDOptimConfig.heights
    index_span: int = DMDOptimConfig.index_span
    power_range: tuple = DMDOptimConfig.power_range
    budget: int = DMDOptimConfig.budget
    max_targets: int = 8         # distinct stage-1 survivors carried into stage 2

    def __post_init__(self):
        if not self.colors:
            raise ValueError("stage2 colors must not be empty")
        check_search_settings(self.counts, self.heights, self.index_span,
                              self.power_range, self.budget)
        if self.max_targets < 1:
            raise ValueError("stage2 max_targets must be positive")

    def search_config(self, target: BiasVector, color: str, counts: tuple,
                      heights: tuple) -> DMDOptimConfig:
        """The config of one search of `target` over `counts` x `heights`."""
        return DMDOptimConfig(target=target, color=color, heights=heights,
                              counts=counts, index_span=self.index_span,
                              power_range=self.power_range, budget=self.budget)


def _json_lists(value):
    """`value` with every tuple in it made a list, as JSON reads it back."""
    if isinstance(value, dict):
        return {k: _json_lists(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_lists(v) for v in value]
    return value


def _color_optics(lattice: LatticeConfig, color: str, spec: dict) -> OpticsConfig:
    """`spec` for one colour over a grid of `GRID_POINTS_PER_SPACING`
    points per lattice spacing."""
    return OpticsConfig(**{"grid_step": lattice.spacing / GRID_POINTS_PER_SPACING,
                           **spec, "color": color})


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of one run; each has one source.

    Settings left unset take the value derived from another one:

    - ``zeta``, the lattice depth in E_R the physics runs at, defaults to
      ``lattice.depth``.
    - ``stage1.t_max``, stage 1's bound on T, defaults to ``t_limit``
      (applied by :func:`stage1_config`).
    - ``optics`` defaults to :func:`_color_optics` of each colour of
      ``COLOR_WAVELENGTHS``.

    Its JSON form (:meth:`to_dict`, hashed by :func:`config_hash`) is one
    rule for every nested config: its fields, with every tuple written as a
    list, so the dict equals its own JSON round trip.  :meth:`from_dict`
    reads the lists of ``stage2`` back as tuples.

    Two read-only values are derived here and nowhere else:

    - ``tau``: seconds per normalized time unit at depth ``zeta``.
    - ``t_limit``: the read-out window ``thresholds.t_max_ms`` in
      normalized units, which acceptance and the traces use.
    """

    lattice: LatticeConfig = field(
        default_factory=lambda: LatticeConfig(phase=DEFAULT_PIPELINE_PHASE))
    zeta: float = None
    problem: TransferProblem = TransferProblem()
    optics: dict = None
    stage1: BiasOptimConfig = BiasOptimConfig()
    stage2: Stage2Config = Stage2Config()
    thresholds: AcceptanceThresholds = AcceptanceThresholds()
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.zeta is None:
            object.__setattr__(self, "zeta", self.lattice.depth)
        # checked here, not in from_dict, so that `replace` (the CLI's
        # --seed) is checked too
        if not finite_positive(self.zeta):
            raise ConfigError(f"zeta must be finite and positive, not {self.zeta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, not {self.seed}")
        if self.optics is None:
            object.__setattr__(self, "optics", {
                c: _color_optics(self.lattice, c, {}) for c in COLOR_WAVELENGTHS})

    @property
    def tau(self) -> float:
        return time_unit(self.zeta, self.lattice)

    @property
    def t_limit(self) -> float:
        return self.thresholds.t_max_normalized(self.tau)

    def to_dict(self) -> dict:
        return _json_lists(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        # every field but the scalars is a section, read from a JSON object
        known = [f.name for f in fields(cls)]
        _require_object("the config", data)
        for key in known:
            if key in data and key not in _SCALARS:
                _require_object(f"section {key}", data[key])
        for key, (kinds, what, _) in _SCALARS.items():
            # exact JSON types, so a true or false is not an integer
            if key in data and type(data[key]) not in kinds:
                raise ConfigError(f"{key} must be {what}, not {type(data[key]).__name__}")
        for section, keys in _INTEGERS.items():
            for key, value in data.get(section, {}).items():
                listed = key in ("counts", "heights")
                values = value if listed else [value]
                # a count or height list that is no list is left to Stage2Config
                if key in keys and isinstance(values, (list, tuple)) and any(
                        type(v) is not int for v in values):
                    what = "a list of integers" if listed else "an integer"
                    raise ConfigError(f"{section}.{key} must be {what}, not {value!r}")
        for c in COLOR_WAVELENGTHS:
            if c in data.get("optics", {}):
                _require_object(f"section optics.{c}", data["optics"][c])
        unknown = [k for k in data if k not in known]
        unknown += [f"optics.{c}" for c in data.get("optics", {})
                    if c not in COLOR_WAVELENGTHS]
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

        def build(section, make, /, *args, **spec):
            try:
                return make(*args, **spec)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{section}: {exc}") from exc

        lattice = build("lattice", LatticeConfig,
                        **{"phase": DEFAULT_PIPELINE_PHASE, **data.get("lattice", {})})
        problem = build("problem", TransferProblem, **data.get("problem", {}))
        optics = {c: build(f"optics.{c}", _color_optics, lattice, c,
                           data.get("optics", {}).get(c, {}))
                  for c in COLOR_WAVELENGTHS}
        stage1 = build("stage1", BiasOptimConfig,
                       **{"n_sites": problem.n_sites, **data.get("stage1", {})})
        stage2 = build("stage2", Stage2Config,
                       **{k: tuple(v) if isinstance(v, list) else v
                          for k, v in data.get("stage2", {}).items()})
        thresholds = build("thresholds", AcceptanceThresholds,
                           **data.get("thresholds", {}))
        cfg = cls(lattice=lattice, problem=problem, optics=optics, stage1=stage1,
                  stage2=stage2, thresholds=thresholds,
                  **{key: read(data[key]) for key, (_, _, read) in _SCALARS.items()
                     if key in data})
        unknown = set(cfg.stage2.colors) - set(cfg.optics)
        if unknown:
            raise ConfigError(f"stage2 colors {sorted(unknown)} lack optics configs")
        if cfg.stage1.n_sites != cfg.problem.n_sites:
            raise ConfigError("stage1 and problem chain lengths disagree")
        return cfg

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


#: The config's scalars: the JSON types each takes, their name, how it is read.
_SCALARS = {"zeta": ((float, int), "a number", float),
            "seed": ((int,), "an integer", int),
            "out_dir": ((str,), "a string", str)}

#: The whole-number settings of each section, read as exact JSON integers:
#: 2.0 and true are not one.
_INTEGERS = {"problem": ("n_sites", "initial", "target"),
             "stage1": ("n_sites", "restarts", "seed", "max_iterations"),
             "stage2": ("counts", "heights", "index_span", "budget", "max_targets")}


def _require_object(name: str, value) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, not {type(value).__name__}")


def config_hash(config: PipelineConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def antisymmetric_target(delta: BiasVector) -> BiasVector:
    """Sign pattern realizable by a mirror-symmetric projected potential.

    An even potential makes the well depths symmetric, so the bias vector it
    induces obeys delta_j = -delta_{n-j}.  The effective couplings depend
    only on delta^2, hence flipping the signs of the mirrored half keeps the
    dynamics of a symmetric stage-1 controller unchanged while making it
    optically reachable.  (a, b, b, a) -> (a, b, -b, -a); a self-paired
    middle element has no antisymmetric counterpart and maps to zero.
    """
    arr = delta.array.copy()
    half = len(arr) // 2
    arr[len(arr) - half:] = -arr[:half][::-1]
    if len(arr) % 2:
        arr[half] = 0.0
    return BiasVector(arr)


@dataclass(frozen=True)
class Controller:
    """One stage-2 outcome tied back to the stage-1 target that spawned it."""

    id: int
    color: str
    target: BiasVector           # stage-1 controller (mirror symmetric)
    target_time: float
    target_error: float
    optics_target: BiasVector    # antisymmetrized target used by the pattern search
    solution: DMDSolution
    sensitivity: SensitivityRecord = None

    @property
    def accepted(self) -> bool:
        return bool(self.solution.accepted)

    def to_dict(self) -> dict:
        return {"id": self.id, "color": self.color,
                "target_delta": list(self.target.values),
                "target_T": self.target_time, "target_e": self.target_error,
                "optics_target": list(self.optics_target.values),
                "solution": self.solution.to_dict(),
                "sensitivity": (self.sensitivity.to_dict()
                                if self.sensitivity else None),
                "accepted": self.accepted}


@dataclass(frozen=True)
class ControllerDatabase:
    config: dict
    config_hash: str
    seed: int
    records: tuple = ()
    stage1: tuple = ()           # every stage-1 candidate, for provenance
    diagnostics: dict = field(default_factory=dict)

    @property
    def accepted(self) -> tuple:
        return tuple(r for r in self.records if r.accepted)

    def to_dict(self) -> dict:
        return {"schema": 1, "config": self.config, "config_hash": self.config_hash,
                "seed": self.seed,
                "stage1_candidates": list(self.stage1),
                "records": [r.to_dict() for r in self.records],
                "diagnostics": self.diagnostics}

    def to_json(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def from_dict(cls, data: dict) -> "ControllerDatabase":
        require_stored("database", data, ("config", "config_hash", "seed", "records"))
        if not isinstance(data["records"], list):
            raise ValueError(f"stored database 'records' must be a JSON list, "
                             f"not {type(data['records']).__name__}")
        # every stored bias vector has one value per bond of the stored chain
        n_sites = PipelineConfig.from_dict(data["config"]).problem.n_sites

        def bias(what, stored, key):
            return bias_from_json(f"stored {what} {key!r}", stored[key], n_sites)

        records = []
        for r in data["records"]:
            require_stored("record", r, ("id", "color", "target_delta", "target_T",
                                         "target_e", "optics_target", "solution",
                                         "sensitivity"))
            solution = DMDSolution.from_dict(r["solution"])
            bias("solution", r["solution"], "achieved_delta")
            sens = (SensitivityRecord.from_dict(r["sensitivity"], n_sites)
                    if r["sensitivity"] else None)
            records.append(Controller(
                id=r["id"], color=r["color"], target=bias("record", r, "target_delta"),
                target_time=r["target_T"], target_error=r["target_e"],
                optics_target=bias("record", r, "optics_target"),
                solution=solution, sensitivity=sens))
        return cls(config=data["config"], config_hash=data["config_hash"],
                   seed=data["seed"], records=tuple(records),
                   stage1=tuple(data.get("stage1_candidates", ())),
                   diagnostics=data.get("diagnostics", {}))

    @classmethod
    def from_json(cls, path) -> "ControllerDatabase":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _child_seed(*parts: int) -> int:
    return int(SeedSequence(parts).generate_state(1)[0])


def stage1_config(config: PipelineConfig) -> BiasOptimConfig:
    """Stage-1 settings with the seed derived from the pipeline seed.

    An unset T bound becomes the acceptance window `config.t_limit`, so
    stage 1 searches exactly the times the filters accept; a set bound is
    kept as it is.
    """
    t_max = config.t_limit if config.stage1.t_max is None else config.stage1.t_max
    return replace(config.stage1, seed=_child_seed(config.seed, 1), t_max=t_max)


def color_contexts(config: PipelineConfig, colors) -> dict:
    """One `ProjectionContext` per colour in `colors`, by colour.

    Each is made on the chain grid of the colour's optics, and serves that
    colour's pattern searches and then the drift sensitivities of its
    accepted solutions.
    """
    return {color: make_context(config.optics[color], config.lattice,
                                config.zeta, config.problem.n_sites)
            for color in dict.fromkeys(colors)}


def _dedupe_targets(survivors, limit: int):
    seen = set()
    out = []
    for c in survivors:
        key = (tuple(np.round(c.delta.array, 6)), round(c.transfer_time, 3))
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
        if len(out) >= limit:
            break
    return out


def _run_part(ctx, part: list) -> list:
    """Run one part's searches on the context of their colour; their
    solutions, in order.

    Searches that differ only in `target` search one space, so each such
    set is one :func:`optimize_pattern` call, in the order of its first
    search: it builds each P₁ block of the space once and profiles every
    target of the set on it.  Each solution is that of its search run
    alone, bit for bit.  Each comes back without its evaluation log: the
    pipeline never reads it, and a pool worker would pickle it back to the
    parent.
    """
    shared = {}
    for k, search in enumerate(part):
        shared.setdefault(replace(search, target=None), []).append(k)
    solutions = [None] * len(part)
    for space, members in shared.items():
        found = optimize_pattern(space, ctx, [part[k].target for k in members])
        for k, solution in zip(members, found):
            solutions[k] = replace(solution, evaluations=())
    return solutions


def _plan_parts(searches, n_workers: int) -> list:
    """Split the search positions into parts that share superpixel fields.

    A memo entry can only be shared by searches of one `(color, heights)`,
    so each group of them becomes one part, and within a part the searches
    of one space share its P₁ blocks (:func:`_run_part`).  With fewer
    groups than workers, each group is split into contiguous parts, as many
    as its share of `n_workers` (at least one, at most one per search), so
    there are at least `min(n_workers, len(searches))` parts.  A split can
    part searches of one space, which then build their blocks once per
    part; the solutions are the same either way.
    """
    groups = {}
    for i, search in enumerate(searches):
        groups.setdefault((search.color, tuple(search.heights)), []).append(i)
    parts = []
    for members in groups.values():
        n_parts = 1
        if len(groups) < n_workers:
            n_parts = min(len(members), -(-n_workers * len(members) // len(searches)))
        parts.extend(members[k * len(members) // n_parts:
                             (k + 1) * len(members) // n_parts]
                     for k in range(n_parts))
    return parts


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def search_patterns(searches, contexts: dict, n_workers: int = 1) -> list:
    """Run `optimize_pattern` for each config on the context of its colour.

    `contexts` maps each searched colour to its context (see
    :func:`color_contexts`).  Returns the solutions in the order of
    `searches`, whatever the worker scheduling, each with an empty
    evaluation log (:func:`_run_part`).  The searches run one part
    of :func:`_plan_parts` at a time, each part with the context of its
    colour, so the searches that can share superpixel fields run on one
    memo, and those of a part that differ only in target share one search
    call and its P₁ blocks.  The parts run on `min(n_workers, len(parts), usable CPUs)`
    processes, a bound that matters because a ``fork`` pool starts all its
    workers at the first task.  When that is one, they run in this process;
    otherwise each part is one task of a process pool and takes its own
    copy of its context with it.
    """
    parts = _plan_parts(searches, n_workers)
    ctxs = [contexts[searches[p[0]].color] for p in parts]
    groups = [[searches[i] for i in p] for p in parts]
    n_procs = min(n_workers, len(parts), _usable_cpus())
    if n_procs > 1:
        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            done = list(pool.map(_run_part, ctxs, groups))
    else:
        done = map(_run_part, ctxs, groups)
    solutions = [None] * len(searches)
    for part, found in zip(parts, done):
        for i, solution in zip(part, found):
            solutions[i] = solution
    return solutions


def run_pipeline(config: PipelineConfig, n_workers: int = 1) -> ControllerDatabase:
    """Run both synthesis stages plus validation and sensitivity analysis.

    Deterministic for a fixed config and seed: the stage-1 seed derives
    from the pipeline seed, stage-2 runs are ordered survivor-major, and results are
    merged in task order regardless of worker scheduling.  Zero stage-1
    survivors is not an error; it yields an empty database whose
    diagnostics say what happened.  Stage 1 must be mirror symmetric
    (`stage1.symmetric`): stage 2 searches the antisymmetrized target
    (:func:`antisymmetric_target`), which keeps only the first half of an
    asymmetric survivor, so an asymmetric stage 1 raises before it starts.

    One `ProjectionContext` per colour (:func:`color_contexts`) serves the
    searches and the sensitivities.  Stage 2 runs its searches through
    :func:`search_patterns`, which runs the searches of one `(colour,
    heights)` on one memo of superpixel fields, and the searches of one
    `(colour, count, height)`, every target and flip of it, as one
    :func:`optimize_pattern` call that builds each P₁ block once (unless a
    split group parts them).  Each group holds one
    colour at one height, so groups share no field, and each field is
    computed once per run, unless there are fewer groups than workers and a
    group is split.  The sensitivity records of the accepted solutions then
    run on the same contexts, in this process.  The memos live as long as
    the run (or the pool task).  Per colour and process they hold at most
    `len(heights) * (2 * index_span + 1)` fields, half of them reversed
    views of their mirror twins, and the point-spread rows the other half
    are summed from: 3.2 MB of fields and 3.2 MB of rows for either colour
    at 25 heights and span 24.  The memos are bitwise-stable, so sharing
    them changes no output byte.

    Each search is one count at one height, so its space holds
    C(index_span, count // 2) mirror-symmetric patterns, and
    :func:`optimize_pattern` profiles all of them for each of its targets,
    one `dmdopt._batches` batch of at most `_CHUNK_ROWS` at a time (at the
    default span 24: 24, 276 and 2024 for counts 2, 4 and 6; count 8 holds
    10 626).  A count
    whose space exceeds the cost cap of `stage2.budget` raises before
    stage 1 (:func:`check_counts`).
    """
    stage2 = config.stage2
    # each search is one count at one height
    check_counts(stage2.counts, stage2.heights[:1], stage2.index_span, stage2.budget)
    if not config.stage1.symmetric:
        raise ConfigError("the pipeline needs stage1.symmetric: true; stage 2 "
                          "realizes only the antisymmetrized mirror-symmetric "
                          "target, which drops half of an asymmetric one")
    params = NOMINAL_PARAMS
    tau, t_limit = config.tau, config.t_limit
    candidates = optimize_biases(stage1_config(config), config.problem, params)

    survivors = [c for c in candidates if config.thresholds.accepts(
        c.error, c.transfer_time, t_limit)]
    targets = _dedupe_targets(survivors, config.stage2.max_targets)

    diagnostics = {
        "stage1_candidates": len(candidates),
        "stage1_survivors": len(survivors),
        "stage2_targets": len(targets),
        "tau_seconds": tau,
        "t_limit_normalized": t_limit,
    }
    cfg_dict = config.to_dict()
    digest = config_hash(config)
    stage1_dump = [c.to_dict() for c in candidates]

    if not targets:
        diagnostics["note"] = "no stage-1 candidate met the thresholds"
        return ControllerDatabase(config=cfg_dict, config_hash=digest,
                                  seed=config.seed, records=(),
                                  stage1=tuple(stage1_dump),
                                  diagnostics=diagnostics)

    # the dynamics are blind to a global sign flip of the biases, but the
    # optics are not; both flips of the antisymmetrized target get a search
    searches = []
    sources = []                 # the stage-1 candidate behind each search
    for cand in targets:
        base = antisymmetric_target(cand.delta)
        for color in config.stage2.colors:
            for count in config.stage2.counts:
                for height in config.stage2.heights:
                    for flip in (1.0, -1.0):
                        optics_target = BiasVector(flip * base.array)
                        searches.append(config.stage2.search_config(
                            optics_target, color, (count,), (height,)))
                        sources.append(cand)

    contexts = color_contexts(config, config.stage2.colors)
    solutions = search_patterns(searches, contexts, n_workers)

    records = []
    for i, (cand, search, found) in enumerate(zip(sources, searches, solutions)):
        sol = validate_solution(found, config.problem, params,
                                config.thresholds, t_limit)
        sens = None
        if sol.accepted:
            sens = sensitivity_record(sol, contexts[search.color],
                                      config.problem, params)
        records.append(Controller(
            id=i, color=search.color, target=cand.delta,
            target_time=cand.transfer_time, target_error=cand.error,
            optics_target=search.target,
            solution=sol, sensitivity=sens))

    diagnostics["stage2_runs"] = len(records)
    diagnostics["accepted"] = sum(r.accepted for r in records)
    return ControllerDatabase(config=cfg_dict, config_hash=digest, seed=config.seed,
                              records=tuple(records), stage1=tuple(stage1_dump),
                              diagnostics=diagnostics)


def filter_controllers(db: ControllerDatabase,
                       thresholds: AcceptanceThresholds) -> ControllerDatabase:
    """Subset of records meeting the thresholds; applying it twice changes nothing.

    The time window is the `t_limit` of the config the database was made
    with, under `thresholds`.
    """
    t_limit = replace(PipelineConfig.from_dict(db.config),
                      thresholds=thresholds).t_limit
    kept = tuple(r for r in db.records if thresholds.accepts(
        r.solution.error, r.solution.t_min, t_limit))
    return replace(db, records=kept)


def emit_report(db: ControllerDatabase, out_dir) -> dict:
    """Write traces, scatter data, the correlation table, and a JSON summary.

    Returns the summary dict.  Correlations need at least three accepted
    records; with fewer the table is replaced by a warning row.  A
    correlation whose abscissa or drift ordinate is the same for every
    record is undefined and is written as ``nan``; the other cells keep
    their values.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = PipelineConfig.from_dict(db.config)
    tau, t_limit = cfg.tau, cfg.t_limit

    for rec in db.records:
        sol = rec.solution
        if sol.error is None or not sol.achieved.is_dynamical():
            continue
        trace = fidelity_trace(sol.achieved, cfg.problem, NOMINAL_PARAMS, t_limit)
        report.trace_files(out / "traces" / f"{rec.id:04d}", trace, tau)

    points = []
    for rec in db.records:
        if rec.sensitivity is None:
            continue
        s = rec.sensitivity
        points.append({"id": rec.id, "min_gap": s.min_gap, "e": s.error,
                       "T_ms": s.transfer_time * tau * 1e3,
                       "abs_s_x": abs(s.s_x), "abs_s_p": abs(s.s_p),
                       "color": rec.color})
    x_keys = ["min_gap", "e", "T_ms"]
    if points:
        report.scatter_files(out / "scatter_x", points, x_keys, "abs_s_x",
                             "|d(error)/dx|  (1/a)")
        report.scatter_files(out / "scatter_p", points, x_keys, "abs_s_p",
                             "|d(error)/dp|  (1/E_R)")

    table = []
    if len(points) >= 3:
        drifts = [[p[y] for p in points] for y in ("abs_s_x", "abs_s_p")]
        for key in x_keys:
            xs = [p[key] for p in points]
            row = [{"min_gap": "min_gap", "e": "e", "T_ms": "T"}[key]]
            for ys in drifts:
                # a constant column has no correlation; scipy.stats.pearsonr
                # likewise answers NaN
                defined = min(xs) < max(xs) and min(ys) < max(ys)
                row.extend(correlations(xs, ys) if defined else (math.nan, math.nan))
            table.append(row)
        report.correlation_table(out / "table1.csv", table)
    else:
        report.write_csv(out / "table1.csv", ["warning"],
                         [[f"correlations need >= 3 accepted records, have {len(points)}"]])

    summary = {
        "config_hash": db.config_hash,
        "seed": db.seed,
        "records": len(db.records),
        "accepted": len(db.accepted),
        "correlation_rows": len(table),
        "generated_unix_time": _time.time(),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary
