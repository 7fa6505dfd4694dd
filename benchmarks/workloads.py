"""Workload definitions: each maps a seed to a pinned pipeline config and a CLI call.

Every config value a workload relies on is written out here, so a later
change of a program default does not silently change the workload; the
resolved config and its hash are recorded with every result as well.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

#: Global sign flip of a stage-1 survivor of the tier-1 pipeline fixture at
#: seed 1; ``optimize-dmd`` antisymmetrizes it before the search.
LONG_SEARCH_TARGET = [-0.2220328568206235, 0.9201937579441222,
                      0.9201937579441222, -0.2220328568206235]

_BASE = {
    "lattice": {"depth": 10.0},
    "zeta": 10.0,
    "problem": {"n_sites": 5, "initial": 1, "target": 5},
    "thresholds": {"e_max": 0.01, "t_max_ms": 130.0},
    "stage1": {"t_max": 30000.0, "delta_bound": 0.95, "symmetric": True,
               "restarts": 1, "grad_tol": 1e-9, "step_tol": 1e-12,
               "max_iterations": 200},
    "stage2": {"colors": ["blue"], "counts": [2], "heights": [1],
               "index_span": 24, "power_range": [0.0, 1.0], "budget": 30,
               "max_targets": 1},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # spinscape subcommand
    stage1: dict                 # overrides of _BASE["stage1"]
    stage2: dict                 # overrides of _BASE["stage2"]
    threads: int = 1             # --threads of the untraced runs
    inputs: int = 1              # pipeline seeds per run (see run.py)
    tiny_stage1: dict = None     # smoke-test sizes
    tiny_stage2: dict = None

    def config(self, seed: int, out_dir: str, tiny: bool = False) -> dict:
        cfg = copy.deepcopy(_BASE)
        cfg["stage1"].update(self.stage1)
        cfg["stage2"].update(self.stage2)
        if tiny:
            cfg["stage1"].update(self.tiny_stage1 or {})
            cfg["stage2"].update(self.tiny_stage2 or {})
        cfg["seed"] = seed
        cfg["out_dir"] = out_dir
        return cfg

    def argv(self, config_path: str, threads: int) -> list:
        argv = [self.command, "--config", config_path, "--threads", str(threads)]
        if self.command == "optimize-dmd":
            argv += ["--target", json.dumps(LONG_SEARCH_TARGET)]
        return argv

    @property
    def output_name(self) -> str:
        return ("controllers.json" if self.command == "pipeline"
                else "dmd_solutions.json")


WORKLOADS = {w.name: w for w in (
    # stage 1 dominates; stage 2 is two tiny searches (one target, two flips)
    Workload(name="bias-search", command="pipeline",
             stage1={"restarts": 150},
             stage2={"index_span": 10, "budget": 30},
             inputs=3,
             tiny_stage1={"restarts": 8}, tiny_stage2={"budget": 12}),
    # 1 target x 2 colours x 2 counts x 2 heights x 2 flips = 16 searches
    Workload(name="pattern-fanout", command="pipeline",
             stage1={"restarts": 40},
             stage2={"colors": ["blue", "red"], "counts": [2, 6],
                     "heights": [2, 25], "budget": 60},
             threads=2, inputs=3,
             tiny_stage1={"restarts": 8},
             tiny_stage2={"counts": [2], "heights": [2], "budget": 12}),
    # one mixed-integer search with height as a coordinate; the archive
    # outgrows the 400-point surrogate training cap
    Workload(name="long-search", command="optimize-dmd",
             stage1={},
             stage2={"heights": list(range(1, 26)), "budget": 600},
             inputs=2,
             tiny_stage2={"heights": [1, 2, 3], "budget": 24}),
)}
