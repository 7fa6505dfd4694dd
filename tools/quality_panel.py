"""Stage-2 search-quality panel: fixed targets, fixed cells, one JSON per run.

Each cell is one `optimize_pattern` search at budget 600 on the projection
context of its colour, built from the `pattern-fanout` benchmark config,
followed by `validate_solution`.  The cells are every combination of

- the four antisymmetrized targets in `TARGETS`,
- the colours blue and red,
- the superpixel counts 2 and 4,
- the heights {2}, {10}, {25} (one height each) and 1..25 (height as a
  search coordinate),
- the search seeds (0 and 1 unless `--seeds` says otherwise; 2-5 serve as
  a noise check).

Per cell the JSON records the best objective, pattern and power, the
sha256 of the evaluation log, the validated `e_min` and `accepted`, and the
CPU seconds of the search and validation.  `--compare A.json B.json` lists
every cell that moved between two runs, with the median and worst best
objective and the accepted count of each.

The panel is not part of the tier-1 tests or of `benchmarks/run.py`.  It
imports `spinscape` from `PYTHONPATH` when that names a source tree, and
from this checkout's `src/` otherwise, so one copy of the script can
score any tree:

    OPENBLAS_NUM_THREADS=1 python tools/quality_panel.py --out panel.json
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=other/src \
        python tools/quality_panel.py --out other.json --workers 2
    python tools/quality_panel.py --compare other.json panel.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import platform
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))     # the workload configs
sys.path.append(str(ROOT / "src"))               # unless PYTHONPATH names one

from spinscape.dmdopt import optimize_pattern, validate_solution  # noqa: E402
from spinscape.lattice import NOMINAL_PARAMS, BiasVector  # noqa: E402
from spinscape.pipeline import PipelineConfig, make_context  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Antisymmetrized stage-2 targets, computed once and stored:
#: `long-search` is the benchmark's LONG_SEARCH_TARGET; `tiny-1` the first
#: stage-1 target of the tier-1 `TINY` pipeline config at seed 1;
#: `fanout-54` and `fanout-76` the first stage-1 targets of the
#: `pattern-fanout` workload at pipeline seeds 54 and 76.
TARGETS = {
    "long-search": [-0.2220328568206235, 0.9201937579441222,
                    -0.9201937579441222, 0.2220328568206235],
    "tiny-1": [0.22203285614041565, -0.9201937579498096,
               0.9201937579498096, -0.22203285614041565],
    "fanout-54": [0.14526603628072388, 0.9177208640992446,
                  -0.9177208640992446, -0.14526603628072388],
    "fanout-76": [-0.14698946437045565, 0.9177650958781364,
                  -0.9177650958781364, 0.14698946437045565],
}
COLORS = ("blue", "red")
COUNTS = (2, 4)
HEIGHTS = {"2": (2,), "10": (10,), "25": (25,), "1..25": tuple(range(1, 26))}
BUDGET = 600

_config = None
_contexts = {}


def _init_worker():
    """Build the panel's config and one context per colour in this process."""
    global _config
    _config = PipelineConfig.from_dict(WORKLOADS["pattern-fanout"].config(0, "."))
    for color in COLORS:
        _contexts[color] = make_context(_config.optics[color], _config.lattice,
                                        _config.zeta, _config.problem.n_sites)


def run_cell(cell: dict) -> dict:
    """One search and its validation; `cell` names target, colour, count,
    heights and seed."""
    if _config is None:
        _init_worker()
    search = replace(_config.stage2.search_config(
        BiasVector(TARGETS[cell["target"]]), cell["color"], cell["seed"],
        (cell["count"],), HEIGHTS[cell["heights"]]), budget=BUDGET)
    start = time.process_time()
    sol = optimize_pattern(search, _contexts[cell["color"]])
    sol = validate_solution(sol, _config.problem, NOMINAL_PARAMS,
                            _config.thresholds, _config.tau)
    cpu = time.process_time() - start
    log = json.dumps(list(sol.evaluations)).encode()
    return {**cell, "objective": sol.objective,
            "pattern": list(sol.pattern.indices), "height": sol.pattern.height,
            "power": sol.power, "log_sha256": hashlib.sha256(log).hexdigest(),
            "evaluations": len(sol.evaluations), "e_min": sol.error,
            "accepted": sol.accepted, "cpu_s": round(cpu, 3)}


def cells(seeds) -> list:
    return [{"target": t, "color": c, "count": n, "heights": h, "seed": s}
            for t in TARGETS for c in COLORS for n in COUNTS for h in HEIGHTS
            for s in seeds]


def run_panel(seeds, workers: int) -> dict:
    todo = cells(seeds)
    if workers > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn,
                                 initializer=_init_worker) as pool:
            results = list(pool.map(run_cell, todo))
    else:
        results = [run_cell(c) for c in todo]
    return {"budget": BUDGET, "seeds": list(seeds), "cells": results,
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__}}


def _key(cell: dict) -> tuple:
    return cell["target"], cell["color"], cell["count"], cell["heights"], cell["seed"]


def _summary(cells_: list) -> str:
    objectives = [c["objective"] for c in cells_]
    return (f"median objective {statistics.median(objectives):.6g}, "
            f"worst {max(objectives):.6g}, "
            f"accepted {sum(bool(c['accepted']) for c in cells_)}/{len(cells_)}, "
            f"cpu {sum(c['cpu_s'] for c in cells_):.1f} s")


def compare(path_a: str, path_b: str) -> str:
    """Every moved cell of B against A, then both runs' summaries."""
    a = {_key(c): c for c in json.loads(Path(path_a).read_text())["cells"]}
    b = {_key(c): c for c in json.loads(Path(path_b).read_text())["cells"]}
    shared = [k for k in a if k in b]
    fields = ("objective", "pattern", "height", "power", "log_sha256", "accepted")
    lines = []
    for k in shared:
        if any(a[k][f] != b[k][f] for f in fields):
            lines.append(f"moved {'/'.join(map(str, k))}: objective "
                         f"{a[k]['objective']:.6g} -> {b[k]['objective']:.6g}, "
                         f"accepted {a[k]['accepted']} -> {b[k]['accepted']}")
    lines.append(f"{len(lines)} of {len(shared)} shared cells moved")
    lines.append(f"A {path_a}: {_summary([a[k] for k in shared])}")
    lines.append(f"B {path_b}: {_summary([b[k] for k in shared])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the panel's JSON here")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    panel = run_panel(args.seeds, args.workers)
    Path(args.out).write_text(json.dumps(panel, indent=1))
    print(_summary(panel["cells"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
