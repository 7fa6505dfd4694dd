"""Stage-2 search-quality panel: fixed targets, fixed cells, one JSON per run.

Each cell is one `optimize_pattern` search at budget 600, whose cost cap
every cell fits, on the projection context of its colour, built from the
`pattern-fanout` benchmark config, followed by `validate_solution`.  The
cells are every combination of

- the four antisymmetrized targets in `TARGETS`,
- the colours blue and red,
- the superpixel counts 2 and 4,
- the heights {2}, {10}, {25} (one height each) and 1..25 (height as a
  search coordinate).

Per cell the JSON records the best objective, pattern and power, the
sha256 of the evaluation log, the validated `e_min` and `accepted`, and the
CPU seconds of the search and validation.  `--compare A.json B.json` lists
every cell that moved between two runs, then a table per height set of
the cells whose best objective B made better, worse or equal, of those
that moved by more than `REAL_MOVE` each way, of the largest move below it
(rounding, not a real move), and of both runs' accepted counts and CPU
seconds, then the median and worst best objective and the accepted count
of each run.

CPU seconds compare only between runs made side by side under the same
load: separate panel runs drift with the load of the machine, enough that
one run of a costlier fit has read less CPU than another of a cheaper one.

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
#: A best objective that moves by more than this moved for real; smaller
#: moves are rounding, such as a power profile ending elsewhere within its
#: step tolerance.
REAL_MOVE = 1e-6
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
    """One search and its validation; `cell` names target, colour, count
    and heights."""
    if _config is None:
        _init_worker()
    search = replace(_config.stage2.search_config(
        BiasVector(TARGETS[cell["target"]]), cell["color"], (cell["count"],),
        HEIGHTS[cell["heights"]]), budget=BUDGET)
    start = time.process_time()
    sol = optimize_pattern(search, _contexts[cell["color"]])
    sol = validate_solution(sol, _config.problem, NOMINAL_PARAMS,
                            _config.thresholds, _config.t_limit)
    cpu = time.process_time() - start
    log = json.dumps(list(sol.evaluations)).encode()
    return {**cell, "objective": sol.objective,
            "pattern": list(sol.pattern.indices), "height": sol.pattern.height,
            "power": sol.power, "log_sha256": hashlib.sha256(log).hexdigest(),
            "evaluations": len(sol.evaluations), "e_min": sol.error,
            "accepted": sol.accepted, "cpu_s": round(cpu, 3)}


def cells() -> list:
    return [{"target": t, "color": c, "count": n, "heights": h}
            for t in TARGETS for c in COLORS for n in COUNTS for h in HEIGHTS]


def run_panel(workers: int) -> dict:
    todo = cells()
    if workers > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn,
                                 initializer=_init_worker) as pool:
            results = list(pool.map(run_cell, todo))
    else:
        results = [run_cell(c) for c in todo]
    return {"budget": BUDGET, "cells": results,
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__}}


def _key(cell: dict) -> tuple:
    return cell["target"], cell["color"], cell["count"], cell["heights"]


def _summary(cells_: list) -> str:
    objectives = [c["objective"] for c in cells_]
    return (f"median objective {statistics.median(objectives):.6g}, "
            f"worst {max(objectives):.6g}, "
            f"accepted {sum(bool(c['accepted']) for c in cells_)}/{len(cells_)}, "
            f"cpu {sum(c['cpu_s'] for c in cells_):.1f} s")


def _table(a: dict, b: dict, shared: list) -> list:
    """Per height set: cells better, worse and equal in B, cells better and
    worse by more than `REAL_MOVE`, the largest move not above it, and the
    accepted count and CPU seconds of A and of B."""
    lines = ["heights  better  worse  equal  real better/worse  "
             "largest other  accepted A/B  cpu-s A/B"]
    for heights in HEIGHTS:
        keys = [k for k in shared if k[3] == heights]
        if not keys:
            continue
        delta = [b[k]["objective"] - a[k]["objective"] for k in keys]
        accepted = [sum(bool(run[k]["accepted"]) for k in keys) for run in (a, b)]
        cpu = [sum(run[k]["cpu_s"] for k in keys) for run in (a, b)]
        real = f"{sum(d < -REAL_MOVE for d in delta)}/{sum(d > REAL_MOVE for d in delta)}"
        other = max((abs(d) for d in delta if abs(d) <= REAL_MOVE), default=0.0)
        lines.append(f"{heights:>7}  {sum(d < 0 for d in delta):>6}  "
                     f"{sum(d > 0 for d in delta):>5}  "
                     f"{sum(d == 0 for d in delta):>5}  {real:>17}  "
                     f"{other:>13.2g}  "
                     f"{accepted[0]:>6}/{accepted[1]:<5}  "
                     f"{cpu[0]:.1f}/{cpu[1]:.1f}")
    return lines


def compare(path_a: str, path_b: str) -> str:
    """Every moved cell of B against A, the table of `_table`, then both
    runs' summaries."""
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
    lines.extend(_table(a, b, shared))
    lines.append(f"A {path_a}: {_summary([a[k] for k in shared])}")
    lines.append(f"B {path_b}: {_summary([b[k] for k in shared])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the panel's JSON here")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    panel = run_panel(args.workers)
    Path(args.out).write_text(json.dumps(panel, indent=1))
    print(_summary(panel["cells"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
