"""Output checks run on every repetition's written result file.

Each check re-loads what the command wrote and recomputes it from the
program's public functions: every stage-1 error, every stored e_min at its
t_min, every achieved bias vector, and the acceptance decision.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spinscape.dmdopt import make_context, realized_bias
from spinscape.dynamics import fidelity_error
from spinscape.lattice import NOMINAL_PARAMS, BiasVector, time_unit
from spinscape.optics import DMDPattern, ExtractionError
from spinscape.pipeline import PipelineConfig

#: Recomputations repeat the program's own arithmetic, so they agree to
#: rounding; these tolerances only absorb vectorized-versus-scalar sums.
E_TOL = 1e-10
BIAS_TOL = 1e-12


def _check_solution(sol: dict, cfg: PipelineConfig, contexts: dict,
                    t_limit: float, where: str) -> list:
    problems = []
    pattern = DMDPattern.from_dict(sol["pattern"])
    try:
        achieved = realized_bias(pattern, sol["power"], contexts[sol["color"]]).bias.array
    except ExtractionError:
        # the program stores zeros when the final extraction fails
        achieved = np.zeros(cfg.problem.n_sites - 1)
    stored = np.asarray(sol["achieved_delta"], dtype=float)
    if stored.shape != achieved.shape or np.max(np.abs(stored - achieved)) > BIAS_TOL:
        problems.append(f"{where}: achieved biases {stored.tolist()} differ from "
                        f"recomputed {achieved.tolist()}")
        return problems
    if sol["e_min"] is None:
        if sol["accepted"] or BiasVector(stored).is_dynamical():
            problems.append(f"{where}: missing e_min for a dynamical solution")
        return problems
    e = fidelity_error(BiasVector(stored), sol["t_min"], cfg.problem, NOMINAL_PARAMS)
    if not math.isclose(e, sol["e_min"], rel_tol=1e-9, abs_tol=E_TOL):
        problems.append(f"{where}: e_min {sol['e_min']!r} but recomputed {e!r}")
    meets = sol["e_min"] < cfg.thresholds.e_max and 0 <= sol["t_min"] < t_limit
    if bool(sol["accepted"]) != meets:
        problems.append(f"{where}: accepted={sol['accepted']} but e_min="
                        f"{sol['e_min']!r}, t_min={sol['t_min']!r}, "
                        f"window [0, {t_limit!r})")
    return problems


def check_output(path: Path, cfg: PipelineConfig) -> list:
    """Problems found in a written controllers.json or dmd_solutions.json."""
    data = json.loads(Path(path).read_text())
    tau = time_unit(cfg.zeta, cfg.lattice)
    t_limit = cfg.thresholds.t_max_normalized(tau)
    contexts = {c: make_context(cfg.optics[c], cfg.lattice, cfg.zeta,
                                cfg.problem.n_sites)
                for c in cfg.stage2.colors}
    problems = []
    if isinstance(data, list):               # optimize-dmd: one solution per colour
        if [s["color"] for s in data] != list(cfg.stage2.colors):
            problems.append("one solution per configured colour expected")
        for k, sol in enumerate(data):
            problems += _check_solution(sol, cfg, contexts, t_limit, f"solution {k}")
        return problems

    for c in data["stage1_candidates"]:
        e = fidelity_error(BiasVector(c["delta"]), c["T"], cfg.problem,
                           NOMINAL_PARAMS)
        if not math.isclose(e, c["e"], rel_tol=1e-9, abs_tol=E_TOL):
            problems.append(f"stage-1 restart {c['restart']}: e {c['e']!r} "
                            f"but recomputed {e!r}")
    for rec in data["records"]:
        problems += _check_solution(rec["solution"], cfg, contexts, t_limit,
                                    f"record {rec['id']}")
        if rec["accepted"] and rec["sensitivity"] is None:
            problems.append(f"record {rec['id']}: accepted without sensitivity")
    return problems


def summarize(path: Path) -> dict:
    """Search-quality figures of one written output."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, list):
        sols, survivors = data, None
    else:
        sols = [r["solution"] for r in data["records"]]
        survivors = data["diagnostics"].get("stage1_survivors", 0)
    errors = [s["e_min"] for s in sols if s["e_min"] is not None]
    return {"survivors": survivors,
            "accepted": sum(1 for s in sols if s["accepted"]),
            "best_e": min(errors, default=None)}
