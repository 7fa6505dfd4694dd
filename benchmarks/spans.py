"""Span recording around the public calls of each ``spinscape`` layer.

The program imports with ``from .x import y``, so a function is wrapped in
every module that looks it up, not only where it is defined.  Spans are kept
in memory: name, start, end, parent index, a per-call note and the name of
the exception that left the call, if any.  Only calls made in this process
are seen; pool workers lose theirs, which is why traced runs use one worker.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

_perf = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, note, error]
        self._stack = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``note(args, result)`` may return a value stored with the span.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, _perf(), None, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = _perf()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the pipeline and optimize-dmd commands cross."""
    from spinscape import (biasopt, cli, dmdopt, dynamics, pipeline,
                           sensitivity)

    def field_evals(args, result):
        pattern, x_grid = args[0], args[2]
        return len(pattern.indices) * pattern.height * pattern.width * len(x_grid)

    def validated(args, sol):
        return (bool(sol.accepted), sol.error)

    for owner in (cli, pipeline):
        rec.wrap(owner, "optimize_pattern", "dmdopt.search")
        rec.wrap(owner, "validate_solution", "pipeline.validate", validated)
    rec.wrap(cli, "run_pipeline", "pipeline.run",
             lambda a, db: db.diagnostics.get("stage1_survivors", 0))
    rec.wrap(cli, "emit_report", "report.emit")
    rec.wrap(pipeline.ControllerDatabase, "to_json", "pipeline.database.write",
             lambda a, r: Path(a[1]).stat().st_size)
    rec.wrap(pipeline, "optimize_biases", "biasopt.search",
             lambda a, cands: (len(cands), sum(c.n_iterations for c in cands)))
    rec.wrap(pipeline, "sensitivity_record", "sensitivity.record")
    rec.wrap(pipeline, "fidelity_trace", "dynamics.fidelity_trace")
    rec.wrap(biasopt, "fidelity_error", "dynamics.fidelity_error")
    rec.wrap(dynamics, "hamiltonian", "dynamics.hamiltonian")
    rec.wrap(dmdopt, "fidelity_trace", "dynamics.fidelity_trace")
    rec.wrap(dmdopt, "dmd_objective", "dmdopt.objective")
    rec.wrap(dmdopt, "realized_bias", "dmdopt.realized_bias")
    rec.wrap(dmdopt, "project_intensity", "optics.project_intensity", field_evals)
    rec.wrap(dmdopt, "extract_biases", "optics.extract_biases")
    rec.wrap(sensitivity, "hamiltonian", "dynamics.hamiltonian")
    rec.wrap(sensitivity, "realized_bias", "dmdopt.realized_bias")
    rec.wrap(sensitivity, "project_intensity", "optics.project_intensity",
             field_evals)
    rec.wrap(sensitivity, "bias_sensitivities", "sensitivity.xi")
    rec.wrap(sensitivity, "bias_drift_x", "sensitivity.drift_x")
    rec.wrap(sensitivity, "bias_drift_power", "sensitivity.drift_power")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list, out_dir: Path, output_name: str) -> dict:
    """Per-layer counts, busy times and self times from one traced run."""
    by_name = {}
    children = {}
    for i, (name, start, end, parent, note, error) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        children.setdefault(parent, []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def durations(name):
        return np.array([dur(i) for i in by_name.get(name, ())])

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return float(durations(name).sum())

    def us_pct(name, q):
        d = durations(name)
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    def self_time(name, child_names=None):
        """Busy time of `name` minus the time its direct children cover."""
        total = 0.0
        for i in by_name.get(name, ()):
            kids = [(spans[k][1], spans[k][2]) for k in children.get(i, ())
                    if child_names is None or spans[k][0] in child_names]
            total += dur(i) - _covered(kids)
        return total

    def notes(name):
        return [spans[i][4] for i in by_name.get(name, ())]

    stage1 = notes("biasopt.search")
    restarts = sum(n[0] for n in stage1)
    survivors = sum(notes("pipeline.run"))
    validated = notes("pipeline.validate")
    accepted = sum(1 for ok, _ in validated if ok)
    errors = [e for _, e in validated if e is not None]
    searches = calls("dmdopt.search")
    search_busy = busy("dmdopt.search")
    surrogate = self_time("dmdopt.search")
    evals_in_stage1 = sum(
        1 for i in by_name.get("dynamics.fidelity_error", ())
        if spans[i][3] >= 0 and spans[spans[i][3]][0] == "biasopt.search")
    report_files = [p for p in out_dir.rglob("*")
                    if p.is_file() and p.name != output_name]

    return {
        "biasopt.busy_s": busy("biasopt.search"),
        "biasopt.self_s": self_time("biasopt.search",
                                    {"dynamics.fidelity_error"}),
        "biasopt.restarts": restarts,
        "biasopt.iterations": sum(n[1] for n in stage1),
        "biasopt.evals_per_restart": evals_in_stage1 / restarts if restarts else 0.0,
        "biasopt.survivors": survivors,
        "biasopt.survivor_ratio": survivors / restarts if restarts else 0.0,
        "dynamics.fidelity_error.calls": calls("dynamics.fidelity_error"),
        "dynamics.fidelity_error.busy_s": busy("dynamics.fidelity_error"),
        "dynamics.fidelity_error.us_p50": us_pct("dynamics.fidelity_error", 50),
        "dynamics.hamiltonian.calls": calls("dynamics.hamiltonian"),
        "dynamics.fidelity_trace.calls": calls("dynamics.fidelity_trace"),
        "dynamics.fidelity_trace.busy_s": busy("dynamics.fidelity_trace"),
        "dmdopt.searches": searches,
        "dmdopt.busy_s": search_busy,
        "dmdopt.objective.calls": calls("dmdopt.objective"),
        "dmdopt.objective.busy_s": busy("dmdopt.objective"),
        "dmdopt.objective.us_p50": us_pct("dmdopt.objective", 50),
        "dmdopt.objective.us_p99": us_pct("dmdopt.objective", 99),
        "dmdopt.surrogate_s": surrogate,
        "dmdopt.surrogate_share": surrogate / search_busy if search_busy else 0.0,
        "dmdopt.search_s.max": float(durations("dmdopt.search").max(initial=0.0)),
        "dmdopt.accepted": accepted,
        "dmdopt.accept_ratio": accepted / searches if searches else 0.0,
        "dmdopt.best_e": min(errors, default=1.0),
        "optics.project_intensity.calls": calls("optics.project_intensity"),
        "optics.project_intensity.busy_s": busy("optics.project_intensity"),
        "optics.project_intensity.us_p50": us_pct("optics.project_intensity", 50),
        "optics.field_evals": sum(notes("optics.project_intensity")),
        "optics.extract_biases.calls": calls("optics.extract_biases"),
        "optics.extract_biases.busy_s": busy("optics.extract_biases"),
        "optics.extraction_failures": sum(
            1 for i in by_name.get("optics.extract_biases", ())
            if spans[i][5] == "ExtractionError"),
        "sensitivity.records": calls("sensitivity.record"),
        "sensitivity.busy_s": busy("sensitivity.record"),
        "sensitivity.drift_power_s": busy("sensitivity.drift_power"),
        "sensitivity.drift_x_s": busy("sensitivity.drift_x"),
        "sensitivity.xi_s": busy("sensitivity.xi"),
        "pipeline.validate.calls": calls("pipeline.validate"),
        "pipeline.validate.busy_s": busy("pipeline.validate"),
        "pipeline.orchestration_s": self_time("pipeline.run"),
        "pipeline.database.write_s": busy("pipeline.database.write"),
        "pipeline.database.bytes": sum(notes("pipeline.database.write")),
        "report.busy_s": busy("report.emit"),
        "report.files": len(report_files) if calls("report.emit") else 0,
        "report.bytes": (sum(p.stat().st_size for p in report_files)
                         if calls("report.emit") else 0),
    }
