"""Benchmark of the ``spinscape pipeline`` and ``spinscape optimize-dmd`` commands.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory, and run files go to ``.bench_runs/`` at the
checkout root.  ``--seed`` gives a workload's few inputs (pipeline seeds);
each repetition runs one of them in a fresh interpreter
(``benchmarks/rep.py``), in turn, for whole cycles over the inputs until
``--seconds`` of repetitions are done; every repetition's output is checked.
An end-to-end metric is the median over all repetitions, to which every
input contributes equally, so neither one input's work nor one slow
repetition sets it.  The last stdout line is the result JSON: end-to-end
metrics with ``--trace 0``, per-layer metrics (from traced repetitions of
the first input, alternated with untraced ones at the same worker count)
with ``--trace 1``.  The line before it records provenance and search quality.
See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups measured before the repetitions; each
#: repetition adds one more sample.
SETUP_SAMPLES = 3
#: No repetition starts after this many seconds of repetitions, and every
#: child is killed once the run has lasted RUN_LIMIT_S, so a run ends inside
#: three minutes whatever --seconds says.
HARD_STOP_S = 120.0
RUN_LIMIT_S = 170.0
#: One BLAS thread per process, here and in every repetition and pool worker
#: (they inherit the environment).  OpenBLAS's default of one busy-waiting
#: thread per core doubles cpu_s and makes every process compete with its
#: own spinning thread for the cores, which made runs far noisier.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _spawn_rep(rep_args: list, deadline: float) -> dict:
    """Run rep.py in its own session; kill the whole group at the deadline."""
    timeout = max(deadline - time.perf_counter(), 1.0)
    result_path = Path(rep_args[rep_args.index("--result") + 1])
    log_path = result_path.with_suffix(".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), *rep_args],
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"ok": False, "error": f"repetition killed after {timeout:.0f} s"}
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError) as exc:
        result = {"ok": False, "error": f"no result from repetition: {exc}"}
    if not result["ok"]:
        tail = log_path.read_text().strip().splitlines()[-1:]
        result["error"] = " | ".join([result.get("error", "failed").strip(), *tail])
    return result


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _provenance(inputs: list, workload, seed: int, tiny: bool) -> dict:
    import numpy
    import scipy
    from spinscape.pipeline import config_hash
    return {
        "workload": workload.name, "seed": seed, "tiny": tiny,
        "command": f"spinscape {workload.command}",
        "inputs": [{"seed": inp["seed"],
                    "config": json.loads(json.dumps(inp["cfg"].to_dict())),
                    "config_hash": config_hash(inp["cfg"]),
                    "quality": next((r["quality"] for r in inp["reps"]
                                     if "quality" in r), {}),
                    "output_sha256": sorted(inp["digests"]),
                    "wall_s_samples": [r["wall_s"] for r in inp["reps"]
                                       if not r["traced"] and "wall_s" in r]}
                   for inp in inputs],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas": {"openblas_threads": _blas_threads(),
                 **{k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
    }


def _prepare_input(workload, seed: int, j: int, tiny: bool) -> dict:
    """Write input j of --seed: its own pipeline seed, config file and out dir.

    Seed s covers pipeline seeds s*n .. s*n+n-1 for a workload of n inputs.
    Paths are relative to ROOT, where repetitions run, so that the out_dir
    the program records is the same in every checkout and every run of a
    seed.
    """
    from spinscape.pipeline import PipelineConfig
    pipeline_seed = seed * workload.inputs + j
    rel = Path(".bench_runs") / f"{workload.name}-seed{pipeline_seed}"
    run_dir = ROOT / rel
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(
        workload.config(pipeline_seed, str(rel / "out"), tiny), indent=2))
    return {"seed": pipeline_seed, "dir": run_dir, "out": run_dir / "out",
            "cfg": PipelineConfig.from_json(run_dir / "config.json"),
            "args": ["--src", str(SRC), "--config", str(rel / "config.json"),
                     "--workload", workload.name],
            "reps": [], "digests": set()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (for benchmarks/selftest.py)")
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)             # before numpy is first imported

    if not (SRC / "spinscape" / "__init__.py").is_file():
        print(f"error: no spinscape sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    from checks import check_output, summarize

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    units = _units()
    # the traced run times the first input only, untraced and traced in turn
    inputs = [_prepare_input(workload, args.seed, j, args.tiny)
              for j in range(1 if args.trace else workload.inputs)]
    cycle = 2 if args.trace else len(inputs)

    setups = []
    for k in range(SETUP_SAMPLES):
        res = _spawn_rep([*inputs[0]["args"], "--setup-only", "--result",
                          str(inputs[0]["dir"] / f"setup{k}.json")], deadline)
        if res["ok"]:
            setups.append(res["setup_s"])

    # pool workers lose their spans, so traced runs (and the untraced runs
    # they are compared with) use one worker
    threads = 1 if args.trace else workload.threads
    reps, problems = [], []
    start = time.perf_counter()
    while True:
        k = len(reps)
        # stop only after whole cycles, so every input has as many repetitions
        elapsed = time.perf_counter() - start
        if k and k % cycle == 0 and (elapsed * (k + cycle) / k > args.seconds
                                     or elapsed > HARD_STOP_S):
            break
        inp = inputs[k % len(inputs)]
        traced = args.trace == 1 and k % 2 == 1      # untraced, traced, ...
        shutil.rmtree(inp["out"], ignore_errors=True)
        res = _spawn_rep([*inp["args"], "--threads", str(threads),
                          "--trace", str(int(traced)),
                          "--result", str(inp["dir"] / f"rep{k:02d}.json")], deadline)
        res["traced"] = traced
        if res["ok"]:
            output = inp["out"] / workload.output_name
            try:
                found = check_output(output, inp["cfg"])
                inp["digests"].add(hashlib.sha256(output.read_bytes()).hexdigest())
                res["quality"] = summarize(output)
            except Exception as exc:           # a malformed file is a failed check
                found = [f"output check raised {type(exc).__name__}: {exc}"]
            res["ok"] = not found
            problems += [f"rep {k}, seed {inp['seed']}: {p}" for p in found]
        else:
            problems.append(f"rep {k}, seed {inp['seed']}: "
                            f"{res.get('error', 'failed')}")
        if "setup_s" in res:
            setups.append(res["setup_s"])
        reps.append(res)
        inp["reps"].append(res)
    for inp in inputs:
        problems += [f"seed {inp['seed']}: {p}" for p in
                     _check_digests(inp["digests"], inp["cfg"], workload.output_name)]

    failed = sum(1 for r in reps if not r["ok"])
    info = _provenance(inputs, workload, args.seed, args.tiny)
    info.update(threads=threads, repetitions=len(reps),
                setup_samples=len(setups), failed_frac=failed / len(reps),
                problems=problems[:20])

    untraced = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in reps if r["traced"] and "wall_s" in r]

    if args.trace:
        layers = [r["layers"] for r in traced if "layers" in r]
        values = {name: _median(layer[name] for layer in layers)
                  for name in (layers[0] if layers else {})}
        values["trace.overhead_s"] = (_median(r["wall_s"] for r in traced)
                                      - _median(r["wall_s"] for r in untraced))
        names = units["per_layer"]
    else:
        values = {"setup_s": _median(setups),
                  "wall_s": _median(r["wall_s"] for r in untraced),
                  "cpu_s": _median(r["cpu_s"] for r in untraced),
                  "peak_rss_mb": _median(r["peak_rss_mb"] for r in untraced)}
        names = units["end_to_end"]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in names.items()}

    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


def _median(values) -> float:
    """Median, or 0.0 when every repetition failed before measuring."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _check_digests(digests: set, cfg, output_name: str) -> list:
    """Outputs of one config must be byte-identical across repetitions and runs.

    Earlier runs' digests are kept per program source and config hash (the
    hash covers the seed, so only repeated seeds are compared), whatever the
    worker count or tracing.
    """
    from spinscape.pipeline import config_hash
    if len(digests) > 1:
        return [f"{output_name} differs between repetitions"]
    if not digests:
        return []
    registry = ROOT / ".bench_runs" / "digests.json"
    known = json.loads(registry.read_text()) if registry.is_file() else {}
    source = hashlib.sha256()
    for path in sorted((SRC / "spinscape").glob("*.py")):
        source.update(path.read_bytes())
    key = f"{source.hexdigest()[:16]}-{config_hash(cfg)}"
    digest = next(iter(digests))
    if known.setdefault(key, digest) != digest:
        return [f"{output_name} differs from an earlier run of the same config"]
    registry.write_text(json.dumps(known, indent=1, sort_keys=True))
    return []


def _units() -> dict:
    """Metric names and units per section, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


if __name__ == "__main__":
    sys.exit(main())
