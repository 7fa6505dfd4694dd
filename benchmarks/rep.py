"""One repetition of a workload in a fresh interpreter.

Times set-up (``import spinscape``, config parse, one projection context per
colour) and then the command itself through ``spinscape.cli.main``.  Writes
a JSON result file; the command's own output goes to the config's
``out_dir``.  With ``--trace 1`` the layer wrappers are installed after
set-up and the per-layer metrics are added to the result.

    python3 benchmarks/rep.py --src SRC --config CFG --result FILE \
        --workload NAME [--threads N] [--trace 0|1] [--setup-only]
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = {"ok": False}

    try:
        t0 = time.perf_counter()
        sys.path.insert(0, args.src)
        from spinscape import cli
        from spinscape.dmdopt import make_context
        from spinscape.pipeline import PipelineConfig
        cfg = PipelineConfig.from_json(args.config)
        for color in cfg.stage2.colors:
            make_context(cfg.optics[color], cfg.lattice, cfg.zeta,
                         cfg.problem.n_sites)
        result["setup_s"] = time.perf_counter() - t0
        if args.setup_only:
            result["ok"] = True
            return 0

        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        recorder = None
        if args.trace:
            import spans
            recorder = spans.Recorder()
            spans.install(recorder)

        argv = workload.argv(args.config, args.threads)
        self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        kids0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
        t1 = time.perf_counter()
        rc = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t1
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["cpu_s"] = _cpu(own) - self0 + _cpu(kids) - kids0
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest child
        result["peak_rss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024
        result["exit_code"] = rc
        if recorder is not None:
            result["layers"] = spans.layer_metrics(
                recorder.spans, Path(cfg.out_dir), workload.output_name)
        # 3 is the CLI's "completed with an empty result set"
        result["ok"] = rc in (cli.EXIT_OK, cli.EXIT_EMPTY)
        if not result["ok"]:
            result["error"] = f"spinscape {argv[0]} exited with code {rc}"
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        Path(args.result).write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
