"""Tests of the benchmark itself.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these out of the repository's default test collection:
the smoke runs start fresh interpreters and take about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import check_output          # noqa: E402
from workloads import WORKLOADS          # noqa: E402
from spinscape import cli                # noqa: E402
from spinscape.pipeline import PipelineConfig   # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # seed 1 gives pipeline seeds n .. 2n-1; the traced run uses the first
    inputs = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]["inputs"]
    n = WORKLOADS[workload].inputs
    assert [i["seed"] for i in inputs] == list(range(n, n + 1 if trace else 2 * n))
    assert all(i["wall_s_samples"] and i["output_sha256"] for i in inputs)


def test_corrupted_achieved_bias_fails_the_check(tmp_path):
    workload = WORKLOADS["pattern-fanout"]
    spec = workload.config(1, str(tmp_path / "out"), tiny=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(spec))
    assert cli.main(workload.argv(str(config_path), 1)) in (cli.EXIT_OK,
                                                             cli.EXIT_EMPTY)
    cfg = PipelineConfig.from_json(config_path)
    db_path = tmp_path / "out" / "controllers.json"
    assert check_output(db_path, cfg) == []

    data = json.loads(db_path.read_text())
    assert data["records"], "the tiny fan-out should reach stage 2"
    data["records"][0]["solution"]["achieved_delta"][1] += 1e-6
    db_path.write_text(json.dumps(data, indent=2, sort_keys=True))
    problems = check_output(db_path, cfg)
    assert len(problems) == 1 and "achieved biases" in problems[0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "bias-search", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
