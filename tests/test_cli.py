import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinscape.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_OK, main

TINY = {
    "lattice": {"depth": 10.0},
    "zeta": 10.0,
    "stage1": {"t_max": 30000.0, "restarts": 4, "max_iterations": 150},
    "stage2": {"colors": ["blue"], "counts": [2], "heights": [1],
               "index_span": 8, "budget": 30, "max_targets": 1},
    "seed": 7,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_evaluate_writes_trace(tmp_path, config_path, capsys):
    rc = main(["evaluate", "--config", config_path, "--out", str(tmp_path / "o"),
               "--delta", "[-0.0262, 0.9159, -0.9159, 0.0262]"])
    assert rc == EXIT_OK
    assert (tmp_path / "o" / "trace.csv").exists()
    assert (tmp_path / "o" / "trace.svg").exists()
    out = capsys.readouterr().out
    assert "e_min=" in out


def test_evaluate_rejects_singular_bias(tmp_path, config_path):
    rc = main(["evaluate", "--config", config_path, "--out", str(tmp_path / "o"),
               "--delta", "[0.0, 1.5, -1.5, 0.0]"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("t_max", ["0", "-5"])
def test_evaluate_rejects_nonpositive_window(tmp_path, config_path, t_max):
    rc = main(["evaluate", "--config", config_path, "--out", str(tmp_path / "o"),
               "--delta", "[-0.0262, 0.9159, -0.9159, 0.0262]", "--t-max", t_max])
    assert rc == EXIT_CONFIG


def test_optimize_bias_writes_candidates(tmp_path, config_path):
    rc = main(["optimize-bias", "--config", config_path,
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "o" / "bias_candidates.json").read_text())
    assert len(data) == 4
    assert all(set(d) >= {"delta", "T", "e", "restart"} for d in data)


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"zeta": -2}))
    rc = main(["optimize-bias", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_missing_config_file(tmp_path):
    rc = main(["optimize-bias", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_pipeline_and_report_flow(tmp_path, config_path):
    out = tmp_path / "run"
    rc = main(["pipeline", "--config", config_path, "--out", str(out)])
    assert rc in (EXIT_OK, EXIT_EMPTY)      # tiny budget may legitimately find none
    db_path = out / "controllers.json"
    assert db_path.exists()
    assert (out / "summary.json").exists()

    rc = main(["report", "--config", config_path, "--out", str(out / "rep"),
               "--database", str(db_path)])
    assert rc in (EXIT_OK, EXIT_EMPTY)
    assert (out / "rep" / "table1.csv").exists() or not json.loads(
        db_path.read_text())["records"]

    rc = main(["sensitivity", "--config", config_path, "--out", str(out / "s"),
               "--database", str(db_path)])
    assert rc in (EXIT_OK, EXIT_EMPTY)


def test_optimize_dmd_roundtrip(tmp_path, config_path):
    rc = main(["optimize-dmd", "--config", config_path, "--out", str(tmp_path / "d"),
               "--target", "[-0.03, 0.9, 0.9, -0.03]", "--seed", "5"])
    assert rc in (EXIT_OK, EXIT_EMPTY)
    data = json.loads((tmp_path / "d" / "dmd_solutions.json").read_text())
    assert len(data) == 1
    assert "pattern" in data[0] and "objective" in data[0]


@pytest.mark.parametrize("argv", [
    ["pipeline"],
    ["optimize-dmd", "--target", "[-0.03, 0.9, 0.9, -0.03]"],
])
def test_empty_counts_rejected(tmp_path, argv, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "stage2": {**TINY["stage2"], "counts": []}}))
    rc = main([*argv, "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "counts" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pipeline"],
    ["optimize-dmd", "--target", "[-0.03, 0.9, 0.9, -0.03]"],
])
@pytest.mark.parametrize("key,value", [("max_targets", 0), ("budget", -1)])
def test_stage2_counts_below_one_rejected(tmp_path, argv, key, value, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "stage2": {**TINY["stage2"], key: value}}))
    rc = main([*argv, "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pipeline_rejects_unhostable_count_before_stage1(tmp_path, monkeypatch,
                                                        capsys):
    # span 10 hosts at most 10 half-pattern superpixels; count 50 needs 25
    from spinscape import pipeline
    calls = []
    optimize_biases = pipeline.optimize_biases

    def counted(*args):
        calls.append(1)
        return optimize_biases(*args)

    monkeypatch.setattr(pipeline, "optimize_biases", counted)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "stage2": {**TINY["stage2"], "counts": [50],
                                                  "index_span": 10}}))
    rc = main(["pipeline", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "cannot host 25" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_pipeline_rejects_asymmetric_stage1_before_stage1(tmp_path, monkeypatch,
                                                         capsys):
    # stage 2 antisymmetrizes its target, which drops half of an asymmetric
    # survivor; optimize-bias has no stage 2 and still takes the setting
    from spinscape import pipeline
    calls = []
    optimize_biases = pipeline.optimize_biases

    def counted(*args):
        calls.append(1)
        return optimize_biases(*args)

    monkeypatch.setattr(pipeline, "optimize_biases", counted)
    free = tmp_path / "free.json"
    free.write_text(json.dumps({**TINY, "stage1": {**TINY["stage1"],
                                                   "symmetric": False}}))
    rc = main(["pipeline", "--config", str(free), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "stage1.symmetric" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()
    rc = main(["optimize-bias", "--config", str(free), "--out", str(tmp_path / "b")])
    assert rc in (EXIT_OK, EXIT_EMPTY)
    assert (tmp_path / "b" / "bias_candidates.json").exists()


def test_optimize_dmd_threads_write_the_same_bytes(tmp_path):
    config = tmp_path / "two_colours.json"
    config.write_text(json.dumps(
        {**TINY, "stage2": {**TINY["stage2"], "colors": ["blue", "red"]}}))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        rc = main(["optimize-dmd", "--config", str(config), "--out", str(out),
                   "--target", "[-0.03, 0.9, 0.9, -0.03]", "--threads", threads])
        assert rc in (EXIT_OK, EXIT_EMPTY)
        written.append((out / "dmd_solutions.json").read_bytes())
    assert written[0] == written[1]
    assert [d["color"] for d in json.loads(written[0])] == ["blue", "red"]


def test_bad_target_leaves_no_output_directory(tmp_path, config_path, capsys):
    out = tmp_path / "o"
    rc = main(["optimize-dmd", "--config", config_path, "--out", str(out),
               "--target", "not json"])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(tmp_path, config_path, threads, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--config", config_path, "--out", str(out),
              "--threads", threads])
    assert exc.value.code == 2                  # argparse's usage error
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_threads_only_where_read(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", config_path, "--threads", "2",
              "--delta", "[-0.0262, 0.9159, -0.9159, 0.0262]"])
    assert exc.value.code == 2                  # argparse's usage error
    assert "--threads" in capsys.readouterr().err


def test_benchmark_span_hooks_resolve():
    # the traced benchmark wraps (module, name) pairs of the program; a
    # fresh interpreter proves every one of them still exists
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "benchmarks")])}
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


TRACED_RUN = """
import json, sys
import spans
rec = spans.Recorder()
spans.install(rec)
from spinscape.cli import main
config, out = sys.argv[1], sys.argv[2]
result = []
for argv in (["optimize-dmd", "--target", "[-0.03, 0.9, 0.9, -0.03]"],
             ["pipeline"]):
    start = len(rec.spans)
    rc = main([*argv, "--config", config, "--out", out + "/" + argv[0]])
    notes = [s[4] for s in rec.spans[start:] if s[0] == "optics.project_intensity"]
    result.append({"rc": rc, "notes": notes})
print(json.dumps(result))
"""


def test_benchmark_traced_smoke_run(tmp_path, config_path):
    # the traced benchmark's notes read the program's call shapes, e.g. the
    # grid as the third positional argument of project_intensity; a traced
    # run of both commands proves they still fit
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "benchmarks")])}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, config_path, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for run in json.loads(done.stdout.splitlines()[-1]):
        assert run["rc"] in (EXIT_OK, EXIT_EMPTY)   # a tiny budget may accept none
        assert run["notes"]
        assert all(type(n) is int and n > 0 for n in run["notes"])

