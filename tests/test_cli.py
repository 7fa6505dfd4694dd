import json

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


def test_threads_only_where_read(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", config_path, "--threads", "2",
              "--delta", "[-0.0262, 0.9159, -0.9159, 0.0262]"])
    assert exc.value.code == 2                  # argparse's usage error
    assert "--threads" in capsys.readouterr().err
