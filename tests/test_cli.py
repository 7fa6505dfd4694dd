import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinscape.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_OK, main
from spinscape.sensitivity import SensitivityRecord

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


@pytest.mark.parametrize("t_max", ["0", "-5", "nan", "inf"])
def test_evaluate_rejects_nonpositive_window(tmp_path, config_path, t_max):
    rc = main(["evaluate", "--config", config_path, "--out", str(tmp_path / "o"),
               "--delta", "[-0.0262, 0.9159, -0.9159, 0.0262]", "--t-max", t_max])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("argv", [
    ["pipeline"],
    ["optimize-dmd", "--target", "[-0.03, 0.9, 0.9, -0.03]"],
])
def test_over_cap_search_rejected_before_any_work(tmp_path, monkeypatch, argv,
                                                  capsys):
    # count 12 at span 24 holds C(24, 6) = 134 596 patterns per height, past
    # the cap of 64 x 2048 = 131 072 of the default budget
    from spinscape import pipeline
    calls = []

    def refuse(*args):
        calls.append(1)
        raise AssertionError("an over-cap search must fail before any work")

    monkeypatch.setattr(pipeline, "optimize_biases", refuse)
    monkeypatch.setattr(pipeline, "make_context", refuse)
    stage2 = {key: value for key, value in TINY["stage2"].items() if key != "budget"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "stage2": {**stage2, "counts": [12],
                                                  "index_span": 24}}))
    rc = main([*argv, "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "134596 patterns, more than the cap of 131072" in capsys.readouterr().err
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


@pytest.mark.parametrize("key,value,named", [
    ("sede", 5, "sede"),
    ("optics", {"bleu": {"na": 0.5}}, "optics.bleu"),
], ids=["top", "optics"])
def test_pipeline_rejects_unknown_config_keys(tmp_path, key, value, named, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, key: value}))
    rc = main(["pipeline", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert f"unknown config keys: {named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data,named", [([1], "the config"),
                                        ({"optics": 5}, "section optics")],
                         ids=["list", "optics"])
def test_pipeline_rejects_non_object_configs(tmp_path, data, named, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["pipeline", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert f"{named} must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command, option, values", [
    ("evaluate", "--delta", [0.1, 0.2, 0.3, 0.4, 0.5]),
    ("evaluate", "--delta", [0.1, 0.2]),
    ("optimize-dmd", "--target", [0.5]),
    ("optimize-dmd", "--target", [0.1, 0.2]),
    ("optimize-dmd", "--target", []),
])
def test_bias_of_wrong_length_rejected(tmp_path, config_path, command, option,
                                       values, capsys):
    out = tmp_path / "o"
    rc = main([command, "--config", config_path, "--out", str(out),
               option, json.dumps(values)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{option} has {len(values)} values" in err
    assert "5-site chain needs 4" in err
    assert not out.exists()


def test_negative_seed_rejected_before_any_work(tmp_path, config_path, capsys):
    out = tmp_path / "o"
    rc = main(["pipeline", "--config", config_path, "--out", str(out),
               "--seed", "-1"])
    assert rc == EXIT_CONFIG
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_nan_zeta_config_rejected_before_any_work(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({**TINY, "zeta": float("nan")}))
    assert "NaN" in bad.read_text()
    out = tmp_path / "o"
    rc = main(["pipeline", "--config", str(bad), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "zeta must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,key", [("stage1", "t_max"),
                                         ("thresholds", "t_max_ms"),
                                         ("lattice", "wavelength")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_setting_rejected_before_any_work(tmp_path, capsys, section,
                                                    key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, section: {**TINY.get(section, {}),
                                                 key: value}}))
    out = tmp_path / "o"
    rc = main(["optimize-bias", "--config", str(bad), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"{section}: {key} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,section,key,value", [
    ("optimize-dmd", "stage2", "counts", [2.5]),
    ("optimize-dmd", "stage2", "counts", [True]),
    ("optimize-dmd", "stage2", "heights", [1.5]),
    ("optimize-dmd", "stage2", "index_span", 6.5),
    ("optimize-dmd", "problem", "n_sites", 5.0),
    ("optimize-dmd", "stage2", "budget", 2.5),
    ("optimize-dmd", "stage2", "budget", True),
    ("pipeline", "stage1", "restarts", 2.5),
    ("pipeline", "stage1", "max_iterations", 2.5),
    ("pipeline", "stage2", "max_targets", 1.5),
], ids=["counts-float", "counts-bool", "heights-float", "index_span", "n_sites",
        "budget-float", "budget-bool", "restarts", "max_iterations", "max_targets"])
def test_whole_number_settings_must_be_integers(tmp_path, capsys, command, section,
                                                key, value):
    # each of these crashed late with a TypeError or ran as another value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, section: {**TINY.get(section, {}),
                                                 key: value}}))
    out = tmp_path / "o"
    target = {"optimize-dmd": ["--target", "[-0.03, 0.9, 0.9, -0.03]"]}.get(command, [])
    rc = main([command, "--config", str(bad), "--out", str(out), *target])
    assert rc == EXIT_CONFIG
    assert f"error: {section}.{key} must be " in capsys.readouterr().err
    assert not out.exists()


def stored_database(tmp_path) -> tuple:
    """A `TINY` database of one record, as a dict, and the path to write it."""
    from spinscape.dmdopt import DMDSolution
    from spinscape.lattice import BiasVector
    from spinscape.optics import DMDPattern
    from spinscape.pipeline import (Controller, ControllerDatabase, PipelineConfig,
                                    config_hash)
    cfg = PipelineConfig.from_dict(TINY)
    delta = BiasVector([-0.03, 0.9, -0.9, 0.03])
    solution = DMDSolution(pattern=DMDPattern(indices=[-3, 3], height=2), power=0.5,
                           color="blue", achieved=delta, objective=0.1)
    record = Controller(id=0, color="blue", target=delta, target_time=100.0,
                        target_error=1e-3, optics_target=delta,
                        solution=solution).to_dict()
    db = ControllerDatabase(config=cfg.to_dict(), config_hash=config_hash(cfg),
                            seed=cfg.seed).to_dict()
    db["records"] = [record]
    return db, tmp_path / "controllers.json"


def test_report_rejects_a_stored_width_other_than_one(tmp_path, capsys):
    db, path = stored_database(tmp_path)
    pattern = db["records"][0]["solution"]["pattern"]
    pattern["width"] = 2
    path.write_text(json.dumps(db))
    out = tmp_path / "rep"
    rc = main(["report", "--database", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "superpixel width must be 1, not 2" in capsys.readouterr().err
    assert not out.exists()
    pattern["width"] = 1                          # the same record reads back
    path.write_text(json.dumps(db))
    assert main(["report", "--database", str(path), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("key", ["width", "height", "indices"])
def test_report_rejects_a_stored_pattern_missing_a_key(tmp_path, capsys, key):
    db, path = stored_database(tmp_path)
    del db["records"][0]["solution"]["pattern"][key]
    path.write_text(json.dumps(db))
    out = tmp_path / "rep"
    rc = main(["report", "--database", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"stored pattern has no {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "sensitivity"])
@pytest.mark.parametrize("spoil, named", [
    ("no-records", "stored database has no 'records'"),
    ("a-list", "stored database must be a JSON object, not list"),
    ("no-sensitivity", "stored record has no 'sensitivity'"),
    # (path in the record, key, stored value)
    ((("solution", "pattern"), "indices", 3),
     "stored pattern 'indices' must be a JSON list of integers, not 3"),
    ((("solution", "pattern"), "indices", [-3.5, 3.5]),
     "stored pattern 'indices' must be a JSON list of integers, not [-3.5, 3.5]"),
    ((("solution",), "achieved_delta", 5),
     "stored solution 'achieved_delta' must be a flat JSON list of finite "
     "numbers, not 5"),
    (((), "target_delta", [0.1, 0.2, 0.3]),
     "stored record 'target_delta' has 3 values, but the 5-site chain needs 4"),
    (((), "optics_target", [[0.1, 0.2], [0.3, 0.4]]),
     "stored record 'optics_target' must be a flat JSON list of finite numbers, "
     "not [[0.1, 0.2], [0.3, 0.4]]"),
    ((("sensitivity",), "xi", 5),
     "stored sensitivity record 'xi' must be a flat JSON list of finite "
     "numbers, not 5"),
    ((("sensitivity",), "ddelta_dx", [0.1, 0.2, 0.3]),
     "stored sensitivity record 'ddelta_dx' has 3 values, but the 5-site "
     "chain needs 4"),
    ((("sensitivity",), "ddelta_dp", [0.1, "0.2", 0.3, 0.4]),
     "stored sensitivity record 'ddelta_dp' must be a flat JSON list of "
     "finite numbers, not [0.1, \"0.2\", 0.3, 0.4]"),
    ((("solution", "pattern"), "height", "2"),
     "stored pattern 'height' must be a JSON integer, not '2'"),
    ((("solution", "pattern"), "height", True),
     "stored pattern 'height' must be a JSON integer, not True"),
    ((("solution",), "power", "0.5"),
     "stored solution 'power' must be a finite number, not '0.5'"),
    ((("solution",), "objective", None),
     "stored solution 'objective' must be a finite number, not None"),
    ((("solution",), "e_min", [0.001]),
     "stored solution 'e_min' must be a finite number or null, not [0.001]"),
    ((("solution",), "t_min", False),
     "stored solution 't_min' must be a finite number or null, not False"),
    ((("solution",), "accepted", 1),
     "stored solution 'accepted' must be true, false or null, not 1"),
    ((("solution",), "singular", "no"),
     "stored solution 'singular' must be true, false or null, not 'no'"),
], ids=["no-records", "a-list", "no-sensitivity", "indices-number",
        "indices-floats", "achieved-number", "target-short", "optics-nested",
        "xi-number", "drift-x-short", "drift-p-string", "height-string",
        "height-bool", "power-string", "objective-null", "e-min-list",
        "t-min-bool", "accepted-number", "singular-string"])
def test_malformed_database_rejected_with_the_key_named(tmp_path, capsys, command,
                                                        spoil, named):
    db, path = stored_database(tmp_path)
    if spoil == "no-records":
        del db["records"]
    elif spoil == "no-sensitivity":
        del db["records"][0]["sensitivity"]
    elif spoil == "a-list":
        db = [db]
    else:
        at, key, value = spoil
        if at == ("sensitivity",):              # the stored record has none
            db["records"][0]["sensitivity"] = SensitivityRecord(
                xi=(0.1,) * 4, ddelta_dx=(0.2,) * 4, ddelta_dp=(0.3,) * 4,
                s_x=0.4, s_p=0.5, min_gap=0.1, error=1e-3,
                transfer_time=100.0).to_dict()
        part = db["records"][0]
        for step in at:
            part = part[step]
        part[key] = value
    path.write_text(json.dumps(db))
    out = tmp_path / "o"
    rc = main([command, "--database", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {named}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, option", [("optimize-dmd", "--target"),
                                             ("evaluate", "--delta")])
@pytest.mark.parametrize("text", ['{"a": 1}', "[NaN, 0.9, 0.9, 0.2]",
                                  "[Infinity, 0.9, 0.9, 0.2]",
                                  "[[0.2, 0.9], [0.9, 0.2]]",
                                  '[true, 0.9, 0.9, 0.2]', '["0.2", 0.9, 0.9, 0.2]',
                                  "[1" + "0" * 400 + ", 0.9, 0.9, 0.2]"],
                         ids=["object", "nan", "infinity", "nested", "bool",
                              "string", "past-float"])
def test_bias_option_takes_a_flat_list_of_finite_numbers(tmp_path, config_path,
                                                         monkeypatch, capsys,
                                                         command, option, text):
    from spinscape import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a bad bias option must fail before any work")

    for name in ("color_contexts", "search_patterns", "fidelity_trace"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "o"
    rc = main([command, "--config", config_path, "--out", str(out), option, text])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {option} must be a flat JSON list of finite numbers" in err
    assert not out.exists()


def fresh_python(code: str, *paths) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter with `paths`, then `src/`, on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*paths, src)))}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_out_unused_scipy_packages():
    # scipy.optimize's package __init__ alone costs about 0.17 s per process,
    # and scipy.special's about as much; stage 1 and the optics load only the
    # two compiled modules they use, and not even the scipy package init
    done = fresh_python("import json, sys, spinscape.cli; "
                        "print(json.dumps(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "spinscape.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] \
        == ["scipy.optimize._lbfgsb", "scipy.special._special_ufuncs"]


def test_run_imports_nothing_after_setup(tmp_path):
    # every module a run needs loads with the program, so no import cost
    # lands inside a run: a lazy numpy name (numpy.random) or a numpy call
    # that imports on first use (np.unique loading numpy.ma) would show here.
    # This TINY variant accepts records, so sensitivity and report run too.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        **TINY, "seed": 1,
        "stage1": {**TINY["stage1"], "restarts": 6, "max_iterations": 200},
        "stage2": {**TINY["stage2"], "index_span": 10, "budget": 40}}))
    done = fresh_python(
        "import json, sys\n"
        "from spinscape.cli import main\n"
        "before = set(sys.modules)\n"
        f"main(['pipeline', '--config', {str(path)!r}, '--threads', '1',\n"
        f"      '--out', {str(tmp_path / 'pipe')!r}])\n"
        f"main(['optimize-dmd', '--config', {str(path)!r}, '--threads', '1',\n"
        f"      '--out', {str(tmp_path / 'dmd')!r},\n"
        "      '--target', '[-0.22, 0.92, 0.92, -0.22]'])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert done.returncode == 0, done.stderr
    db = json.loads((tmp_path / "pipe" / "controllers.json").read_text())
    assert any(r["sensitivity"] for r in db["records"])
    assert (tmp_path / "dmd" / "dmd_solutions.json").exists()
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_lbfgsb_module_is_shared_with_scipy_optimize():
    # a later `import scipy.optimize` reuses the module stage 1 loaded
    done = fresh_python(
        "from spinscape import biasopt\n"
        "from scipy.optimize import _lbfgsb_py, minimize\n"
        "assert _lbfgsb_py._lbfgsb is biasopt._lbfgsb\n"
        "res = minimize(lambda x: ((x - 1.5) ** 2).sum(), [0.0, 0.0],\n"
        "               method='L-BFGS-B', bounds=[(-1, 1), (-2, 2)])\n"
        "assert res.success and abs(res.x - [1.0, 1.5]).max() < 1e-6, res\n")
    assert done.returncode == 0, done.stderr


def test_scipy_without_the_lbfgsb_module_names_the_floor(tmp_path):
    # an older scipy layout: the package is there, its C L-BFGS-B port is not
    fake = tmp_path / "scipy"
    (fake / "optimize").mkdir(parents=True)
    (fake / "__init__.py").write_text("__version__ = '1.14.1'\n")
    done = fresh_python("import spinscape.biasopt", tmp_path)
    assert done.returncode != 0
    assert "ImportError" in done.stderr
    assert "scipy>=1.15, found 1.14.1" in done.stderr


@pytest.mark.parametrize("module", ["", "def j0(x):\n    return x\n"],
                         ids=["no-module", "no-j1"])
def test_scipy_without_the_special_ufuncs_j1_names_the_floor(tmp_path, module):
    # an older scipy layout: no compiled module of scipy.special that holds
    # j1 without importing the package
    fake = tmp_path / "scipy"
    (fake / "special").mkdir(parents=True)
    (fake / "__init__.py").write_text("__version__ = '1.14.1'\n")
    if module:
        (fake / "special" / "_special_ufuncs.py").write_text(module)
    done = fresh_python("import spinscape.optics", tmp_path)
    assert done.returncode != 0
    assert "ImportError" in done.stderr
    name = "scipy.special._special_ufuncs" + (".j1" if module else "")
    assert f"{name} not found; spinscape needs scipy>=1.15, found 1.14.1" \
        in done.stderr


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

