import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinscape.cli import EXIT_OK, main
from spinscape.lattice import BiasVector, LatticeConfig, NOMINAL_PARAMS
from spinscape.dynamics import fidelity_error
from spinscape.optics import DMDPattern, OpticsConfig
from spinscape.dmdopt import AcceptanceThresholds, DMDOptimConfig, DMDSolution
from spinscape.sensitivity import SensitivityRecord
from spinscape.pipeline import (DEFAULT_PIPELINE_PHASE, ConfigError, Controller,
                                ControllerDatabase, PipelineConfig, Stage2Config,
                                antisymmetric_target, config_hash, emit_report,
                                filter_controllers, run_pipeline, stage1_config)
from spinscape.pipeline import _plan_parts

TINY = {
    "lattice": {"depth": 10.0},
    "zeta": 10.0,
    "stage1": {"t_max": 30000.0, "restarts": 6, "max_iterations": 200},
    "stage2": {"colors": ["blue"], "counts": [2], "heights": [1],
               "index_span": 10, "budget": 40, "max_targets": 1},
    "seed": 1,
}


@pytest.fixture(scope="module")
def tiny_db():
    return run_pipeline(PipelineConfig.from_dict(TINY))


class TestConfig:
    def test_roundtrip_through_json(self):
        cfg = PipelineConfig.from_dict(TINY)
        again = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()

    def test_default_alignment_off_center(self):
        cfg = PipelineConfig.from_dict({})
        sites = cfg.lattice.site_positions(5)
        assert abs(sites[2]) == pytest.approx(cfg.lattice.spacing / 16, rel=1e-9)

    def test_hash_sensitive_to_every_field(self):
        base = PipelineConfig.from_dict(TINY)
        h0 = config_hash(base)
        # the hashes of stored databases: a new JSON rule must keep them
        assert h0 == "dd851ad3c39ecd15c98f11f6ed1708e8276374abb71c8ed471556b9e328f0259"
        assert config_hash(PipelineConfig()) == \
            "b9e076812ebd1298a6cad53e4fb90dbca7e9f6d601cce48499ec72dd82610ecc"
        for change in (
            {"zeta": 10.5},
            {"seed": 2},
            {"lattice": {"depth": 10.0, "phase": 1.0}},
            {"stage1": {"t_max": 30000.0, "restarts": 7}},
            {"stage2": {**TINY["stage2"], "budget": 41}},
            {"thresholds": {"e_max": 2e-2}},
            {"problem": {"n_sites": 5, "initial": 1, "target": 4}},
        ):
            cfg = PipelineConfig.from_dict({**TINY, **change})
            assert config_hash(cfg) != h0

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({**TINY, "zeta": -1.0})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({**TINY, "stage1": {"restarts": 0}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(
                {**TINY, "stage2": {**TINY["stage2"], "colors": ["green"]}})

    def test_defaults_have_one_source(self):
        cfg = PipelineConfig.from_dict({})
        assert PipelineConfig() == cfg
        assert cfg.zeta == cfg.lattice.depth == 10.0
        assert cfg.stage1.t_max is None
        assert stage1_config(cfg).t_max == cfg.t_limit
        assert PipelineConfig.from_dict({"lattice": {"depth": 12}}).zeta == 12
        # an unset bound stays unset through a stored config
        assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        # a set value is kept
        pinned = PipelineConfig.from_dict(TINY)
        assert (pinned.zeta, stage1_config(pinned).t_max) == (10.0, 30000.0)

    def test_python_defaults_derive_optics_like_from_dict(self):
        lattice = LatticeConfig(wavelength=800e-9, phase=DEFAULT_PIPELINE_PHASE)
        built = PipelineConfig(lattice=lattice)
        assert built == PipelineConfig.from_dict({"lattice": {"wavelength": 800e-9}})
        assert built.optics["red"].grid_step == lattice.spacing / 64

    def test_optics_defaults_are_the_default_lattice_blue_optics(self):
        assert OpticsConfig() == OpticsConfig.blue()
        assert OpticsConfig().grid_step == 532e-9 / 64
        assert PipelineConfig(lattice=LatticeConfig()).optics["blue"] == OpticsConfig()

    def test_search_configs_take_the_search_defaults(self):
        target = BiasVector([0.2, 0.6, -0.6, -0.2])
        stage2 = Stage2Config()
        built = stage2.search_config(target, "red", 5, stage2.counts, stage2.heights)
        assert built == DMDOptimConfig(target=target, color="red", seed=5)
        narrowed = PipelineConfig.from_dict(TINY).stage2.search_config(
            target, "blue", 3, (2,), (1,))
        assert narrowed == DMDOptimConfig(target=target, color="blue", heights=(1,),
                                          counts=(2,), index_span=10, budget=40,
                                          seed=3)

    @pytest.mark.parametrize("key", ["colors", "counts", "heights"])
    def test_empty_stage2_list_rejected(self, key):
        with pytest.raises(ConfigError, match="empty"):
            PipelineConfig.from_dict({**TINY, "stage2": {**TINY["stage2"], key: []}})

    @pytest.mark.parametrize("key,value", [("max_targets", 0), ("max_targets", -2),
                                           ("budget", 0), ("budget", -5)])
    def test_stage2_counts_below_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_dict({**TINY, "stage2": {**TINY["stage2"], key: value}})
        with pytest.raises(ValueError, match=key):
            Stage2Config(**{key: value})

    def test_antisymmetric_target(self):
        t = antisymmetric_target(BiasVector([0.3, -0.7, -0.7, 0.3]))
        assert t.values == (0.3, -0.7, 0.7, -0.3)
        mid = antisymmetric_target(BiasVector([0.4, 0.9, 0.4]))
        assert mid.values == (0.4, 0.0, -0.4)


def synthetic_record(i, min_gap, color="blue", s_x=None, s_p=None,
                     error=5e-3, t_min=15000.0):
    delta = [0.1, 1 - min_gap, -(1 - min_gap), -0.1]
    solution = DMDSolution(
        pattern=DMDPattern(indices=[-2 - i, 2 + i]), power=0.2, color=color,
        achieved=BiasVector(delta), objective=0.01,
        error=error, t_min=t_min, accepted=True)
    sens = SensitivityRecord(
        xi=(0.1, 0.2, -0.2, -0.1), ddelta_dx=(1.0, 1.0, 1.0, 1.0),
        ddelta_dp=(0.5, 0.5, 0.5, 0.5),
        s_x=min_gap if s_x is None else s_x,
        s_p=2 * min_gap if s_p is None else s_p,
        min_gap=min_gap, error=error, transfer_time=t_min)
    return Controller(id=i, color=color, target=BiasVector(delta),
                      target_time=t_min, target_error=error,
                      optics_target=BiasVector(delta), solution=solution,
                      sensitivity=sens)


def synthetic_db(records):
    cfg = PipelineConfig.from_dict(TINY)
    return ControllerDatabase(config=cfg.to_dict(), config_hash=config_hash(cfg),
                              seed=1, records=tuple(records),
                              diagnostics={"tau_seconds": 4.0425955269921036e-06})


class TestDatabase:
    def test_roundtrip_lossless(self, tiny_db, tmp_path):
        path = tmp_path / "controllers.json"
        tiny_db.to_json(path)
        again = ControllerDatabase.from_json(path)
        assert again.to_dict() == tiny_db.to_dict()
        # numeric fields survive the text round trip exactly
        path2 = tmp_path / "again.json"
        again.to_json(path2)
        assert path.read_text() == path2.read_text()

    def test_stored_error_recomputable(self, tiny_db):
        cfg = PipelineConfig.from_dict(tiny_db.config)
        for rec in tiny_db.records:
            sol = rec.solution
            if sol.error is None or not sol.achieved.is_dynamical():
                continue
            again = fidelity_error(sol.achieved, sol.t_min, cfg.problem,
                                   NOMINAL_PARAMS)
            assert again == pytest.approx(sol.error, abs=1e-12)

    def test_determinism_byte_identical(self, tiny_db, tmp_path):
        again = run_pipeline(PipelineConfig.from_dict(TINY))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        tiny_db.to_json(p1)
        again.to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_timestamps_in_database(self, tiny_db):
        dump = json.dumps(tiny_db.to_dict())
        assert "time_unix" not in dump and "timestamp" not in dump


class TestFilter:
    def test_wide_open_keeps_everything(self):
        db = synthetic_db([synthetic_record(i, 0.1 * (i + 1)) for i in range(4)])
        kept = filter_controllers(db, AcceptanceThresholds(e_max=1.1, t_max_ms=1e9))
        assert len(kept.records) == 4

    def test_impossible_thresholds_empty(self):
        db = synthetic_db([synthetic_record(i, 0.1) for i in range(4)])
        kept = filter_controllers(db, AcceptanceThresholds(e_max=1e-12,
                                                           t_max_ms=1e-6))
        assert kept.records == ()

    def test_idempotent(self):
        db = synthetic_db([synthetic_record(i, 0.05 * (i + 1), error=1e-3 * (i + 1))
                           for i in range(5)])
        thr = AcceptanceThresholds(e_max=3.5e-3, t_max_ms=130.0)
        once = filter_controllers(db, thr)
        twice = filter_controllers(once, thr)
        assert len(once.records) == 3
        assert [r.id for r in once.records] == [r.id for r in twice.records]


class TestReport:
    def test_constructed_identity_correlation(self, tmp_path):
        # |s_x| equal to min_gap by construction: the emitted correlation
        # table must show r = rho = 1 for the x-drift column
        records = [synthetic_record(i, g) for i, g in
                   enumerate([0.05, 0.11, 0.23, 0.31])]
        db = synthetic_db(records)
        emit_report(db, tmp_path)
        rows = (tmp_path / "table1.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[0] == "quantity"
        table = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
        assert len(table) == 3
        assert set(table) == {"min_gap", "T", "e"}
        assert all(len(v) == 4 for v in table.values())
        r_x, rho_x = float(table["min_gap"][0]), float(table["min_gap"][1])
        assert r_x == pytest.approx(1.0, abs=1e-12)
        assert rho_x == pytest.approx(1.0, abs=1e-12)

    def test_trace_svg_marks_csv_argmin(self, tmp_path):
        records = [synthetic_record(0, 0.08)]
        db = synthetic_db(records)
        emit_report(db, tmp_path)
        csv_path = tmp_path / "traces" / "0000.csv"
        rows = [line.split(",") for line in
                csv_path.read_text().strip().splitlines()[1:]]
        ts = np.array([float(r[0]) for r in rows])
        es = np.array([float(r[2]) for r in rows])
        svg = (tmp_path / "traces" / "0000.svg").read_text()
        marked = float(svg.split("min ")[1].split("<")[0])
        grid_min = es.min()
        assert marked <= grid_min + 1e-15
        # the marked minimum lies within one grid step of the csv argmin
        assert abs(marked - grid_min) <= abs(np.diff(np.sort(es))[:2].sum()) + 1e-12

    def test_constant_drift_column_is_nan(self, tmp_path):
        # every |s_p| equal: the power-drift cells are undefined, while the
        # x-drift cells of the varying min_gap row keep their values
        records = [synthetic_record(i, g, s_p=0.3) for i, g in
                   enumerate([0.05, 0.11, 0.23, 0.31])]
        emit_report(synthetic_db(records), tmp_path)
        rows = (tmp_path / "table1.csv").read_text().strip().splitlines()[1:]
        table = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]]
                 for r in rows}
        assert table["min_gap"][:2] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert all(math.isnan(v) for v in table["min_gap"][2:])
        assert all(math.isnan(v) for k in ("e", "T") for v in table[k])

    def test_too_few_records_warns(self, tmp_path):
        db = synthetic_db([synthetic_record(0, 0.1), synthetic_record(1, 0.2)])
        emit_report(db, tmp_path)
        content = (tmp_path / "table1.csv").read_text()
        assert "warning" in content

    def test_expected_files_exist(self, tmp_path):
        records = [synthetic_record(i, 0.05 + 0.07 * i,
                                    color="blue" if i % 2 else "red")
                   for i in range(4)]
        db = synthetic_db(records)
        summary = emit_report(db, tmp_path)
        for name in ("scatter_x.csv", "scatter_x.svg", "scatter_p.csv",
                     "scatter_p.svg", "table1.csv", "summary.json"):
            assert (tmp_path / name).exists(), name
        for extra in ("scatter_x_vs_e.svg", "scatter_x_vs_T_ms.svg",
                      "scatter_p_vs_e.svg"):
            assert (tmp_path / extra).exists(), extra
        assert summary["accepted"] == 4
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert loaded["config_hash"] == db.config_hash


class TestCliAgreement:
    """The CLI subcommands give the pipeline's numbers for the same config."""

    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY))
        return str(path)

    def test_optimize_bias_matches_stage1(self, tiny_db, tmp_path, config_path):
        rc = main(["optimize-bias", "--config", config_path,
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        data = json.loads((tmp_path / "o" / "bias_candidates.json").read_text())
        assert data == json.loads(json.dumps(list(tiny_db.stage1)))

    def test_optimize_bias_matches_stage1_with_derived_bound(self, tmp_path):
        # stage1.t_max unset: both paths bound T by the acceptance window
        stage1 = {k: v for k, v in TINY["stage1"].items() if k != "t_max"}
        data = {**TINY, "stage1": stage1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        cfg = PipelineConfig.from_dict(data)
        db = run_pipeline(cfg)
        rc = main(["optimize-bias", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        written = json.loads((tmp_path / "o" / "bias_candidates.json").read_text())
        assert written == json.loads(json.dumps(list(db.stage1)))
        assert all(c["T"] <= cfg.t_limit for c in written)

    def test_sensitivity_matches_pipeline(self, tiny_db, tmp_path, config_path):
        assert any(r.sensitivity is not None for r in tiny_db.records)
        stripped = replace(tiny_db, records=tuple(
            replace(r, sensitivity=None) for r in tiny_db.records))
        db_path = tmp_path / "stripped.json"
        stripped.to_json(db_path)
        rc = main(["sensitivity", "--config", config_path,
                   "--out", str(tmp_path / "s"), "--database", str(db_path)])
        assert rc == EXIT_OK
        again = ControllerDatabase.from_json(tmp_path / "s" / "controllers.json")
        assert [r.to_dict() for r in again.records] \
            == [r.to_dict() for r in tiny_db.records]

    def test_sensitivity_defaults_to_database_config(self, tiny_db, tmp_path):
        # no --config: the database's own config scores it, not the defaults
        stripped = replace(tiny_db, records=tuple(
            replace(r, sensitivity=None) for r in tiny_db.records))
        db_path = tmp_path / "stripped.json"
        stripped.to_json(db_path)
        rc = main(["sensitivity", "--out", str(tmp_path / "s"),
                   "--database", str(db_path)])
        assert rc == EXIT_OK
        again = ControllerDatabase.from_json(tmp_path / "s" / "controllers.json")
        assert [r.to_dict() for r in again.records] \
            == [r.to_dict() for r in tiny_db.records]


def record_contexts(monkeypatch) -> list:
    """The optics of every `ProjectionContext` made from now on, in order."""
    from spinscape.optics import ProjectionContext
    made = []
    check = ProjectionContext.__post_init__

    def recording(ctx):
        made.append(ctx.optics)
        check(ctx)

    monkeypatch.setattr(ProjectionContext, "__post_init__", recording)
    return made


class TestCliSensitivityContexts:
    def test_one_context_per_colour(self, tiny_db, tmp_path, monkeypatch):
        # records of one colour share one stage-2 context and so its memo
        accepted = [r for r in tiny_db.records if r.accepted]
        twice = tuple(replace(r, id=i, sensitivity=None)
                      for i, r in enumerate(accepted * 2))
        db_path = tmp_path / "twice.json"
        replace(tiny_db, records=twice).to_json(db_path)
        made = record_contexts(monkeypatch)
        rc = main(["sensitivity", "--out", str(tmp_path / "s"),
                   "--database", str(db_path)])
        assert rc == EXIT_OK
        config = PipelineConfig.from_dict(tiny_db.config)
        assert made == [config.optics[c] for c in sorted({r.color for r in accepted})]
        again = ControllerDatabase.from_json(tmp_path / "s" / "controllers.json")
        expected = [r.sensitivity.to_dict() for r in accepted * 2]
        assert [r.sensitivity.to_dict() for r in again.records] == expected


class TestEmptyResult:
    def test_zero_survivors_yields_empty_database(self):
        # thresholds nothing can meet: completes with diagnostics, no raise
        config = PipelineConfig.from_dict(
            {**TINY, "thresholds": {"e_max": 1e-9, "t_max_ms": 0.001}})
        db = run_pipeline(config)
        assert db.records == ()
        assert db.diagnostics["stage1_survivors"] == 0
        assert "note" in db.diagnostics


class TestStage2Fanout:
    def test_two_workers_write_the_same_bytes(self, tiny_db, tmp_path):
        pooled = run_pipeline(PipelineConfig.from_dict(TINY), n_workers=2)
        p1, p2 = tmp_path / "serial.json", tmp_path / "pooled.json"
        tiny_db.to_json(p1)
        pooled.to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_search_context_per_colour(self, monkeypatch):
        # one context per colour serves the searches and the sensitivities
        config = PipelineConfig.from_dict(
            {**TINY, "stage2": {**TINY["stage2"], "colors": ["blue", "red"],
                                "heights": [1, 2]}})
        made = record_contexts(monkeypatch)
        db = run_pipeline(config)
        assert len(db.records) == 8                  # 2 colours x 2 heights x 2 flips
        assert any(r.sensitivity is not None for r in db.records)
        assert made == [config.optics["blue"], config.optics["red"]]

    @pytest.mark.parametrize("n_workers,cpus,started", [
        (64, 2, [2]), (64, 16, [4]), (3, 16, [3]), (2, 2, [2]), (2, 1, []),
        (1, 16, [])])
    def test_pool_bounded_by_parts_and_cpus(self, monkeypatch, n_workers, cpus,
                                            started):
        # 2 colours x 2 heights: four groups, so four parts at any n_workers;
        # the stand-in pool runs them inline and starts no process
        import spinscape.pipeline as pipeline
        made = []

        class InlinePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        config = PipelineConfig.from_dict(TINY)
        target = BiasVector([0.2, 0.6, -0.6, -0.2])
        searches = [config.stage2.search_config(target, color, 3, (2,), (height,))
                    for color in ("blue", "red") for height in (1, 2)]
        contexts = pipeline.color_contexts(config, ["blue", "red"])
        found = pipeline.search_patterns(searches, contexts, n_workers)
        assert made == started
        serial = pipeline.search_patterns(searches, contexts)
        assert [s.to_dict() for s in found] == [s.to_dict() for s in serial]
        assert [s.evaluations for s in found] == [s.evaluations for s in serial]

    @staticmethod
    def _bytes(db, path):
        db.to_json(path)
        return path.read_bytes()

    def test_four_groups_write_the_serial_bytes(self, tmp_path):
        config = PipelineConfig.from_dict(
            {**TINY, "stage2": {**TINY["stage2"], "colors": ["blue", "red"],
                                "heights": [1, 2]}})
        serial = self._bytes(run_pipeline(config), tmp_path / "serial.json")
        for n_workers in (2, 3):
            pooled = run_pipeline(config, n_workers=n_workers)
            assert self._bytes(pooled, tmp_path / f"w{n_workers}.json") == serial

    def test_split_group_writes_the_serial_bytes(self, tiny_db, tmp_path,
                                                 monkeypatch):
        import spinscape.pipeline as pipeline
        plan = pipeline._plan_parts
        planned = []

        def recording(*args):
            planned.append(plan(*args))
            return planned[-1]

        monkeypatch.setattr(pipeline, "_plan_parts", recording)
        # TINY's two searches (one per flip) form one (colour, heights) group
        pooled = run_pipeline(PipelineConfig.from_dict(TINY), n_workers=3)
        assert planned == [[[0], [1]]]
        assert (self._bytes(pooled, tmp_path / "pooled.json")
                == self._bytes(tiny_db, tmp_path / "serial.json"))

    @given(keys=st.lists(st.sampled_from([("blue", (1,)), ("blue", (2,)),
                                          ("red", (1,)), ("red", (1, 2))]),
                         min_size=1, max_size=40),
           n_workers=st.integers(1, 9))
    def test_parts_partition_the_searches_by_group(self, keys, n_workers):
        searches = [SimpleNamespace(color=c, heights=h) for c, h in keys]
        parts = _plan_parts(searches, n_workers)
        assert sorted(i for part in parts for i in part) == list(range(len(keys)))
        assert len(parts) >= min(n_workers, len(searches))
        for part in parts:
            members = [i for i, key in enumerate(keys) if key == keys[part[0]]]
            start = members.index(part[0])
            assert part == members[start:start + len(part)]   # one group, in order
        if len(set(keys)) >= n_workers:                      # no group is split
            assert len(parts) == len(set(keys))
