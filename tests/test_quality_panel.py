import importlib.util
import json
import sys
from pathlib import Path

PANEL = Path(__file__).resolve().parents[1] / "tools" / "quality_panel.py"


def load_panel(monkeypatch):
    # the script puts benchmarks/ on sys.path; keep that to this test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("quality_panel", PANEL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cell_runs_and_compares(tmp_path, monkeypatch):
    panel = load_panel(monkeypatch)
    cell = {"target": "long-search", "color": "blue", "count": 2,
            "heights": "2"}
    got = panel.run_cell(cell)
    assert {k: got[k] for k in cell} == cell
    assert got["height"] == 2 and len(got["pattern"]) == 2
    assert 0 < got["evaluations"] <= panel.BUDGET
    assert got["e_min"] is not None and isinstance(got["accepted"], bool)
    json.dumps(got)                                    # the panel's JSON

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"cells": [got]}))
    b.write_text(json.dumps({"cells": [{**got, "objective": got["objective"] + 1}]}))
    same = panel.compare(str(a), str(a)).splitlines()
    assert same[0] == "0 of 1 shared cells moved"
    moved = panel.compare(str(a), str(b)).splitlines()
    assert moved[0].startswith("moved long-search/blue/2/2: objective")
    assert moved[1] == "1 of 1 shared cells moved"
    row = next(line.split() for line in moved if line.split()[:1] == ["2"])
    assert row[1:5] == ["0", "1", "0", "0/1"]          # better worse equal real
