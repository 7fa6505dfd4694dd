"""Property tests: every serialized type equals its own JSON round trip.

A ``to_dict`` that emits a tuple where JSON gives back a list, or a
``from_dict`` that drops or renames a field, breaks these for some input.
"""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from spinscape.lattice import BiasVector
from spinscape.optics import DMDPattern
from spinscape.dmdopt import DMDSolution
from spinscape.sensitivity import SensitivityRecord
from spinscape.pipeline import (Controller, ControllerDatabase, PipelineConfig,
                                config_hash)

SETTINGS = settings(max_examples=20, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3)
unit = st.floats(min_value=0.0, max_value=1.0)
small_ints = st.integers(min_value=1, max_value=30)


def json_round_trip(data: dict) -> dict:
    return json.loads(json.dumps(data))


@st.composite
def pipeline_configs(draw):
    n_sites = draw(st.integers(min_value=2, max_value=8))
    initial, target = draw(st.lists(st.integers(min_value=1, max_value=n_sites),
                                    min_size=2, max_size=2, unique=True))
    p_lo = draw(st.floats(min_value=0.0, max_value=0.5))
    p_hi = draw(st.floats(min_value=p_lo + 1e-3, max_value=1.0))
    optics = {color: {"grid_step": draw(st.floats(min_value=1e-9, max_value=1e-7)),
                      "power": draw(unit),
                      "na": draw(st.floats(min_value=0.3, max_value=0.69))}
              for color in ("blue", "red")}
    data = {
        "lattice": {"depth": draw(positive),
                    "phase": draw(st.floats(min_value=0.0, max_value=6.3))},
        "zeta": draw(positive),
        "problem": {"n_sites": n_sites, "initial": initial, "target": target},
        "optics": optics,
        "stage1": {"t_max": draw(positive),
                   "delta_bound": draw(st.floats(min_value=0.01, max_value=0.99)),
                   "symmetric": draw(st.booleans()),
                   "restarts": draw(small_ints),
                   "max_iterations": draw(small_ints)},
        "stage2": {"colors": draw(st.lists(st.sampled_from(["blue", "red"]),
                                           min_size=1, max_size=2, unique=True)),
                   "counts": draw(st.lists(small_ints, min_size=1, max_size=3)),
                   "heights": draw(st.lists(small_ints, min_size=1, max_size=4)),
                   "index_span": draw(small_ints),
                   "power_range": [p_lo, p_hi],
                   "budget": draw(small_ints),
                   "max_targets": draw(small_ints)},
        "thresholds": {"e_max": draw(positive), "t_max_ms": draw(positive)},
        "seed": draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
        "out_dir": draw(st.text(max_size=12)),
    }
    return PipelineConfig.from_dict(data)


@st.composite
def patterns(draw):
    half = draw(st.lists(st.integers(min_value=1, max_value=40), max_size=4,
                         unique=True))
    symmetric = draw(st.booleans())
    if symmetric:
        center = [0] if draw(st.booleans()) else []
        indices = [-i for i in half] + center + half
    else:
        indices = draw(st.lists(st.integers(min_value=-40, max_value=40),
                                min_size=1, max_size=6, unique=True))
    return DMDPattern(indices=indices, height=draw(small_ints), symmetric=symmetric)


def bias_vectors(n_bonds):
    return st.lists(finite, min_size=n_bonds, max_size=n_bonds).map(BiasVector)


@st.composite
def sensitivity_records(draw, n_bonds=4):
    vector = st.lists(finite, min_size=n_bonds, max_size=n_bonds).map(tuple)
    return SensitivityRecord(
        xi=draw(vector), ddelta_dx=draw(vector), ddelta_dp=draw(vector),
        s_x=draw(finite), s_p=draw(finite), min_gap=draw(finite),
        error=draw(finite), transfer_time=draw(finite))


@st.composite
def solutions(draw, n_bonds=4):
    optional = st.none() | finite
    return DMDSolution(
        pattern=draw(patterns()), power=draw(unit),
        color=draw(st.sampled_from(["blue", "red"])),
        achieved=draw(bias_vectors(n_bonds)), objective=draw(finite),
        evaluations=tuple(draw(st.lists(finite, max_size=5))),
        error=draw(optional), t_min=draw(optional),
        accepted=draw(st.none() | st.booleans()), singular=draw(st.booleans()))


@st.composite
def controllers(draw, index, n_bonds):
    # a stored bias vector has one value per bond of the stored chain
    solution = draw(solutions(n_bonds))
    return Controller(
        id=index, color=solution.color, target=draw(bias_vectors(n_bonds)),
        target_time=draw(finite), target_error=draw(finite),
        optics_target=draw(bias_vectors(n_bonds)), solution=solution,
        sensitivity=draw(st.none() | sensitivity_records(n_bonds)))


@st.composite
def databases(draw):
    config = draw(pipeline_configs())
    n = draw(st.integers(min_value=0, max_value=3))
    records = tuple(draw(controllers(i, config.problem.n_sites - 1))
                    for i in range(n))
    stage1 = tuple(
        {"delta": draw(st.lists(finite, min_size=4, max_size=4)),
         "T": draw(finite), "e": draw(finite), "restart": k,
         "iterations": draw(small_ints), "converged": draw(st.booleans())}
        for k in range(draw(st.integers(min_value=0, max_value=2))))
    diagnostics = draw(st.dictionaries(st.text(max_size=8), finite, max_size=3))
    return ControllerDatabase(config=config.to_dict(),
                              config_hash=config_hash(config), seed=config.seed,
                              records=records, stage1=stage1,
                              diagnostics=diagnostics)


@SETTINGS
@given(pipeline_configs())
def test_pipeline_config_round_trip(cfg):
    data = cfg.to_dict()
    assert json_round_trip(data) == data
    assert PipelineConfig.from_dict(json_round_trip(data)).to_dict() == data


@SETTINGS
@given(patterns())
def test_dmd_pattern_round_trip(pattern):
    data = pattern.to_dict()
    assert json_round_trip(data) == data
    assert DMDPattern.from_dict(json_round_trip(data)).to_dict() == data


@SETTINGS
@given(solutions())
def test_dmd_solution_round_trip(solution):
    data = solution.to_dict()
    assert json_round_trip(data) == data
    # the evaluation log is not serialized
    assert DMDSolution.from_dict(json_round_trip(data)) \
        == replace(solution, evaluations=())


@SETTINGS
@given(sensitivity_records())
def test_sensitivity_record_round_trip(record):
    data = record.to_dict()
    assert json_round_trip(data) == data
    # the drawn vectors have one value per bond of a 5-site chain
    assert SensitivityRecord.from_dict(json_round_trip(data), 5).to_dict() == data


@SETTINGS
@given(databases())
def test_controller_database_round_trip(db):
    data = db.to_dict()
    assert json_round_trip(data) == data
    assert ControllerDatabase.from_dict(json_round_trip(data)).to_dict() == data
