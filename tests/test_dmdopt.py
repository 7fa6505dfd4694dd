import json

import numpy as np
import pytest

from spinscape.lattice import BiasVector, LatticeConfig, NOMINAL_PARAMS
from spinscape.dynamics import TransferProblem, golden_section
from spinscape.optics import DMDPattern, OpticsConfig
from spinscape.dmdopt import (AcceptanceThresholds, DMDOptimConfig, DMDSolution,
                              dmd_objective, make_context,
                              optimize_pattern, realized_bias, validate_solution)

LATTICE = LatticeConfig(depth=10.0)
ZETA = 10.0
CTX_BLUE = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
CTX_RED = make_context(OpticsConfig.red(), LATTICE, ZETA, 5)
PROBLEM = TransferProblem()


def exhaustive_pair_optimum(target, ctx, span, height):
    """Brute-force oracle: every index pair position x golden power search."""
    best = np.inf
    for i in range(1, span + 1):
        pattern = DMDPattern(indices=[-i, i], height=height)
        _, probes = golden_section(
            lambda p: dmd_objective(pattern, p, target, ctx), 0.0, 1.0, tol=1e-9)
        best = min(best, min(v for _, v in probes))
    return best


class TestObjective:
    PATTERN = DMDPattern(indices=[-6, 6], height=12)

    def test_zero_power_gives_target_norm(self):
        target = BiasVector([0.3, -0.5, 0.5, -0.3])
        obj = dmd_objective(self.PATTERN, 0.0, target, CTX_BLUE)
        assert obj == pytest.approx(np.linalg.norm(target.array), rel=1e-12)

    def test_self_consistency_zero(self):
        achieved = realized_bias(self.PATTERN, 0.31, CTX_BLUE).bias
        assert dmd_objective(self.PATTERN, 0.31, achieved, CTX_BLUE) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        target = BiasVector([0.2, 0.6, -0.6, -0.2])
        for _ in range(10):
            p = float(rng.uniform(0, 1))
            assert dmd_objective(self.PATTERN, p, target, CTX_BLUE) >= 0.0

    def test_extraction_failure_penalty(self):
        # a projection strong enough to destroy the center well must map to
        # the finite penalty, not an exception
        target = BiasVector([0.1, 0.1, -0.1, -0.1])
        obj = dmd_objective(DMDPattern(indices=[0], height=25), 40.0, target,
                            CTX_BLUE)
        assert obj == pytest.approx(10.0 + np.linalg.norm(target.array))


class TestSyntheticRecovery:
    def test_recovers_known_pattern(self):
        pattern0 = DMDPattern(indices=[-5, 5], height=12)
        target = realized_bias(pattern0, 0.42, CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(12,),
                                counts=(2,), index_span=12, budget=400, seed=3)
        solution = optimize_pattern(config, CTX_BLUE)
        oracle = exhaustive_pair_optimum(target, CTX_BLUE, 12, 12)
        assert oracle < 1e-8                      # the exact solution exists
        assert solution.objective - oracle <= 1e-6

    def test_incumbent_never_worse_than_any_evaluation(self):
        target = realized_bias(DMDPattern(indices=[-4, 4], height=5), 0.3,
                               CTX_RED).bias
        config = DMDOptimConfig(target=target, color="red", heights=(5,),
                                counts=(2,), index_span=10, budget=80, seed=11)
        solution = optimize_pattern(config, CTX_RED)
        assert solution.evaluations
        assert solution.objective <= min(solution.evaluations) + 1e-15

    def test_symmetric_result_and_determinism(self):
        target = realized_bias(DMDPattern(indices=[-7, 7], height=3), 0.5,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(3,),
                                counts=(2,), index_span=10, budget=60, seed=5)
        a = optimize_pattern(config, CTX_BLUE)
        b = optimize_pattern(config, CTX_BLUE)
        idx = np.array(a.pattern.indices)
        assert np.array_equal(idx, -idx[::-1])
        assert a.pattern == b.pattern
        assert a.power == b.power
        assert a.objective == b.objective
        assert a.evaluations == b.evaluations

    def test_odd_count_includes_center(self):
        target = realized_bias(DMDPattern(indices=[-6, 0, 6], height=4), 0.2,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(4,),
                                counts=(3,), index_span=8, budget=60, seed=9)
        solution = optimize_pattern(config, CTX_BLUE)
        assert 0 in solution.pattern.indices
        assert solution.pattern.count == 3

    def test_config_validation(self):
        target = BiasVector([0.1, 0.1, -0.1, -0.1])
        with pytest.raises(ValueError):
            DMDOptimConfig(target=target, power_range=(0.5, 0.2))
        with pytest.raises(ValueError):
            DMDOptimConfig(target=target, counts=(0,))
        cfg = DMDOptimConfig(target=target, color="red")
        with pytest.raises(ValueError):
            optimize_pattern(cfg, CTX_BLUE)       # color mismatch
        with pytest.raises(ValueError):
            optimize_pattern(DMDOptimConfig(target=target, color="blue",
                                            counts=(8,), index_span=2),
                             CTX_BLUE)            # index space cannot host count

    def test_config_dict_is_json_native(self):
        cfg = DMDOptimConfig(target=BiasVector([0.1, 0.1, -0.1, -0.1]))
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


class TestValidation:
    TAU = 4.0425955269921036e-06                 # time unit at depth 10

    def make_solution(self, achieved):
        return DMDSolution(pattern=DMDPattern(indices=[-2, 2]), power=0.1,
                           color="blue", achieved=BiasVector(achieved),
                           objective=0.0)

    def test_good_controller_accepted(self):
        # near-uniform chain with a strong center bond transfers well within
        # the window; frozen from a stage-1 run at depth 10
        achieved = [-0.0262, 0.9159, -0.9159, 0.0262]
        thr = AcceptanceThresholds()
        out = validate_solution(self.make_solution(achieved), PROBLEM,
                                NOMINAL_PARAMS, thr, self.TAU)
        assert out.accepted
        assert out.error < 1e-2
        assert out.t_min < thr.t_max_normalized(self.TAU)

    def test_singular_bias_rejected(self):
        out = validate_solution(self.make_solution([0.2, 1.01, -1.01, -0.2]),
                                PROBLEM, NOMINAL_PARAMS, AcceptanceThresholds(),
                                self.TAU)
        assert not out.accepted
        assert out.singular
        assert out.error is None

    def test_poor_controller_rejected(self):
        out = validate_solution(self.make_solution([0.1, 0.1, -0.1, -0.1]),
                                PROBLEM, NOMINAL_PARAMS, AcceptanceThresholds(),
                                self.TAU)
        assert not out.accepted
        assert out.error is not None and out.error >= 1e-2

    def test_threshold_defaults(self):
        thr = AcceptanceThresholds()
        assert thr.e_max == 1e-2
        assert thr.t_max_ms == 130.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AcceptanceThresholds(e_max=0.0)
