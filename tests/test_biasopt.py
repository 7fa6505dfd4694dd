import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from spinscape.lattice import NOMINAL_PARAMS, BiasVector, effective_coupling
from spinscape.dynamics import (TransferProblem, fidelity_error,
                                fidelity_error_and_gradient)
from spinscape.biasopt import BiasOptimConfig, optimize_biases, symmetrize
from spinscape.biasopt import (PLATEAU_FIDELITY, CandidateController,
                               fold_symmetric, n_free_parameters)
from spinscape.pipeline import PipelineConfig, stage1_config

P2 = TransferProblem(n_sites=2, initial=1, target=2)
P5 = TransferProblem(n_sites=5, initial=1, target=5)


class TestSymmetrize:
    def test_five_sites(self):
        assert symmetrize([0.3, -0.7], 5).values == (0.3, -0.7, -0.7, 0.3)

    def test_four_sites_middle_self_paired(self):
        assert symmetrize([0.3, -0.7], 4).values == (0.3, -0.7, 0.3)

    def test_two_sites(self):
        assert symmetrize([0.5], 2).values == (0.5,)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            symmetrize([0.1, 0.2, 0.3], 5)


class TestTwoSiteOptimization:
    CONFIG = BiasOptimConfig(n_sites=2, t_max=10000.0, restarts=8, seed=7,
                             max_iterations=300)

    def test_finds_exact_transfer(self):
        candidates = optimize_biases(self.CONFIG, P2, NOMINAL_PARAMS)
        best = candidates[0]
        assert best.error < 1e-10
        # the optimum sits on a sine peak: J_eff * T = pi/2 (mod pi)
        c = effective_coupling(NOMINAL_PARAMS, best.delta.values[0])
        phase = c * best.transfer_time / math.pi
        assert abs(phase - round(phase - 0.5) - 0.5) < 1e-5

    def test_reported_error_reproducible(self):
        candidates = optimize_biases(self.CONFIG, P2, NOMINAL_PARAMS)
        for c in candidates[:4]:
            again = fidelity_error(c.delta, c.transfer_time, P2, NOMINAL_PARAMS)
            assert again == pytest.approx(c.error, abs=1e-12)


class TestConstraintsAndDeterminism:
    CONFIG = BiasOptimConfig(n_sites=5, t_max=9000.0, delta_bound=0.9,
                             restarts=6, seed=3, max_iterations=150)

    @pytest.fixture(scope="class")
    def candidates(self):
        return optimize_biases(self.CONFIG, P5, NOMINAL_PARAMS)

    def test_constraints_hold(self, candidates):
        for c in candidates:
            assert c.delta.max_abs <= self.CONFIG.delta_bound + 1e-12
            assert 0.0 <= c.transfer_time <= self.CONFIG.t_max + 1e-9

    def test_sorted_by_error(self, candidates):
        errors = [c.error for c in candidates]
        assert errors == sorted(errors)

    def test_symmetry_exact(self, candidates):
        for c in candidates:
            d = c.delta.array
            assert np.array_equal(d, d[::-1])

    def test_all_restarts_reported(self, candidates):
        assert sorted(c.restart for c in candidates) == list(range(6))

    def test_bitwise_determinism(self, candidates):
        again = optimize_biases(self.CONFIG, P5, NOMINAL_PARAMS)
        assert len(again) == len(candidates)
        for a, b in zip(candidates, again):
            assert a.delta.values == b.delta.values
            assert a.transfer_time == b.transfer_time
            assert a.error == b.error
            assert (a.restart, a.converged) == (b.restart, b.converged)

    def test_converged_candidates_have_small_projected_gradient(self, candidates):
        converged = [c for c in candidates if c.converged]
        assert converged, "expected at least one converged restart"
        bound = self.CONFIG.delta_bound
        for c in converged[:3]:
            z = np.concatenate([c.delta.array[:2], [c.transfer_time]])
            g = np.empty_like(z)
            for i in range(len(z)):
                h = max(1e-7, 1e-7 * abs(z[i]))
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                gp = fidelity_error(symmetrize(zp[:-1], 5), zp[-1], P5, NOMINAL_PARAMS)
                gm = fidelity_error(symmetrize(zm[:-1], 5), zm[-1], P5, NOMINAL_PARAMS)
                g[i] = (gp - gm) / (2 * h)
            interior = (np.abs(z[:-1]) < bound - 1e-12)
            assert np.all(np.abs(g[:-1][interior]) <= 2e-6)


class TestFeasibleChainSynthesis:
    def test_five_site_high_fidelity_exists(self):
        # seeds picked once and frozen; the time window corresponds to 130 ms
        # at a depth-10 lattice where the default bias bound suffices
        config = BiasOptimConfig(n_sites=5, t_max=30000.0, restarts=12, seed=42)
        candidates = optimize_biases(config, P5, NOMINAL_PARAMS)
        good = [c for c in candidates if c.error < 1e-2
                and c.transfer_time < config.t_max]
        assert good, "no candidate reached the error ceiling"
        assert good[0].delta.max_abs <= 0.95


class TestConfigValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            BiasOptimConfig(delta_bound=1.0)
        with pytest.raises(ValueError):
            BiasOptimConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            BiasOptimConfig(restarts=0)

    def test_problem_size_mismatch(self):
        with pytest.raises(ValueError):
            optimize_biases(BiasOptimConfig(n_sites=4), P5, NOMINAL_PARAMS)

    def test_unset_time_bound(self):
        with pytest.raises(ValueError, match="t_max is unset"):
            optimize_biases(BiasOptimConfig(n_sites=5), P5, NOMINAL_PARAMS)


class TestDefaultRun:
    def test_default_config_yields_a_survivor(self):
        # the default bound is the acceptance window at the default depth,
        # which holds transfers below the error ceiling
        cfg = PipelineConfig.from_dict({})
        config = stage1_config(cfg)
        assert config.t_max == cfg.t_limit
        candidates = optimize_biases(config, cfg.problem, NOMINAL_PARAMS)
        assert len(candidates) == 100
        assert any(c.error < cfg.thresholds.e_max and c.transfer_time < cfg.t_limit
                   for c in candidates)


class TestFoldSymmetric:
    def test_five_sites(self):
        assert fold_symmetric([1.0, 2.0, 3.0, 4.0], 5).tolist() == [5.0, 5.0]

    def test_four_sites_middle_self_paired(self):
        assert fold_symmetric([1.0, 2.0, 3.0], 4).tolist() == [4.0, 2.0]

    def test_two_sites(self):
        assert fold_symmetric([1.5], 2).tolist() == [1.5]

    def test_adjoint_of_symmetrize(self):
        # <symmetrize(u), g> = <u, fold(g)>: the chain rule through symmetrize
        rng = np.random.default_rng(5)
        for n_sites in (2, 3, 4, 5, 8):
            u = rng.normal(size=(n_sites - 1 + 1) // 2)
            g = rng.normal(size=n_sites - 1)
            assert symmetrize(u, n_sites).array @ g \
                == pytest.approx(u @ fold_symmetric(g, n_sites), rel=1e-14)


class TestPlateauIsNotConvergence:
    def test_default_config_probe_reports_no_converged_restart(self):
        # a depth-18 lattice with T bounded at 700 cannot reach the transfer:
        # every restart stays on the e = 1 plateau where the gradient
        # vanishes with |a|
        cfg = PipelineConfig.from_dict({"zeta": 18.0, "lattice": {"depth": 18.0},
                                        "stage1": {"t_max": 700.0}})
        config = replace(stage1_config(cfg), restarts=5)
        candidates = optimize_biases(config, cfg.problem, NOMINAL_PARAMS)
        assert all(1.0 - c.error <= PLATEAU_FIDELITY for c in candidates)
        assert not any(c.converged for c in candidates)


def one_by_one(config, problem):
    """`optimize_biases` restated: one `minimize` per restart, one-row objective."""
    n = config.n_sites
    n_free = n_free_parameters(n) if config.symmetric else n - 1

    def build(free):
        return symmetrize(free, n) if config.symmetric else BiasVector(free)

    def objective(z):
        e, de_ddelta, de_dt = fidelity_error_and_gradient(
            build(z[:-1]), z[-1], problem, NOMINAL_PARAMS)
        if config.symmetric:
            de_ddelta = fold_symmetric(de_ddelta, n)
        return e, np.append(de_ddelta, de_dt)

    lower = np.append(np.full(n_free, -config.delta_bound), 0.0)
    upper = np.append(np.full(n_free, config.delta_bound), config.t_max)
    candidates = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        z0 = np.append(rng.uniform(-config.delta_bound, config.delta_bound, n_free),
                       rng.uniform(0.2 * config.t_max, config.t_max))
        res = minimize(objective, z0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lower, upper)),
                       options={"maxiter": config.max_iterations,
                                "ftol": config.step_tol, "gtol": config.grad_tol})
        z = np.clip(res.x, lower, upper)
        g = objective(z)[1]
        g[z <= lower + 1e-14] = np.minimum(g[z <= lower + 1e-14], 0.0)
        g[z >= upper - 1e-14] = np.maximum(g[z >= upper - 1e-14], 0.0)
        delta = build(z[:-1])
        error = fidelity_error(delta, z[-1], problem, NOMINAL_PARAMS)
        candidates.append(CandidateController(
            delta=delta, transfer_time=float(z[-1]), error=error, restart=r,
            n_iterations=int(res.nit),
            converged=bool(np.linalg.norm(g) <= 1e-6
                           and 1.0 - error > PLATEAU_FIDELITY)))
    candidates.sort(key=lambda c: (c.error, c.transfer_time, c.delta.max_abs, c.restart))
    return candidates


class TestLockstepOracle:
    """The lockstep restarts end where one `minimize` per restart ends, bit for bit."""

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("n_sites", [2, 4, 5, 7])
    def test_candidates_equal_one_minimize_per_restart(self, n_sites, symmetric):
        problem = TransferProblem(n_sites=n_sites, initial=1, target=n_sites)
        runs = [BiasOptimConfig(n_sites=n_sites, t_max=t_max, symmetric=symmetric,
                                restarts=12, seed=n_sites, max_iterations=cap)
                for t_max, cap in ((30000.0, 500), (5000.0, 500), (3000.0, 6),
                                   (800.0, 40))]
        capped = at_bound = 0
        for config in runs:
            lockstep = optimize_biases(config, problem, NOMINAL_PARAMS)
            reference = one_by_one(config, problem)
            assert [c.to_dict() for c in lockstep] == [c.to_dict() for c in reference]
            # the float fields compare as floats above; repr pins the bits
            assert repr([c.to_dict() for c in lockstep]) \
                == repr([c.to_dict() for c in reference])
            capped += sum(c.n_iterations == config.max_iterations for c in lockstep)
            at_bound += sum(c.transfer_time in (0.0, config.t_max) for c in lockstep)
        assert capped and at_bound, "the cases must reach the cap and the T bounds"
