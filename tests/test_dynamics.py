import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from spinscape.lattice import (BiasVector, HubbardParams, NOMINAL_PARAMS,
                               BiasSingularityError, effective_coupling)
from spinscape.dynamics import (TransferProblem, fidelity_error, fidelity_trace,
                                hamiltonian, propagate, structure_matrix,
                                transfer_amplitude)
from spinscape.dynamics import (EffectiveHamiltonian, divided_differences,
                                fidelity_error_and_gradient,
                                fidelity_error_from_ham,
                                fidelity_gradient_from_ham)
from spinscape.lattice import effective_coupling_derivative
from spinscape.biasopt import fold_symmetric, n_free_parameters, symmetrize
from spinscape.sensitivity import bias_sensitivities
import spinscape

P2 = TransferProblem(n_sites=2, initial=1, target=2)
P5 = TransferProblem(n_sites=5, initial=1, target=5)


def random_delta(rng, n_bonds, bound=0.95):
    return rng.uniform(-bound, bound, n_bonds)


class TestStructureMatrix:
    def test_two_site_bond(self):
        assert structure_matrix(1, 2).tolist() == [[-0.5, 1.0], [1.0, -0.5]]

    def test_trace(self):
        for n in (2, 3, 5, 8):
            for j in range(1, n):
                assert np.trace(structure_matrix(j, n)) == pytest.approx(n / 2 - 2)

    def test_five_site_interior_bond(self):
        s = structure_matrix(2, 5)
        assert s[1, 2] == s[2, 1] == 1.0
        assert s[1, 1] == s[2, 2] == -0.5
        for k in (0, 3, 4):
            assert s[k, k] == 0.5
        assert np.allclose(s, s.T)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            structure_matrix(0, 5)
        with pytest.raises(ValueError):
            structure_matrix(5, 5)


class TestHamiltonian:
    def test_uniform_chain(self):
        ham = hamiltonian(np.zeros(4), NOMINAL_PARAMS)
        c = effective_coupling(NOMINAL_PARAMS, 0.0)
        expected = c * sum(structure_matrix(j, 5) for j in range(1, 5))
        assert np.max(np.abs(ham.matrix - expected)) < 1e-18

    def test_symmetric_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ham = hamiltonian(random_delta(rng, 4), NOMINAL_PARAMS)
            assert np.max(np.abs(ham.matrix - ham.matrix.T)) == 0.0

    def test_sign_blind(self):
        rng = np.random.default_rng(12)
        d = random_delta(rng, 4)
        a = hamiltonian(d, NOMINAL_PARAMS).matrix
        b = hamiltonian(-d, NOMINAL_PARAMS).matrix
        assert np.array_equal(a, b)

    def test_singularity_propagates(self):
        with pytest.raises(BiasSingularityError):
            hamiltonian([0.2, 1.0, 0.2, 0.1], NOMINAL_PARAMS)


def reference_matrix(delta, params):
    """sum_j c_j S_j over the dense bond matrices, with float couplings."""
    n = len(delta) + 1
    m = np.zeros((n, n))
    for j, d in enumerate(delta.tolist(), start=1):
        m += (2 * params.J ** 2 / params.U / (1 - d * d)) * structure_matrix(j, n)
    return m


def reference_gradient(ham, t, problem):
    """`fidelity_gradient_from_ham` with the coupling slopes as floats, one by one."""
    w, v = ham.eigenvalues, ham.eigenvectors
    x = v[problem.target - 1]
    y = v[problem.initial - 1]
    a = transfer_amplitude(ham, float(t), problem)
    e = float(1.0 - abs(a) ** 2)
    de_dt = -2 * np.imag(np.conj(a) * ((x * y * w) @ np.exp(-1j * w * t)))
    q = v @ (divided_differences(w, t) * np.outer(x, y)) @ v.T
    d = np.diagonal(q)
    k = np.diagonal(q, 1) + np.diagonal(q, -1) - d[:-1] - d[1:]
    p = ham.params
    dc = np.array([4 * p.J ** 2 * dj / (p.U * (1 - dj * dj) ** 2)
                   for dj in ham.delta.tolist()])
    return e, -2 * t * dc * np.imag(k * np.conj(a)), float(de_dt)


class TestSameBytesAssembly:
    """The vectorized couplings and tridiagonal assembly change no bit."""

    def test_couplings_and_slopes_match_float_formulas(self):
        # 20 000 random bias vectors of 1 to 7 bonds, about 80 000 biases
        rng = np.random.default_rng(2024)
        deltas = rng.uniform(-0.999, 0.999, int(rng.integers(1, 8, 20_000).sum()))
        p = NOMINAL_PARAMS
        assert np.array_equal(effective_coupling(p, deltas), np.array(
            [2 * p.J ** 2 / p.U / (1 - d * d) for d in deltas.tolist()]))
        assert np.array_equal(effective_coupling_derivative(p, deltas), np.array(
            [4 * p.J ** 2 * d / (p.U * (1 - d * d) ** 2) for d in deltas.tolist()]))

    def test_matrix_and_gradient_match_bond_by_bond_reference(self):
        rng = np.random.default_rng(2025)
        for _ in range(2000):
            n_sites = int(rng.integers(2, 9))
            delta = rng.uniform(-0.999, 0.999, n_sites - 1)
            t = float(rng.uniform(0, 30000))
            problem = TransferProblem(n_sites=n_sites, initial=1, target=n_sites)
            ham = hamiltonian(delta, NOMINAL_PARAMS)
            assert np.array_equal(ham.matrix, reference_matrix(delta, NOMINAL_PARAMS))
            e, de_ddelta, de_dt = fidelity_gradient_from_ham(ham, t, problem)
            ref = reference_gradient(ham, t, problem)
            assert e == ref[0] and de_dt == ref[2]
            assert np.array_equal(de_ddelta, ref[1])

    def test_first_singular_bias_is_reported(self):
        with pytest.raises(BiasSingularityError, match=r"got -1\.5\)"):
            hamiltonian([0.2, -1.5, 1.0], NOMINAL_PARAMS)
        assert effective_coupling(NOMINAL_PARAMS, 0.5) \
            == 2 * NOMINAL_PARAMS.J ** 2 / NOMINAL_PARAMS.U / 0.75
        assert type(effective_coupling_derivative(NOMINAL_PARAMS, 0.5)) is float


class TestPropagate:
    def test_identity_at_zero(self):
        ham = hamiltonian([0.3, -0.2, 0.2, -0.3], NOMINAL_PARAMS)
        assert np.max(np.abs(propagate(ham, 0.0) - np.eye(5))) < 1e-15

    def test_unitarity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ham = hamiltonian(random_delta(rng, 4), NOMINAL_PARAMS)
            u = propagate(ham, float(rng.uniform(0, 5000)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12

    def test_two_site_sine_law(self):
        for d in (0.0, 0.4, -0.8):
            c = effective_coupling(NOMINAL_PARAMS, d)
            ham = hamiltonian([d], NOMINAL_PARAMS)
            for t in (0.0, 137.0, 2000.0, 7854.0):
                amp = abs(transfer_amplitude(ham, t, P2))
                assert amp == pytest.approx(abs(math.sin(c * t)), abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(22)
        ham = hamiltonian(random_delta(rng, 4), NOMINAL_PARAMS)
        t1, t2 = 311.0, 517.0
        u = propagate(ham, t1 + t2)
        assert np.max(np.abs(u - propagate(ham, t1) @ propagate(ham, t2))) < 1e-10

    def test_matches_scaling_and_squaring(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            ham = hamiltonian(random_delta(rng, 4), NOMINAL_PARAMS)
            t = float(rng.uniform(10, 2000))
            reference = expm(-1j * t * ham.matrix)
            assert np.max(np.abs(propagate(ham, t) - reference)) < 1e-10

    def test_norm_conservation(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            ham = hamiltonian(random_delta(rng, 4), NOMINAL_PARAMS)
            psi = rng.normal(size=5) + 1j * rng.normal(size=5)
            psi /= np.linalg.norm(psi)
            out = propagate(ham, float(rng.uniform(0, 3000))) @ psi
            assert abs(np.linalg.norm(out) - 1) < 1e-12

    def test_negative_time_rejected(self):
        ham = hamiltonian([0.1], NOMINAL_PARAMS)
        with pytest.raises(ValueError):
            propagate(ham, -1.0)


class TestFidelityError:
    def test_orthogonal_at_zero_time(self):
        assert fidelity_error(np.zeros(4), 0.0, P5, NOMINAL_PARAMS) == pytest.approx(1.0)

    def test_two_site_perfect_transfer(self):
        d = 0.3
        c = effective_coupling(NOMINAL_PARAMS, d)
        e = fidelity_error([d], math.pi / (2 * c), P2, NOMINAL_PARAMS)
        assert e < 1e-12

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            e = fidelity_error(random_delta(rng, 4), float(rng.uniform(0, 5000)),
                               P5, NOMINAL_PARAMS)
            assert 0.0 <= e <= 1.0

    def test_mirror_symmetric_reversal(self):
        # persymmetric bias profile: 1 -> N equals N -> 1
        delta = [0.6, -0.25, -0.25, 0.6]
        back = TransferProblem(n_sites=5, initial=5, target=1)
        for t in (100.0, 955.0, 4321.0):
            assert fidelity_error(delta, t, P5, NOMINAL_PARAMS) \
                == pytest.approx(fidelity_error(delta, t, back, NOMINAL_PARAMS),
                                 abs=1e-12)


class TestFidelityTrace:
    def test_two_site_closed_form(self):
        d = 0.5
        c = effective_coupling(NOMINAL_PARAMS, d)
        t_star = math.pi / (2 * c)
        trace = fidelity_trace([d], P2, NOMINAL_PARAMS, t_max=1.2 * t_star,
                               n_steps=1500)
        expected = 1 - np.sin(c * trace.times) ** 2
        assert np.max(np.abs(trace.errors - expected)) < 1e-12
        # the error curve is numerically flat within ~4e-4 of the optimum, so
        # the refined time is only meaningful to that scale
        assert trace.t_min == pytest.approx(t_star, abs=1e-3)
        assert trace.e_min < 1e-12

    def test_errors_bounded_and_refinement_improves(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            delta = random_delta(rng, 4)
            trace = fidelity_trace(delta, P5, NOMINAL_PARAMS, t_max=4000.0,
                                   n_steps=800)
            assert np.all((trace.errors >= 0) & (trace.errors <= 1))
            assert trace.e_min <= np.min(trace.errors) + 1e-15

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            fidelity_trace([0.1], P2, NOMINAL_PARAMS, t_max=10.0, n_steps=1)
        with pytest.raises(ValueError):
            fidelity_trace([0.1], P2, NOMINAL_PARAMS, t_max=0.0)


class TestTransferProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferProblem(n_sites=5, initial=0, target=5)
        with pytest.raises(ValueError):
            TransferProblem(n_sites=5, initial=2, target=2)
        with pytest.raises(ValueError):
            TransferProblem(n_sites=1, initial=1, target=1)

    def test_basis_states(self):
        p = TransferProblem(n_sites=4, initial=2, target=4)
        assert p.initial_state().tolist() == [0, 1, 0, 0]
        assert p.target_state().tolist() == [0, 0, 0, 1]


def centered_differences(f, z, steps):
    """Richardson-refined centered differences of f at z, one step per coordinate."""
    z = np.asarray(z, dtype=float)
    g = np.empty(len(z))
    for i, h in enumerate(steps):
        def slope(h):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            return (f(zp) - f(zm)) / (2 * h)
        g[i] = (4 * slope(h / 2) - slope(h)) / 3
    return g


def assert_close(analytic, numeric, floor):
    """Agreement to 1e-6 of the largest analytic component, plus `floor`."""
    analytic = np.atleast_1d(analytic)
    scale = np.max(np.abs(analytic))
    assert np.all(np.abs(analytic - numeric) <= 1e-6 * scale + floor), \
        (analytic, numeric)


def check_against_fd(delta, t, problem):
    """The analytic (de/d delta, de/dT) against differences of fidelity_error."""
    delta = np.asarray(delta, dtype=float)
    e, de_ddelta, de_dt = fidelity_error_and_gradient(delta, t, problem,
                                                      NOMINAL_PARAMS)
    fd = centered_differences(
        lambda z: fidelity_error(z[:-1], z[-1], problem, NOMINAL_PARAMS),
        np.append(delta, t), [2e-6] * len(delta) + [2e-2])
    assert_close(de_ddelta, fd[:-1], floor=1e-9)
    assert_close(de_dt, fd[-1], floor=1e-13)
    return e, de_ddelta, de_dt


class TestGradientOracle:
    def test_random_asymmetric_five_site_points(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            check_against_fd(random_delta(rng, 4), float(rng.uniform(0, 30000)),
                             P5)

    def test_two_site_chain(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            check_against_fd(random_delta(rng, 1), float(rng.uniform(0, 30000)),
                             P2)
        # at the sine peak e = 0 is an interior minimum in both coordinates
        d = 0.6
        t_star = math.pi / (2 * effective_coupling(NOMINAL_PARAMS, d))
        _, de_ddelta, de_dt = check_against_fd([d], t_star, P2)
        assert abs(de_ddelta[0]) < 1e-9 and abs(de_dt) < 1e-12

    def test_zero_time(self):
        e, de_ddelta, de_dt = check_against_fd([0.3, -0.5, 0.2, 0.7], 0.0, P5)
        assert e == 1.0
        assert np.all(de_ddelta == 0.0) and de_dt == 0.0

    def test_uniform_chain(self):
        # delta = 0: the coupling derivative vanishes on every bond
        _, de_ddelta, de_dt = check_against_fd(np.zeros(4), 5000.0, P5)
        assert np.all(de_ddelta == 0.0)
        assert de_dt != 0.0

    def test_degenerate_spectrum(self):
        # two cut bonds leave a threefold and a twofold eigenvalue; the
        # bias gradient over dc/d(delta) is de/dc, checked on the couplings
        problem = TransferProblem(n_sites=5, initial=1, target=2)
        delta = np.array([0.5, 0.5, 0.5, 0.5])
        c = effective_coupling(NOMINAL_PARAMS, 0.5)
        couplings = np.array([c, 0.0, 0.0, c])
        t = 1234.0

        def ham(cs):
            return EffectiveHamiltonian(cs, delta, NOMINAL_PARAMS)

        w = ham(couplings).eigenvalues
        assert np.sum(np.abs(np.diff(w)) < 1e-15) == 3
        e, de_ddelta, de_dt = fidelity_gradient_from_ham(ham(couplings), t,
                                                         problem)
        dc = effective_coupling_derivative(NOMINAL_PARAMS, 0.5)
        fd = centered_differences(
            lambda z: fidelity_error_from_ham(ham(z[:-1]), z[-1], problem),
            np.append(couplings, t), [2e-9] * 4 + [2e-2])
        assert np.all(np.isfinite(de_ddelta))
        assert_close(de_ddelta / dc, fd[:-1], floor=1e-5)
        assert_close(de_dt, fd[-1], floor=1e-13)
        assert de_ddelta[1] != 0.0

    def test_error_is_fidelity_error_bitwise(self):
        rng = np.random.default_rng(63)
        for problem, n_bonds in ((P5, 4), (P2, 1)):
            for _ in range(20):
                d = random_delta(rng, n_bonds)
                t = float(rng.uniform(0, 30000))
                e, _, _ = fidelity_error_and_gradient(d, t, problem,
                                                      NOMINAL_PARAMS)
                assert e == fidelity_error(d, t, problem, NOMINAL_PARAMS)

    def test_bias_sensitivities_is_the_bias_gradient_bitwise(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            d = random_delta(rng, 4)
            t = float(rng.uniform(0, 30000))
            _, de_ddelta, _ = fidelity_error_and_gradient(d, t, P5,
                                                          NOMINAL_PARAMS)
            assert np.array_equal(bias_sensitivities(d, t, P5, NOMINAL_PARAMS),
                                  de_ddelta)

    @pytest.mark.parametrize("n_sites", [2, 4, 5])
    def test_folded_gradient_matches_symmetric_objective(self, n_sites):
        rng = np.random.default_rng(65 + n_sites)
        problem = TransferProblem(n_sites=n_sites, initial=1, target=n_sites)
        n_free = n_free_parameters(n_sites)
        for _ in range(10):
            free = rng.uniform(-0.95, 0.95, n_free)
            t = float(rng.uniform(0, 30000))
            _, de_ddelta, _ = fidelity_error_and_gradient(
                symmetrize(free, n_sites), t, problem, NOMINAL_PARAMS)
            folded = fold_symmetric(de_ddelta, n_sites)
            fd = centered_differences(
                lambda z: fidelity_error(symmetrize(z, n_sites), t, problem,
                                         NOMINAL_PARAMS),
                free, [2e-6] * n_free)
            assert_close(folded, fd, floor=1e-9)


class TestImportLayering:
    def test_dynamics_does_not_load_the_optics_stack(self):
        # a pure-dynamics gradient must not depend on projection or stage 2
        src = str(Path(spinscape.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = ("import json, sys, spinscape.dynamics; "
                "print(json.dumps(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        loaded = set(json.loads(out.stdout))
        assert "spinscape.dynamics" in loaded
        assert "spinscape.dmdopt" not in loaded
        assert "spinscape.optics" not in loaded
