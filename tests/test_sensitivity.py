from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.linalg import expm
from scipy.stats import pearsonr, spearmanr

from spinscape.lattice import LatticeConfig, NOMINAL_PARAMS
from spinscape.dynamics import (TransferProblem, fidelity_error, hamiltonian,
                                structure_matrix)
from spinscape.optics import (DMDPattern, OpticsConfig, extract_biases,
                              project_intensity)
from spinscape.pipeline import PipelineConfig, color_contexts
from spinscape.dmdopt import DMDSolution, make_context, realized_bias
from spinscape.sensitivity import (_richardson_slope, bias_drift_power,
                                   bias_drift_x, bias_sensitivities, correlations,
                                   frechet_derivative, physical_sensitivity)

PROBLEM = TransferProblem()
LATTICE = LatticeConfig(depth=10.0)
ZETA = 10.0
CTX = make_context(OpticsConfig(), LATTICE, ZETA, 5)
CTX_RED = make_context(OpticsConfig(color="red"), LATTICE, ZETA, 5)


def gauss_legendre_frechet(h_matrix, direction, t, n=64):
    """Independent quadrature of the propagator-derivative integral."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (nodes + 1)
    w = 0.5 * weights
    return sum(wi * expm(-1j * h_matrix * t * (1 - si)) @ direction
               @ expm(-1j * h_matrix * t * si) for si, wi in zip(s, w))


class TestFrechetDerivative:
    def test_zero_direction(self):
        ham = hamiltonian([0.3, -0.2, 0.2, -0.3], NOMINAL_PARAMS)
        assert np.all(frechet_derivative(ham, np.zeros((5, 5)), 100.0) == 0)

    def test_commuting_direction_identity(self):
        ham = hamiltonian([0.5, 0.1, -0.1, 0.5], NOMINAL_PARAMS)
        t = 700.0
        k = frechet_derivative(ham, np.eye(5), t)
        u = (ham.eigenvectors * np.exp(-1j * ham.eigenvalues * t)) \
            @ ham.eigenvectors.conj().T
        assert np.max(np.abs(k - u)) < 1e-12

    def test_matches_quadrature(self):
        rng = np.random.default_rng(51)
        for _ in range(8):
            ham = hamiltonian(rng.uniform(-0.9, 0.9, 4), NOMINAL_PARAMS)
            t = float(rng.uniform(50, 4000))
            s = structure_matrix(int(rng.integers(1, 5)), 5)
            k = frechet_derivative(ham, s, t)
            q = gauss_legendre_frechet(ham.matrix, s, t)
            assert np.max(np.abs(k - q)) < 1e-10

    def test_degenerate_spectrum_finite_and_correct(self):
        class Spectral:
            pass
        s = Spectral()
        m = np.diag([1.0, 1.0, 2.0])
        s.eigenvalues, s.eigenvectors = np.linalg.eigh(m)
        direction = np.ones((3, 3))
        k = frechet_derivative(s, direction, 3.0)
        assert np.all(np.isfinite(k))
        q = gauss_legendre_frechet(m, direction, 3.0)
        assert np.max(np.abs(k - q)) < 1e-12

    def test_propagator_derivative_consistency(self):
        # centered FD of the propagator along S approaches -i T K(S) as O(h^2)
        ham = hamiltonian([0.3, -0.5, 0.2, 0.6], NOMINAL_PARAMS)
        s = structure_matrix(2, 5)
        t = 800.0
        k = -1j * t * frechet_derivative(ham, s, t)
        devs = []
        for h in (1e-5, 5e-6):
            fd = (expm(-1j * t * (ham.matrix + h * s))
                  - expm(-1j * t * (ham.matrix - h * s))) / (2 * h)
            devs.append(np.max(np.abs(fd - k)))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.2)


class TestBiasSensitivity:
    def test_zero_bias_gives_zero_sensitivity(self):
        xi = bias_sensitivities([0.0, 0.4, -0.4, 0.0], 900.0, PROBLEM,
                                NOMINAL_PARAMS)
        assert xi[0] == 0.0
        assert xi[3] == 0.0

    def test_vanishes_at_exact_optimum(self):
        # two sites at the sine peak: interior minimum with e = 0
        from spinscape.lattice import effective_coupling
        import math
        p2 = TransferProblem(n_sites=2, initial=1, target=2)
        d = 0.6
        t_star = math.pi / (2 * effective_coupling(NOMINAL_PARAMS, d))
        xi = bias_sensitivities([d], t_star, p2, NOMINAL_PARAMS)
        assert abs(xi[0]) < 1e-9

    def test_matches_finite_differences(self):
        # points where the landscape is flat at machine precision (all
        # |xi| ~ 1e-10) cannot be certified by any FD step and are resampled
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 50:
            d = rng.uniform(-0.95, 0.95, 4)
            t = float(rng.uniform(200, 20000))
            xi = bias_sensitivities(d, t, PROBLEM, NOMINAL_PARAMS)
            scale = np.max(np.abs(xi))
            if scale < 5e-4:
                continue
            h = 1e-6
            fd = np.empty(4)
            for j in range(4):
                dp, dm = d.copy(), d.copy()
                dp[j] += h
                dm[j] -= h
                fd[j] = (fidelity_error(dp, t, PROBLEM, NOMINAL_PARAMS)
                         - fidelity_error(dm, t, PROBLEM, NOMINAL_PARAMS)) / (2 * h)
            assert np.max(np.abs(xi - fd)) / scale < 1e-6
            checked += 1


def make_solution(pattern, power, ctx, color="blue"):
    achieved = realized_bias(pattern, power, ctx).bias
    return DMDSolution(pattern=pattern, power=power, color=color,
                       achieved=achieved, objective=0.0, error=0.5, t_min=100.0)


class TestRichardsonSlope:
    def test_smooth_function_derivative_converges(self):
        errs = []
        for n in (200, 800):
            x = np.linspace(0, 2 * np.pi, n)
            fit = PchipInterpolator(x, np.sin(x))
            q = np.linspace(0.3, 2 * np.pi - 0.3, 50)
            d = _richardson_slope(fit, q, step=x[1] - x[0])
            errs.append(np.mean(np.abs(d - np.cos(q))))
        assert errs[0] < 5e-4
        assert errs[1] < errs[0] / 10


class TestDriftX:
    def test_zero_projection_zero_drift(self):
        sol = make_solution(DMDPattern(indices=[]), 0.3, CTX)
        assert np.all(bias_drift_x(sol, CTX) == 0)

    def test_symmetric_pattern_symmetric_drift(self):
        sol = make_solution(DMDPattern(indices=[-7, 7], height=12), 0.3, CTX)
        ddx = bias_drift_x(sol, CTX)
        assert np.max(np.abs(ddx - ddx[::-1])) < 1e-8 * max(np.max(np.abs(ddx)), 1)

    @staticmethod
    def pipeline_shift_fd(pattern, power, ctx, h):
        """Centered FD of the full extraction under rigid lattice drift.

        Shifting the lattice phase moves the wells (and the atoms pinned in
        them) by +/- h against the fixed projection; the biases are then
        re-extracted from scratch.
        """
        from dataclasses import replace
        from spinscape.optics import extract_biases
        out = []
        for sign in (+1, -1):
            lat = replace(ctx.lattice, phase=ctx.lattice.phase
                          - 2 * ctx.lattice.wavenumber * sign * h)
            shifted = replace(ctx, lattice=lat, chain_sites=lat.site_positions(5))
            projection = project_intensity(pattern, ctx.optics.with_power(power),
                                           ctx.grid)
            out.append(extract_biases(shifted.lattice_values + projection,
                                      shifted).bias.array)
        return (out[0] - out[1]) / (2 * h) * ctx.lattice.spacing

    def test_matches_whole_pipeline_shift(self):
        # the extraction quantizes well depths at the grid scale, so the
        # pipeline-shift oracle needs the refined grid to resolve 1e-4
        fine = make_context(OpticsConfig(grid_step=LATTICE.spacing / 256),
                            LATTICE, ZETA, 5)
        pattern = DMDPattern(indices=[-9, 4, 13], height=8, symmetric=False)
        power = 0.18
        sol = make_solution(pattern, power, fine)
        ddx = bias_drift_x(sol, fine)
        fd = self.pipeline_shift_fd(pattern, power, fine, LATTICE.spacing / 200)
        assert np.max(np.abs(ddx - fd)) / np.max(np.abs(fd)) < 1e-4

    def test_pipeline_shift_default_grid(self):
        # default grid: agreement limited by the parabolic-refinement
        # quantization, still well inside one percent
        pattern = DMDPattern(indices=[-9, 9], height=1)
        sol = make_solution(pattern, 0.438, CTX)
        ddx = bias_drift_x(sol, CTX)
        fd = self.pipeline_shift_fd(pattern, 0.438, CTX, LATTICE.spacing / 200)
        assert np.max(np.abs(ddx - fd)) / np.max(np.abs(fd)) < 1e-2


class TestDriftPower:
    def test_zero_pattern_zero_drift(self):
        sol = make_solution(DMDPattern(indices=[]), 0.4, CTX)
        assert np.all(bias_drift_power(sol, CTX) == 0)

    def test_weak_projection_near_linear(self):
        pattern = DMDPattern(indices=[-5, 5], height=8)
        power = 0.02
        sol = make_solution(pattern, power, CTX)
        ddp = bias_drift_power(sol, CTX)
        linear = sol.achieved.array / power
        mask = np.abs(linear) > 1e-3
        assert np.allclose(ddp[mask], linear[mask], rtol=0.05)

    def test_matches_finite_difference(self):
        pattern = DMDPattern(indices=[-11, 3, 6], height=4, symmetric=False)
        power = 0.35
        sol = make_solution(pattern, power, CTX)
        ddp = bias_drift_power(sol, CTX)
        h = 0.01 * power
        up = realized_bias(pattern, power + h, CTX).bias.array
        dn = realized_bias(pattern, power - h, CTX).bias.array
        fd = (up - dn) / (2 * h)
        assert np.max(np.abs(ddp - fd)) / np.max(np.abs(fd)) < 1e-4


class TestContinuumOracle:
    """Both drifts against finite differences of the extraction itself, on
    a `spacing / 2048` grid, where the grid quantization of the wells is
    far below the tolerance."""

    CONFIG = PipelineConfig.from_dict({"lattice": {"depth": 10.0}, "zeta": 10.0})
    CONTEXTS = color_contexts(CONFIG, ("blue", "red"))

    @classmethod
    def continuum_fd(cls, pattern, power, color):
        """(d delta / dx per spacing, d delta / dp) by centered differences:
        a lattice-phase shift of +-spacing/4000, a power step of +-1e-4 p."""
        lattice = cls.CONFIG.lattice
        fine = make_context(replace(cls.CONFIG.optics[color],
                                    grid_step=lattice.spacing / 2048),
                            lattice, cls.CONFIG.zeta, 5)
        projection = project_intensity(pattern, fine.optics.with_power(power),
                                       fine.grid)
        h = lattice.spacing / 4000
        shifted = []
        for sign in (+1, -1):
            lat = replace(lattice, phase=lattice.phase
                          - 2 * lattice.wavenumber * sign * h)
            ctx = replace(fine, lattice=lat, chain_sites=lat.site_positions(5))
            shifted.append(extract_biases(ctx.lattice_values + projection,
                                          ctx).bias.array)
        hp = 1e-4 * power
        up = realized_bias(pattern, power + hp, fine).bias.array
        dn = realized_bias(pattern, power - hp, fine).bias.array
        return ((shifted[0] - shifted[1]) / (2 * h) * lattice.spacing,
                (up - dn) / (2 * hp))

    @pytest.mark.parametrize("color, indices, height, power", [
        # a PCHIP slope on a spacing/256 grid missed this one by 5e-3
        ("blue", [-22, 22], 22, 0.06573963501967914),
        ("red", [-3, 3], 25, 0.9620406217271489),
        ("blue", [-9, 4, 13], 8, 0.18),
    ])
    def test_drifts_match_continuum(self, color, indices, height, power):
        ctx = self.CONTEXTS[color]
        pattern = DMDPattern(indices=indices, height=height,
                             symmetric=indices == [-i for i in indices[::-1]])
        sol = make_solution(pattern, power, ctx, color)
        fd_x, fd_p = self.continuum_fd(pattern, power, color)
        for got, want in ((bias_drift_x(sol, ctx), fd_x),
                          (bias_drift_power(sol, ctx), fd_p)):
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-4


class TestPhysicalSensitivity:
    def test_zero_and_bilinear(self):
        assert physical_sensitivity(np.zeros(4), np.ones(4)) == 0.0
        xi = np.array([0.1, -0.2, 0.3, 0.4])
        dd = np.array([1.0, 2.0, -1.0, 0.5])
        assert physical_sensitivity(xi, 2 * dd) \
            == pytest.approx(2 * physical_sensitivity(xi, dd), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            physical_sensitivity(np.zeros(3), np.zeros(4))


class TestCorrelations:
    def test_perfect_linear(self):
        xs = np.arange(10.0)
        r, rho = correlations(xs, 2 * xs + 1)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        xs = np.array([0.1, 0.7, 1.3, 2.9, 4.0])
        _, rho = correlations(xs, np.exp(-xs))
        assert rho == pytest.approx(-1.0, abs=1e-12)

    def test_hand_worked_example(self):
        r, rho = correlations([1, 2, 3, 4], [2, 1, 4, 3])
        assert r == pytest.approx(0.6, abs=1e-12)
        assert rho == pytest.approx(0.6, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            xs = np.round(rng.normal(size=30), 1)      # rounding forces ties
            ys = np.round(rng.normal(size=30) + 0.3 * xs, 1)
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            r, rho = correlations(xs, ys)
            assert r == pytest.approx(pearsonr(xs, ys).statistic, abs=1e-12)
            assert rho == pytest.approx(spearmanr(xs, ys).statistic, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            correlations([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            correlations([1.0, 2.0], [1.0, 2.0])
