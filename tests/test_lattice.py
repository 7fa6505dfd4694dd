import math

import numpy as np
import pytest
from scipy.constants import hbar

from spinscape.lattice import (BiasSingularityError, BiasVector, LatticeConfig,
                               NOMINAL_ALPHA, bare_couplings,
                               double_well_gap_ratio, effective_coupling,
                               effective_coupling_derivative, time_unit)

LATTICE = LatticeConfig()

# Frozen from 50-digit evaluation of the coupling formulas with the default
# lattice (1064 nm, Rb-87, a_s = 95 a0); see test_bare_couplings_match_mpmath.
J_AT_20 = 0.0027849000731086457
U_AT_20 = 0.44787835210079907


def test_bare_couplings_match_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    z = mp.mpf(20)
    j_exact = 4 / mp.sqrt(mp.pi) * z ** mp.mpf("0.75") * mp.e ** (-2 * mp.sqrt(z))
    k = 2 * mp.pi / mp.mpf("1064e-9")
    a_s = 95 * mp.mpf("5.29e-11")
    u_exact = 2 * mp.sqrt(2) / mp.sqrt(mp.pi) * z ** mp.mpf("0.75") * k * a_s
    assert float(j_exact) == pytest.approx(J_AT_20, rel=1e-15)
    assert float(u_exact) == pytest.approx(U_AT_20, rel=1e-15)
    p = bare_couplings(20.0, LATTICE)
    assert p.J == pytest.approx(J_AT_20, rel=1e-12)
    assert p.U == pytest.approx(U_AT_20, rel=1e-12)


def test_interaction_magnitude_and_power_law():
    p20 = bare_couplings(20.0, LATTICE)
    # qualitatively half a recoil, exact value 0.4479 E_R
    assert 0.4 < p20.U < 0.5
    p18 = bare_couplings(18.0, LATTICE)
    assert p18.U / p20.U == pytest.approx((18 / 20) ** 0.75, rel=1e-14)


def test_tunneling_scaling_constant_in_zeta():
    zs = np.linspace(4.0, 30.0, 40)
    vals = [bare_couplings(z, LATTICE).J * math.exp(2 * math.sqrt(z)) * z ** -0.75
            for z in zs]
    assert np.ptp(vals) < 1e-13 * abs(vals[0])


def test_alpha_decreases_with_depth():
    zs = np.linspace(5.0, 30.0, 60)
    alphas = [bare_couplings(z, LATTICE).alpha for z in zs]
    assert np.all(np.diff(alphas) < 0)


def test_bare_couplings_rejects_nonpositive_depth():
    with pytest.raises(ValueError):
        bare_couplings(0.0, LATTICE)
    with pytest.raises(ValueError):
        bare_couplings(-3.0, LATTICE)


def test_recoil_energy_consistency():
    k = 2 * math.pi / LATTICE.wavelength
    expected = hbar ** 2 * k ** 2 / (2 * LATTICE.atom_mass)
    assert LATTICE.recoil_energy == pytest.approx(expected, rel=1e-12)
    assert LATTICE.spacing == LATTICE.wavelength / 2


def test_site_positions_centered_and_spaced():
    sites = LATTICE.site_positions(5)
    assert len(sites) == 5
    assert sites[2] == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(np.diff(sites), LATTICE.spacing)
    # tie at phase 0 (minima at half-integer spacings) resolves deterministically
    shifted = LatticeConfig(phase=0.0).site_positions(5)
    assert len(shifted) == 5
    assert np.allclose(np.diff(shifted), LATTICE.spacing)


class TestEffectiveCoupling:
    PARAMS = bare_couplings(20.0, LATTICE)

    def test_reference_values(self):
        from spinscape.lattice import HubbardParams
        p = HubbardParams(J=0.01, U=1.0)
        assert effective_coupling(p, 0.0) == pytest.approx(2e-4, rel=1e-14)
        assert effective_coupling(p, 0.5) == pytest.approx(2e-4 / 0.75, rel=1e-14)

    def test_singularity(self):
        with pytest.raises(BiasSingularityError):
            effective_coupling(self.PARAMS, 1.0)
        with pytest.raises(BiasSingularityError):
            effective_coupling(self.PARAMS, -1.2)

    def test_even_in_delta(self):
        for d in (0.1, 0.37, 0.95, 0.999):
            assert effective_coupling(self.PARAMS, d) \
                == effective_coupling(self.PARAMS, -d)

    @pytest.mark.parametrize("delta", [0.1, -0.1, 0.5, -0.5, 0.9, -0.9])
    def test_derivative_matches_finite_difference(self, delta):
        h = 1e-6
        fd = (effective_coupling(self.PARAMS, delta + h)
              - effective_coupling(self.PARAMS, delta - h)) / (2 * h)
        closed = effective_coupling_derivative(self.PARAMS, delta)
        assert closed == pytest.approx(fd, rel=1e-6)


class TestTimeUnit:
    def test_against_direct_evaluation(self):
        # recomputed independently from the J/U formulas in joules
        p = bare_couplings(18.0, LATTICE)
        u_joule = p.U * LATTICE.recoil_energy
        expected = hbar * 1e-4 / (u_joule * p.alpha ** 2)
        tau = time_unit(18.0, LATTICE)
        assert tau == pytest.approx(expected, rel=1e-13)
        assert tau == pytest.approx(0.196e-3, rel=2e-3)

    def test_normalization_identity(self):
        for z in (6.0, 12.0, 18.0, 25.0):
            p = bare_couplings(z, LATTICE)
            tau = time_unit(z, LATTICE)
            lhs = tau * p.U * LATTICE.recoil_energy * p.alpha ** 2 / hbar
            assert lhs == pytest.approx(NOMINAL_ALPHA ** 2, rel=1e-13)


class TestDoubleWell:
    def test_untilted_ratio_is_one(self):
        assert double_well_gap_ratio(0.01, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_moderate_tilt_matches_superexchange_law(self):
        # frozen exact-diagonalization values at J = 0.01, U = 1
        assert double_well_gap_ratio(0.01, 1.0, 0.5) \
            == pytest.approx(1.3326830234432063, rel=1e-12)
        assert double_well_gap_ratio(0.01, 1.0, 0.5) \
            == pytest.approx(1 / (1 - 0.25), rel=1e-3)
        assert double_well_gap_ratio(0.01, 1.0, 0.9) \
            == pytest.approx(5.163789935, rel=1e-8)

    def test_convergence_quadratic_in_tunneling(self):
        for tilt in (0.3, 0.5, 0.9):
            law = 1 / (1 - tilt ** 2)
            dev1 = abs(double_well_gap_ratio(0.01, 1.0, tilt) - law)
            dev2 = abs(double_well_gap_ratio(0.005, 1.0, tilt) - law)
            assert dev1 / dev2 == pytest.approx(4.0, rel=0.15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            double_well_gap_ratio(0.05, 1.0, 0.5)      # not perturbative
        with pytest.raises(ValueError):
            double_well_gap_ratio(0.01, 1.0, 1.0)       # tilt reaches U
        with pytest.raises(ValueError):
            double_well_gap_ratio(-0.01, 1.0, 0.5)


class TestBiasVector:
    def test_basic_properties(self):
        b = BiasVector([0.1, -0.9, 0.9, -0.1])
        assert b.n_sites == 5
        assert b.is_dynamical()
        assert b.max_abs == pytest.approx(0.9)
        assert b.min_singularity_gap() == pytest.approx(0.1, rel=1e-12)

    def test_non_dynamical_values_representable(self):
        b = BiasVector([0.5, 1.3])
        assert not b.is_dynamical()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BiasVector([])
