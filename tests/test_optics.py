import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j1

from spinscape import optics as optics_module
from spinscape.lattice import LatticeConfig, bare_couplings
from spinscape.optics import (DMDPattern, ExtractionError, OpticsConfig,
                              ProjectionContext, expand_pattern,
                              extract_bias_rows, extract_biases,
                              lattice_profile, make_chain_grid,
                              make_context, project_intensity, psf_field)

LATTICE = LatticeConfig(depth=15.0)
ZETA = 15.0
PARAMS = bare_couplings(ZETA, LATTICE)
BLUE = OpticsConfig()
RED = OpticsConfig(color="red")


def bisect_first_intensity_zero(optics, lo, hi, iters=100):
    """Independent root bracket on |E|^2 via the Bessel amplitude sign change."""
    def amp(r):
        nu = 2 * math.pi * r * optics.na / optics.wavelength
        return 2 * j1(nu) / nu
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if amp(lo) * amp(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestPSF:
    def test_peak_at_axis(self):
        assert abs(psf_field(BLUE, 0.0)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_first_zero_position(self):
        r0 = bisect_first_intensity_zero(BLUE, 1e-7, 6e-7)
        nu0 = 2 * math.pi * r0 * BLUE.na / BLUE.wavelength
        assert nu0 == pytest.approx(3.8317, abs=1e-4)
        assert abs(psf_field(BLUE, r0)) ** 2 < 1e-10

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            psf_field(BLUE, -1e-9)

    def test_j1_is_scipy_special_j1(self):
        # the ufunc loaded from scipy.special._special_ufuncs is the one
        # scipy.special exports, and gives its values bit for bit
        assert optics_module.j1 is j1
        nu = np.linspace(0.0, 60.0, 2_000_001)
        assert np.array_equal(optics_module.j1(nu), j1(nu))


class TestOpticsConfigValidation:
    def test_na_bounds(self):
        with pytest.raises(ValueError):
            OpticsConfig(na=0.75)
        with pytest.raises(ValueError):
            OpticsConfig(na=0.0)

    def test_pixel_pitch_must_be_subresolution(self):
        with pytest.raises(ValueError):
            OpticsConfig(pixel_pitch=500e-9)


class TestPatterns:
    def test_empty_pattern_expands_to_nothing(self):
        assert expand_pattern(DMDPattern(indices=[]), 80e-9).shape == (0, 2)

    def test_single_column(self):
        coords = expand_pattern(DMDPattern(indices=[0], height=12), 80e-9)
        assert coords.shape == (12, 2)
        assert np.all(coords[:, 0] == 0)
        assert np.sum(coords[:, 1]) == pytest.approx(0.0, abs=1e-20)

    def test_symmetric_coordinates(self):
        coords = expand_pattern(DMDPattern(indices=[-4, 4], height=3), 80e-9)
        flipped = np.column_stack([-coords[:, 0], coords[:, 1]])
        a = set(map(tuple, np.round(coords, 15)))
        b = set(map(tuple, np.round(flipped, 15)))
        assert a == b

    def test_symmetry_flag_enforced(self):
        with pytest.raises(ValueError):
            DMDPattern(indices=[1, 2], symmetric=True)
        DMDPattern(indices=[1, 2], symmetric=False)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            DMDPattern(indices=[3, 3, -3])

    def test_roundtrip(self):
        p = DMDPattern(indices=[-5, 0, 5], height=7)
        assert DMDPattern.from_dict(p.to_dict()) == p

    def test_stored_form(self):
        # the bytes of controllers.json: every key, and the constant width
        stored = DMDPattern(indices=[5, -5, 0], height=7).to_dict()
        assert stored == {"width": 1, "height": 7, "count": 3,
                          "indices": [-5, 0, 5], "symmetric": True}
        assert list(stored) == ["width", "height", "count", "indices", "symmetric"]
        assert DMDPattern(indices=[2], symmetric=False).width == 1

    @pytest.mark.parametrize("width", [0, 2, 3])
    def test_stored_width_other_than_one_rejected(self, width):
        stored = {**DMDPattern(indices=[-5, 5]).to_dict(), "width": width}
        with pytest.raises(ValueError, match=f"width must be 1, not {width}"):
            DMDPattern.from_dict(stored)


class TestProjection:
    GRID = make_chain_grid(LATTICE, 5, BLUE)

    def test_all_off_gives_zero(self):
        values = project_intensity(DMDPattern(indices=[]), BLUE, self.GRID)
        assert np.all(values == 0)

    def test_single_superpixel_is_shifted_copy(self):
        # grid commensurate with the pixel pitch so a shifted pattern lands on
        # shifted grid nodes exactly
        optics = OpticsConfig(grid_step=8e-9)
        grid = make_chain_grid(LATTICE, 5, optics)
        at0 = project_intensity(DMDPattern(indices=[0], height=5, symmetric=False),
                                optics, grid)
        steps_per_pixel = round(optics.pixel_pitch / optics.grid_step)
        shift = 3 * steps_per_pixel
        shifted = project_intensity(DMDPattern(indices=[3], height=5,
                                               symmetric=False), optics, grid)
        assert np.allclose(shifted[shift:], at0[:-shift], rtol=1e-10)

    def test_peak_normalization(self):
        for h in (1, 12, 25):
            cfg = BLUE.with_power(0.37)
            values = project_intensity(DMDPattern(indices=[0], height=h), cfg,
                                       self.GRID)
            assert np.max(values) == pytest.approx(0.37, rel=1e-6)

    def test_linear_in_power(self):
        pattern = DMDPattern(indices=[-6, 6], height=9)
        base = project_intensity(pattern, BLUE.with_power(0.25), self.GRID)
        triple = project_intensity(pattern, BLUE.with_power(0.75), self.GRID)
        assert np.allclose(triple, 3 * base, rtol=1e-12, atol=1e-18)

    def test_color_signs(self):
        pattern = DMDPattern(indices=[0], height=4)
        blue = project_intensity(pattern, BLUE, self.GRID)
        red = project_intensity(pattern, RED, make_chain_grid(LATTICE, 5, RED))
        assert np.all(blue >= 0)
        assert np.all(red <= 0)


def with_lattice(ctx, projection):
    """Lattice plus projection on the context's grid, in that order."""
    return ctx.lattice_values + projection


class TestTotalPotential:
    GRID = make_chain_grid(LATTICE, 5, BLUE)

    def test_zero_projection_pure_cosine(self):
        zero = project_intensity(DMDPattern(indices=[]), BLUE, self.GRID)
        total = with_lattice(make_context(BLUE, LATTICE, ZETA, 5), zero)
        k = LATTICE.wavenumber
        expected = ZETA * np.cos(2 * k * self.GRID + LATTICE.phase)
        assert np.allclose(total, expected, atol=1e-12)

    def test_phase_periodicity(self):
        shifted = LatticeConfig(depth=15.0, phase=LATTICE.phase + 2 * math.pi)
        a = lattice_profile(LATTICE, ZETA, self.GRID)
        b = lattice_profile(shifted, ZETA, self.GRID)
        assert np.allclose(a, b, atol=1e-10)

    def test_blue_raises_red_lowers(self):
        pattern = DMDPattern(indices=[0], height=12)
        base = lattice_profile(LATTICE, ZETA, self.GRID)
        up = with_lattice(make_context(BLUE, LATTICE, ZETA, 5),
                          project_intensity(pattern, BLUE, self.GRID))
        red_ctx = make_context(RED, LATTICE, ZETA, 5)
        down = with_lattice(red_ctx, project_intensity(pattern, RED, red_ctx.grid))
        assert np.all(up >= base - 1e-15)
        assert np.all(down <= lattice_profile(LATTICE, ZETA, red_ctx.grid) + 1e-15)

    def test_profile_validation(self):
        # the value checks a potential profile made, now in the extraction;
        # its grid checks are the context's (TestContextValidation)
        ctx = make_context(BLUE, LATTICE, ZETA, 5)
        for values in (np.zeros(len(ctx.grid) + 1), ctx.lattice_values[:, None]):
            with pytest.raises(ValueError):
                extract_biases(values, ctx)
        for bad in (np.nan, np.inf, -np.inf):
            values = ctx.lattice_values.copy()
            values[len(values) // 2] = bad
            with pytest.raises(ValueError):
                extract_biases(values, ctx)


class TestContextValidation:
    """The checks a context makes on its grid when it is made."""

    CTX = make_context(BLUE, LATTICE, ZETA, 5)

    @pytest.mark.parametrize("grid", [
        pytest.param(np.zeros((3, 3)), id="2-D"),
        pytest.param(np.array([0.0, 1.0, 3.0]), id="non-uniform"),
        pytest.param(np.array([0.0, 1.0, np.nan]), id="nan"),
        pytest.param(np.array([0.0, 1.0, np.inf]), id="inf")])
    def test_bad_grid_fails_when_made(self, grid):
        with pytest.raises(ValueError):
            ProjectionContext(optics=BLUE, lattice=LATTICE, zeta=ZETA,
                              params=PARAMS, grid=grid,
                              chain_sites=self.CTX.chain_sites)
        with pytest.raises(ValueError):
            replace(self.CTX, grid=grid)

    def test_grid_too_coarse_for_a_parabola_fails_when_made(self):
        # a step of 3/4 of a spacing leaves at most two points per period
        with pytest.raises(ValueError, match="three points"):
            replace(self.CTX, grid=self.CTX.grid[::48])

    def test_uniform_grid_within_rounding_is_kept(self):
        grid = self.CTX.grid * (1 + 1e-12)
        assert np.array_equal(replace(self.CTX, grid=grid).grid, grid)


class TestExtraction:
    GRID = make_chain_grid(LATTICE, 5, BLUE)

    def run(self, pattern, optics, power):
        ctx = make_context(optics, LATTICE, ZETA, 5)
        projection = project_intensity(pattern, optics.with_power(power), ctx.grid)
        return extract_biases(with_lattice(ctx, projection), ctx)

    def test_zero_projection(self):
        res = self.run(DMDPattern(indices=[]), BLUE, 0.5)
        assert np.max(np.abs(res.bias.array)) == 0.0
        spacing = np.diff(res.positions)
        assert np.max(np.abs(spacing - LATTICE.spacing)) < BLUE.grid_step / 2

    def test_weak_center_bump_sign_pattern(self):
        res = self.run(DMDPattern(indices=[0], height=12), BLUE, 0.05)
        d = res.bias.array
        assert d[1] > 0 and d[2] < 0            # center well raised
        assert abs(d[1]) >= abs(d[0])
        assert abs(d[0]) < 0.05 and abs(d[3]) < 0.05
        # cross-check against potential values read straight off the profile
        grid = self.GRID
        projection = project_intensity(DMDPattern(indices=[0], height=12),
                                       BLUE.with_power(0.05), grid)
        total = with_lattice(make_context(BLUE, LATTICE, ZETA, 5), projection)
        direct = np.diff(res.depths) / PARAMS.U
        assert np.allclose(d, direct, atol=1e-15)
        sites = LATTICE.site_positions(5)
        coarse = np.array([total[np.argmin(np.abs(grid - x))] for x in sites])
        assert np.allclose(np.diff(coarse) / PARAMS.U, d, atol=5e-3)

    def test_symmetric_pattern_antisymmetric_bias(self):
        res = self.run(DMDPattern(indices=[-7, 7], height=12), BLUE, 0.4)
        d = res.bias.array
        assert np.max(np.abs(d + d[::-1])) < 1e-10

    def test_linear_regime(self):
        pattern = DMDPattern(indices=[-5, 5], height=8)
        lo = self.run(pattern, BLUE, 0.01).bias.array
        hi = self.run(pattern, BLUE, 0.02).bias.array
        assert np.allclose(hi, 2 * lo, rtol=0.02)

    def test_grid_refinement_stability(self):
        pattern = DMDPattern(indices=[-7, 7], height=12)
        coarse = self.run(pattern, BLUE, 0.3).bias.array
        fine_optics = OpticsConfig(grid_step=BLUE.grid_step / 2, power=0.3)
        fine_ctx = make_context(fine_optics, LATTICE, ZETA, 5)
        projection = project_intensity(pattern, fine_optics, fine_ctx.grid)
        total = with_lattice(fine_ctx, projection)
        fine = extract_biases(total, fine_ctx).bias.array
        assert np.max(np.abs(coarse - fine)) < 1e-4

    def test_out_of_range_biases_returned_for_diagnostics(self):
        res = self.run(DMDPattern(indices=[0], height=12), BLUE, 0.6)
        assert not res.bias.is_dynamical()

    def test_destroyed_well_raises(self):
        with pytest.raises(ExtractionError):
            self.run(DMDPattern(indices=[0], height=25), BLUE, 40.0)

    def test_flat_parabola_is_a_lost_well(self):
        # (-1 + 2**-53) - 2 * -1 rounds to 1, so the curvature through the
        # interior grid minimum of site 2 comes out exactly 0
        ctx = make_context(BLUE, LATTICE, ZETA, 5)
        v = ctx.lattice_values + ZETA                # at least 0 everywhere
        sel = ctx.windows[1]
        j = sel[len(sel) // 2]
        v[j - 1], v[j], v[j + 1] = -1 + 2 ** -53, -1.0, -1.0
        with pytest.raises(ExtractionError, match="well of site 2"):
            extract_biases(v, ctx)
        rows = extract_bias_rows(np.stack([v, ctx.lattice_values]), ctx)
        assert np.isnan(rows[0, :2]).all() and not np.isnan(rows[0, 2:]).any()
        assert not np.isnan(rows[1]).any()

    def test_parabola_squares_as_the_float_formula(self):
        # each well's grid minimum is set to 0 between neighbours a and b, so
        # its depth is the parabola's squared term alone; a - b is drawn
        # where a numpy array squares otherwise than a float64 scalar
        ctx = make_context(BLUE, LATTICE, ZETA, 5)
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0.01, 0.5, (2, 20000))
        odd = (a - b) ** 2 != np.array([np.float64(x) ** 2 for x in a - b])
        a, b = a[odd][:len(ctx.chain_sites)], b[odd][:len(ctx.chain_sites)]
        v = ctx.lattice_values + ZETA + 1.0          # at least 1 everywhere
        want = []
        for sel, vm, vp in zip(ctx.windows, a, b):
            j = sel[len(sel) // 2]
            v[j - 1], v[j], v[j + 1] = vm, 0.0, vp
            want.append(v[j] - (v[j - 1] - v[j + 1]) ** 2
                        / (8 * (v[j - 1] - 2 * v[j] + v[j + 1])))
        assert np.array_equal(extract_biases(v, ctx).depths, want)

def reference_superpixel_field(index, height, optics, x_grid, rows=None):
    """Reference: one PSF row per pixel, summed in pixel order.

    `rows`, when given, names for each row the row whose offset to use
    instead of its own.
    """
    oy = optics_module._superpixel_offsets(height, optics.pixel_pitch)
    if rows is not None:
        oy = oy[rows]
    dx = x_grid - index * optics.pixel_pitch
    r = np.hypot(dx[None, :], oy[:, None])
    return psf_field(optics, r).sum(axis=0)


class TestMirroredFieldOracle:
    """The mirrored-row field and the cached peak equal the per-pixel sums bit for bit."""

    @pytest.mark.parametrize("color", ["blue", "red"])
    @pytest.mark.parametrize("step,indices", [
        pytest.param(64, (-24, 0, 7), id="spacing/64"),
        pytest.param(256, (7,), id="spacing/256")])
    def test_field_equals_per_pixel_sum(self, color, step, indices):
        optics = OpticsConfig(color=color)
        optics = replace(optics, power=0.3, grid_step=LATTICE.spacing / step)
        grid = make_chain_grid(LATTICE, 5, optics)
        for height in range(1, 26):
            for index in indices:
                got = optics_module.superpixel_field(index, height, optics, grid)
                ref = reference_superpixel_field(index, height, optics, grid)
                assert np.array_equal(got, ref), (height, index)

    def test_oracle_sees_a_mirror_off_by_one(self):
        # a mirror one row off: row r takes the offset of row max(r, h - 2 - r),
        # which is row r itself at heights 1 and 2
        grid = make_chain_grid(LATTICE, 5, BLUE)
        for height in range(3, 26):
            rows = np.arange(height)
            off = np.clip(np.maximum(rows, height - 2 - rows), 0, height - 1)
            got = optics_module.superpixel_field(7, height, BLUE, grid)
            wrong = reference_superpixel_field(7, height, BLUE, grid, rows=off)
            assert not np.array_equal(got, wrong), height

    @pytest.mark.parametrize("optics", [BLUE, RED])
    def test_peak_equals_direct_sum(self, optics):
        for height in (1, 2, 12, 25):
            coords = expand_pattern(DMDPattern(indices=[0], height=height),
                                    optics.pixel_pitch)
            field = psf_field(optics, np.hypot(coords[:, 0], coords[:, 1]))
            direct = float(abs(field.sum()) ** 2)
            for power in (0.0, 0.3, 1.0):
                assert optics_module.single_superpixel_peak(
                    height, optics.with_power(power)) == direct
