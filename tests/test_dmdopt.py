from itertools import combinations, product
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from spinscape import dmdopt, optics
from spinscape.lattice import BiasVector, LatticeConfig, NOMINAL_PARAMS
from spinscape.dynamics import TransferProblem
from spinscape.optics import (DMDPattern, ExtractionError, OpticsConfig,
                              expand_pattern, extract_bias_rows,
                              extract_bias_slopes, extract_biases, lattice_profile,
                              pattern_intensities, project_intensity, psf_field,
                              single_superpixel_peak, superpixel_field)
from spinscape.dmdopt import (AcceptanceThresholds, DMDOptimConfig, DMDSolution,
                              ProjectionContext, dmd_objective, make_context,
                              optimize_pattern, realized_bias, validate_solution)

LATTICE = LatticeConfig(depth=10.0)
ZETA = 10.0
CTX_BLUE = make_context(OpticsConfig(), LATTICE, ZETA, 5)
CTX_RED = make_context(OpticsConfig(color="red"), LATTICE, ZETA, 5)
PROBLEM = TransferProblem()


def profile_one(pattern, target, ctx, p_lo, p_hi):
    """`_profile_power` of one pattern, as a batch of one row: (power, value)."""
    unit = pattern_intensities([pattern.indices], pattern.height, ctx.optics,
                               ctx.grid, fields=ctx.fields)
    peak = single_superpixel_peak(pattern.height, ctx.optics)
    p, v = dmdopt._profile_power(unit, peak, target, ctx, p_lo, p_hi)
    return float(p[0]), float(v[0])


def exhaustive_pair_optimum(target, ctx, span, height):
    """Brute-force oracle: every index pair position x bounded power search."""
    best = np.inf
    for i in range(1, span + 1):
        pattern = DMDPattern(indices=[-i, i], height=height)
        res = minimize_scalar(lambda p: dmd_objective(pattern, p, target, ctx),
                              bounds=(0.0, 1.0), method="bounded",
                              options={"xatol": 1e-9})
        best = min(best, res.fun)
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

    def test_profiled_objective_is_dmd_objective_at_its_power(self):
        # powers up to 40 lose wells, whose rows score the penalty
        target = BiasVector([0.2, 0.6, -0.6, -0.2])
        for pattern in (self.PATTERN, DMDPattern(indices=[0], height=25)):
            for p_hi in (1.0, 40.0):
                p, v = profile_one(pattern, target, CTX_BLUE, 0.0, p_hi)
                assert 0.0 <= p <= p_hi
                assert v == dmd_objective(pattern, p, target, CTX_BLUE)
                assert v <= min(dmd_objective(pattern, q, target, CTX_BLUE)
                                for q in np.linspace(0.0, p_hi, 33))

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
                                counts=(2,), index_span=12, budget=400)
        solution = optimize_pattern(config, CTX_BLUE)
        oracle = exhaustive_pair_optimum(target, CTX_BLUE, 12, 12)
        assert oracle < 1e-8                      # the exact solution exists
        assert solution.objective - oracle <= 1e-6

    def test_incumbent_never_worse_than_any_evaluation(self):
        target = realized_bias(DMDPattern(indices=[-4, 4], height=5), 0.3,
                               CTX_RED).bias
        config = DMDOptimConfig(target=target, color="red", heights=(5,),
                                counts=(2,), index_span=10, budget=80)
        solution = optimize_pattern(config, CTX_RED)
        assert solution.evaluations
        assert solution.objective <= min(solution.evaluations) + 1e-15

    def test_symmetric_result_and_determinism(self):
        target = realized_bias(DMDPattern(indices=[-7, 7], height=3), 0.5,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(3,),
                                counts=(2,), index_span=10, budget=60)
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
                                counts=(3,), index_span=8, budget=60)
        solution = optimize_pattern(config, CTX_BLUE)
        assert 0 in solution.pattern.indices
        assert solution.pattern.count == 3

    def test_config_validation(self):
        target = BiasVector([0.1, 0.1, -0.1, -0.1])
        with pytest.raises(ValueError):
            DMDOptimConfig(target=target, power_range=(0.5, 0.2))
        with pytest.raises(ValueError):
            DMDOptimConfig(target=target, counts=(0,))
        for budget in (0, -3):
            with pytest.raises(ValueError, match="budget"):
                DMDOptimConfig(target=target, budget=budget)
        cfg = DMDOptimConfig(target=target, color="red")
        with pytest.raises(ValueError):
            optimize_pattern(cfg, CTX_BLUE)       # color mismatch
        with pytest.raises(ValueError):
            optimize_pattern(DMDOptimConfig(target=target, color="blue",
                                            counts=(8,), index_span=2),
                             CTX_BLUE)            # index space cannot host count


#: The benchmark's LONG_SEARCH_TARGET, antisymmetrized.
LONG_SEARCH = BiasVector([-0.2220328568206235, 0.9201937579441222,
                          -0.9201937579441222, 0.2220328568206235])


def symmetric_pattern(half, include_center, height):
    full = [-i for i in half[::-1]] + [0] * include_center + list(half)
    return DMDPattern(indices=full, height=height, symmetric=True)


def reference_profile(pattern, target, ctx, p_lo, p_hi):
    """The power profile Gauss-Newton replaced: 33 evenly spaced powers, 33
    more across the two intervals around the best, then bounded Brent
    across (p_hi - p_lo) / 512 either side of the best; the first best wins.
    Returns the best value."""
    def scan(powers):
        return np.array([dmd_objective(pattern, p, target, ctx) for p in powers])

    powers = np.linspace(p_lo, p_hi, 33)
    values = scan(powers)
    i = int(np.argmin(values))
    fine = np.linspace(powers[max(i - 1, 0)], powers[min(i + 1, 32)], 33)
    powers = np.r_[powers, fine]
    values = np.r_[values, scan(fine)]
    i = int(np.argmin(values))
    step = (p_hi - p_lo) / 512
    res = minimize_scalar(lambda p: dmd_objective(pattern, p, target, ctx),
                          bounds=(max(p_lo, powers[i] - step),
                                  min(p_hi, powers[i] + step)),
                          method="bounded", options={"xatol": 1e-7})
    return min(values[i], res.fun)


class TestProfileOracle:
    def test_never_worse_than_scans_and_polish(self):
        # both colours, counts 1-6, heights 1-25; a third of the targets is
        # LONG_SEARCH, the rest random antisymmetric ones
        rng = np.random.default_rng(2)
        for k in range(100):
            ctx = (CTX_BLUE, CTX_RED)[k % 2]
            count = int(rng.integers(1, 7))
            half = sorted(rng.choice(np.arange(1, 25), count // 2, replace=False))
            pattern = symmetric_pattern([int(i) for i in half], count % 2,
                                        int(rng.integers(1, 26)))
            d = rng.uniform(-1, 1, 4)
            target = LONG_SEARCH if k % 3 == 0 else BiasVector((d - d[::-1]) / 2)
            p, v = profile_one(pattern, target, ctx, 0.0, 1.0)
            assert 0.0 <= p <= 1.0
            assert v == dmd_objective(pattern, p, target, ctx)
            assert v <= reference_profile(pattern, target, ctx, 0.0, 1.0) + 1e-12


def enumeration_order(count, heights, span):
    """Every pattern of one count's space, in the order an enumeration logs it."""
    return [symmetric_pattern(half, count % 2, height) for height in heights
            for half in combinations(range(1, span + 1), count // 2)]


class TestSpentSpaceOracle:
    """Every search profiles every pattern of its space, in chunks, and its
    best is the optimum of every pattern's profile taken one pattern at a
    time, bit for bit.  It generalizes `exhaustive_pair_optimum` to any count
    and height set."""

    @pytest.mark.parametrize("color,count,heights,span", [
        ("blue", 4, (3,), 12),               # 66 patterns
        ("red", 3, (7,), 10),
        ("blue", 2, (1, 2, 3, 4, 5), 8),
        ("red", 4, (25,), 10),
        ("blue", 4, (10,), 24),              # 276 patterns: two chunks
    ])
    def test_search_best_is_enumerated_optimum(self, color, count, heights, span):
        ctx = {"blue": CTX_BLUE, "red": CTX_RED}[color]
        patterns = enumeration_order(count, heights, span)
        profiles = [profile_one(pattern, LONG_SEARCH, ctx, 0.0, 1.0)
                    for pattern in patterns]
        values = [v for _, v in profiles]
        best = int(np.argmin(values))
        config = DMDOptimConfig(target=LONG_SEARCH, color=color, heights=heights,
                                counts=(count,), index_span=span, budget=200)
        solution = optimize_pattern(config, ctx)
        assert len(solution.evaluations) == len(patterns)
        assert solution.evaluations == tuple(values)
        assert solution.objective == min(values)
        assert solution.pattern == patterns[best]
        assert solution.power == profiles[best][0]


class TestBatchedProjectionOracle:
    """Every row an enumeration profiles is `project_intensity` of its
    pattern, bit for bit, and the rows fill `ctx.fields` under its keys."""

    @pytest.mark.parametrize("color", ["blue", "red"])
    @pytest.mark.parametrize("count", [4, 3])
    def test_enumerated_rows_equal_project_intensity(self, monkeypatch, color, count):
        optics = OpticsConfig(color=color)
        ctx = make_context(optics, LATTICE, ZETA, 5)
        batches = []
        profile = dmdopt._profile_power

        def recorded(unit, peak, *args):
            batches.append((unit.copy(), peak))
            return profile(unit, peak, *args)

        monkeypatch.setattr(dmdopt, "_profile_power", recorded)
        heights, span = (3, 25), 7
        config = DMDOptimConfig(target=LONG_SEARCH, color=color, heights=heights,
                                counts=(count,), index_span=span, budget=100)
        optimize_pattern(config, ctx)
        patterns = enumeration_order(count, heights, span)
        assert len(batches) == len(heights)               # one batch per height
        rows = [(row, peak) for unit, peak in batches for row in unit]
        assert len(rows) == len(patterns)
        memo = {}
        for (row, peak), pattern in zip(rows, patterns):
            for power in (0.05, 0.7):
                want = project_intensity(pattern, optics.with_power(power), ctx.grid,
                                         fields=memo)
                assert np.array_equal(optics.color_sign * (row * (power / peak)),
                                      want), (pattern, power)
        assert ctx.fields.keys() == memo.keys()
        for key, value in memo.items():
            assert np.array_equal(ctx.fields[key], value)


class TestValidation:
    TAU = 4.0425955269921036e-06                 # time unit at depth 10
    T_LIMIT = AcceptanceThresholds().t_max_normalized(TAU)

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
                                NOMINAL_PARAMS, thr, self.T_LIMIT)
        assert out.accepted
        assert out.error < 1e-2
        assert out.t_min < thr.t_max_normalized(self.TAU)

    def test_singular_bias_rejected(self):
        out = validate_solution(self.make_solution([0.2, 1.01, -1.01, -0.2]),
                                PROBLEM, NOMINAL_PARAMS, AcceptanceThresholds(),
                                self.T_LIMIT)
        assert not out.accepted
        assert out.singular
        assert out.error is None

    def test_poor_controller_rejected(self):
        out = validate_solution(self.make_solution([0.1, 0.1, -0.1, -0.1]),
                                PROBLEM, NOMINAL_PARAMS, AcceptanceThresholds(),
                                self.T_LIMIT)
        assert not out.accepted
        assert out.error is not None and out.error >= 1e-2

    def test_threshold_defaults(self):
        thr = AcceptanceThresholds()
        assert thr.e_max == 1e-2
        assert thr.t_max_ms == 130.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AcceptanceThresholds(e_max=0.0)

    def test_accepts_is_strict_and_needs_both_values(self):
        thr = AcceptanceThresholds(e_max=1e-2)
        assert thr.accepts(0.5e-2, 99.0, 100.0) is True
        assert not thr.accepts(1e-2, 99.0, 100.0)       # e must be below e_max
        assert not thr.accepts(0.5e-2, 100.0, 100.0)    # t must be inside
        assert not thr.accepts(None, 99.0, 100.0)
        assert not thr.accepts(0.5e-2, None, 100.0)
        assert thr.accepts(np.float64(0.5e-2), np.float64(1.0), 100.0) is True


def direct_projection(pattern, optics, x_grid):
    """Reference: the per-pixel coherent sum over the whole pattern at once."""
    coords = expand_pattern(pattern, optics.pixel_pitch)
    if len(coords) == 0:
        return optics.color_sign * np.zeros_like(x_grid)
    dx = x_grid[None, :] - coords[:, 0][:, None]
    r = np.hypot(dx, coords[:, 1][:, None])
    intensity = np.abs(psf_field(optics, r).sum(axis=0)) ** 2
    intensity *= optics.power / single_superpixel_peak(pattern.height, optics)
    return optics.color_sign * intensity


class TestMemoizedProjectionOracle:
    """Memoized superpixel fields reproduce the direct per-pixel summation."""

    PATTERNS = (DMDPattern(indices=[-6, 6]),                      # even
                DMDPattern(indices=[-8, 0, 8]),                   # odd
                DMDPattern(indices=[-3, 5, 11], symmetric=False))  # asymmetric

    @pytest.mark.parametrize("color", ["blue", "red"])
    @pytest.mark.parametrize("grid_step", ["coarse", "fine"])
    def test_matches_direct_sum(self, color, grid_step):
        optics = OpticsConfig(color=color)
        if grid_step == "fine":
            optics = replace(optics, grid_step=LATTICE.spacing / 256)
        ctx = make_context(optics, LATTICE, ZETA, 5)
        for height in (1, 12, 25):
            for base in self.PATTERNS:
                pattern = replace(base, height=height)
                for power in (0.0, 0.3, 1.0):
                    at_power = optics.with_power(power)
                    ref = direct_projection(pattern, at_power, ctx.grid)
                    got = project_intensity(pattern, at_power, ctx.grid,
                                            fields=ctx.fields)
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

                    total = lattice_profile(LATTICE, ZETA, ctx.grid) + ref
                    ref_bias = extract_biases(total, ctx).bias.array
                    first = realized_bias(pattern, power, ctx)
                    assert np.max(np.abs(first.bias.array - ref_bias)) \
                        <= 1e-12 * np.max(np.abs(ref_bias))
                    again = realized_bias(pattern, power, ctx)   # warm memo
                    assert np.array_equal(again.bias.array, first.bias.array)
                    assert np.array_equal(again.positions, first.positions)
                    assert np.array_equal(again.depths, first.depths)

    def test_memo_holds_one_field_per_superpixel(self):
        ctx = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        realized_bias(DMDPattern(indices=[-4, 4], height=3), 0.2, ctx)
        realized_bias(DMDPattern(indices=[-4, 0, 4], height=3), 0.7, ctx)
        assert sorted(ctx.fields) == [(-4, 3), (0, 3), (4, 3)]
        assert all(f.shape == ctx.grid.shape for f in ctx.fields.values())
        # rows by (index, |m|), m = 2 r - 2 at height 3; index 4 is a mirror view
        assert sorted(ctx.psf_rows) == [(-4, 0), (-4, 2), (0, 0), (0, 2)]
        assert all(r.shape == ctx.grid.shape for r in ctx.psf_rows.values())


class TestMemoScope:
    PATTERN = DMDPattern(indices=[-5, 5], height=6)

    def test_replace_starts_an_empty_memo(self):
        ctx = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        realized_bias(self.PATTERN, 0.3, ctx)
        assert ctx.fields
        other_optics = replace(ctx, optics=replace(ctx.optics, na=0.5))
        other_grid = replace(ctx, grid=ctx.grid[1:-1])
        for derived in (other_optics, other_grid):
            assert derived.fields == {}
            assert derived.fields is not ctx.fields

    def test_contexts_never_share_a_memo(self):
        a = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        b = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        assert a.fields is not b.fields
        realized_bias(self.PATTERN, 0.3, a)
        assert b.fields == {}

    def test_replaced_context_recomputes_its_fields(self):
        warm = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        realized_bias(self.PATTERN, 0.3, warm)
        optics = replace(warm.optics, fresnel_number=20.0)   # same grid, other phases
        derived = replace(warm, optics=optics)
        fresh = make_context(optics, LATTICE, ZETA, 5)
        assert np.array_equal(derived.grid, fresh.grid)
        got = realized_bias(self.PATTERN, 0.3, derived).bias.array
        assert np.array_equal(got, realized_bias(self.PATTERN, 0.3, fresh).bias.array)
        assert not np.array_equal(got, realized_bias(self.PATTERN, 0.3, warm).bias.array)

    @pytest.mark.parametrize("change", ["zeta", "grid"])
    def test_replaced_context_recomputes_its_lattice_and_windows(self, change):
        warm = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        realized_bias(self.PATTERN, 0.3, warm)
        if change == "zeta":
            fresh = make_context(OpticsConfig(), LATTICE, 12.0, 5)
            derived = replace(warm, zeta=12.0, params=fresh.params)
        else:                   # make_context has no grid argument
            grid = warm.grid[1:-1]
            fresh = ProjectionContext(optics=warm.optics, lattice=LATTICE,
                                      zeta=ZETA, params=warm.params, grid=grid,
                                      chain_sites=warm.chain_sites)
            derived = replace(warm, grid=grid)
        assert np.array_equal(derived.lattice_values, fresh.lattice_values)
        assert len(derived.windows) == len(fresh.windows) == 5
        for got, want in zip(derived.windows, fresh.windows):
            assert np.array_equal(got, want)
        changed = (not np.array_equal(derived.lattice_values, warm.lattice_values)
                   if change == "zeta" else
                   not np.array_equal(derived.windows[0], warm.windows[0]))
        assert changed
        got = realized_bias(self.PATTERN, 0.3, derived)
        want = realized_bias(self.PATTERN, 0.3, fresh)
        assert np.array_equal(got.bias.array, want.bias.array)
        assert np.array_equal(got.depths, want.depths)


    def test_replace_starts_an_empty_row_memo(self):
        ctx = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        realized_bias(self.PATTERN, 0.3, ctx)
        assert ctx.psf_rows
        for derived in (replace(ctx, optics=replace(ctx.optics, na=0.5)),
                        replace(ctx, grid=ctx.grid[1:-1])):
            assert derived.psf_rows == {}
            assert derived.psf_rows is not ctx.psf_rows

    def test_contexts_never_share_a_row_memo(self):
        a = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        b = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        assert a.psf_rows is not b.psf_rows
        realized_bias(self.PATTERN, 0.3, a)
        assert b.psf_rows == {}


class TestRowMemoOracle:
    """Fields built on warm memos (shared point-spread rows across heights,
    mirror fields) equal :func:`superpixel_field` with no memo, bit for bit."""

    INDICES = [i for i in range(-24, 25) if i]

    @pytest.mark.parametrize("color", ["blue", "red"])
    def test_warm_fields_equal_memo_less_fields(self, color):
        ctx = make_context(OpticsConfig(color=color), LATTICE, ZETA, 5)
        heights = list(range(1, 26))
        direct = {(i, h): superpixel_field(i, h, ctx.optics, ctx.grid)
                  for h in heights for i in self.INDICES}
        negative, positive = self.INDICES[:24], self.INDICES[24:]
        # ascending heights fill the negative fields first, descending ones
        # the positive fields, so the mirror views run both ways
        for order, halves in ((heights, ([self.INDICES],)),
                              (heights[::-1], ([positive], [negative]))):
            warm = replace(ctx)
            for height in order:
                for half in halves:
                    pattern_intensities(half, height, warm.optics, warm.grid,
                                        fields=warm.fields, psf_rows=warm.psf_rows)
            assert warm.fields.keys() == direct.keys()
            for key, want in direct.items():
                assert np.array_equal(warm.fields[key], want), (order[0], key)
            # one side is evaluated, the other is its reversed view
            assert sum(f.base is not None for f in warm.fields.values()) == 24 * 25
            # one point-spread row per evaluated index and |2 r - (height - 1)|
            assert len(warm.psf_rows) == 24 * 25

    def test_no_mirror_off_a_symmetric_grid(self):
        ctx = CTX_RED
        grid = ctx.grid + ctx.step / 3
        assert not np.array_equal(grid[::-1], -grid)
        rows = [[-9, -4, 4, 9], [-7, -2, 3, 7]]
        fields, psf_rows = {}, {}
        for height in (4, 2, 5, 1):
            got = pattern_intensities(rows, height, ctx.optics, grid,
                                      fields=fields, psf_rows=psf_rows)
            for row, intensity in zip(rows, got):
                want = np.zeros(len(grid), dtype=complex)
                for index in row:
                    want += superpixel_field(index, height, ctx.optics, grid)
                assert np.array_equal(intensity, np.abs(want) ** 2), (height, row)
        assert all(f.base is None for f in fields.values())
        for (index, height), value in fields.items():
            assert np.array_equal(
                value, superpixel_field(index, height, ctx.optics, grid))


def reference_realized_bias(pattern, power, ctx, fields):
    """The forward model restated step by step, in the order it must keep.

    Returns (biases, positions, depths), or raises ExtractionError.
    `fields` is this reference's own superpixel-field memo.
    """
    optics = ctx.optics.with_power(power)
    x = ctx.grid
    field = np.zeros(len(x), dtype=complex)
    for index in pattern.indices:                     # memo fields, in index order
        key = (index, pattern.height)
        if key not in fields:
            fields[key] = superpixel_field(index, pattern.height, optics, x)
        field += fields[key]
    intensity = np.abs(field) ** 2
    if pattern.indices:
        intensity *= optics.power / single_superpixel_peak(pattern.height, optics)
    projection = optics.color_sign * intensity
    lattice = ctx.zeta * np.cos(2 * ctx.lattice.wavenumber * x + ctx.lattice.phase)
    v = lattice + projection
    positions, depths = [], []
    for xm in ctx.chain_sites:                        # the three-point parabola
        sel = np.nonzero(np.abs(x - xm) <= ctx.lattice.spacing / 2)[0]
        i = int(np.argmin(v[sel]))
        if i == 0 or i == len(sel) - 1:
            raise ExtractionError("minimum on a window edge")
        j = sel[i]
        vm, v0, vp = v[j - 1], v[j], v[j + 1]
        curv = vm - 2 * v0 + vp
        if curv <= 0:
            raise ExtractionError("degenerate curvature")
        positions.append(x[j] + 0.5 * (vm - vp) / curv * float(x[1] - x[0]))
        depths.append(v0 - (vm - vp) ** 2 / (8 * curv))
    return np.diff(depths) / ctx.params.U, np.array(positions), np.array(depths)


class TestChainGridOracle:
    """The chain grid covers the chain sites' periods only.  The same grid
    widened by 3 first-null radii of the point-spread function gives the
    same biases and depths bit for bit: the fields are evaluated pointwise,
    and the extraction reads only the chain windows."""

    PATTERNS = ([-5, 5], [-9, -3, 3, 9], [-12, -7, -2, 2, 7, 12])
    POWERS = (0.05, 0.5, 40.0)          # 40 destroys a well in most cells

    @staticmethod
    def widened(ctx):
        """`ctx` on the chain grid padded by 3.8317 lambda / (2 pi NA) thrice."""
        optics, sites = ctx.optics, ctx.chain_sites
        pad = 3 * 3.8317 * optics.wavelength / (2 * np.pi * optics.na)
        half = max(abs(sites[0]), abs(sites[-1])) + LATTICE.spacing / 2 + pad
        n = int(np.ceil(half / optics.grid_step))
        grid = np.arange(-n, n + 1) * optics.grid_step
        inner = (len(ctx.grid) - 1) // 2
        assert np.array_equal(grid[n - inner:n + inner + 1], ctx.grid)
        return replace(ctx, grid=grid)

    @staticmethod
    def bias_rows(pattern, powers, ctx):
        values = [ctx.lattice_values + project_intensity(
            pattern, ctx.optics.with_power(p), ctx.grid) for p in powers]
        return extract_bias_rows(np.array(values), ctx)

    @pytest.mark.parametrize("color", ["blue", "red"])
    def test_widened_grid_gives_the_same_wells(self, color):
        chain = make_context(OpticsConfig(color=color), LATTICE, ZETA, 5)
        wide = self.widened(chain)
        for near, far in zip(chain.windows, wide.windows):
            assert np.array_equal(chain.grid[near], wide.grid[far])
        lost = 0
        for height in (1, 2, 25):
            for indices in self.PATTERNS:
                pattern = DMDPattern(indices, height=height)
                rows = self.bias_rows(pattern, self.POWERS, chain)
                assert np.array_equal(rows, self.bias_rows(pattern, self.POWERS, wide),
                                      equal_nan=True)
                lost += int(np.isnan(rows).any())
                for power in self.POWERS:
                    try:
                        got = realized_bias(pattern, power, chain)
                    except ExtractionError as exc:
                        with pytest.raises(ExtractionError, match=str(exc)):
                            realized_bias(pattern, power, wide)
                        continue
                    want = realized_bias(pattern, power, wide)
                    assert np.array_equal(got.bias.array, want.bias.array)
                    assert np.array_equal(got.depths, want.depths)
                    assert np.max(np.abs(got.positions - want.positions)) \
                        <= 1e-12 * LATTICE.spacing
        assert lost > 0                 # the lost-well path is exercised


class TestClosedFormSlopeOracle:
    """The depth and bias slopes of one extraction (`_well_minima` with
    tangents, `extract_bias_slopes`) are the derivatives of the extraction
    along the tangent: central differences of the depths and of
    `extract_bias_rows` agree to relative 1e-6.  The rows are projections
    of both colours along their power, and rows whose grid minimum sits
    next to a window edge."""

    H = 1e-4                            # the central difference's half step

    @staticmethod
    def projection_rows(ctx):
        """(potentials, dv/dp) of three patterns at three heights and three
        powers, on `ctx`."""
        values, tangents = [], []
        for height in (2, 10, 25):
            peak = single_superpixel_peak(height, ctx.optics)
            for indices in ([-5, 5], [-9, -3, 3, 9], [-12, -2, 0, 2, 12]):
                unit = pattern_intensities([indices], height, ctx.optics,
                                           ctx.grid)[0]
                tangent = ctx.optics.color_sign * unit / peak
                for power in (0.05, 0.3, 0.8):
                    values.append(ctx.lattice_values + power * tangent)
                    tangents.append(tangent)
        return np.array(values), np.array(tangents)

    @staticmethod
    def edge_rows(ctx):
        """(potentials, tangents) of rows that each carry one narrow dip,
        deeper than the lattice, 1.3 grid steps inside one end of one chain
        window, so that the window's grid minimum is its second or its last
        but one point; the tangent is a smooth wave."""
        starts, lens, _, _ = ctx.window_gather
        x, step = ctx.grid, ctx.step
        tangent = np.cos(3e6 * x) + 0.5 * np.sin(7e6 * x + 0.4)
        values, tangents = [], []
        for start, n in zip(starts, lens):
            for centre in (start + 1.3, start + n - 2.3):
                dip = -4 * ZETA * np.exp(-0.5 * ((x - x[0]) / step - centre) ** 2
                                         / 0.7 ** 2)
                values.append(ctx.lattice_values + dip)
                tangents.append(tangent)
        return np.array(values), np.array(tangents)

    def check(self, values, tangents, ctx):
        """Compare the closed-form slopes of every row with central
        differences; returns the rows' grid-minimum offsets in their windows."""
        _, depths, slopes = optics._well_minima(values, ctx, tangents)
        _, lo, _ = optics._well_minima(values - self.H * tangents, ctx)
        _, hi, _ = optics._well_minima(values + self.H * tangents, ctx)
        assert not np.isnan(depths).any()
        np.testing.assert_allclose(slopes, (hi - lo) / (2 * self.H), rtol=1e-6)
        biases, bias_slopes = extract_bias_slopes(values, tangents, ctx)
        assert np.array_equal(biases, extract_bias_rows(values, ctx))
        central = (extract_bias_rows(values + self.H * tangents, ctx)
                   - extract_bias_rows(values - self.H * tangents, ctx)) / (2 * self.H)
        np.testing.assert_allclose(bias_slopes, central, rtol=1e-6)
        starts, lens, index, pad = ctx.window_gather
        block = values[:, index]
        block[:, pad] = np.inf
        return np.argmin(block, axis=2), lens

    @pytest.mark.parametrize("color", ["blue", "red"])
    def test_projection_slopes_match_central_differences(self, color):
        ctx = make_context(OpticsConfig(color=color), LATTICE, ZETA, 5)
        self.check(*self.projection_rows(ctx), ctx)

    def test_slopes_next_to_a_window_edge(self):
        values, tangents = self.edge_rows(CTX_BLUE)
        i, lens = self.check(values, tangents, CTX_BLUE)
        for k, row in enumerate(i):                 # one dip per row, in turn
            assert row[k // 2] == (1, lens[k // 2] - 2)[k % 2]

    def test_lost_well_has_no_slope(self):
        values, tangents = self.projection_rows(CTX_BLUE)
        values[0, CTX_BLUE.windows[2][0]] = -10 * ZETA    # a minimum on an edge
        biases, slopes = extract_bias_slopes(values[:1], tangents[:1], CTX_BLUE)
        assert np.isnan(biases).any() and not np.isnan(biases).all()
        assert np.array_equal(np.isnan(slopes), np.isnan(biases))


class TestSameBytesForwardModel:
    """realized_bias keeps every bit of the step-by-step forward model."""

    def test_matches_reference_steps(self):
        rng = np.random.default_rng(2027)
        contexts = {"blue": make_context(OpticsConfig(), LATTICE, ZETA, 5),
                    "red": make_context(OpticsConfig(color="red"), LATTICE, ZETA, 5)}
        memos = {"blue": {}, "red": {}}
        failures = 0
        for _ in range(600):
            color = ("blue", "red")[int(rng.integers(2))]
            half = rng.choice(np.arange(1, 25), int(rng.integers(0, 4)),
                              replace=False).tolist()
            centre = [0] if rng.random() < 0.5 else []
            pattern = DMDPattern(indices=[-i for i in half] + centre + half,
                                 height=int(rng.integers(1, 26)))
            power = float(10 ** rng.uniform(-2, 2))
            try:
                want = reference_realized_bias(pattern, power, contexts[color],
                                               memos[color])
            except ExtractionError:
                want = None
            try:
                result = realized_bias(pattern, power, contexts[color])
                got = (result.bias.array, result.positions, result.depths)
            except ExtractionError:
                got = None
            assert (got is None) == (want is None), (color, pattern, power)
            if want is None:
                failures += 1
                continue
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (color, pattern, power)
        assert 50 <= failures <= 550        # both outcomes are exercised


class TestErrorPaths:
    """Projection and extraction errors surface through realized_bias."""

    def test_extraction_penalty_after_warm_memo(self):
        ctx = make_context(OpticsConfig(), LATTICE, ZETA, 5)
        pattern = DMDPattern(indices=[0], height=25)
        target = BiasVector([0.1, 0.1, -0.1, -0.1])
        realized_bias(pattern, 0.01, ctx)
        with pytest.raises(ExtractionError, match="well of site 3"):
            realized_bias(pattern, 40.0, ctx)
        assert dmd_objective(pattern, 40.0, target, ctx) \
            == pytest.approx(10.0 + np.linalg.norm(target.array))


def record_profiled(monkeypatch):
    """The list that receives every pattern the search profiles, in order."""
    profiled = []
    intensities = dmdopt.pattern_intensities

    def recorded(rows, height, *args, **kwargs):
        profiled.extend(DMDPattern(indices=row, height=height) for row in rows.tolist())
        return intensities(rows, height, *args, **kwargs)

    monkeypatch.setattr(dmdopt, "pattern_intensities", recorded)
    return profiled


def reference_steps(config):
    """The (index rows, height) batches of a search of `config`: counts in
    order, then heights in order, each height's strictly increasing half
    patterns in lexicographic order, cut every `_CHUNK_ROWS` rows.  A row
    is mirror, centre (odd counts), half."""
    size = dmdopt._CHUNK_ROWS
    steps = []
    for count in config.counts:
        halves = sorted(h for h in product(range(1, config.index_span + 1),
                                           repeat=count // 2)
                        if all(a < b for a, b in zip(h, h[1:])))
        rows = [[-i for i in h[::-1]] + [0] * (count % 2) + list(h) for h in halves]
        steps += [(rows[i:i + size], height) for height in config.heights
                  for i in range(0, len(rows), size)]
    return steps


def stand_in_search(monkeypatch, config):
    """`optimize_pattern` of `config` on a stand-in projection and profile,
    whose values tie often, so that the first minimum differs from the
    last; nothing is projected until the best pattern's biases.

    A row's stand-in intensity is its half's index sum plus 3 x its
    height; that total over 100 is its power, and (7 x total) mod 5 its
    value.  Returns (solution, the (rows, height) of every batch)."""
    steps = []

    def rows(index_rows, height, optics, grid, fields, psf_rows):
        steps.append((index_rows.tolist(), height))
        return np.abs(index_rows).sum(axis=1) // 2 + 3 * height

    def profile(unit, peak, target, ctx, p_lo, p_hi):
        return unit / 100.0, ((unit * 7) % 5).astype(float)

    monkeypatch.setattr(dmdopt, "pattern_intensities", rows)
    monkeypatch.setattr(dmdopt, "_profile_power", profile)
    return optimize_pattern(config, CTX_BLUE), steps


def stand_in_log(steps):
    """The (pattern, power, value) of every row of `steps`, in order, under
    the stand-in of :func:`stand_in_search`."""
    out = []
    for chunk, height in steps:
        for row in chunk:
            total = sum(i for i in row if i > 0) + 3 * height
            out.append((DMDPattern(indices=row, height=height), total / 100.0,
                        float((total * 7) % 5)))
    return out


class TestDrawStreams:
    """The search steps through each space as the reference does, chunk by
    chunk, logs every value in that order, and keeps the first minimum."""

    # half patterns of 0 to 3 superpixels, with and without the centre
    SPACES = [DMDOptimConfig(target=LONG_SEARCH, color="blue", counts=(count,),
                             heights=heights, index_span=span)
              for count in (1, 2, 5, 6)
              for heights in ((1,), tuple(range(1, 26)))
              for span in (24, 10, 5)]

    @pytest.mark.parametrize("space", SPACES)
    def test_search_steps_match_reference(self, monkeypatch, space):
        want = reference_steps(space)
        assert [(rows.tolist(), height)
                for rows, height in dmdopt._batches(space)] == want
        solution, steps = stand_in_search(monkeypatch, space)
        assert steps == want            # one projection per batch, in order
        rows = stand_in_log(want)
        assert solution.evaluations == tuple(value for _, _, value in rows)
        first = int(np.argmin(solution.evaluations))
        assert (solution.pattern, solution.power, solution.objective) == rows[first]


class TestOrderAcrossCounts:
    """Counts are searched in order, each as it is searched alone, and a
    tie between two counts goes to the earlier one."""

    def test_counts_in_order_and_ties_to_the_earlier(self, monkeypatch):
        config = DMDOptimConfig(target=LONG_SEARCH, color="blue", counts=(1, 2, 3),
                                heights=(1, 2), index_span=6)
        alone = [replace(config, counts=(count,)) for count in config.counts]
        want = [step for one in alone for step in reference_steps(one)]
        assert [(rows.tolist(), height)
                for rows, height in dmdopt._batches(config)] == want
        logs = [stand_in_search(monkeypatch, one)[0].evaluations for one in alone]
        solution, steps = stand_in_search(monkeypatch, config)
        assert steps == want
        assert solution.evaluations == sum(logs, ())
        # the minimum, 0, is reached by counts 2 and 3 (the same half at
        # the same height), not by count 1; count 2 wins
        assert [min(log) for log in logs] == [1.0, 0.0, 0.0]
        first = stand_in_log(want)[int(np.argmin(solution.evaluations))]
        assert first[0] == DMDPattern(indices=[-2, 2], height=1)
        assert (solution.pattern, solution.power, solution.objective) == first


class TestBudget:
    """`budget` caps a search's cost: a space past it, inside its cap, is
    still profiled whole, each pattern once."""

    def test_budget_spent_on_distinct_points(self, monkeypatch):
        # 10 half indices x 2 heights hold 20 patterns per count, 40 in all,
        # more than the budget of 32 and less than its cap
        profiles = record_profiled(monkeypatch)
        target = realized_bias(DMDPattern(indices=[-3, 3], height=2), 0.3,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(1, 2),
                                counts=(2, 3), index_span=10, budget=32)
        solution = optimize_pattern(config, CTX_BLUE)
        for count in (2, 3):
            runs = [p for p in profiles if p.count == count]
            assert runs == enumeration_order(count, (1, 2), 10)
            assert len(set(runs)) == 20
        assert len(profiles) == len(solution.evaluations) == 40
        assert solution.objective == min(solution.evaluations)
        assert solution.pattern == profiles[int(np.argmin(solution.evaluations))]


class TestOneHeightPerBatch:
    """Every profile batch holds one height, at a budget below the size of
    the space and at one equal to it."""

    @pytest.mark.parametrize("budget", [100, 200])
    def test_every_batch_gets_one_height_position(self, monkeypatch, budget):
        # count 2 at span 8 over heights 1..25 holds 200 patterns; budget
        # 100 is only a cost cap, so the search is the same at both
        calls = []
        intensities = dmdopt.pattern_intensities

        def recorded(rows, height, *args, **kwargs):
            calls.append((height, len(rows)))
            return intensities(rows, height, *args, **kwargs)

        monkeypatch.setattr(dmdopt, "pattern_intensities", recorded)
        config = DMDOptimConfig(target=LONG_SEARCH, color="blue",
                                heights=tuple(range(1, 26)), counts=(2,),
                                index_span=8, budget=budget)
        solution = optimize_pattern(config, CTX_BLUE)
        assert all(type(height) is int for height, _ in calls)
        assert sum(rows for _, rows in calls) == len(solution.evaluations) == 200
        # one batch of the 8 half patterns per height, heights in order
        assert calls == [(height, 8) for height in range(1, 26)]


class TestSharedBlockOracle:
    """A search of several targets on shared P₁ blocks returns, for each
    target, the solution and evaluation log of its own search, bit for bit,
    and builds each block once."""

    #: The first stage-1 target of the `pattern-fanout` workload at
    #: pipeline seed 54, antisymmetrized.
    FANOUT_54 = BiasVector([0.14526603628072388, 0.9177208640992446,
                            -0.9177208640992446, -0.14526603628072388])

    @pytest.mark.parametrize("color", ["blue", "red"])
    def test_shared_search_equals_one_search_per_target(self, monkeypatch, color):
        ctx = make_context(OpticsConfig(color=color), LATTICE, ZETA, 5)
        # both flips of two targets; count 4 at span 24 takes two chunks
        targets = [BiasVector(flip * target.array)
                   for target in (LONG_SEARCH, self.FANOUT_54)
                   for flip in (1.0, -1.0)]
        config = DMDOptimConfig(color=color, counts=(3, 4), heights=(2, 25),
                                index_span=24, budget=600)
        alone = [optimize_pattern(replace(config, target=target), ctx)
                 for target in targets]
        profiled = record_profiled(monkeypatch)
        shared = optimize_pattern(config, ctx, targets)
        assert len(profiled) == len(alone[0].evaluations)   # each block once
        assert len(shared) == len(targets)
        for one, other in zip(shared, alone):
            assert one.to_dict() == other.to_dict()
            assert one.evaluations == other.evaluations
        assert len({s.pattern for s in shared}) > 1         # the targets differ

    def test_one_target_returns_its_solution(self):
        config = DMDOptimConfig(target=LONG_SEARCH, color="blue", counts=(2,),
                                heights=(4,), index_span=10, budget=20)
        [shared] = optimize_pattern(replace(config, target=None), CTX_BLUE,
                                    [LONG_SEARCH])
        assert shared == optimize_pattern(config, CTX_BLUE)
        with pytest.raises(ValueError, match="target must be set"):
            optimize_pattern(config, CTX_BLUE, [LONG_SEARCH, None])


def test_unhostable_count_fails_before_any_search(monkeypatch):
    # span 10 hosts count 2 but not count 50; at budget 1, count 6 holds
    # C(10, 3) = 120 patterns, past the cap of 64; nothing is profiled
    def no_profile(*args):
        raise AssertionError("a bad count must fail before any search")

    monkeypatch.setattr(dmdopt, "_profile_power", no_profile)
    for counts, budget, match in [
            ((2, 50), 20, "cannot host 25"),
            ((2, 6), 1, "count 6 over 1 height.* 120 patterns, more than the cap of 64")]:
        config = DMDOptimConfig(target=LONG_SEARCH, color="blue", heights=(4,),
                                counts=counts, index_span=10, budget=budget)
        with pytest.raises(ValueError, match=match):
            optimize_pattern(config, CTX_BLUE)


class TestSinglePatternSpace:
    """A space of one pattern is profiled once."""

    @pytest.mark.parametrize("count,index_span", [(1, 24), (2, 1)])
    def test_returns_after_one_profile(self, monkeypatch, count, index_span):
        profiles = record_profiled(monkeypatch)
        target = realized_bias(DMDPattern(indices=[-1, 1], height=4), 0.3,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(4,),
                                counts=(count,), index_span=index_span,
                                budget=50)
        solution = optimize_pattern(config, CTX_BLUE)
        assert len(profiles) == 1
        assert len(solution.evaluations) == 1
        assert solution.pattern.count == count
        assert solution.objective == min(solution.evaluations)
