from collections import Counter
from itertools import combinations
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.spatial.distance import cdist

from spinscape import dmdopt
from spinscape.lattice import BiasVector, LatticeConfig, NOMINAL_PARAMS
from spinscape.dynamics import TransferProblem
from spinscape.optics import (DMDPattern, ExtractionError, GridMarginError,
                              OpticsConfig, PatternOverlapError, expand_pattern,
                              extract_biases, lattice_profile, pattern_intensities,
                              project_intensity, psf_field, single_superpixel_peak,
                              superpixel_field)
from spinscape.dmdopt import (AcceptanceThresholds, DMDOptimConfig, DMDSolution,
                              ProjectionContext, _CubicRBF, _SearchSpace,
                              dmd_objective, make_context, optimize_pattern,
                              realized_bias, validate_solution)
from spinscape.dmdopt import (_MAX_TRAIN, _draw_candidates, _lhs_seed,
                              _repair_half)

LATTICE = LatticeConfig(depth=10.0)
ZETA = 10.0
CTX_BLUE = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
CTX_RED = make_context(OpticsConfig.red(), LATTICE, ZETA, 5)
PROBLEM = TransferProblem()


def profile_one(pattern, target, ctx, p_lo, p_hi):
    """`_profile_power` of one pattern, as a batch of one row: (power, value)."""
    unit = pattern_intensities([pattern.indices], pattern.height, pattern.width,
                               ctx.optics, ctx.grid, fields=ctx.fields)
    peak = single_superpixel_peak(pattern, ctx.optics)
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


def no_surrogate(monkeypatch):
    def refuse(*args):
        raise AssertionError("a space that fits its share is enumerated")

    monkeypatch.setattr(dmdopt, "_CubicRBF", refuse)
    monkeypatch.setattr(dmdopt, "_draw_candidates", refuse)


class TestSpentSpaceOracle:
    """A space no larger than its share is enumerated: the search profiles
    every pattern, in batches, and its best is the optimum of every
    pattern's profile taken one pattern at a time.  It generalizes
    `exhaustive_pair_optimum` to any count and height set."""

    @pytest.mark.parametrize("color,count,heights,span", [
        ("blue", 4, (3,), 12),               # 66 patterns
        ("red", 3, (7,), 10),
        ("blue", 2, (1, 2, 3, 4, 5), 8),
        ("red", 4, (25,), 10),
    ])
    def test_search_best_is_enumerated_optimum(self, monkeypatch, color, count,
                                               heights, span):
        no_surrogate(monkeypatch)
        ctx = {"blue": CTX_BLUE, "red": CTX_RED}[color]
        patterns = enumeration_order(count, heights, span)
        profiles = [profile_one(pattern, LONG_SEARCH, ctx, 0.0, 1.0)
                    for pattern in patterns]
        values = [v for _, v in profiles]
        best = int(np.argmin(values))
        for seed in range(3):
            config = DMDOptimConfig(target=LONG_SEARCH, color=color,
                                    heights=heights, counts=(count,),
                                    index_span=span, budget=200, seed=seed)
            solution = optimize_pattern(config, ctx)
            assert len(solution.evaluations) == len(patterns)
            assert solution.evaluations == tuple(values)
            assert solution.objective == min(values)
            assert solution.pattern == patterns[best]
            assert solution.power == profiles[best][0]


class TestEnumerationCrossover:
    """A count is enumerated when its space fits its share of the budget,
    `max(budget // len(counts), 8)`, and searched by the surrogate above."""

    @pytest.mark.parametrize("budget", [56, 54])
    def test_surrogate_runs_one_pattern_past_the_share(self, monkeypatch, budget):
        # span 8 at one height: count 2 holds 8 patterns and count 4 holds
        # 28; the share is 28 at budget 56, and 27 at budget 54
        fits = []

        class Recorded(_CubicRBF):
            def __init__(self, x, y):
                super().__init__(x, y)
                fits.append(len(y))

        monkeypatch.setattr(dmdopt, "_CubicRBF", Recorded)
        config = DMDOptimConfig(target=LONG_SEARCH, color="red", heights=(9,),
                                counts=(2, 4), index_span=8, budget=budget, seed=1)
        solution = optimize_pattern(config, CTX_RED)
        if budget == 56:
            assert not fits
            assert len(solution.evaluations) == 8 + 28
        else:
            assert fits
            assert len(solution.evaluations) == 8 + 27
        first = [profile_one(pattern, LONG_SEARCH, CTX_RED, 0.0, 1.0)[1]
                 for pattern in enumeration_order(2, (9,), 8)]
        assert solution.evaluations[:8] == tuple(first)   # count 2 is enumerated
        assert solution.objective == min(solution.evaluations)


class TestBatchedProjectionOracle:
    """Every row an enumeration profiles is `project_intensity` of its
    pattern, bit for bit, and the rows fill `ctx.fields` under its keys."""

    @pytest.mark.parametrize("color", ["blue", "red"])
    @pytest.mark.parametrize("count", [4, 3])
    def test_enumerated_rows_equal_project_intensity(self, monkeypatch, color, count):
        optics = OpticsConfig.blue() if color == "blue" else OpticsConfig.red()
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
    intensity *= optics.power / single_superpixel_peak(pattern, optics)
    return optics.color_sign * intensity


class TestMemoizedProjectionOracle:
    """Memoized superpixel fields reproduce the direct per-pixel summation."""

    PATTERNS = (DMDPattern(indices=[-6, 6]),                      # even
                DMDPattern(indices=[-8, 0, 8]),                   # odd
                DMDPattern(indices=[-3, 5, 11], symmetric=False))  # asymmetric

    @pytest.mark.parametrize("color", ["blue", "red"])
    @pytest.mark.parametrize("grid_step", ["coarse", "fine"])
    def test_matches_direct_sum(self, color, grid_step):
        optics = OpticsConfig.blue() if color == "blue" else OpticsConfig.red()
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
        ctx = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        realized_bias(DMDPattern(indices=[-4, 4], height=3), 0.2, ctx)
        realized_bias(DMDPattern(indices=[-4, 0, 4], height=3), 0.7, ctx)
        assert sorted(ctx.fields) == [(-4, 3, 1), (0, 3, 1), (4, 3, 1)]
        assert all(f.shape == ctx.grid.shape for f in ctx.fields.values())


class TestMemoScope:
    PATTERN = DMDPattern(indices=[-5, 5], height=6)

    def test_replace_starts_an_empty_memo(self):
        ctx = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        realized_bias(self.PATTERN, 0.3, ctx)
        assert ctx.fields
        other_optics = replace(ctx, optics=replace(ctx.optics, na=0.5))
        other_grid = replace(ctx, grid=ctx.grid[1:-1])
        for derived in (other_optics, other_grid):
            assert derived.fields == {}
            assert derived.fields is not ctx.fields

    def test_contexts_never_share_a_memo(self):
        a = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        b = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        assert a.fields is not b.fields
        realized_bias(self.PATTERN, 0.3, a)
        assert b.fields == {}

    def test_replaced_context_recomputes_its_fields(self):
        warm = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
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
        warm = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        realized_bias(self.PATTERN, 0.3, warm)
        if change == "zeta":
            fresh = make_context(OpticsConfig.blue(), LATTICE, 12.0, 5)
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


def reference_realized_bias(pattern, power, ctx, fields):
    """The forward model restated step by step, in the order it must keep.

    Returns (biases, positions, depths), or raises ExtractionError.
    `fields` is this reference's own superpixel-field memo.
    """
    optics = ctx.optics.with_power(power)
    x = ctx.grid
    field = np.zeros(len(x), dtype=complex)
    for index in pattern.indices:                     # memo fields, in index order
        key = (index, pattern.height, pattern.width)
        if key not in fields:
            fields[key] = superpixel_field(index, pattern.height, pattern.width,
                                           optics, x)
        field += fields[key]
    intensity = np.abs(field) ** 2
    if pattern.indices:
        intensity *= optics.power / single_superpixel_peak(pattern, optics)
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


class TestSameBytesForwardModel:
    """realized_bias keeps every bit of the step-by-step forward model."""

    def test_matches_reference_steps(self):
        rng = np.random.default_rng(2027)
        contexts = {"blue": make_context(OpticsConfig.blue(), LATTICE, ZETA, 5),
                    "red": make_context(OpticsConfig.red(), LATTICE, ZETA, 5)}
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

    def test_overlap(self):
        ctx = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        wide = DMDPattern(indices=[-1, 1], width=3)
        with pytest.raises(PatternOverlapError):
            realized_bias(wide, 0.5, ctx)
        assert ctx.fields == {}

    def test_grid_margin(self):
        ctx = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        cramped = replace(ctx, grid=ctx.grid[100:-100])
        with pytest.raises(GridMarginError):
            realized_bias(DMDPattern(indices=[0]), 0.5, cramped)

    def test_extraction_penalty_after_warm_memo(self):
        ctx = make_context(OpticsConfig.blue(), LATTICE, ZETA, 5)
        pattern = DMDPattern(indices=[0], height=25)
        target = BiasVector([0.1, 0.1, -0.1, -0.1])
        realized_bias(pattern, 0.01, ctx)
        with pytest.raises(ExtractionError, match="well of site 3"):
            realized_bias(pattern, 40.0, ctx)
        assert dmd_objective(pattern, 40.0, target, ctx) \
            == pytest.approx(10.0 + np.linalg.norm(target.array))


def broadcast_distances(a, b):
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


class ReferenceCubicRBF:
    """The surrogate as fitted with broadcast distance matrices."""

    def __init__(self, x, y):
        n, d = x.shape
        phi = broadcast_distances(x, x) ** 3
        p = np.column_stack([np.ones(n), x])
        a = np.zeros((n + d + 1, n + d + 1))
        a[:n, :n] = phi + 1e-12 * np.eye(n)
        a[:n, n:] = p
        a[n:, :n] = p.T
        rhs = np.concatenate([y, np.zeros(d + 1)])
        coef = np.linalg.solve(a, rhs)
        self.x = x
        self.weights = coef[:n]
        self.tail = coef[n:]

    def __call__(self, q):
        vals = (broadcast_distances(q, self.x) ** 3) @ self.weights
        return vals + self.tail[0] + q @ self.tail[1:]


class TestSurrogateEquivalence:
    """The cdist path is bit-for-bit the broadcast-norm path it replaced."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_cdist_equals_broadcast_norm(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            a = rng.uniform(size=(int(rng.integers(1, 60)), dim))
            b = rng.uniform(size=(int(rng.integers(1, 60)), dim))
            assert np.array_equal(cdist(a, b), broadcast_distances(a, b))
            assert np.array_equal(cdist(a, a), broadcast_distances(a, a))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_rbf_reproduces_reference(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            x = rng.uniform(size=(50, dim))
            y = rng.normal(size=50)
            q = rng.uniform(size=(120, dim))
            new, ref = _CubicRBF(x, y), ReferenceCubicRBF(x, y)
            assert np.array_equal(new.weights, ref.weights)
            assert np.array_equal(new.tail, ref.tail)
            assert np.array_equal(new(q), ref(q))

    @pytest.mark.parametrize("heights,n_half", [((1,), 1), ((1,), 0),
                                                (tuple(range(1, 26)), 2)])
    def test_embed_rows_match_pointwise_embedding(self, heights, n_half):
        space = _SearchSpace(n_half=n_half, include_center=False, span=24,
                             heights=heights)
        rng = np.random.default_rng(n_half)
        halves = np.array([sorted(rng.choice(np.arange(1, 25), n_half, replace=False))
                           for _ in range(30)], dtype=np.int64).reshape(30, n_half)
        positions = rng.integers(0, len(heights), 30)
        rows = space.embed_arrays(halves, positions)
        assert rows.shape == (30, space.dim)
        for row, half, pos in zip(rows, halves, positions):
            coords = list(half / space.span)
            if len(heights) > 1:
                coords.append(pos / (len(heights) - 1))
            assert np.array_equal(row, np.array(coords))


@pytest.mark.parametrize("heights", [(1,), (2, 5)])
def test_pinned_half_pattern_is_not_embedded(heights):
    space = _SearchSpace(n_half=2, include_center=False, span=2, heights=heights)
    halves = np.array([[1, 2], [1, 2]])
    positions = np.array([0, len(heights) - 1])
    rows = space.embed_arrays(halves, positions)
    assert space.dim == rows.shape[1] == len(heights) - 1
    if len(heights) > 1:
        assert np.array_equal(rows[:, -1], [0.0, 1.0])


def reference_lhs_seed(space, n0, rng):
    points = []
    h_perm = rng.permutation(n0)
    for s in range(n0):
        half = _repair_half(rng.integers(1, space.span + 1, space.n_half), space.span, rng)
        hpos = int(h_perm[s] * len(space.heights) / n0)
        points.append((half, space.heights[hpos]))
    return points


def reference_perturb(half, height, space, rng):
    max_step = max(1, round(space.span / 6))
    new_half = list(half)
    changed = False
    for k in range(len(new_half)):
        if rng.uniform() < 0.5:
            step = int(rng.integers(1, max_step + 1)) * (1 if rng.uniform() < 0.5 else -1)
            new_half[k] += step
            changed = True
    if not changed and new_half:
        k = int(rng.integers(0, len(new_half)))
        new_half[k] += 1 if rng.uniform() < 0.5 else -1
    new_height = height
    if rng.uniform() < 0.5 and len(space.heights) > 1:
        pos = space.heights.index(height) + int(rng.integers(1, 3)) \
            * (1 if rng.uniform() < 0.5 else -1)
        new_height = space.heights[min(max(pos, 0), len(space.heights) - 1)]
    return _repair_half(new_half, space.span, rng), new_height


def reference_random_point(space, rng):
    half = _repair_half(rng.integers(1, space.span + 1, space.n_half),
                        space.span, rng)
    hpos = int(rng.integers(0, len(space.heights)))
    return half, space.heights[hpos]


class TestDrawStreams:
    """The search seeds from the reference stream; its steps draw as the reference does."""

    SPACES = [_SearchSpace(n_half=n_half, include_center=False, span=span,
                           heights=heights)
              for n_half in range(4)
              for heights in ((1,), tuple(range(1, 26)))
              for span in (24, 10, 5)]

    @pytest.mark.parametrize("space", SPACES)
    def test_search_steps_match_reference(self, space):
        # the Latin-hypercube seeding step, exactly and to the stream state
        for seed in range(25):
            new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            n0 = 6 + seed % 7
            halves, positions = _lhs_seed(space, n0, new)
            assert halves.shape == (n0, space.n_half)
            got = [(tuple(h), space.heights[i])
                   for h, i in zip(halves.tolist(), positions.tolist())]
            assert got == reference_lhs_seed(space, n0, ref)
            assert new.bit_generator.state == ref.bit_generator.state

    # (space, incumbent (half, height)); every space has at most 25
    # (half, height) cells, so 20 000 draws resolve a 0.03 distance
    CASES = [
        (_SearchSpace(n_half=0, include_center=True, span=24,
                      heights=tuple(range(1, 26))),
         ((), 13)),
        (_SearchSpace(n_half=1, include_center=False, span=10, heights=(1,)),
         ((4,), 1)),
        (_SearchSpace(n_half=2, include_center=False, span=5, heights=(1,)),
         ((1, 5), 1)),
        (_SearchSpace(n_half=3, include_center=True, span=5, heights=(1,)),
         ((2, 3, 4), 1)),
    ]

    @pytest.mark.parametrize("space,incumbent", CASES)
    def test_candidates_match_reference_distribution(self, space, incumbent):
        n = 20_000
        half, height = incumbent
        halves, positions = _draw_candidates(
            (np.array(half, dtype=np.int64), space.heights.index(height)),
            space, n, np.random.default_rng(1))
        got = Counter(zip(map(tuple, halves.tolist()),
                          (space.heights[i] for i in positions)))

        rng = np.random.default_rng(2)
        want = Counter(reference_perturb(half, height, space, rng)
                       if rng.uniform() < 0.75 else reference_random_point(space, rng)
                       for _ in range(n))

        tv = sum(abs(got[c] - want[c]) for c in got.keys() | want.keys()) / (2 * n)
        assert tv <= 0.03


@st.composite
def draw_cases(draw):
    span = draw(st.integers(min_value=1, max_value=30))
    n_half = draw(st.integers(min_value=0, max_value=min(span, 4)))
    heights = tuple(range(1, draw(st.sampled_from([1, 2, 25])) + 1))
    space = _SearchSpace(n_half=n_half, include_center=False, span=span,
                         heights=heights)
    half = sorted(draw(st.lists(st.integers(min_value=1, max_value=span),
                                min_size=n_half, max_size=n_half, unique=True)))
    pos = draw(st.integers(min_value=0, max_value=len(heights) - 1))
    return (space, (np.array(half, dtype=np.int64), pos),
            draw(st.integers(min_value=1, max_value=300)),
            draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))


def edge_case(n_half, span, heights):
    space = _SearchSpace(n_half=n_half, include_center=False, span=span,
                         heights=heights)
    return space, (np.arange(1, n_half + 1), 0), 200, 3


@settings(max_examples=60, deadline=None)
@given(case=draw_cases())
@example(case=edge_case(3, 3, tuple(range(1, 26))))   # span == n_half
@example(case=edge_case(0, 24, tuple(range(1, 26))))  # no half indices
@example(case=edge_case(2, 5, (1,)))                  # a single height
@example(case=edge_case(1, 1, (1,)))
def test_draw_candidates_invariants(case):
    space, incumbent, n, seed = case
    drawn = _draw_candidates(incumbent, space, n, np.random.default_rng(seed))
    halves, positions = drawn
    assert halves.shape == (n, space.n_half) and halves.dtype.kind == "i"
    assert positions.shape == (n,)
    assert np.all((halves >= 1) & (halves <= space.span))
    assert np.all(np.diff(halves, axis=1) > 0)       # distinct and sorted
    assert np.all((positions >= 0) & (positions < len(space.heights)))
    again = _draw_candidates(incumbent, space, n, np.random.default_rng(seed))
    for a, b in zip(drawn, again):
        assert np.array_equal(a, b)


def record_profiled(monkeypatch):
    """The list that receives every pattern the search profiles, in order."""
    profiled = []
    intensities = dmdopt._SearchSpace.intensities

    def recorded(space, halves, pos, ctx):
        profiled.extend(space.pattern(h, pos) for h in halves)
        return intensities(space, halves, pos, ctx)

    monkeypatch.setattr(dmdopt._SearchSpace, "intensities", recorded)
    return profiled


class TestBudget:
    def test_budget_spent_on_distinct_points(self, monkeypatch):
        # 10 half indices x 2 heights hold 20 patterns per count, more than
        # the share of 16, and the draws keep repeating archived ones
        profiles = record_profiled(monkeypatch)
        target = realized_bias(DMDPattern(indices=[-3, 3], height=2), 0.3,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(1, 2),
                                counts=(2, 3), index_span=10, budget=32, seed=4)
        solution = optimize_pattern(config, CTX_BLUE)
        share = 16
        # each count profiles exactly its share of distinct patterns, and
        # the log holds one value per profile, nothing beyond the budget
        for count in (2, 3):
            runs = [p for p in profiles if p.count == count]
            assert len(runs) == len(set(runs)) == share
        assert len(profiles) == 32
        assert len(solution.evaluations) == 32


class TestOneHeightPerBatch:
    """Every profile batch holds one height, for the Latin-hypercube seed
    and for a seed that is the whole space."""

    @pytest.mark.parametrize("budget", [100, 200])
    def test_every_batch_gets_one_height_position(self, monkeypatch, budget):
        # count 2 at span 8 over heights 1..25 holds 200 patterns: at budget
        # 100 the seed is 6 patterns on 6 height strata, at 200 every pattern
        calls = []
        intensities = dmdopt._SearchSpace.intensities

        def recorded(space, halves, pos, ctx):
            calls.append((np.ndim(pos), len(halves)))
            return intensities(space, halves, pos, ctx)

        monkeypatch.setattr(dmdopt._SearchSpace, "intensities", recorded)
        config = DMDOptimConfig(target=LONG_SEARCH, color="blue",
                                heights=tuple(range(1, 26)), counts=(2,),
                                index_span=8, budget=budget, seed=3)
        solution = optimize_pattern(config, CTX_BLUE)
        assert all(ndim == 0 for ndim, _ in calls)
        assert sum(rows for _, rows in calls) == len(solution.evaluations) == budget
        # a batch of one pattern per seeded height then per step, or one
        # batch of the 8 half patterns per height
        assert calls == ([(0, 1)] * 100 if budget == 100 else [(0, 8)] * 25)


class TestSpentSpace:
    def test_search_stops_when_every_candidate_is_archived(self, monkeypatch):
        # span 9 and one height hold 9 patterns, one more than the budget of
        # 8, so the surrogate runs; every draw repeats the archived incumbent
        draws = []

        def archived(incumbent, space, n, rng):
            draws.append(1)
            if len(draws) > 100:
                raise RuntimeError("the search keeps drawing in a spent space")
            half, pos = incumbent
            return np.tile(half, (n, 1)), np.full(n, pos)

        monkeypatch.setattr(dmdopt, "_draw_candidates", archived)
        profiles = record_profiled(monkeypatch)
        target = realized_bias(DMDPattern(indices=[-1, 1], height=1), 0.3,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(1,),
                                counts=(2,), index_span=9, budget=8, seed=0)
        solution = optimize_pattern(config, CTX_BLUE)
        assert len(draws) == 1              # the first step found nothing new
        assert len(profiles) == len(set(profiles)) == len(solution.evaluations) < 8
        assert solution.pattern == profiles[int(np.argmin(solution.evaluations))]
        assert solution.objective == min(solution.evaluations)


def test_unhostable_count_fails_before_any_search(monkeypatch):
    # span 10 hosts count 2 but not count 50; nothing is profiled
    def no_profile(*args):
        raise AssertionError("a bad count must fail before any search")

    monkeypatch.setattr(dmdopt, "_profile_power", no_profile)
    config = DMDOptimConfig(target=LONG_SEARCH, color="blue", heights=(4,),
                            counts=(2, 50), index_span=10, budget=20)
    with pytest.raises(ValueError, match="cannot host 25"):
        optimize_pattern(config, CTX_BLUE)


class TestSinglePatternSpace:
    """A space of one pattern (`dim == 0`) always fits its share, so it is
    enumerated: profiled once, never drawn from or fitted."""

    @pytest.mark.parametrize("count,index_span", [(1, 24), (2, 1)])
    def test_returns_after_one_profile(self, monkeypatch, count, index_span):
        no_surrogate(monkeypatch)
        profiles = record_profiled(monkeypatch)
        target = realized_bias(DMDPattern(indices=[-1, 1], height=4), 0.3,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(4,),
                                counts=(count,), index_span=index_span,
                                budget=50, seed=1)
        solution = optimize_pattern(config, CTX_BLUE)
        assert len(profiles) == 1
        assert len(solution.evaluations) == 1
        assert solution.pattern.count == count
        assert solution.objective == min(solution.evaluations)


def reference_saddle_system(x, y):
    """The surrogate's saddle system, assembled as ReferenceCubicRBF does."""
    n, d = x.shape
    p = np.column_stack([np.ones(n), x])
    a = np.zeros((n + d + 1, n + d + 1))
    a[:n, :n] = broadcast_distances(x, x) ** 3 + 1e-12 * np.eye(n)
    a[:n, n:] = p
    a[n:, :n] = p.T
    return a, np.concatenate([y, np.zeros(d + 1)])


class TestLstsqFallback:
    """A singular saddle system falls back to least squares."""

    def test_rank_deficient_tail_matches_reference_lstsq(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3):
            x = rng.uniform(size=(30, dim))
            x[:, 0] = 1.0                 # equals the ones column of the tail
            y = rng.normal(size=30)
            a, rhs = reference_saddle_system(x, y)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a, rhs)
            ref = np.linalg.lstsq(a, rhs, rcond=None)[0]
            rbf = _CubicRBF(x, y)
            assert np.array_equal(rbf.weights, ref[:30])
            assert np.array_equal(rbf.tail, ref[30:])

    def test_search_with_constant_half_coordinate(self, monkeypatch):
        # span 1 pins the half pattern to (1,); the surrogate leaves that
        # constant column out and fits the height alone, so no fit meets a
        # singular saddle system.  25 heights are one pattern more than the
        # budget, so the surrogate runs
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        target = realized_bias(DMDPattern(indices=[-1, 1], height=1), 0.4,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue",
                                heights=tuple(range(1, 26)), counts=(2,),
                                index_span=1, budget=24, seed=2)
        solution = optimize_pattern(config, CTX_BLUE)
        assert 6 < len(solution.evaluations) <= 24   # fits past the 6-point seed
        assert not calls
        assert solution.pattern.indices == (-1, 1)
        assert np.isfinite(solution.objective)
        assert solution.objective <= min(solution.evaluations)


class TestTrainingSet:
    """Every step fits `_CubicRBF` on the archive, past `_MAX_TRAIN` points
    on the best `_MAX_TRAIN // 2` by value plus the latest points."""

    @pytest.fixture(scope="class")
    def long_search(self):
        """Every fit of a budget-450 search over heights 1..25."""
        fits = []

        class Recorded(_CubicRBF):
            def __init__(self, x, y):
                super().__init__(x, y)
                fits.append((x, y))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dmdopt, "_CubicRBF", Recorded)
            target = realized_bias(DMDPattern(indices=[-3, 3], height=7), 0.45,
                                   CTX_BLUE).bias
            config = DMDOptimConfig(target=target, color="blue",
                                    heights=tuple(range(1, 26)), counts=(2,),
                                    index_span=24, budget=450, seed=5)
            solution = optimize_pattern(config, CTX_BLUE)
        return solution, fits

    def test_fits_follow_the_training_set_rule(self, long_search):
        solution, fits = long_search
        assert len(fits) == 450 - 6           # every step after the 6-point seed
        # step k fits the archive of its first 6 + k points; the archive's
        # values open the evaluation log, and a fit's last row is its latest
        # point, since every training set holds the latest points
        ys = np.array(solution.evaluations[:450])
        xs = np.vstack([fits[0][0]] + [x[-1:] for x, _ in fits[1:]])
        latest = _MAX_TRAIN - _MAX_TRAIN // 2
        past = 0
        for n, (x, y) in enumerate(fits, start=6):
            assert len(y) <= _MAX_TRAIN
            if n <= _MAX_TRAIN:
                rows = np.arange(n)
            else:
                past += 1
                best = np.argsort(ys[:n])[:_MAX_TRAIN // 2]
                rows = np.union1d(best, np.arange(n - latest, n))
            assert np.array_equal(x, xs[rows])
            assert np.array_equal(y, ys[rows])
        assert past == 450 - 1 - _MAX_TRAIN
        assert solution.objective <= min(solution.evaluations)

    def test_fits_never_see_near_pairs(self, long_search):
        # distinct patterns differ by a whole index or height step, so the
        # saddle system meets no pair of nearly equal rows (span 24, 25
        # heights; the unit-box coordinates round in the last bits)
        _, fits = long_search
        for x, _ in fits:
            gaps = cdist(x, x)[np.triu_indices(len(x), 1)]
            assert gaps.min() >= (1 - 1e-12) / max(24, 25 - 1)
