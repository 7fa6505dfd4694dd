import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist
from scipy.stats import ks_2samp

from spinscape import dmdopt
from spinscape.lattice import BiasVector, LatticeConfig, NOMINAL_PARAMS
from spinscape.dynamics import TransferProblem, golden_section
from spinscape.optics import (DMDPattern, ExtractionError, GridMarginError,
                              OpticsConfig, PatternOverlapError, PotentialProfile,
                              expand_pattern, extract_biases, project_intensity,
                              psf_field, single_superpixel_peak, total_potential)
from spinscape.dmdopt import (AcceptanceThresholds, DMDOptimConfig, DMDSolution,
                              ProjectionContext, _CubicRBF, _SearchSpace,
                              dmd_objective, make_context, optimize_pattern,
                              realized_bias, validate_solution)
from spinscape.dmdopt import (_DIRECT_MAX, _MAX_TRAIN, _IncrementalFit,
                              _draw_candidates, _lhs_seed, _repair_half)

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
                                            fields=ctx.fields).values
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

                    total = total_potential(LATTICE, ZETA,
                                            PotentialProfile(x=ctx.grid, values=ref))
                    ref_bias = extract_biases(total, LATTICE, ZETA, 5,
                                              ctx.params).bias.array
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
        with pytest.raises(ExtractionError):
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
                             heights=heights, p_lo=0.1, p_hi=0.9)
        rng = np.random.default_rng(n_half)
        points = [(tuple(sorted(rng.choice(np.arange(1, 25), n_half, replace=False)
                                .tolist())),
                   heights[int(rng.integers(len(heights)))],
                   float(rng.uniform(0.1, 0.9))) for _ in range(30)]
        rows = space.embed(points)
        assert rows.shape == (30, space.dim)
        for row, (half, height, p) in zip(rows, points):
            coords = list(np.asarray(half) / space.span)
            if len(heights) > 1:
                coords.append(heights.index(height) / (len(heights) - 1))
            coords.append((p - space.p_lo) / (space.p_hi - space.p_lo))
            assert np.array_equal(row, np.array(coords))


def reference_lhs_seed(space, n0, rng):
    points = []
    p_perm = rng.permutation(n0)
    h_perm = rng.permutation(n0)
    for s in range(n0):
        half = _repair_half(rng.integers(1, space.span + 1, space.n_half), space.span, rng)
        hpos = int(h_perm[s] * len(space.heights) / n0)
        p = space.p_lo + (p_perm[s] + rng.uniform()) / n0 * (space.p_hi - space.p_lo)
        points.append((half, space.heights[hpos], float(p)))
    return points


def reference_perturb(half, height, p, space, rng):
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
    width = space.p_hi - space.p_lo
    new_p = p + rng.normal(0.0, 0.1 * width)
    while not space.p_lo <= new_p <= space.p_hi:
        if new_p < space.p_lo:
            new_p = 2 * space.p_lo - new_p
        else:
            new_p = 2 * space.p_hi - new_p
    return _repair_half(new_half, space.span, rng), new_height, float(new_p)


def reference_random_point(space, rng):
    half = _repair_half(rng.integers(1, space.span + 1, space.n_half),
                        space.span, rng)
    hpos = int(rng.integers(0, len(space.heights)))
    p = rng.uniform(space.p_lo, space.p_hi)
    return half, space.heights[hpos], float(p)


def exact(point):
    half, height, p = point
    return half, height, p.hex()


class TestDrawStreams:
    """The search seeds from the parent's stream; its steps draw as the parent's did."""

    SPACES = [_SearchSpace(n_half=n_half, include_center=False, span=span,
                           heights=heights, p_lo=p_lo, p_hi=p_hi)
              for n_half in range(4)
              for heights in ((1,), tuple(range(1, 26)))
              for span, p_lo, p_hi in ((24, 0.0, 1.0), (10, 0.1, 0.9), (5, 0, 1))]

    @pytest.mark.parametrize("space", SPACES)
    def test_search_steps_match_reference(self, space):
        # the Latin-hypercube seeding step, to the bit and to the stream state
        for seed in range(25):
            new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            n0 = 6 + seed % 7
            assert list(map(exact, _lhs_seed(space, n0, new))) \
                == list(map(exact, reference_lhs_seed(space, n0, ref)))
            assert new.bit_generator.state == ref.bit_generator.state

    # (space, incumbent (half, height, power)); every space has at most 25
    # (half, height) cells, so 20 000 draws resolve a 0.03 distance
    CASES = [
        (_SearchSpace(n_half=0, include_center=True, span=24,
                      heights=tuple(range(1, 26)), p_lo=0.0, p_hi=1.0),
         ((), 13, 1.0)),
        (_SearchSpace(n_half=1, include_center=False, span=10, heights=(1,),
                      p_lo=0.1, p_hi=0.9),
         ((4,), 1, 0.1)),
        (_SearchSpace(n_half=2, include_center=False, span=5, heights=(1,),
                      p_lo=0, p_hi=1),
         ((1, 5), 1, 0.73)),
        (_SearchSpace(n_half=3, include_center=True, span=5, heights=(1,),
                      p_lo=0.2, p_hi=0.6),
         ((2, 3, 4), 1, 0.55)),
    ]

    @pytest.mark.parametrize("space,incumbent", CASES)
    def test_candidates_match_reference_distribution(self, space, incumbent):
        n = 20_000
        half, height, p = incumbent
        halves, positions, powers = _draw_candidates(
            (np.array(half, dtype=np.int64), space.heights.index(height), p),
            space, n, np.random.default_rng(1))
        got = Counter(zip(map(tuple, halves.tolist()),
                          (space.heights[i] for i in positions)))

        rng = np.random.default_rng(2)
        ref = [reference_perturb(half, height, p, space, rng)
               if rng.uniform() < 0.75 else reference_random_point(space, rng)
               for _ in range(n)]
        want = Counter((h, ht) for h, ht, _ in ref)

        tv = sum(abs(got[c] - want[c]) for c in got.keys() | want.keys()) / (2 * n)
        assert tv <= 0.03
        ks = ks_2samp(powers, [q for *_, q in ref]).statistic
        assert ks <= 0.03


@st.composite
def draw_cases(draw):
    span = draw(st.integers(min_value=1, max_value=30))
    n_half = draw(st.integers(min_value=0, max_value=min(span, 4)))
    heights = tuple(range(1, draw(st.sampled_from([1, 2, 25])) + 1))
    p_lo = draw(st.floats(min_value=0.0, max_value=0.9))
    p_hi = draw(st.floats(min_value=p_lo + 1e-3, max_value=1.0))
    space = _SearchSpace(n_half=n_half, include_center=False, span=span,
                         heights=heights, p_lo=p_lo, p_hi=p_hi)
    half = sorted(draw(st.lists(st.integers(min_value=1, max_value=span),
                                min_size=n_half, max_size=n_half, unique=True)))
    pos = draw(st.integers(min_value=0, max_value=len(heights) - 1))
    p = draw(st.one_of(st.just(p_lo), st.just(p_hi),
                       st.floats(min_value=p_lo, max_value=p_hi)))
    return (space, (np.array(half, dtype=np.int64), pos, p),
            draw(st.integers(min_value=1, max_value=300)),
            draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))


def edge_case(n_half, span, heights, p):
    space = _SearchSpace(n_half=n_half, include_center=False, span=span,
                         heights=heights, p_lo=0.2, p_hi=0.7)
    return space, (np.arange(1, n_half + 1), 0, p), 200, 3


@settings(max_examples=60, deadline=None)
@given(case=draw_cases())
@example(case=edge_case(3, 3, tuple(range(1, 26)), 0.7))   # span == n_half
@example(case=edge_case(0, 24, tuple(range(1, 26)), 0.2))  # no half indices
@example(case=edge_case(2, 5, (1,), 0.2))                  # a single height
@example(case=edge_case(1, 1, (1,), 0.7))
def test_draw_candidates_invariants(case):
    space, incumbent, n, seed = case
    drawn = _draw_candidates(incumbent, space, n, np.random.default_rng(seed))
    halves, positions, powers = drawn
    assert halves.shape == (n, space.n_half) and halves.dtype.kind == "i"
    assert positions.shape == powers.shape == (n,)
    assert np.all((halves >= 1) & (halves <= space.span))
    assert np.all(np.diff(halves, axis=1) > 0)       # distinct and sorted
    assert np.all((positions >= 0) & (positions < len(space.heights)))
    assert np.all((powers >= space.p_lo) & (powers <= space.p_hi))
    again = _draw_candidates(incumbent, space, n, np.random.default_rng(seed))
    for a, b in zip(drawn, again):
        assert np.array_equal(a, b)


class TestBudget:
    def test_budget_spent_on_distinct_points(self, monkeypatch):
        # a power range 3e-10 wide holds four powers to 10 decimals, so the
        # space has 32 points and the draws keep repeating archived ones
        calls, polishes = [], []
        objective, golden = dmdopt.dmd_objective, dmdopt.golden_section

        def counting(pattern, power, target, ctx):
            calls.append((pattern.indices, pattern.height, round(power, 10)))
            return objective(pattern, power, target, ctx)

        def polish(*args, **kwargs):
            start = len(calls)
            result = golden(*args, **kwargs)
            polishes.append((start, len(calls)))
            return result

        monkeypatch.setattr(dmdopt, "dmd_objective", counting)
        monkeypatch.setattr(dmdopt, "golden_section", polish)
        target = realized_bias(DMDPattern(indices=[-3, 3], height=2), 0.3,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(1, 2),
                                counts=(2, 3), index_span=4,
                                power_range=(0.3, 0.3 + 3e-10), budget=32, seed=4)
        optimize_pattern(config, CTX_BLUE)
        share = 16
        assert len(polishes) == 2
        for start, end in ((0, polishes[0][0]), (polishes[0][1], polishes[1][0])):
            searched = calls[start:end]
            assert len(searched) == share
            assert len(set(searched)) == share


class TestSpentSpace:
    def test_search_stops_when_every_candidate_is_archived(self, monkeypatch):
        # span 1, one height and a power range 1e-10 wide hold two points
        # (powers to 10 decimals), fewer than the budget of 8
        draw = dmdopt._draw_candidates
        draws = []

        def bounded(*args):
            draws.append(1)
            if len(draws) > 100:
                raise RuntimeError("the search keeps drawing in a spent space")
            return draw(*args)

        monkeypatch.setattr(dmdopt, "_draw_candidates", bounded)
        target = realized_bias(DMDPattern(indices=[-1, 1], height=1), 0.3,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(1,),
                                counts=(2,), index_span=1,
                                power_range=(0.3, 0.3 + 1e-10), budget=8, seed=0)
        solution = optimize_pattern(config, CTX_BLUE)
        assert len(draws) == 1
        assert len(solution.evaluations) == 2
        assert solution.pattern.indices == (-1, 1)
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
        # span 1 pins the half pattern to (1,), a constant surrogate column
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        target = realized_bias(DMDPattern(indices=[-1, 1], height=1), 0.4,
                               CTX_BLUE).bias
        config = DMDOptimConfig(target=target, color="blue", heights=(1,),
                                counts=(2,), index_span=1, budget=60, seed=2)
        solution = optimize_pattern(config, CTX_BLUE)
        assert calls
        assert solution.pattern.indices == (-1, 1)
        assert np.isfinite(solution.objective)
        assert solution.objective <= min(solution.evaluations)


def search_trains(ys, start, stop):
    """The search's training sets for archive sizes `start .. stop - 1`."""
    for n in range(start, stop):
        if n > _MAX_TRAIN:
            best = np.argsort(ys[:n])[:_MAX_TRAIN // 4]
            recent = np.arange(n - (_MAX_TRAIN - len(best)), n)
            yield n, np.unique(np.concatenate([best, recent]))
        else:
            yield n, np.arange(n)


def assert_matches_direct_fit(fit, xs, ys, train, q, tol=1e-7):
    """The fit's surrogate at `q` within `tol` of its range of `_CubicRBF`'s."""
    rows, weights, tail = fit
    ref = _CubicRBF(xs[train], ys[train])(q)
    got = (cdist(q, xs[rows]) ** 3) @ weights + tail[0] + q @ tail[1:]
    assert np.max(np.abs(got - ref)) <= tol * np.ptp(ref)
    assert np.argmin(got) == np.argmin(ref)
    assert sorted(rows.tolist()) == train.tolist()


def search_like_archive(rng, dim, size, near_pairs):
    """An archive as the search builds one, of a smooth objective.

    Each point is a `_draw_candidates` draw around the incumbent, embedded
    as the search embeds it (grid coordinates and a power), except
    `near_pairs` points that repeat the incumbent with a power about 1e-6
    away.
    """
    heights = tuple(range(1, 26)) if dim % 2 else (1,)
    space = _SearchSpace(n_half=dim - (2 if len(heights) > 1 else 1),
                         include_center=False, span=24, heights=heights,
                         p_lo=0.0, p_hi=1.0)
    near = set(rng.choice(np.arange(size // 4, size), near_pairs, replace=False))
    xs, ys = np.empty((size, dim)), np.empty(size)
    for n in range(size):
        inc = int(np.argmin(ys[:n])) if n else None
        if n in near:
            xs[n] = xs[inc]
            xs[n, -1] = abs(xs[inc, -1] - rng.uniform(0.5e-6, 2e-6))
        else:
            start = (np.arange(1, space.n_half + 1), 0, 0.5) if inc is None else \
                (np.rint(xs[inc, :space.n_half] * 24).astype(np.int64),
                 int(round(xs[inc, -2] * 24)) if len(heights) > 1 else 0,
                 xs[inc, -1])
            xs[n] = space.embed_arrays(*_draw_candidates(start, space, 1, rng))[0]
        ys[n] = np.hypot(xs[n] - 0.4, 0.05).sum()
    return xs, ys


class TestIncrementalFit:
    """`_IncrementalFit` against its oracle, the direct `_CubicRBF` fit."""

    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
           near_pairs=st.integers(0, 6))
    @example(dim=3, seed=0, near_pairs=0)
    @example(dim=3, seed=1, near_pairs=4)
    def test_search_shaped_sequences_match_direct_fit(self, dim, seed, near_pairs):
        # grow past _MAX_TRAIN, then train on the best 100 and latest 300.
        # A pair 1e-6 apart moves the direct fit itself by up to about 2e-6
        # of the range from the exact solution (measured against a solve
        # refined in extended precision), so with pairs the bound is 1e-5.
        rng = np.random.default_rng(seed)
        xs, ys = search_like_archive(rng, dim, _MAX_TRAIN + 40, near_pairs)
        fit = _IncrementalFit(xs, ys)
        for n, train in search_trains(ys, _DIRECT_MAX - 2, len(xs)):
            q = np.clip(xs[np.argmin(ys[:n])]
                        + 0.1 * rng.standard_normal((40 * dim, dim)), 0, 1)
            assert_matches_direct_fit(fit(train), xs, ys, train, q,
                                      tol=1e-5 if near_pairs else 1e-7)

    @pytest.fixture(scope="class")
    def long_search(self):
        """A budget-450 search over heights 1..25, every fit checked."""
        checked, factorizations = [], []
        lu = dmdopt.lu_factor

        class Checked(_IncrementalFit):
            def __call__(self, train):
                fit = super().__call__(train)
                rng = np.random.default_rng(len(train))
                q = rng.uniform(size=(120, self.xs.shape[1]))
                assert_matches_direct_fit(fit, self.xs, self.ys, train, q)
                checked.append(len(train))
                return fit

        def counting(*args, **kwargs):
            factorizations.append(1)
            return lu(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dmdopt, "_IncrementalFit", Checked)
            mp.setattr(dmdopt, "lu_factor", counting)
            target = realized_bias(DMDPattern(indices=[-3, 3], height=7), 0.45,
                                   CTX_BLUE).bias
            config = DMDOptimConfig(target=target, color="blue",
                                    heights=tuple(range(1, 26)), counts=(2,),
                                    index_span=24, budget=450, seed=5)
            solution = optimize_pattern(config, CTX_BLUE)
        return solution, checked, len(factorizations)

    def test_search_fits_match_direct_fit(self, long_search):
        solution, checked, _ = long_search
        assert len(checked) == 450 - 8          # every step after the 8-point seed
        assert max(checked) == _MAX_TRAIN
        assert solution.objective <= min(solution.evaluations)

    def test_refactors_are_rare_past_the_crossover(self, long_search):
        _, checked, factorizations = long_search
        past = sum(size >= _DIRECT_MAX for size in checked)
        assert past > 300
        assert 0 < factorizations < past / 4

    def test_exactly_singular_system_falls_back_to_direct_fit(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(size=(_DIRECT_MAX + 10, 3))
        xs[:, 0] = 1.0                    # equals the ones column of the tail
        ys = rng.normal(size=len(xs))
        fit = _IncrementalFit(xs, ys)
        for n in (_DIRECT_MAX, _DIRECT_MAX + 1):
            rows, weights, tail = fit(np.arange(n))
            rbf = _CubicRBF(xs[:n], ys[:n])
            assert np.array_equal(rows, np.arange(n))
            assert np.array_equal(weights, rbf.weights)
            assert np.array_equal(tail, rbf.tail)
