"""Stage 2: mixed-integer search for realizable DMD patterns.

Given a target bias vector, searches superpixel index sets and height
(integers) to minimize the Euclidean distance between the optically
realized biases and the target; power only scales the projection, so each
pattern's objective is profiled over power by Gauss-Newton on the biases
(`_profile_power`), many patterns at once.  The true objective runs the
forward model of :mod:`spinscape.optics`: projection, lattice plus
projection, bias extraction.

Each count searches the mirror-symmetric patterns of its half-pattern
superpixels over the heights, C(index_span, count // 2) * len(heights)
patterns, in one loop (`_search_one_count`).  Its seed is the whole space
when that fits the count's share of the budget, so the search profiles
every pattern and takes no step; otherwise it is a Latin-hypercube sample,
and a cubic radial-basis surrogate with linear tail steers the rest of the
share.  Each step draws a batch of candidates at once, as arrays of half
indices and height positions; it drops archived patterns (if none is
left, the rest of the share goes to unarchived patterns in enumeration
order and the search ends), scores the rest on the surrogate and evaluates
the best (Regis & Shoemaker's stochastic RBF method).  The surrogate is
refitted every step by `_CubicRBF` on the whole archive, or past
`_MAX_TRAIN` points on the best half of that cap plus the latest points,
so one fit solves a saddle system of at most `_MAX_TRAIN` rows.  Patterns
are profiled one height per batch.  The budget counts every true
evaluation: one profiled pattern each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, islice
from math import comb

import numpy as np

from .lattice import HubbardParams, BiasVector, finite_positive
from .dynamics import TransferProblem, fidelity_trace
from .optics import (DMDPattern, ExtractionError, ProjectionContext,
                     extract_bias_rows, extract_biases, pattern_intensities,
                     project_intensity, single_superpixel_peak)
from .optics import make_context  # noqa: F401  (re-exported)


def realized_bias(pattern: DMDPattern, power: float, ctx: ProjectionContext):
    """Run the optical pipeline and return the extraction result.

    The projection reuses the superpixel fields and point-spread rows
    memoized in `ctx.fields` and `ctx.psf_rows`; the extraction reads the
    lattice values and windows of `ctx`.
    """
    optics = ctx.optics.with_power(power)
    projection = project_intensity(pattern, optics, ctx.grid, fields=ctx.fields,
                                   psf_rows=ctx.psf_rows)
    return extract_biases(ctx.lattice_values + projection, ctx)


def _misfits(biases: np.ndarray, t: np.ndarray):
    """|| biases - t ||_2 per row; a NaN row (a lost well) scores 10 + ||t||_2."""
    d = np.sqrt(np.sum((biases - t) ** 2, axis=-1))
    return np.where(np.isnan(d), 10.0 + np.linalg.norm(t), d)


def dmd_objective(pattern: DMDPattern, power: float, target: BiasVector,
                  ctx: ProjectionContext) -> float:
    """|| realized bias - target ||_2; extraction failures map to a finite penalty."""
    try:
        biases = realized_bias(pattern, power, ctx).bias.array
    except ExtractionError:
        biases = np.nan                 # a lost well: the penalty
    return float(_misfits(biases, target.array))


def _profile_power(unit: np.ndarray, peak: float, target: BiasVector,
                   ctx: ProjectionContext, p_lo: float, p_hi: float) -> tuple:
    """(powers, objectives): each pattern's best power in [p_lo, p_hi].

    Row k of `unit` is the |summed field|² of pattern k; `peak`, the
    single-superpixel peak of the batch's one height, scales every row to
    the projection at any power (`_SearchSpace.intensities`).  The biases
    are almost linear in power, so Gauss-Newton on them profiles it out
    (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
    Every row starts at p_lo; each step takes δ(p) and its slope b of every
    moving row from the rows at p and p ± 1e-6, all in one
    :func:`extract_bias_rows` call, and moves the row to
    p + b·(t - δ)/‖b‖², clipped.  A row stops at a lost well (a NaN
    row), at ‖b‖² not positive, at a step below 1e-10, at a step no shorter
    than its last (at a large misfit Gauss-Newton can cycle around the
    minimum), or after 32 steps.  Each row returns the first best power it
    visited, and its value equals `dmd_objective` there bit for bit.  The
    arithmetic is row by row, so no row depends on the others in its batch.
    """
    t, n = target.array, len(unit)
    p = np.full(n, float(p_lo))
    best_p, best_v, last = p.copy(), np.full(n, np.inf), np.full(n, np.inf)
    live = np.arange(n)                 # the rows still moving
    for _ in range(32):                 # a cap; shrinking steps need far fewer
        if not len(live):
            break
        q = p[live]
        h = np.where(q + 1e-6 <= p_hi, 1e-6, -1e-6)
        scale = np.stack([q, q + h]) / peak
        v = ctx.optics.color_sign * (unit[live] * scale[:, :, None])
        v += ctx.lattice_values
        d0, d1 = extract_bias_rows(v.reshape(2 * len(live), -1), ctx).reshape(
            2, len(live), -1)
        values = _misfits(d0, t)
        better = values < best_v[live]
        best_v[live[better]], best_p[live[better]] = values[better], q[better]
        b = (d1 - d0) / h[:, None]
        bb = np.sum(b * b, axis=1)
        moving = bb > 0                 # not a NaN row, and a slope
        live, q, b, bb, d0 = (a[moving] for a in (live, q, b, bb, d0))
        step = np.minimum(np.maximum(q + np.sum(b * (t - d0), axis=1) / bb, p_lo),
                          p_hi) - q
        size = np.abs(step)
        moving = (size >= 1e-10) & (size < last[live])
        live = live[moving]
        p[live], last[live] = q[moving] + step[moving], size[moving]
    return best_p, best_v


def check_search_settings(counts, heights, index_span, power_range,
                          budget) -> None:
    """Raise ValueError unless these pattern-search settings can be searched.

    Both :class:`DMDOptimConfig` and the pipeline's stage-2 config run it
    when they are made, so a bad setting fails before any search starts.
    """
    lo, hi = power_range
    if not (0 <= lo < hi <= 1):
        raise ValueError("power range must be an interval inside [0, 1]")
    if not counts or any(c < 1 for c in counts):
        raise ValueError("superpixel counts must be a non-empty list of "
                         "positive integers")
    if not heights or any(h < 1 for h in heights):
        raise ValueError("heights must be a non-empty list of positive integers")
    if index_span < 1:
        raise ValueError("index span must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")


def check_counts(counts, index_span) -> None:
    """Raise ValueError unless `index_span` hosts every count's half pattern;
    kept out of :func:`check_search_settings`, so such a config still parses."""
    for count in counts:
        if count // 2 > index_span:
            raise ValueError(f"index span {index_span} cannot host "
                             f"{count // 2} distinct half-pattern superpixels")


@dataclass(frozen=True)
class DMDOptimConfig:
    """One pattern search: target, colour, search space, budget and seed.

    `budget` counts distinct patterns, each profiled over `power_range`.
    It is split into one share per count, `max(budget // len(counts), 8)`
    patterns; a count makes no true evaluation beyond its share.  Each
    count's part of `DMDSolution.evaluations` is in evaluation order.  When
    its space, C(index_span, count // 2) * len(heights) mirror-symmetric
    patterns, fits its share, the search's seed is the whole space, so that
    part runs over `heights` in order and, within a height, over half
    patterns in lexicographic order; `seed` is then unused.  Otherwise
    `seed` drives the Latin-hypercube seed and the surrogate's draws.
    """

    target: BiasVector = None
    color: str = "blue"
    heights: tuple = tuple(range(1, 26))
    counts: tuple = (2, 4, 6)
    index_span: int = 24
    power_range: tuple = (0.0, 1.0)
    budget: int = 2048
    seed: int = 0

    def __post_init__(self):
        check_search_settings(self.counts, self.heights, self.index_span,
                              self.power_range, self.budget)


@dataclass(frozen=True)
class DMDSolution:
    """A realized controller: pattern, power, achieved biases, and its metrics."""

    pattern: DMDPattern
    power: float
    color: str
    achieved: BiasVector
    objective: float
    evaluations: tuple = ()      # each profiled pattern's objective, count by count,
                                 # in evaluation order (see DMDOptimConfig)
    error: float = None          # minimal fidelity error within the time window
    t_min: float = None          # normalized time of that minimum
    accepted: bool = None
    singular: bool = False

    def to_dict(self) -> dict:
        return {"pattern": self.pattern.to_dict(), "power": self.power,
                "color": self.color, "achieved_delta": list(self.achieved.values),
                "objective": self.objective, "e_min": self.error,
                "t_min": self.t_min, "accepted": self.accepted,
                "singular": self.singular}

    @classmethod
    def from_dict(cls, data: dict) -> "DMDSolution":
        """The solution of `to_dict`; the evaluation log is not stored."""
        return cls(pattern=DMDPattern.from_dict(data["pattern"]), power=data["power"],
                   color=data["color"], achieved=BiasVector(data["achieved_delta"]),
                   objective=data["objective"], error=data["e_min"],
                   t_min=data["t_min"], accepted=data["accepted"],
                   singular=data["singular"])


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `a` and of `b`.

    The squared differences are summed one coordinate after another, as
    `scipy.spatial.distance.cdist` sums them, so every entry is the float
    `cdist` gives; `np.linalg.norm` and `.sum(axis=-1)` sum pairwise from
    8 coordinates on and differ.  Equal rows are exactly 0 apart.  Rows
    have at least one coordinate: a search space of dimension 0 holds one
    pattern and is enumerated.
    """
    d2 = np.subtract.outer(a[:, 0], b[:, 0]) ** 2
    for k in range(1, a.shape[1]):
        step = np.subtract.outer(a[:, k], b[:, k])
        d2 += np.multiply(step, step, out=step)
    return np.sqrt(d2, out=d2)


class _CubicRBF:
    """Cubic radial-basis interpolant with a linear polynomial tail.

    The fit solves the saddle system [[Phi + 1e-12 I, P], [P^T, 0]] with
    P = [1, x], falling back to least squares when it is singular.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, d = x.shape
        a = np.zeros((n + d + 1, n + d + 1))
        np.power(_distances(x, x), 3, out=a[:n, :n])
        # _distances(x, x) has an exact zero diagonal and v + 0.0 == v, so
        # adding to the diagonal alone is bit for bit the sum with 1e-12 * I
        a[range(n), range(n)] += 1e-12
        a[:n, n] = a[n, :n] = 1.0
        a[:n, n + 1:] = x
        a[n + 1:, :n] = x.T
        rhs = np.zeros(n + d + 1)
        rhs[:n] = y
        try:
            coef = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            coef = np.linalg.lstsq(a, rhs, rcond=None)[0]
        self.x = x
        self.weights = coef[:n]
        self.tail = coef[n:]

    def __call__(self, q: np.ndarray, dist: np.ndarray = None) -> np.ndarray:
        """Surrogate values at `q`; `dist` is `_distances(q, self.x)` if known."""
        if dist is None:
            dist = _distances(q, self.x)
        vals = (dist ** 3) @ self.weights
        return vals + self.tail[0] + q @ self.tail[1:]


@dataclass
class _SearchSpace:
    """The half pattern and height box of one count's search.

    The surrogate embeds a coordinate only when it can vary: the half
    indices when `span > n_half` (else every half pattern is 1..n_half) and
    the height when more than one is searched.  `dim == 0` is one pattern.
    """

    n_half: int
    include_center: bool
    span: int
    heights: tuple

    @property
    def dim(self) -> int:
        return self.n_half * (self.span > self.n_half) + (len(self.heights) > 1)

    @property
    def size(self) -> int:
        """The number of patterns: half patterns times heights."""
        return comb(self.span, self.n_half) * len(self.heights)

    def index_rows(self, halves: np.ndarray) -> np.ndarray:
        """The index rows of the mirror-symmetric patterns of sorted half
        patterns `halves` (n, n_half): mirror, centre, half."""
        centre = np.zeros((len(halves), int(self.include_center)), np.int64)
        return np.hstack([-halves[:, ::-1], centre, halves])

    def pattern(self, half_indices, pos: int) -> DMDPattern:
        """The mirror-symmetric pattern of a half pattern at a height position."""
        half = np.sort(np.asarray(half_indices, dtype=np.int64)).reshape(1, self.n_half)
        return DMDPattern(indices=self.index_rows(half)[0].tolist(),
                          height=self.heights[pos], symmetric=True)

    def intensities(self, halves: np.ndarray, pos: int, ctx: ProjectionContext):
        """`_profile_power`'s (unit, peak) of sorted half patterns `halves`
        (n, n_half) at height position `pos`: one row each, in order, and
        the single-superpixel peak of that height.

        The rows come from one :func:`pattern_intensities` call on
        `ctx.fields` and `ctx.psf_rows`, so `color_sign * unit[k] * (p /
        peak)` is :func:`project_intensity` of pattern k at power p, bit for
        bit.
        """
        height = self.heights[pos]
        unit = pattern_intensities(self.index_rows(halves), height, ctx.optics,
                                   ctx.grid, fields=ctx.fields, psf_rows=ctx.psf_rows)
        return unit, single_superpixel_peak(height, ctx.optics)

    def embed_arrays(self, halves, positions) -> np.ndarray:
        """Unit-box coordinates of patterns (half indices, height positions)."""
        coords = [np.empty((len(positions), 0))]
        if self.span > self.n_half:
            coords.append(halves / self.span)
        if len(self.heights) > 1:
            coords.append(positions[:, None] / (len(self.heights) - 1))
        return np.hstack(coords)


def _repair_half(half, span, rng) -> tuple:
    """Clip into [1, span] and resolve duplicate indices deterministically."""
    fixed = []
    used = set()
    for i in half:
        i = int(min(max(i, 1), span))
        while i in used:
            i = int(rng.integers(1, span + 1))
        used.add(i)
        fixed.append(i)
    return tuple(sorted(fixed))


def _lhs_seed(space: _SearchSpace, n0: int, rng):
    """`n0` random half patterns on Latin-hypercube height strata."""
    h_perm = rng.permutation(n0)
    halves = [_repair_half(rng.integers(1, space.span + 1, space.n_half), space.span, rng)
              for _ in range(n0)]
    return (np.array(halves, dtype=np.int64).reshape(n0, space.n_half),
            h_perm * len(space.heights) // n0)


def _draw_candidates(incumbent, space: _SearchSpace, n: int, rng):
    """Draw `n` candidates around `incumbent`, a (half, height position).

    Each is, with probability 3/4, a perturbation of the incumbent and
    otherwise a uniform fresh point.  A perturbation moves each half index
    by +-U{1..max_step} with probability 1/2 (one index by +-1 if none
    moved) and the height by +-U{1, 2} positions with probability 1/2
    (clipped).  Returns the half indices `(n, n_half)`, each row distinct,
    sorted and in [1, span], and the height positions `(n,)`.
    """
    half, pos = incumbent
    n_half, n_heights = space.n_half, len(space.heights)

    def signs(size):
        return np.where(rng.random(size) < 0.5, 1, -1)

    max_step = max(1, round(space.span / 6))
    moved = rng.random((n, n_half)) < 0.5
    halves = np.asarray(half, dtype=np.int64) + moved * signs((n, n_half)) \
        * rng.integers(1, max_step + 1, (n, n_half))
    if n_half:
        still = np.flatnonzero(~moved.any(axis=1))
        halves[still, rng.integers(0, n_half, len(still))] += signs(len(still))
    positions = np.full(n, pos, dtype=np.int64)
    if n_heights > 1:
        hop = rng.random(n) < 0.5
        positions += hop * signs(n) * rng.integers(1, 3, n)
        np.clip(positions, 0, n_heights - 1, out=positions)

    fresh = np.flatnonzero(rng.random(n) >= 0.75)
    halves[fresh] = rng.integers(1, space.span + 1, (len(fresh), n_half))
    positions[fresh] = rng.integers(0, n_heights, len(fresh))

    np.clip(halves, 1, space.span, out=halves)
    halves.sort(axis=1)
    for row in np.flatnonzero((np.diff(halves, axis=1) == 0).any(axis=1)):
        halves[row] = _repair_half(halves[row], space.span, rng)
    return halves, positions


def _point_ids(halves, positions) -> list:
    """Exact ids `(half indices, height position)` of patterns."""
    return list(zip(map(tuple, halves.tolist()), positions.tolist()))


def _enumeration(space: _SearchSpace, n: int, skip=frozenset()):
    """(half indices, height positions) of the first `n` patterns not in
    `skip`: heights in order, half patterns in lexicographic order."""
    ids = ((half, pos) for pos in range(len(space.heights))
           for half in combinations(range(1, space.span + 1), space.n_half))
    halves, positions = zip(*islice((i for i in ids if i not in skip), n))
    return (np.array(halves, dtype=np.int64).reshape(len(halves), space.n_half),
            np.array(positions, dtype=np.int64))


_MERIT_WEIGHTS = (0.3, 0.5, 0.8, 0.95)
_MAX_TRAIN = 192


def _search_one_count(space: _SearchSpace, target: BiasVector, config: DMDOptimConfig,
                      ctx: ProjectionContext, budget: int, rng):
    """One count's search: (pattern, power, value, log of true values).

    The seed is the whole space when it fits `budget`, in enumeration
    order (`_enumeration`).  Then the search takes no step, never uses
    `rng`, and its best is the first minimum of that log.  Otherwise the
    seed is a Latin-hypercube sample (`_lhs_seed`), first of each pattern
    kept, and each step profiles one pattern until `budget` patterns are
    profiled.  A step skips patterns whose id (`_point_ids`) is in the
    archive's set, so `budget` counts distinct patterns.  A step whose whole
    batch is archived spends the rest of `budget` on the unarchived patterns
    in enumeration order and ends the search; a quarter of each batch is
    uniform draws, so that happens only when most of the space is profiled.
    Either way the search profiles `min(budget, space.size)` patterns.

    Each step fits a fresh `_CubicRBF` on the whole archive up to
    `_MAX_TRAIN` points, past it on the best `_MAX_TRAIN // 2` points by
    value plus the latest points: a smaller training set, as in DYCORS
    (Regis & Shoemaker, Eng. Optim. 45, 2013), bounds the O(n^3) solve.
    """
    # the archive in evaluation order, rows [:n], and the ids of its points
    cap = min(budget, space.size)
    halves = np.empty((cap, space.n_half), dtype=np.int64)
    positions = np.empty(cap, dtype=np.int64)
    powers = np.empty(cap)
    xs = np.empty((cap, space.dim))
    ys = np.empty(cap)
    seen = set()
    n = 0

    def evaluate(c_halves, c_positions):
        """Append patterns new to the archive, profiled one height per batch."""
        nonlocal n
        m = n + len(c_positions)
        halves[n:m], positions[n:m] = c_halves, c_positions
        seen.update(_point_ids(c_halves, c_positions))
        xs[n:m] = space.embed_arrays(c_halves, c_positions)
        for pos in np.unique(c_positions).tolist():
            at = n + np.flatnonzero(c_positions == pos)
            powers[at], ys[at] = _profile_power(
                *space.intensities(halves[at], pos, ctx), target, ctx,
                *config.power_range)
        n = m

    if space.size <= budget:
        evaluate(*_enumeration(space, cap))
    else:
        n0 = min(budget, max(2 * (space.dim + 1), 6))
        seed = _lhs_seed(space, n0, rng)
        seed_ids = _point_ids(*seed)
        rows = [seed_ids.index(key) for key in dict.fromkeys(seed_ids)]  # first of each
        evaluate(*(a[rows] for a in seed))

    it = 0
    while n < cap:
        inc = int(np.argmin(ys[:n]))
        cands = _draw_candidates((halves[inc], positions[inc]), space,
                                 40 * space.dim, rng)
        new = [i for i, key in enumerate(_point_ids(*cands)) if key not in seen]
        if not new:     # nor did its uniform quarter: enumerate the rest
            evaluate(*_enumeration(space, cap - n, seen))
            break
        cands = [a[new] for a in cands]
        q = space.embed_arrays(*cands)
        d = _distances(q, xs[:n])       # feeds both the surrogate and the merit
        if n > _MAX_TRAIN:
            best = np.argsort(ys[:n])[:_MAX_TRAIN // 2]
            recent = np.arange(n - (_MAX_TRAIN - len(best)), n)
            train = np.unique(np.concatenate([best, recent]))
        else:
            train = np.arange(n)
        s_val = _CubicRBF(xs[train], ys[train])(q, d[:, train])
        dist = np.min(d, axis=1)
        s_rng = np.ptp(s_val) or 1.0
        d_rng = np.ptp(dist) or 1.0
        s_norm = (s_val - s_val.min()) / s_rng
        d_norm = (dist.max() - dist) / d_rng
        w = _MERIT_WEIGHTS[it % len(_MERIT_WEIGHTS)]
        merit = w * s_norm + (1 - w) * d_norm
        j = int(np.argmin(merit))
        evaluate(*(a[j:j + 1] for a in cands))
        it += 1

    best = int(np.argmin(ys[:n]))
    return (space.pattern(halves[best], positions[best]), float(powers[best]),
            float(ys[best]), ys[:n].tolist())


def optimize_pattern(config: DMDOptimConfig, ctx: ProjectionContext) -> DMDSolution:
    """Search patterns for the target, power profiled; best across all counts.

    After :func:`check_counts` has passed every count, each count gets an
    equal share of the budget, at least 8 patterns, each scored at its best
    power (see `_profile_power`), and runs one search (`_search_one_count`).
    A count whose space (`_SearchSpace.size`, C(index_span, count // 2) *
    len(heights)) fits its share is seeded with every pattern and takes no
    step; a larger one is seeded by a Latin-hypercube sample, and every step
    draws its 40 * dim candidates in one batch (see `_draw_candidates`) and
    spends the share only on patterns not evaluated before.  So a count
    profiles min(share, space size) patterns.  Deterministic for a fixed seed.
    """
    if config.target is None:
        raise ValueError("config.target must be set")
    if config.color != ctx.optics.color:
        raise ValueError(f"config color {config.color!r} does not match "
                         f"context optics {ctx.optics.color!r}")
    check_counts(config.counts, config.index_span)
    best = None
    log = []
    share = max(config.budget // len(config.counts), 8)
    for k, count in enumerate(config.counts):
        space = _SearchSpace(n_half=count // 2, include_center=count % 2 == 1,
                             span=config.index_span, heights=tuple(config.heights))
        rng = np.random.default_rng((config.seed, count, k))
        pattern, power, value, evals = _search_one_count(
            space, config.target, config, ctx, share, rng)
        log.extend(evals)
        if best is None or value < best[2]:
            best = (pattern, power, value)
    pattern, power, value = best
    try:
        achieved = realized_bias(pattern, power, ctx).bias
    except ExtractionError:
        achieved = BiasVector(np.zeros(config.target.n_sites - 1))
    return DMDSolution(pattern=pattern, power=float(power), color=config.color,
                       achieved=achieved, objective=float(value),
                       evaluations=tuple(log))


@dataclass(frozen=True)
class AcceptanceThresholds:
    """Filter limits: fidelity-error ceiling and physical read-out time limit."""

    e_max: float = 1e-2
    t_max_ms: float = 130.0

    def __post_init__(self):
        for key in ("e_max", "t_max_ms"):
            if not finite_positive(getattr(self, key)):
                raise ValueError(f"{key} must be finite and positive, "
                                 f"not {getattr(self, key)}")

    def t_max_normalized(self, tau_seconds: float) -> float:
        return self.t_max_ms * 1e-3 / tau_seconds

    def accepts(self, e, t, t_limit: float) -> bool:
        """The acceptance rule e < e_max, t < t_limit; a missing e or t fails."""
        return (e is not None and t is not None
                and bool(e < self.e_max and t < t_limit))


def validate_solution(solution: DMDSolution, problem: TransferProblem,
                      params: HubbardParams, thresholds: AcceptanceThresholds,
                      t_limit: float) -> DMDSolution:
    """Score a realized controller by its own dynamics and apply the filters.

    Traces the fidelity error of the achieved biases over the time window
    [0, t_limit] (normalized units, `PipelineConfig.t_limit`) and accepts
    when the refined minimum beats the error ceiling (`params` is the
    normalized Hubbard point used for dynamics).  Achieved biases at or
    beyond |delta| = 1 are rejected outright and flagged.
    """
    if not solution.achieved.is_dynamical():
        return replace(solution, accepted=False, singular=True,
                       error=None, t_min=None)
    trace = fidelity_trace(solution.achieved, problem, params, t_limit)
    return replace(solution, error=trace.e_min, t_min=trace.t_min,
                   accepted=thresholds.accepts(trace.e_min, trace.t_min, t_limit),
                   singular=False)
