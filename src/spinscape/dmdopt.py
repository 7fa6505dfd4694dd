"""Stage 2: surrogate-assisted mixed-integer search for realizable DMD patterns.

Given a target bias vector, searches superpixel index sets (integers),
superpixel height (integer) and projection power (continuous) to minimize
the Euclidean distance between the optically realized biases and the
target.  A cubic radial-basis surrogate with linear tail proposes
candidates; the true objective runs the forward model of
:mod:`spinscape.optics`: projection, lattice plus projection, bias
extraction.

Each surrogate step draws a batch of candidates at once, as arrays of half
indices, height positions and powers; it drops points whose exact id is
archived (ending the search if none is left), scores the rest on the
surrogate and evaluates the best (Regis & Shoemaker's stochastic RBF method).
The surrogate is refitted every step by `_CubicRBF` on the whole archive,
or past `_MAX_TRAIN` points on the best half of that cap plus the latest
points, so one fit solves a saddle system of at most `_MAX_TRAIN` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, asdict

import numpy as np
from scipy.spatial.distance import cdist

from .lattice import HubbardParams, BiasVector
from .dynamics import TransferProblem, fidelity_trace, golden_section
from .optics import (DMDPattern, ExtractionError, ProjectionContext,
                     extract_biases, project_intensity)
from .optics import make_context  # noqa: F401  (re-exported)


def realized_bias(pattern: DMDPattern, power: float, ctx: ProjectionContext):
    """Run the optical pipeline and return the extraction result.

    The projection reuses the superpixel fields memoized in `ctx.fields`;
    the extraction reads the lattice values and windows of `ctx`.
    """
    optics = ctx.optics.with_power(power)
    extent = (ctx.chain_sites[0], ctx.chain_sites[-1])
    projection = project_intensity(pattern, optics, ctx.grid, chain_extent=extent,
                                   fields=ctx.fields)
    return extract_biases(ctx.lattice_values + projection, ctx)


def dmd_objective(pattern: DMDPattern, power: float, target: BiasVector,
                  ctx: ProjectionContext) -> float:
    """|| realized bias - target ||_2; extraction failures map to a finite penalty."""
    t = target.array
    try:
        result = realized_bias(pattern, power, ctx)
    except ExtractionError:
        return 10.0 + float(np.linalg.norm(t))
    return float(np.linalg.norm(result.bias.array - t))


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


@dataclass(frozen=True)
class DMDOptimConfig:
    """One pattern search: target, colour, search space, budget and seed.

    `budget` does not bound the true evaluations.  It is split into one
    share per count, `max(budget // len(counts), 8)` distinct points of the
    seed and surrogate phase, and each count's golden power polish then adds
    up to about 36 further true evaluations (on the full power range): 576
    of the 1536 objective calls of the `pattern-fanout` benchmark workload.
    """

    target: BiasVector = None
    color: str = "blue"
    heights: tuple = tuple(range(1, 26))
    counts: tuple = (2, 4, 6)
    index_span: int = 24
    power_range: tuple = (0.0, 1.0)
    budget: int = 2000
    seed: int = 0

    def __post_init__(self):
        check_search_settings(self.counts, self.heights, self.index_span,
                              self.power_range, self.budget)

    def to_dict(self) -> dict:
        # lists, not tuples: the dict must equal its own JSON round trip
        d = {k: list(v) if isinstance(v, tuple) else v
             for k, v in asdict(self).items()}
        d["target"] = list(self.target.values) if self.target is not None else None
        return d


@dataclass(frozen=True)
class DMDSolution:
    """A realized controller: pattern, power, achieved biases, and its metrics."""

    pattern: DMDPattern
    power: float
    color: str
    achieved: BiasVector
    objective: float
    evaluations: tuple = ()      # audit log of every true objective value
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


def _build_pattern(half_indices, height: int, include_center: bool) -> DMDPattern:
    half = sorted(int(i) for i in half_indices)
    full = [-i for i in reversed(half)] + ([0] if include_center else []) + half
    return DMDPattern(indices=full, height=height, symmetric=True)


class _CubicRBF:
    """Cubic radial-basis interpolant with a linear polynomial tail.

    The fit solves the saddle system [[Phi + 1e-12 I, P], [P^T, 0]] with
    P = [1, x], falling back to least squares when it is singular.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, d = x.shape
        a = np.zeros((n + d + 1, n + d + 1))
        np.power(cdist(x, x), 3, out=a[:n, :n])
        # cdist(x, x) has an exact zero diagonal and v + 0.0 == v, so adding
        # to the diagonal alone is bit for bit the sum with 1e-12 * I
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
        """Surrogate values at `q`; `dist` is `cdist(q, self.x)` when known."""
        if dist is None:
            dist = cdist(q, self.x)
        vals = (dist ** 3) @ self.weights
        return vals + self.tail[0] + q @ self.tail[1:]


@dataclass
class _SearchSpace:
    """The half pattern, height and power box of one count's search.

    The surrogate embeds a coordinate only when it can vary: the half
    indices when `span > n_half` (else every half pattern is 1..n_half),
    the height when more than one is searched, and the power always.
    """

    n_half: int
    include_center: bool
    span: int
    heights: tuple
    p_lo: float
    p_hi: float

    @property
    def dim(self) -> int:
        return (self.n_half * (self.span > self.n_half)
                + (len(self.heights) > 1) + 1)

    def as_arrays(self, points):
        """(half, height, power) points as half indices, height positions, powers."""
        halves = np.array([half for half, _, _ in points], dtype=np.int64)
        positions = np.array([self.heights.index(h) for _, h, _ in points],
                             dtype=np.int64)
        powers = np.array([p for *_, p in points], dtype=float)
        return halves.reshape(len(points), self.n_half), positions, powers

    def embed(self, points) -> np.ndarray:
        """Unit-box coordinates of (half, height, power) points, one row each."""
        return self.embed_arrays(*self.as_arrays(points))

    def embed_arrays(self, halves, positions, powers) -> np.ndarray:
        """Unit-box coordinates of points given as the arrays of `as_arrays`."""
        coords = []
        if self.span > self.n_half:
            coords.append(halves / self.span)
        if len(self.heights) > 1:
            coords.append(positions[:, None] / (len(self.heights) - 1))
        coords.append((powers[:, None] - self.p_lo) / (self.p_hi - self.p_lo))
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


def _lhs_seed(space: _SearchSpace, n0: int, rng) -> list:
    points = []
    p_perm = rng.permutation(n0)
    h_perm = rng.permutation(n0)
    for s in range(n0):
        half = _repair_half(rng.integers(1, space.span + 1, space.n_half), space.span, rng)
        hpos = int(h_perm[s] * len(space.heights) / n0)
        p = space.p_lo + (p_perm[s] + rng.random()) / n0 * (space.p_hi - space.p_lo)
        points.append((half, space.heights[hpos], float(p)))
    return points


def _draw_candidates(incumbent, space: _SearchSpace, n: int, rng):
    """Draw `n` candidates around `incumbent`, a (half, height position, power).

    Each is, with probability 3/4, a perturbation of the incumbent and
    otherwise a uniform fresh point.  A perturbation moves each half index
    by +-U{1..max_step} with probability 1/2 (one index by +-1 if none
    moved), the height by +-U{1, 2} positions with probability 1/2
    (clipped), and the power by a Gaussian of a tenth of the power range,
    reflected at the box walls.  Returns the half indices `(n, n_half)`,
    each row distinct, sorted and in [1, span], the height positions `(n,)`
    and the powers `(n,)`.
    """
    half, pos, p = incumbent
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
    powers = p + 0.1 * (space.p_hi - space.p_lo) * rng.standard_normal(n)
    while True:                                     # reflect at the box walls
        low, high = powers < space.p_lo, powers > space.p_hi
        if not (low.any() or high.any()):
            break
        powers[low] = 2 * space.p_lo - powers[low]
        powers[high] = 2 * space.p_hi - powers[high]

    fresh = np.flatnonzero(rng.random(n) >= 0.75)
    halves[fresh] = rng.integers(1, space.span + 1, (len(fresh), n_half))
    positions[fresh] = rng.integers(0, n_heights, len(fresh))
    powers[fresh] = space.p_lo + (space.p_hi - space.p_lo) * rng.random(len(fresh))

    np.clip(halves, 1, space.span, out=halves)
    halves.sort(axis=1)
    for row in np.flatnonzero((np.diff(halves, axis=1) == 0).any(axis=1)):
        halves[row] = _repair_half(halves[row], space.span, rng)
    return halves, positions, powers


def _point_ids(halves, positions, powers) -> list:
    """Exact ids `(half indices, height position, round(p * 1e10))` of points."""
    return list(zip(map(tuple, halves.tolist()), positions.tolist(),
                    np.rint(powers * 1e10).tolist()))


_MERIT_WEIGHTS = (0.3, 0.5, 0.8, 0.95)
_MAX_TRAIN = 192


def _search_one_count(count: int, target: BiasVector, config: DMDOptimConfig,
                      ctx: ProjectionContext, budget: int, rng):
    """One count's search: (pattern, power, value, log of true values).

    The LHS seed, each step and the power polish skip points whose exact id
    (`_point_ids`) is in the archive's set, so `budget` counts distinct
    points.  A step whose whole batch is archived ends the search: a
    quarter of each batch is drawn uniformly, so the space is spent.

    Each step fits a fresh `_CubicRBF` on the whole archive up to
    `_MAX_TRAIN` points, past it on the best `_MAX_TRAIN // 2` points by
    value plus the latest points: a smaller training set, as in DYCORS
    (Regis & Shoemaker, Eng. Optim. 45, 2013), bounds the O(n^3) solve.
    """
    include_center = count % 2 == 1
    n_half = count // 2
    if n_half > config.index_span:
        raise ValueError(f"index span {config.index_span} cannot host "
                         f"{n_half} distinct half-pattern superpixels")
    space = _SearchSpace(n_half=n_half, include_center=include_center,
                         span=config.index_span, heights=tuple(config.heights),
                         p_lo=config.power_range[0], p_hi=config.power_range[1])

    def truth(half, pos, p):
        pattern = _build_pattern(half, space.heights[pos], include_center)
        return dmd_objective(pattern, float(p), target, ctx)

    # the archive in evaluation order, rows [:n], and the ids of its points
    halves = np.empty((budget, n_half), dtype=np.int64)
    positions = np.empty(budget, dtype=np.int64)
    powers = np.empty(budget)
    xs = np.empty((budget, space.dim))
    ys = np.empty(budget)
    seen = set()
    n = 0

    def evaluate(c_halves, c_positions, c_powers):
        """Score points new to the archive, in order, and append them."""
        nonlocal n
        m = n + len(c_powers)
        halves[n:m], positions[n:m], powers[n:m] = c_halves, c_positions, c_powers
        seen.update(_point_ids(c_halves, c_positions, c_powers))
        xs[n:m] = space.embed_arrays(c_halves, c_positions, c_powers)
        ys[n:m] = [truth(*point) for point in zip(c_halves, c_positions, c_powers)]
        n = m

    n0 = min(budget, max(2 * (space.dim + 1), 6))
    seed = space.as_arrays(_lhs_seed(space, n0, rng))
    seed_ids = _point_ids(*seed)
    rows = [seed_ids.index(key) for key in dict.fromkeys(seed_ids)]  # first of each
    evaluate(*(a[rows] for a in seed))

    it = 0
    while n < budget:
        inc = int(np.argmin(ys[:n]))
        cands = _draw_candidates((halves[inc], positions[inc], powers[inc]),
                                 space, 40 * space.dim, rng)
        cand_ids = _point_ids(*cands)
        new = [i for i, key in enumerate(cand_ids) if key not in seen]
        if not new:
            break           # a quarter are uniform draws: the space is spent
        cands = [a[new] for a in cands]
        q = space.embed_arrays(*cands)
        d = cdist(q, xs[:n])            # feeds both the surrogate and the merit
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
    half, pos = halves[best], positions[best]
    _, probes = golden_section(lambda p: truth(half, pos, p),
                               space.p_lo, space.p_hi, tol=1e-7)
    probe_ids = _point_ids(np.tile(half, (len(probes), 1)), np.full(len(probes), pos),
                           np.array([p for p, _ in probes]))
    log = ys[:n].tolist()
    p_best, v_best = float(powers[best]), log[best]
    for (p, v), key in zip(probes, probe_ids):
        if key not in seen:
            seen.add(key)
            log.append(v)
            if v < v_best:
                p_best, v_best = p, v
    pattern = _build_pattern(half, space.heights[pos], include_center)
    return pattern, p_best, v_best, log


def optimize_pattern(config: DMDOptimConfig, ctx: ProjectionContext) -> DMDSolution:
    """Search patterns and power for the target; best result across all counts.

    Each superpixel count runs as its own surrogate loop on an equal share
    of the evaluation budget, at least 8 points, followed by a
    golden-section polish of the power at the best integer assignment,
    which the share does not count: up to about 36 more true evaluations
    per count (see :class:`DMDOptimConfig`).  Every step of the loop draws its
    40 * dim candidates in one batch (see `_draw_candidates`) and spends the
    share only on points not evaluated before (see `_search_one_count`),
    ending early if the space runs out.  Deterministic for a fixed seed.
    """
    if config.target is None:
        raise ValueError("config.target must be set")
    if config.color != ctx.optics.color:
        raise ValueError(f"config color {config.color!r} does not match "
                         f"context optics {ctx.optics.color!r}")
    best = None
    log = []
    share = max(config.budget // len(config.counts), 8)
    for k, count in enumerate(config.counts):
        rng = np.random.default_rng((config.seed, count, k))
        pattern, power, value, evals = _search_one_count(
            count, config.target, config, ctx, share, rng)
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
        if self.e_max <= 0 or self.t_max_ms <= 0:
            raise ValueError("thresholds must be positive")

    def t_max_normalized(self, tau_seconds: float) -> float:
        return self.t_max_ms * 1e-3 / tau_seconds

    def accepts(self, e, t, t_limit: float) -> bool:
        """The acceptance rule e < e_max, t < t_limit; a missing e or t fails."""
        return (e is not None and t is not None
                and bool(e < self.e_max and t < t_limit))


def validate_solution(solution: DMDSolution, problem: TransferProblem,
                      params: HubbardParams, thresholds: AcceptanceThresholds,
                      t_limit: float, n_steps: int = 2000) -> DMDSolution:
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
    trace = fidelity_trace(solution.achieved, problem, params, t_limit, n_steps)
    return replace(solution, error=trace.e_min, t_min=trace.t_min,
                   accepted=thresholds.accepts(trace.e_min, trace.t_min, t_limit),
                   singular=False)
