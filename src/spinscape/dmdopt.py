"""Stage 2: surrogate-assisted mixed-integer search for realizable DMD patterns.

Given a target bias vector, searches superpixel index sets (integers),
superpixel height (integer) and projection power (continuous) to minimize
the Euclidean distance between the optically realized biases and the
target.  A cubic radial-basis surrogate with linear tail proposes
candidates; the true objective runs the full projection -> total potential
-> bias extraction pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, field, asdict

import numpy as np
from scipy.spatial.distance import cdist

from .lattice import (LatticeConfig, HubbardParams, BiasVector, bare_couplings,
                      as_bias_array)
from .dynamics import TransferProblem, fidelity_trace, golden_section
from .optics import (OpticsConfig, DMDPattern, ExtractionError, project_intensity,
                     total_potential, extract_biases, make_chain_grid)


@dataclass(frozen=True)
class ProjectionContext:
    """Everything needed to map a (pattern, power) pair to a bias vector.

    `fields` memoizes superpixel fields for :func:`realized_bias`, keyed by
    `(index, height, width)`.  Its scope is one context: one optics up to
    its power (which only scales the intensity) and one grid.  It starts
    empty, also in a context made by `dataclasses.replace`, so other optics
    or another grid never see stale fields.  It holds at most one complex
    array of `len(grid)` per height and index searched, i.e.
    `len(heights) * (2 * index_span + 1)` arrays.  On the default
    `spacing / 64` grid that is about 18 MB for red optics with 25 heights
    and span 24, and at most 0.75 MB for a one-height search.

    `run_pipeline` builds one stage-2 context per colour per worker, which
    lives for one run.  All searches of that colour in that process share
    its memo, so the bound above holds per colour per worker, with
    `heights` and `index_span` taken from the stage-2 config.
    """

    optics: OpticsConfig
    lattice: LatticeConfig
    zeta: float
    params: HubbardParams        # physical couplings at zeta; sets the bias unit U
    grid: np.ndarray
    chain_sites: np.ndarray
    fields: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def n_sites(self) -> int:
        return len(self.chain_sites)


def make_context(optics: OpticsConfig, lattice: LatticeConfig, zeta: float,
                 n_sites: int) -> ProjectionContext:
    grid = make_chain_grid(lattice, n_sites, optics)
    return ProjectionContext(optics=optics, lattice=lattice, zeta=zeta,
                             params=bare_couplings(zeta, lattice), grid=grid,
                             chain_sites=lattice.site_positions(n_sites))


def realized_bias(pattern: DMDPattern, power: float, ctx: ProjectionContext):
    """Run the optical pipeline and return the extraction result.

    The projection reuses the superpixel fields memoized in `ctx.fields`.
    """
    optics = ctx.optics.with_power(power)
    extent = (ctx.chain_sites[0], ctx.chain_sites[-1])
    projection = project_intensity(pattern, optics, ctx.grid, chain_extent=extent,
                                   fields=ctx.fields)
    total = total_potential(ctx.lattice, ctx.zeta, projection)
    return extract_biases(total, ctx.lattice, ctx.zeta, ctx.n_sites, ctx.params)


def dmd_objective(pattern: DMDPattern, power: float, target: BiasVector,
                  ctx: ProjectionContext) -> float:
    """|| realized bias - target ||_2; extraction failures map to a finite penalty."""
    t = target.array
    try:
        result = realized_bias(pattern, power, ctx)
    except ExtractionError:
        return 10.0 + float(np.linalg.norm(t))
    return float(np.linalg.norm(result.bias.array - t))


def check_search_settings(counts, heights, index_span, power_range) -> None:
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


@dataclass(frozen=True)
class DMDOptimConfig:
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
                              self.power_range)

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


def _build_pattern(half_indices, height: int, include_center: bool) -> DMDPattern:
    half = sorted(int(i) for i in half_indices)
    full = [-i for i in reversed(half)] + ([0] if include_center else []) + half
    return DMDPattern(indices=full, height=height, symmetric=True)


class _CubicRBF:
    """Cubic radial-basis interpolant with a linear polynomial tail."""

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

    def __call__(self, q: np.ndarray) -> np.ndarray:
        vals = (cdist(q, self.x) ** 3) @ self.weights
        return vals + self.tail[0] + q @ self.tail[1:]


@dataclass
class _SearchSpace:
    n_half: int
    include_center: bool
    span: int
    heights: tuple
    p_lo: float
    p_hi: float

    @property
    def dim(self) -> int:
        return self.n_half + (2 if len(self.heights) > 1 else 1)

    def embed(self, points) -> np.ndarray:
        """Unit-box coordinates of (half, height, power) points, one row each."""
        halves = np.array([half for half, _, _ in points], dtype=float)
        coords = [halves.reshape(len(points), self.n_half) / self.span]
        if len(self.heights) > 1:       # drop the coordinate when it cannot vary
            pos = np.array([self.heights.index(h) for _, h, _ in points], dtype=float)
            coords.append(pos[:, None] / (len(self.heights) - 1))
        p = np.array([p for *_, p in points], dtype=float)
        coords.append((p[:, None] - self.p_lo) / (self.p_hi - self.p_lo))
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


def _random_point(space: _SearchSpace, rng):
    """A fresh candidate drawn uniformly from the search space."""
    half = _repair_half(rng.integers(1, space.span + 1, space.n_half), space.span, rng)
    hpos = int(rng.integers(0, len(space.heights)))
    p = space.p_lo + (space.p_hi - space.p_lo) * rng.random()
    return half, space.heights[hpos], float(p)


def _perturb(half, height, p, space: _SearchSpace, rng):
    max_step = max(1, round(space.span / 6))
    new_half = list(half)
    changed = False
    for k in range(len(new_half)):
        if rng.random() < 0.5:
            step = int(rng.integers(1, max_step + 1)) * (1 if rng.random() < 0.5 else -1)
            new_half[k] += step
            changed = True
    if not changed and new_half:
        k = int(rng.integers(0, len(new_half)))
        new_half[k] += 1 if rng.random() < 0.5 else -1
    new_height = height
    if rng.random() < 0.5 and len(space.heights) > 1:
        pos = space.heights.index(height) + int(rng.integers(1, 3)) \
            * (1 if rng.random() < 0.5 else -1)
        new_height = space.heights[min(max(pos, 0), len(space.heights) - 1)]
    scale = 0.1 * (space.p_hi - space.p_lo)
    new_p = p + scale * rng.standard_normal()
    while not space.p_lo <= new_p <= space.p_hi:          # reflect at the box walls
        if new_p < space.p_lo:
            new_p = 2 * space.p_lo - new_p
        else:
            new_p = 2 * space.p_hi - new_p
    return _repair_half(new_half, space.span, rng), new_height, float(new_p)


_MERIT_WEIGHTS = (0.3, 0.5, 0.8, 0.95)
_MAX_TRAIN = 400


def _search_one_count(count: int, target: BiasVector, config: DMDOptimConfig,
                      ctx: ProjectionContext, budget: int, rng):
    include_center = count % 2 == 1
    n_half = count // 2
    if n_half > config.index_span:
        raise ValueError(f"index span {config.index_span} cannot host "
                         f"{n_half} distinct half-pattern superpixels")
    space = _SearchSpace(n_half=n_half, include_center=include_center,
                         span=config.index_span, heights=tuple(config.heights),
                         p_lo=config.power_range[0], p_hi=config.power_range[1])

    def truth(half, height, p):
        pattern = _build_pattern(half, height, include_center)
        return dmd_objective(pattern, p, target, ctx)

    seen = set()
    archive = []                 # (half, height, p, value) in evaluation order
    xs = np.empty((budget, space.dim))   # embedded archive, rows [:len(archive)]
    ys = np.empty(budget)

    def evaluate(half, height, p):
        key = (half, height, round(p, 10))
        if key in seen:
            return None
        val = truth(half, height, p)
        seen.add(key)
        xs[len(archive)] = space.embed([(half, height, p)])[0]
        ys[len(archive)] = val
        archive.append((half, height, p, val))
        return val

    n0 = min(budget, max(2 * (space.dim + 1), 6))
    for half, height, p in _lhs_seed(space, n0, rng):
        evaluate(half, height, p)

    it = 0
    while len(archive) < budget:
        n = len(archive)
        train = np.arange(n)
        if n > _MAX_TRAIN:
            best = np.argsort(ys[:n])[:_MAX_TRAIN // 4]
            recent = train[-(_MAX_TRAIN - len(best)):]
            train = np.unique(np.concatenate([best, recent]))
        surrogate = _CubicRBF(xs[train], ys[train])

        inc = archive[int(np.argmin(ys[:n]))]
        cands = []
        n_cand = 40 * space.dim
        for _ in range(n_cand):
            if rng.random() < 0.75:
                cands.append(_perturb(inc[0], inc[1], inc[2], space, rng))
            else:
                cands.append(_random_point(space, rng))
        cands = [c for c in cands if (c[0], c[1], round(c[2], 10)) not in seen]
        if not cands:
            continue
        q = space.embed(cands)
        s_val = surrogate(q)
        dist = np.min(cdist(q, xs[:n]), axis=1)
        s_rng = np.ptp(s_val) or 1.0
        d_rng = np.ptp(dist) or 1.0
        s_norm = (s_val - s_val.min()) / s_rng
        d_norm = (dist.max() - dist) / d_rng
        w = _MERIT_WEIGHTS[it % len(_MERIT_WEIGHTS)]
        merit = w * s_norm + (1 - w) * d_norm
        evaluate(*cands[int(np.argmin(merit))])
        it += 1

    half, height, _, _ = min(archive, key=lambda t: t[3])
    _, probes = golden_section(lambda p: truth(half, height, p),
                               space.p_lo, space.p_hi, tol=1e-7)
    for p, v in probes:
        key = (half, height, round(p, 10))
        if key not in seen:
            seen.add(key)
            archive.append((half, height, p, v))
    half, height, p_best, v_best = min(archive, key=lambda t: t[3])
    pattern = _build_pattern(half, height, include_center)
    return pattern, p_best, v_best, [v for *_, v in archive]


def optimize_pattern(config: DMDOptimConfig, ctx: ProjectionContext) -> DMDSolution:
    """Search patterns and power for the target; best result across all counts.

    Each superpixel count runs as its own surrogate loop on an equal share
    of the evaluation budget, followed by a golden-section polish of the
    power at the best integer assignment.  Deterministic for a fixed seed.
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


def validate_solution(solution: DMDSolution, problem: TransferProblem,
                      params: HubbardParams, thresholds: AcceptanceThresholds,
                      tau_seconds: float, n_steps: int = 2000) -> DMDSolution:
    """Score a realized controller by its own dynamics and apply the filters.

    Traces the fidelity error of the achieved biases over the allowed time
    window and accepts when the refined minimum beats the error ceiling
    (`params` is the normalized Hubbard point used for dynamics).  Achieved
    biases at or beyond |delta| = 1 are rejected outright and flagged.
    """
    if not solution.achieved.is_dynamical():
        return replace(solution, accepted=False, singular=True,
                       error=None, t_min=None)
    t_max = thresholds.t_max_normalized(tau_seconds)
    trace = fidelity_trace(solution.achieved, problem, params, t_max, n_steps)
    accepted = trace.e_min < thresholds.e_max and trace.t_min < t_max
    return replace(solution, error=trace.e_min, t_min=trace.t_min,
                   accepted=bool(accepted), singular=False)
