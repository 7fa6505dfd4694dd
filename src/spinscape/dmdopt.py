"""Stage 2: surrogate-assisted mixed-integer search for realizable DMD patterns.

Given a target bias vector, searches superpixel index sets (integers),
superpixel height (integer) and projection power (continuous) to minimize
the Euclidean distance between the optically realized biases and the
target.  A cubic radial-basis surrogate with linear tail proposes
candidates; the true objective runs the full projection -> total potential
-> bias extraction pipeline.

Each surrogate step draws a batch of candidates at once, as arrays of half
indices, height positions and powers; it drops points whose exact id is
archived (ending the search if none is left), scores the rest on the
surrogate and evaluates the best (Regis & Shoemaker's stochastic RBF method).
The surrogate is refitted every step on a training set that changes by a
few points: `_IncrementalFit` solves it in O(n^2) per step from an LU
factorization it renews about every 12-24 steps, and fits small sets with
`_CubicRBF` directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace, field, asdict

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.blas import dtrmv
from scipy.spatial.distance import cdist

from .lattice import (LatticeConfig, HubbardParams, BiasVector, bare_couplings,
                      as_bias_array)
from .dynamics import TransferProblem, fidelity_trace, golden_section
from .optics import (OpticsConfig, DMDPattern, ExtractionError, PotentialProfile,
                     extract_biases, extraction_windows, lattice_profile,
                     make_chain_grid, project_intensity)


@dataclass(frozen=True)
class ProjectionContext:
    """Everything needed to map a (pattern, power) pair to a bias vector.

    `lattice_values` (the bare lattice on `grid`) and `windows` (the
    :func:`~spinscape.optics.extraction_windows` of `grid`) are the
    pattern-independent parts of :func:`realized_bias`.  They are computed
    when the context is made, also by `dataclasses.replace`.

    `fields` memoizes superpixel fields for :func:`realized_bias`, keyed by
    `(index, height, width)`.  Its scope is one context: one optics up to
    its power (which only scales the intensity) and one grid.  It starts
    empty, also in a context made by `dataclasses.replace`, so other optics
    or another grid never see stale fields.  It holds at most one complex
    array of `len(grid)` per height and index searched, i.e.
    `len(heights) * (2 * index_span + 1)` arrays.  On the default
    `spacing / 64` grid that is about 18 MB for red optics with 25 heights
    and span 24, and at most 0.75 MB for a one-height search.

    Stage 2 builds its contexts in `pipeline.search_patterns` only, one per
    colour, and sends every search of one `(colour, heights)` to one
    process, so each field is computed once per run and the bound above
    holds per colour in each process.  Only when there are fewer such
    groups than workers is a group split, and its fields computed by more
    than one worker.
    """

    optics: OpticsConfig
    lattice: LatticeConfig
    zeta: float
    params: HubbardParams        # physical couplings at zeta; sets the bias unit U
    grid: np.ndarray
    chain_sites: np.ndarray
    fields: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    lattice_values: np.ndarray = field(init=False, repr=False, compare=False)
    windows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lattice_values",
                           lattice_profile(self.lattice, self.zeta, self.grid).values)
        object.__setattr__(self, "windows",
                           extraction_windows(self.grid, self.lattice, self.n_sites))

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

    The projection reuses the superpixel fields memoized in `ctx.fields`,
    and the lattice values and extraction windows computed with `ctx`.
    """
    optics = ctx.optics.with_power(power)
    extent = (ctx.chain_sites[0], ctx.chain_sites[-1])
    projection = project_intensity(pattern, optics, ctx.grid, chain_extent=extent,
                                   fields=ctx.fields)
    # lattice plus projection, as optics.total_potential adds them
    total = PotentialProfile(x=projection.x,
                             values=ctx.lattice_values + projection.values)
    return extract_biases(total, ctx.lattice, ctx.zeta, ctx.n_sites, ctx.params,
                          windows=ctx.windows)


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


def _saddle_matrix(x: np.ndarray) -> np.ndarray:
    """The cubic-RBF saddle matrix [[Phi + 1e-12 I, P], [P^T, 0]], P = [1, x]."""
    n, d = x.shape
    a = np.zeros((n + d + 1, n + d + 1))
    np.power(cdist(x, x), 3, out=a[:n, :n])
    # cdist(x, x) has an exact zero diagonal and v + 0.0 == v, so adding
    # to the diagonal alone is bit for bit the sum with 1e-12 * I
    a[range(n), range(n)] += 1e-12
    a[:n, n] = a[n, :n] = 1.0
    a[:n, n + 1:] = x
    a[n + 1:, :n] = x.T
    return a


class _CubicRBF:
    """Cubic radial-basis interpolant with a linear polynomial tail."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, d = x.shape
        a = _saddle_matrix(x)
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


#: Training sets smaller than this are fitted by :class:`_CubicRBF` directly.
_DIRECT_MAX = 128
#: Border columns :class:`_IncrementalFit` holds between two LU factorizations.
_MAX_COLUMNS = 24


class _IncrementalFit:
    """Cubic-RBF fits of one search's changing training set, O(n^2) per fit.

    `xs` and `ys` are the search's archive buffers; a training set is an
    array of archive rows, and a row's point and value never change.  A
    call returns `(rows, weights, tail)`: the surrogate at `q` is
    `(cdist(q, xs[rows]) ** 3) @ weights + tail[0] + q @ tail[1:]`, as for
    `_CubicRBF(xs[rows], ys[rows])`.

    Sets smaller than `_DIRECT_MAX` are fitted by :class:`_CubicRBF`, which
    is faster there.  Past it the fit keeps the `lu_factor` of the saddle
    matrix A0 of the set at its last refactor (the base), and solves the
    current set's system as A0 bordered by W, one column per change since
    then (a low-rank correction; Hager, SIAM Rev. 31, 1989):
    - an added point's column is its coupling to the base rows, and its
      block entries G are its couplings to the other added points, with the
      1e-12 diagonal;
    - a dropped base point's column is a unit vector, with G entries 0: its
      multiplier absorbs the point's equation and pins its weight to 0.
    Z = A0^-1 W costs one `lu_solve` per column, and each fit solves the
    Schur complement system G - W^T Z of at most `_MAX_COLUMNS` columns.
    The residual is checked against the bordered matrix, `A0 x + W l` and
    `W^T x + G l`, with A0 applied as its factors P L U, so the fit holds
    one matrix of the training set's size and none of the archive's.
    Above 1e-10 max|b| the fit takes one refinement step; still above
    1e-8 max|b| it refactors.  It also refactors when the border would
    pass `_MAX_COLUMNS` columns, when a point added since the last
    refactor is dropped, or when the Schur complement solve fails.  A
    refactor whose LU meets an exactly zero pivot returns the
    :class:`_CubicRBF` fit instead, which falls back to least squares.

    The bordered form keeps the 1e-12 diagonal of an added point exact.
    On the `long-search` benchmark archives the surrogate values stay
    within 4e-9 of their range of the direct fit, with the same argmin at
    every step.  On synthetic search-shaped archives with pairs of points
    1e-6 apart the direct fit is itself only good to about 1e-6 of the
    range (against a solve refined in extended precision), and the two
    differ by up to that much.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs, self.ys = xs, ys
        self._lu = None

    def __call__(self, train: np.ndarray):
        if len(train) >= _DIRECT_MAX:
            if self._lu is not None and self._update(train):
                fit = self._solve()
                if fit is not None:
                    return fit
            if self._refactor(train):
                return self._solve()
        rbf = _CubicRBF(self.xs[train], self.ys[train])
        return train, rbf.weights, rbf.tail

    def _refactor(self, train) -> bool:
        """Factor the saddle matrix of `train`; False on an exactly zero pivot."""
        self._lu = None                     # free the old factorization first
        a0 = _saddle_matrix(self.xs[train])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                # a0 is symmetric, so its transpose is a0 in Fortran order,
                # which getrf factors in place
                self._lu = lu_factor(a0.T, overwrite_a=True, check_finite=False)
        except LinAlgWarning:
            return False
        n0 = len(a0)
        perm = list(range(n0))              # a0[perm] = L U
        for i, p in enumerate(self._lu[1].tolist()):
            perm[i], perm[p] = perm[p], perm[i]
        self._perm = np.array(perm)
        self._base = np.array(train)
        self._active = np.ones(len(train), dtype=bool)
        self._w = np.zeros((n0, _MAX_COLUMNS))
        self._z = np.zeros((n0, _MAX_COLUMNS))
        self._g = np.zeros((_MAX_COLUMNS, _MAX_COLUMNS))
        self._added = np.zeros(_MAX_COLUMNS, dtype=bool)    # else a drop
        self._rows = np.zeros(_MAX_COLUMNS, dtype=np.int64)  # its archive row
        self._cols = 0
        return True

    def _update(self, train) -> bool:
        """Border the base to reach `train`; False if it needs a refactor."""
        in_base = np.zeros(len(self.xs), dtype=bool)
        in_base[self._base[self._active]] = True
        in_fit = in_base.copy()
        in_fit[self._rows[:self._cols][self._added[:self._cols]]] = True
        wanted = np.zeros(len(self.xs), dtype=bool)
        wanted[train] = True
        new = np.flatnonzero(wanted & ~in_fit)
        gone = np.flatnonzero(in_fit & ~wanted)
        if (not in_base[gone].all()
                or self._cols + len(new) + len(gone) > _MAX_COLUMNS):
            return False
        n0, m = len(self._perm), len(self._base)
        for i in gone:
            p = int(np.searchsorted(self._base, i))
            self._active[p] = False
            self._border(i, np.eye(1, n0, p)[0], added=False)
        for i in new:
            column = np.empty(n0)
            column[:m] = cdist(self.xs[self._base], self.xs[i][None])[:, 0] ** 3
            column[m] = 1.0
            column[m + 1:] = self.xs[i]
            self._border(i, column, added=True)
        return True

    def _border(self, row: int, column: np.ndarray, added: bool):
        """Append border column `column` for archive row `row`."""
        c = self._cols
        self._w[:, c] = column
        self._z[:, c] = lu_solve(self._lu, column, check_finite=False)
        if added:
            others = np.flatnonzero(self._added[:c])
            g = cdist(self.xs[self._rows[others]], self.xs[row][None])[:, 0] ** 3
            self._g[c, others] = self._g[others, c] = g
            self._g[c, c] = 1e-12
        self._added[c], self._rows[c] = added, row
        self._cols += 1

    def _solve(self):
        """`(rows, weights, tail)` of the current set, or None to refactor."""
        n0, m, c = len(self._perm), len(self._base), self._cols
        lu = self._lu[0]
        w, z, g = self._w[:, :c], self._z[:, :c], self._g[:c, :c]
        added = self._added[:c]
        schur = g - w.T @ z
        b = np.zeros(n0)
        b[:m][self._active] = self.ys[self._base[self._active]]
        b_border = np.where(added, self.ys[self._rows[:c]], 0.0)

        def apply(r, r_border):             # the bordered system's inverse
            y = lu_solve(self._lu, r, check_finite=False)
            lam = np.linalg.solve(schur, r_border - w.T @ y)
            return y - z @ lam, lam

        def residual(x, lam):               # A0 x is P L U x
            a0x = np.empty(n0)
            a0x[self._perm] = dtrmv(lu, dtrmv(lu, x), lower=1, diag=1)
            return b - a0x - w @ lam, b_border - w.T @ x - g @ lam

        def size(r, r_border):
            return max(np.max(np.abs(r)), np.max(np.abs(r_border), initial=0.0))

        scale = size(b, b_border)
        try:
            x, lam = apply(b, b_border)
            r = residual(x, lam)
            if size(*r) > 1e-10 * scale:
                dx, dlam = apply(*r)
                x, lam = x + dx, lam + dlam
                r = residual(x, lam)
        except np.linalg.LinAlgError:       # a singular Schur complement
            return None
        if c and not size(*r) <= 1e-8 * scale:  # also catches a NaN residual
            return None
        rows = np.concatenate([self._base[self._active], self._rows[:c][added]])
        weights = np.concatenate([x[:m][self._active], lam[added]])
        return rows, weights, x[m:]


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
        coords = [halves / self.span]
        if len(self.heights) > 1:       # drop the coordinate when it cannot vary
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
_MAX_TRAIN = 400


def _search_one_count(count: int, target: BiasVector, config: DMDOptimConfig,
                      ctx: ProjectionContext, budget: int, rng):
    """One count's search: (pattern, power, value, log of true values).

    The LHS seed, each step and the power polish skip points whose exact id
    (`_point_ids`) is in the archive's set, so `budget` counts distinct
    points.  A step whose whole batch is archived ends the search: a
    quarter of each batch is drawn uniformly, so the space is spent.

    Each step's surrogate is trained on the whole archive up to
    `_MAX_TRAIN` points, past it on the best quarter of that cap plus the
    latest points.  One `_IncrementalFit` per search carries the fit from
    step to step, so a step costs O(n^2) instead of an O(n^3) solve; its
    surrogate values stay within rounding of the direct `_CubicRBF` fit
    (see the class), and below `_DIRECT_MAX` points they are that fit.
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
    surrogate = _IncrementalFit(xs, ys)

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
            best = np.argsort(ys[:n])[:_MAX_TRAIN // 4]
            recent = np.arange(n - (_MAX_TRAIN - len(best)), n)
            train = np.unique(np.concatenate([best, recent]))
        else:
            train = np.arange(n)
        rows, weights, tail = surrogate(train)
        s_val = (d[:, rows] ** 3) @ weights + tail[0] + q @ tail[1:]
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
    return replace(solution, error=trace.e_min, t_min=trace.t_min,
                   accepted=thresholds.accepts(trace.e_min, trace.t_min, t_max),
                   singular=False)
