"""Stage 2: exact mixed-integer search for realizable DMD patterns.

Given a target bias vector, searches superpixel index sets and height
(integers) to minimize the Euclidean distance between the optically
realized biases and the target; power only scales the projection, so each
pattern's objective is profiled over power by Gauss-Newton on the biases
(`_profile_power`), many patterns at once, with each step's slope in closed
form from the same extraction as its value.  The true objective runs the
forward model of :mod:`spinscape.optics`: projection, lattice plus
projection, bias extraction.

Each count searches the mirror-symmetric patterns of its half-pattern
superpixels over the heights, C(index_span, count // 2) * len(heights)
patterns, by profiling every one of them, in the batches of `_batches`:
`_CHUNK_ROWS` patterns of one count at one height.  A batch's P₁ block,
the |summed field|² of its patterns before the power scale, depends on no
target, so one search can profile several targets on it
(:func:`optimize_pattern`).  The paper pairs its quasi-Newton power steps
with a surrogate model over the pixels; mirror symmetry keeps these spaces
small enough to profile whole, which is exact (the default pipeline's
largest holds 2024 patterns).
`budget` caps the cost: a count whose space holds more than
`_CAP_FACTOR * budget` patterns is refused before any search
(`check_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, islice
from math import comb

import numpy as np

from .lattice import (HubbardParams, BiasVector, finite_positive, is_json_number,
                      require_stored)
from .dynamics import TransferProblem, fidelity_trace
from .optics import (DMDPattern, ExtractionError, ProjectionContext,
                     extract_bias_slopes, extract_biases, pattern_intensities,
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
    the projection at any power (see :func:`optimize_pattern`).  The biases
    are almost linear in power, so Gauss-Newton on them profiles it out
    (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
    Every row starts at p_lo.  Each step extracts every moving row once, at
    its power p, with :func:`extract_bias_slopes`: the potential is linear
    in p with slope `color_sign * unit / peak`, so that one extraction gives
    δ(p) and its slope b in closed form (the refined depths at their grid
    minima).  It moves the row to p + b·(t - δ)/‖b‖², clipped.  A row
    stops at a lost well (a NaN row), at ‖b‖² not positive, at a step below
    1e-10, at a step no shorter than its last (at a large misfit
    Gauss-Newton can cycle around the minimum), or after 32 steps.  Each
    row returns the first best power it visited, and its value equals
    `dmd_objective` there bit for bit.  The arithmetic is row by row, so no
    row depends on the others in its batch.
    """
    t, n = target.array, len(unit)
    sign = ctx.optics.color_sign
    p = np.full(n, float(p_lo))
    best_p, best_v, last = p.copy(), np.full(n, np.inf), np.full(n, np.inf)
    live = np.arange(n)                 # the rows still moving
    for _ in range(32):                 # a cap; shrinking steps need far fewer
        if not len(live):
            break
        q, live_unit = p[live], unit[live]
        v = sign * (live_unit * (q / peak)[:, None])
        v += ctx.lattice_values
        d0, b = extract_bias_slopes(v, live_unit, ctx)
        values = _misfits(d0, t)
        better = values < best_v[live]
        best_v[live[better]], best_p[live[better]] = values[better], q[better]
        b *= sign / peak
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


#: Patterns per `_profile_power` batch of a search: bounds its memory
#: (count 8 at one height peaks at 64 MB, against 252 MB in one batch).
_CHUNK_ROWS = 256
#: A count's space may hold at most this many times `budget` patterns.  At
#: the default budget, 2048, the cap of 131 072 holds every space of the
#: default counts (at most 50 600 patterns, count 6 over 25 heights) and
#: refuses count 12 at span 24 (134 596 patterns per height).
_CAP_FACTOR = 64


def check_counts(counts, heights, index_span, budget) -> None:
    """Raise ValueError unless every count can be searched over `heights`:
    `index_span` hosts its half pattern, and its space holds at most
    `_CAP_FACTOR * budget` patterns.  Kept out of
    :func:`check_search_settings`, so such a config still parses."""
    for count in counts:
        if count // 2 > index_span:
            raise ValueError(f"index span {index_span} cannot host "
                             f"{count // 2} distinct half-pattern superpixels")
        size = comb(index_span, count // 2) * len(heights)
        if size > _CAP_FACTOR * budget:
            raise ValueError(f"count {count} over {len(heights)} height(s) at "
                             f"index span {index_span} holds {size} patterns, "
                             f"more than the cap of {_CAP_FACTOR * budget} "
                             f"({_CAP_FACTOR} x budget {budget})")


@dataclass(frozen=True)
class DMDOptimConfig:
    """One pattern search: target, colour, search space and cost cap.

    Each count's space, C(index_span, count // 2) * len(heights)
    mirror-symmetric patterns, is searched whole: every pattern is profiled
    over `power_range`.  `budget` is a cost cap: :func:`check_counts`
    refuses a count whose space holds more than `_CAP_FACTOR * budget`
    patterns.  `DMDSolution.evaluations` runs in the order of `_batches`:
    counts in order, then `heights` in order and, within a height, half
    patterns in lexicographic order.
    """

    target: BiasVector = None
    color: str = "blue"
    heights: tuple = tuple(range(1, 26))
    counts: tuple = (2, 4, 6)
    index_span: int = 24
    power_range: tuple = (0.0, 1.0)
    budget: int = 2048

    def __post_init__(self):
        check_search_settings(self.counts, self.heights, self.index_span,
                              self.power_range, self.budget)


def _number_or_null(value) -> bool:
    return value is None or is_json_number(value)


def _bool_or_null(value) -> bool:
    return value is None or type(value) is bool


#: The scalars of a stored solution: the test of each JSON value, and what
#: it asks for.
_STORED_SCALARS = {"power": (is_json_number, "a finite number"),
                   "objective": (is_json_number, "a finite number"),
                   "e_min": (_number_or_null, "a finite number or null"),
                   "t_min": (_number_or_null, "a finite number or null"),
                   "accepted": (_bool_or_null, "true, false or null"),
                   "singular": (_bool_or_null, "true, false or null")}


@dataclass(frozen=True)
class DMDSolution:
    """A realized controller: pattern, power, achieved biases, and its metrics."""

    pattern: DMDPattern
    power: float
    color: str
    achieved: BiasVector
    objective: float
    evaluations: tuple = ()      # each profiled pattern's objective, in the
                                 # order of `_batches` (see DMDOptimConfig)
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
        """The solution of `to_dict`; the evaluation log is not stored.

        Each stored scalar must be of its JSON type (`_STORED_SCALARS`),
        else a ValueError names its key.
        """
        require_stored("solution", data, ("pattern", "power", "color",
                                          "achieved_delta", "objective", "e_min",
                                          "t_min", "accepted", "singular"))
        for key, (takes, what) in _STORED_SCALARS.items():
            if not takes(data[key]):
                raise ValueError(f"stored solution {key!r} must be {what}, "
                                 f"not {data[key]!r}")
        return cls(pattern=DMDPattern.from_dict(data["pattern"]), power=data["power"],
                   color=data["color"], achieved=BiasVector(data["achieved_delta"]),
                   objective=data["objective"], error=data["e_min"],
                   t_min=data["t_min"], accepted=data["accepted"],
                   singular=data["singular"])


def _batches(config: DMDOptimConfig):
    """The (index rows, height) of every `_profile_power` batch of a search.

    Counts in order, then heights in order and, within a height, half
    patterns in lexicographic order, `_CHUNK_ROWS` patterns per batch.
    Each row is one mirror-symmetric pattern: mirror, centre (odd counts),
    half.  The profile works row by row, so the chunk size moves no byte;
    it bounds the (rows x grid) intensity block and the profile's
    temporaries, whatever the size of the space.
    """
    for count in config.counts:
        n_half = count // 2
        for height in config.heights:
            halves = combinations(range(1, config.index_span + 1), n_half)
            while chunk := list(islice(halves, _CHUNK_ROWS)):
                half = np.array(chunk, dtype=np.int64).reshape(len(chunk), n_half)
                centre = np.zeros((len(chunk), count % 2), np.int64)
                yield np.hstack([-half[:, ::-1], centre, half]), height


def optimize_pattern(config: DMDOptimConfig, ctx: ProjectionContext,
                     targets=None):
    """Search patterns for the target, power profiled; best across all counts.

    After :func:`check_counts` has passed every count, every pattern of
    every count's space, C(index_span, count // 2) * len(heights) of them,
    is scored at its best power, one `_batches` batch at a time.  Each
    batch is one :func:`pattern_intensities` call on `ctx.fields` and
    `ctx.psf_rows`, the P₁ block of its rows, so `color_sign * unit[k] *
    (p / peak)` is :func:`project_intensity` of pattern k at power p, bit
    for bit, and one `_profile_power` call per target.  A target's result
    is the first minimum of its profiles in batch order, so no pattern of
    the space is missed.  Deterministic.

    Returns the solution for `config.target`.  With `targets`, a sequence
    of bias vectors, the space of `config` is searched for each of them on
    the same blocks instead, and the solutions come back as a list in their
    order (`config.target` is not read): each is the solution, evaluation
    log included, of this search with that target alone, bit for bit,
    because the profile works row by row.
    """
    one = targets is None
    targets = [config.target] if one else list(targets)
    if any(target is None for target in targets):
        raise ValueError("config.target must be set")
    if config.color != ctx.optics.color:
        raise ValueError(f"config color {config.color!r} does not match "
                         f"context optics {ctx.optics.color!r}")
    check_counts(config.counts, config.heights, config.index_span, config.budget)
    best, logs = [None] * len(targets), [[] for _ in targets]
    for rows, height in _batches(config):
        unit = pattern_intensities(rows, height, ctx.optics, ctx.grid,
                                   fields=ctx.fields, psf_rows=ctx.psf_rows)
        peak = single_superpixel_peak(height, ctx.optics)
        for n, target in enumerate(targets):
            powers, values = _profile_power(unit, peak, target, ctx,
                                            *config.power_range)
            k = int(np.argmin(values))
            if best[n] is None or values[k] < best[n][3]:
                best[n] = (rows[k], height, powers[k], values[k])
            logs[n].extend(values.tolist())
    solutions = []
    for target, (indices, height, power, value), log in zip(targets, best, logs):
        pattern = DMDPattern(indices=indices.tolist(), height=height, symmetric=True)
        power = float(power)
        try:
            achieved = realized_bias(pattern, power, ctx).bias
        except ExtractionError:
            achieved = BiasVector(np.zeros(target.n_sites - 1))
        solutions.append(DMDSolution(pattern=pattern, power=power,
                                     color=config.color, achieved=achieved,
                                     objective=float(value),
                                     evaluations=tuple(log)))
    return solutions[0] if one else solutions


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
