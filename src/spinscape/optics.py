"""Diffraction-limited projection of binary micromirror patterns onto the lattice.

A superpixel is one device column of `height` pixels switched together,
centered at an integer index on the device x-axis; each on-pixel
contributes a coherent Airy-type field at the atom plane.  The field is
linear in the on-superpixels, so it is composed from per-superpixel fields
(:func:`superpixel_field`), which callers may memoize across patterns that
share the optics and grid, together with the point-spread rows the fields
are summed from, which superpixels of every height share;
:func:`pattern_intensities` composes many patterns at once and stores the
field of index -i as the reversed field of index i on a grid symmetric
about 0.  The projected potential is the squared modulus
of the summed field, scaled so that one isolated superpixel of the
configured height peaks at `power` recoil energies; power enters only this
scale.  Blue-detuned light is repulsive (+), red-detuned attractive (-).

The Bessel function `j1` of the Airy field is the ufunc that
`scipy.special` exports, taken from the compiled module
`scipy.special._special_ufuncs` by
:func:`~spinscape.lattice.load_scipy_extension`.  `import scipy.special`
would cost every process about 0.15 s, half of its start, for this one
function.  Of the two compiled modules that hold `j1`, `_special_ufuncs`
is the one whose init does not import `scipy.special` (that of `_ufuncs`
does).
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import (LatticeConfig, HubbardParams, BiasVector, bare_couplings,
                      load_scipy_extension, require_stored)

j1 = load_scipy_extension("scipy.special._special_ufuncs", "j1").j1

COLOR_SIGNS = {"blue": +1.0, "red": -1.0}
COLOR_WAVELENGTHS = {"blue": 460e-9, "red": 940e-9}

#: Grid points per lattice spacing of a chain grid: the default `grid_step`.
GRID_POINTS_PER_SPACING = 64


class ExtractionError(RuntimeError):
    """Fewer potential minima than chain sites (projection destroyed a well)."""


@dataclass(frozen=True)
class OpticsConfig:
    """Projection-system parameters for one detuning color.

    `wavelength` left unset is ``COLOR_WAVELENGTHS[color]``; an explicit
    one is kept.  The default `grid_step` is the default
    ``LatticeConfig().spacing`` over ``GRID_POINTS_PER_SPACING``; the
    pipeline derives it from its own lattice instead
    (`pipeline._color_optics`).
    """

    na: float = 0.68
    wavelength: float = None
    color: str = "blue"
    pixel_pitch: float = 80e-9           # effective on-pixel size at the atom plane
    grid_step: float = LatticeConfig().spacing / GRID_POINTS_PER_SPACING
    focal_length: float = 0.02
    fresnel_number: float = 100.0
    power: float = 1.0                   # peak single-superpixel potential, in E_R

    def __post_init__(self):
        if not 0 < self.na < 0.7:
            raise ValueError("NA must lie in (0, 0.7) for the scalar Airy model")
        if self.color not in COLOR_SIGNS:
            raise ValueError(f"color must be one of {sorted(COLOR_SIGNS)}")
        if self.wavelength is None:
            object.__setattr__(self, "wavelength", COLOR_WAVELENGTHS[self.color])
        if self.pixel_pitch >= 0.61 * self.wavelength / self.na:
            raise ValueError("pixel pitch must stay below the diffraction-limited spot")
        if self.grid_step <= 0:
            raise ValueError("grid step must be positive")

    @property
    def color_sign(self) -> float:
        return COLOR_SIGNS[self.color]

    def with_power(self, power: float) -> "OpticsConfig":
        return replace(self, power=power)


def psf_field(optics: OpticsConfig, r) -> np.ndarray:
    """Coherent point-spread field 2 J1(nu)/nu * exp(i phi) at radius r (unit peak).

    nu = 2 pi r NA / lambda and phi = -k f + nu^2 / (4 N_F) + pi/2; the ratio
    J1(nu)/nu takes its limit 1/2 at the axis, so |field(0)|^2 = 1.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be non-negative")
    nu = 2 * math.pi * r * optics.na / optics.wavelength
    amp = np.ones_like(nu)
    big = nu > 1e-9
    amp[big] = 2 * j1(nu[big]) / nu[big]
    k = 2 * math.pi / optics.wavelength
    phi = -k * optics.focal_length + nu ** 2 / (4 * optics.fresnel_number) + math.pi / 2
    return amp * np.exp(1j * phi)


@dataclass(frozen=True)
class DMDPattern:
    """Binary superpixel pattern: integer center positions on the device x-axis.

    Index units are the atom-plane pixel pitch with the origin at the array
    center.  A symmetric pattern is invariant under x -> -x.
    """

    indices: tuple
    height: int = 1
    symmetric: bool = True

    width = 1                    # not a field: one column, as stored by to_dict

    def __init__(self, indices, height: int = 1, symmetric: bool = True):
        idx = tuple(sorted(int(i) for i in indices))
        if len(set(idx)) != len(idx):
            raise ValueError("superpixel indices must be unique")
        if height < 1:
            raise ValueError("superpixel height must be at least 1")
        if symmetric and idx != tuple(sorted(-i for i in idx)):
            raise ValueError("pattern marked symmetric but indices are not mirror symmetric")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "symmetric", bool(symmetric))

    @property
    def count(self) -> int:
        return len(self.indices)

    def to_dict(self) -> dict:
        return {"width": self.width, "height": self.height, "count": self.count,
                "indices": list(self.indices), "symmetric": self.symmetric}

    @classmethod
    def from_dict(cls, data: dict) -> "DMDPattern":
        require_stored("pattern", data, ("width", "height", "indices"))
        if data["width"] != 1:
            raise ValueError(f"superpixel width must be 1, not {data['width']!r}")
        indices = data["indices"]
        if not isinstance(indices, list) or not all(type(i) is int for i in indices):
            raise ValueError(f"stored pattern 'indices' must be a JSON list of "
                             f"integers, not {indices!r}")
        if type(data["height"]) is not int:
            raise ValueError(f"stored pattern 'height' must be a JSON integer, "
                             f"not {data['height']!r}")
        return cls(indices=indices, height=data["height"],
                   symmetric=data.get("symmetric", True))


def _superpixel_offsets(height: int, pitch: float) -> np.ndarray:
    """Pixel-center y offsets of one superpixel relative to its index position."""
    return (np.arange(height) - (height - 1) / 2) * pitch


def expand_pattern(pattern: DMDPattern, pitch: float) -> np.ndarray:
    """Atom-plane (x, y) coordinates of every on-pixel, one row per pixel."""
    ys = _superpixel_offsets(pattern.height, pitch)
    return np.array([(i * pitch, y) for i in pattern.indices
                     for y in ys]).reshape(-1, 2)


def make_chain_grid(lattice: LatticeConfig, n_sites: int,
                    optics: OpticsConfig) -> np.ndarray:
    """Uniform grid, symmetric about 0, over the chain sites' periods: the
    windows the extraction reads (:class:`ProjectionContext`)."""
    sites = lattice.site_positions(n_sites)
    half = max(abs(sites[0]), abs(sites[-1])) + lattice.spacing / 2
    n = int(math.ceil(half / optics.grid_step))
    return np.arange(-n, n + 1) * optics.grid_step


def superpixel_field(index: int, height: int, optics: OpticsConfig,
                     x_grid: np.ndarray, psf_rows=None) -> np.ndarray:
    """Coherent field of one superpixel along the chain line y = 0, unit pixel peak.

    The sum of the per-pixel point-spread fields of the `height` pixels of
    the column at device index `index`.  It does not depend on
    `optics.power`.

    Row r of the column sits at oy = m / 2 * pitch with m = 2 r - (height -
    1), so rows with equal |m| have the same radii bit for bit, at this
    height and at every height of its parity.  `psf_rows` memoizes the
    point-spread field of one pixel, shape (len(x_grid),), keyed by
    `(index, |m|)`; each key is evaluated once, and the rows are stacked
    back in pixel order for the same row-by-row sum.  A memo is valid for
    one grid and one optics up to `power`, as in :func:`project_intensity`;
    without one the rows are evaluated here.
    """
    if psf_rows is None:
        psf_rows = {}
    ms = np.abs(2 * np.arange(height) - (height - 1)).tolist()
    for m in set(ms):
        if (index, m) not in psf_rows:
            dx = x_grid - index * optics.pixel_pitch
            # the kept row is a copy made after psf_field's temporaries are
            # freed, so it fills their gap in the heap instead of pinning the
            # heap above them (+1.3 MB peak RSS on a 25-height search)
            psf_rows[(index, m)] = psf_field(
                optics, np.hypot(dx, m / 2 * optics.pixel_pitch)).copy()
    return np.stack([psf_rows[(index, m)] for m in ms]).sum(axis=0)


@lru_cache(maxsize=1024)
def _superpixel_peak(height: int, optics: OpticsConfig) -> float:
    ys = _superpixel_offsets(height, optics.pixel_pitch)
    return float(abs(psf_field(optics, np.abs(ys)).sum()) ** 2)


def single_superpixel_peak(height: int, optics: OpticsConfig) -> float:
    """Unit-amplitude peak intensity of one isolated superpixel (at its center).

    It depends on the superpixel height and the optics up to `power`, and
    is computed once per such key and process.
    """
    return _superpixel_peak(height, optics.with_power(1.0))


def project_intensity(pattern: DMDPattern, optics: OpticsConfig, x_grid, *,
                      fields=None, psf_rows=None) -> np.ndarray:
    """Projected potential of a pattern on `x_grid`, in units of E_R.

    The coherent field is the sum of :func:`superpixel_field` over the
    pattern's indices, taken directly on the grid (exact for the Airy
    model, no convolution grid needed).  Its squared modulus is normalized
    so an isolated superpixel of the configured height peaks at
    `optics.power` E_R; the detuning sign turns intensity into a repulsive
    or attractive potential.

    `fields`, when given, is a memo of superpixel fields keyed by
    `(index, height)`: fields found there are reused and missing ones are
    stored.  `psf_rows` is the memo of their point-spread rows
    (:func:`superpixel_field`).  A memo is valid for one grid and one
    optics up to `power`; the caller keeps it to that scope (see
    :class:`ProjectionContext`).
    """
    intensity = pattern_intensities([pattern.indices], pattern.height, optics, x_grid,
                                    fields=fields, psf_rows=psf_rows)[0]
    # an empty pattern's field is zero, so its scale only multiplies zeros
    peak = single_superpixel_peak(pattern.height, optics)
    intensity = intensity * (optics.power / peak)
    return optics.color_sign * intensity


def pattern_intensities(index_rows, height: int, optics: OpticsConfig, x_grid, *,
                        fields=None, psf_rows=None) -> np.ndarray:
    """|summed superpixel field|² of many patterns of one superpixel height,
    one row per pattern, before the power scale.

    Row k of `index_rows` holds the sorted, distinct indices of pattern k.
    Its fields are added in that order, so `color_sign * row * (power /
    peak)` is :func:`project_intensity` of that pattern bit for bit (it
    computes its intensity here).  `fields` and `psf_rows` are as there.

    On a grid with ``x_grid[::-1] == -x_grid`` exactly, as
    :func:`make_chain_grid` builds it, the field of index -i is that of
    index i reversed, bit for bit: each offset x - i pitch is the exact
    negative of its mirror's.  There a missing field whose mirror twin is
    in the memo is stored as a reversed view of the twin.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    rows = np.asarray(index_rows, dtype=np.int64)
    if fields is None:
        fields = {}
    mirrored = np.array_equal(x_grid[::-1], -x_grid)
    # np.unique's inverse path, unlike its plain one, imports no numpy.ma on
    # first use; before numpy 2 the inverse is flat
    keys, cols = np.unique(rows, return_inverse=True)
    cols = cols.reshape(rows.shape)
    stack = []
    for index in keys.tolist():
        key = (index, height)
        if key not in fields:
            twin = fields.get((-index, height)) if mirrored else None
            fields[key] = (twin[::-1] if twin is not None else
                           superpixel_field(index, height, optics, x_grid, psf_rows))
        stack.append(fields[key])
    field = np.zeros((len(rows), len(x_grid)), dtype=complex)
    if stack:
        stack = np.array(stack)
        for k in range(rows.shape[1]):
            field += stack[cols[:, k]]
    return np.abs(field) ** 2


def lattice_profile(lattice: LatticeConfig, zeta: float, x_grid) -> np.ndarray:
    """Bare lattice zeta cos(2 k x + phase) on `x_grid`, in units of E_R."""
    x_grid = np.asarray(x_grid, dtype=float)
    return zeta * np.cos(2 * lattice.wavenumber * x_grid + lattice.phase)


@dataclass(frozen=True)
class ProjectionContext:
    """The pattern-independent parts of the map (pattern, power) -> biases.

    When the context is made, also by `dataclasses.replace`, it checks once
    that `grid` is a finite, uniform 1-D array, and computes from it
    `lattice_values` (:func:`lattice_profile` at `zeta`) and `windows`, the
    grid indices within half a spacing of each chain site, and
    `window_gather`, their starts, lengths, padded gather index and pad
    mask, which :func:`_well_minima` reads.  :func:`extract_biases` reads
    the grid, its step, the windows and the bias unit `params.U` from here.

    `fields` memoizes superpixel fields keyed by `(index, height)`, and
    `psf_rows` the point-spread rows they are summed from, keyed by
    `(index, |2 r - (height - 1)|)` (:func:`superpixel_field`).
    Their scope is one context: one optics up to its power (which only
    scales the intensity) and one grid, so a projection off the grid must
    not pass them.  They start empty, also in a context made by
    `dataclasses.replace`, so other optics or another grid never see stale
    fields.  `fields` holds one complex array of `len(grid)` per height and
    index searched, but on the chain grid half of the fields are
    reversed views of their mirror twins (:func:`pattern_intensities`), and
    only the other half evaluate rows.  With 25 heights and span 24 on the
    default 5-site chain grid (329 points, `spacing / 64` apart) that is
    3.2 MB of fields and 3.2 MB of rows for either colour; one height holds
    at most 0.13 MB of fields and 1.6 MB of rows (height 25).  A run makes
    one context per colour (`pipeline.color_contexts`); it serves that
    colour's pattern searches and then the drift sensitivities of its
    accepted solutions.  Each `(colour, heights)` group of searches runs in
    one process, so each field is computed once per run unless a group is
    split across workers.
    """

    optics: OpticsConfig
    lattice: LatticeConfig
    zeta: float
    params: HubbardParams        # physical couplings at zeta; sets the bias unit U
    grid: np.ndarray
    chain_sites: np.ndarray
    fields: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    psf_rows: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    lattice_values: np.ndarray = field(init=False, repr=False, compare=False)
    windows: tuple = field(init=False, repr=False, compare=False)
    window_gather: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or not np.all(np.isfinite(grid)):
            raise ValueError("grid must be a finite 1-D array")
        steps = np.diff(grid)
        if len(steps) > 1 and np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise ValueError("grid must be uniform")
        half = self.lattice.spacing / 2
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "lattice_values",
                           lattice_profile(self.lattice, self.zeta, grid))
        object.__setattr__(self, "windows", tuple(
            np.nonzero(np.abs(grid - xm) <= half)[0] for xm in self.chain_sites))
        if min(map(len, self.windows)) < 3:
            raise ValueError("grid must hold three points in each chain site's period")
        # each window is a run of grid indices; pad all to the longest
        lens = np.array([len(sel) for sel in self.windows])
        starts = np.array([sel[0] for sel in self.windows])
        span = np.arange(lens.max())
        object.__setattr__(self, "window_gather", (
            starts, lens, np.minimum(starts[:, None] + span, len(grid) - 1),
            span >= lens[:, None]))

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


def make_context(optics: OpticsConfig, lattice: LatticeConfig, zeta: float,
                 n_sites: int) -> ProjectionContext:
    """A context on the chain grid of `optics` (see :func:`make_chain_grid`)."""
    return ProjectionContext(optics=optics, lattice=lattice, zeta=zeta,
                             params=bare_couplings(zeta, lattice),
                             grid=make_chain_grid(lattice, n_sites, optics),
                             chain_sites=lattice.site_positions(n_sites))


@dataclass(frozen=True)
class ExtractionResult:
    """Per-well minima of the total potential and the biases they induce."""

    bias: BiasVector
    positions: np.ndarray       # refined minimum location per well, meters
    depths: np.ndarray          # potential at each minimum, units of E_R


def _well_minima(v: np.ndarray, ctx: ProjectionContext, tangents=None):
    """Refined position and depth of every chain well, per row of `v`, and
    with `tangents` the depth's derivative along them.

    `v` holds total potentials on `ctx.grid`, one per row.  Each lattice
    period hosting the chain (`ctx.windows`) is searched for its minimum; a
    three-point parabola through the grid minimum removes the grid
    quantization.  A well is lost (NaN) when its grid minimum lands on a
    window edge or its curvature is not positive.

    At a grid minimum j the refined depth is v0 - (vm - vp)² / (8 c), with
    c = vm - 2 v0 + vp, a closed form in the three grid values around j.
    `tangents`, when given, holds one row dv/ds per row of `v`; the third
    array returned is then the exact derivative of each depth along it,
    t0 - a (tm - tp) / 4 + a² (tm - 2 t0 + tp) / 8 with a = (vm - vp) / c,
    gathered at the same points, for every s at which the grid minima stay
    where they are (NaN at a lost well).  Without `tangents` it is None.
    """
    if v.ndim != 2 or v.shape[1:] != ctx.grid.shape:
        raise ValueError(f"potential of shape {v.shape} on a grid of "
                         f"shape {ctx.grid.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential values must be finite")
    starts, lens, index, pad = ctx.window_gather
    block = v[:, index]                         # windows padded with +inf
    block[:, pad] = np.inf
    i = np.argmin(block, axis=2)                # (potentials, sites)
    j = starts + np.minimum(np.maximum(i, 1), lens - 2)
    rows = np.arange(len(v))[:, None]
    vm, v0, vp = v[rows, j - 1], v[rows, j], v[rows, j + 1]
    curv = vm - 2 * v0 + vp
    kept = (i > 0) & (i < lens - 1) & (curv > 0)
    vm, v0, vp, curv = vm[kept], v0[kept], vp[kept], curv[kept]
    positions, depths = np.full((2, *kept.shape), np.nan)
    positions[kept] = ctx.grid[j[kept]] + 0.5 * (vm - vp) / curv * ctx.step
    # float_power is the C pow of a float64 scalar's ** 2; array ** 2 rounds otherwise
    depths[kept] = v0 - np.float_power(vm - vp, 2) / (8 * curv)
    if tangents is None:
        return positions, depths, None
    tm, t0, tp = (tangents[rows, j + k][kept] for k in (-1, 0, 1))
    a = (vm - vp) / curv
    slopes = np.full(kept.shape, np.nan)
    slopes[kept] = t0 - a * (tm - tp) / 4 + a * a * (tm - 2 * t0 + tp) / 8
    return positions, depths, slopes


def extract_biases(values, ctx: ProjectionContext) -> ExtractionResult:
    """Locate the chain's potential minima in `values` and form normalized biases.

    `values` is the total potential (lattice plus projection) on
    `ctx.grid`, with wells found by :func:`_well_minima`; delta_j =
    (depth_{j+1} - depth_j) / U.  A lost well means the projection
    destroyed it, which raises :class:`ExtractionError` naming the site.
    Biases with |delta| >= 1 are returned for diagnostics; the dynamics
    reject them separately.
    """
    v = np.asarray(values, dtype=float)
    positions, depths, _ = _well_minima(v[None], ctx)
    positions, depths = positions[0], depths[0]
    lost = np.flatnonzero(np.isnan(depths))
    if len(lost):
        raise ExtractionError(f"the projection destroyed the well of site {lost[0] + 1}")
    deltas = np.diff(depths) / ctx.params.U
    return ExtractionResult(bias=BiasVector(deltas), positions=positions, depths=depths)


def extract_bias_rows(values, ctx: ProjectionContext) -> np.ndarray:
    """`extract_biases(row, ctx).bias.array` for each row of `values`, bit
    for bit, with NaN next to each lost well where that call would raise."""
    _, depths, _ = _well_minima(np.asarray(values, dtype=float), ctx)
    return np.diff(depths, axis=1) / ctx.params.U


def extract_bias_slopes(values, tangents, ctx: ProjectionContext) -> tuple:
    """(`extract_bias_rows(values, ctx)`, the derivative of those biases
    along the rows of `tangents`), from one extraction.

    Row k of `tangents` is dv/ds of row k of `values`.  The derivative is
    that of the refined depths at fixed grid minima (:func:`_well_minima`),
    so it is exact wherever the wells' grid minima stay put; a NaN bias has
    a NaN derivative.
    """
    _, depths, slopes = _well_minima(np.asarray(values, dtype=float), ctx,
                                     tangents)
    return (np.diff(depths, axis=1) / ctx.params.U,
            np.diff(slopes, axis=1) / ctx.params.U)
