"""Diffraction-limited projection of binary micromirror patterns onto the lattice.

A superpixel is a block of device pixels switched together; each on-pixel
contributes a coherent Airy-type field at the atom plane.  The field is
linear in the on-superpixels, so it is composed from per-superpixel fields
(:func:`superpixel_field`), which callers may memoize across patterns that
share the optics and grid; :func:`pattern_intensities` composes many
patterns at once.  The projected potential is the squared modulus
of the summed field, scaled so that one isolated superpixel of the
configured size peaks at `power` recoil energies; power enters only this
scale.  Blue-detuned light is repulsive (+), red-detuned attractive (-).
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import j1, jn_zeros

from .lattice import LatticeConfig, HubbardParams, BiasVector, bare_couplings

#: First root of the Bessel function J1; sets the Airy radius nu = 2 pi r NA / lambda.
J1_FIRST_ZERO = float(jn_zeros(1, 1)[0])

#: PSF-tail margin, in Airy radii, that a chain grid keeps past the chain.
GRID_MARGIN_RADII = 3.0

COLOR_SIGNS = {"blue": +1.0, "red": -1.0}
COLOR_WAVELENGTHS = {"blue": 460e-9, "red": 940e-9}

#: Grid points per lattice spacing of a chain grid: the default `grid_step`.
GRID_POINTS_PER_SPACING = 64


class GridMarginError(ValueError):
    """The evaluation grid does not cover the chain plus the required margin."""


class PatternOverlapError(ValueError):
    """Two superpixels occupy overlapping device columns."""


class ExtractionError(RuntimeError):
    """Fewer potential minima than chain sites (projection destroyed a well)."""


@dataclass(frozen=True)
class OpticsConfig:
    """Projection-system parameters for one detuning color.

    The defaults are the blue optics on the default lattice: `wavelength`
    is ``COLOR_WAVELENGTHS["blue"]`` and `grid_step` is the default
    ``LatticeConfig().spacing`` over ``GRID_POINTS_PER_SPACING``.  The
    pipeline derives both from its own colour and lattice instead
    (`pipeline._color_optics`).
    """

    na: float = 0.68
    wavelength: float = COLOR_WAVELENGTHS["blue"]
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
        if self.pixel_pitch >= 0.61 * self.wavelength / self.na:
            raise ValueError("pixel pitch must stay below the diffraction-limited spot")
        if self.grid_step <= 0:
            raise ValueError("grid step must be positive")

    @property
    def color_sign(self) -> float:
        return COLOR_SIGNS[self.color]

    @property
    def first_zero_radius(self) -> float:
        """Radius of the first intensity null, 3.8317 lambda / (2 pi NA)."""
        return J1_FIRST_ZERO * self.wavelength / (2 * math.pi * self.na)

    @classmethod
    def blue(cls, **kwargs) -> "OpticsConfig":
        return cls(wavelength=COLOR_WAVELENGTHS["blue"], color="blue", **kwargs)

    @classmethod
    def red(cls, **kwargs) -> "OpticsConfig":
        return cls(wavelength=COLOR_WAVELENGTHS["red"], color="red", **kwargs)

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
    width: int = 1
    symmetric: bool = True

    def __init__(self, indices, height: int = 1, width: int = 1, symmetric: bool = True):
        idx = tuple(sorted(int(i) for i in indices))
        if len(set(idx)) != len(idx):
            raise ValueError("superpixel indices must be unique")
        if height < 1 or width < 1:
            raise ValueError("superpixel size must be at least 1x1")
        if symmetric and idx != tuple(sorted(-i for i in idx)):
            raise ValueError("pattern marked symmetric but indices are not mirror symmetric")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "symmetric", bool(symmetric))

    @property
    def count(self) -> int:
        return len(self.indices)

    def to_dict(self) -> dict:
        return {"width": self.width, "height": self.height, "count": self.count,
                "indices": list(self.indices), "symmetric": self.symmetric}

    @classmethod
    def from_dict(cls, data: dict) -> "DMDPattern":
        return cls(indices=data["indices"], height=data["height"],
                   width=data["width"], symmetric=data.get("symmetric", True))


def _superpixel_offsets(height: int, width: int, pitch: float):
    """Pixel-center offsets of one superpixel relative to its index position."""
    xs = (np.arange(width) - (width - 1) / 2) * pitch
    ys = (np.arange(height) - (height - 1) / 2) * pitch
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return gx.ravel(), gy.ravel()


def _check_overlap(pattern: DMDPattern) -> None:
    # indices are sorted and unique by construction
    if np.any(np.diff(pattern.indices) < pattern.width):
        raise PatternOverlapError("superpixels closer than their width overlap")


def expand_pattern(pattern: DMDPattern, pitch: float) -> np.ndarray:
    """Atom-plane (x, y) coordinates of every on-pixel, one row per pixel."""
    _check_overlap(pattern)
    idx = np.asarray(pattern.indices, dtype=float)
    if len(idx) == 0:
        return np.zeros((0, 2))
    ox, oy = _superpixel_offsets(pattern.height, pattern.width, pitch)
    coords = []
    for i in idx:
        coords.append(np.column_stack([i * pitch + ox, oy]))
    return np.concatenate(coords, axis=0)


def make_chain_grid(lattice: LatticeConfig, n_sites: int,
                    optics: OpticsConfig) -> np.ndarray:
    """Uniform grid covering the chain wells plus `GRID_MARGIN_RADII` Airy radii."""
    sites = lattice.site_positions(n_sites)
    half = max(abs(sites[0]), abs(sites[-1])) + lattice.spacing / 2 \
        + GRID_MARGIN_RADII * optics.first_zero_radius
    n = int(math.ceil(half / optics.grid_step))
    return np.arange(-n, n + 1) * optics.grid_step


def superpixel_field(index: int, height: int, width: int, optics: OpticsConfig,
                     x_grid: np.ndarray) -> np.ndarray:
    """Coherent field of one superpixel along the chain line y = 0, unit pixel peak.

    The sum of the per-pixel point-spread fields of the `height` x `width`
    block centered at device index `index`.  It does not depend on
    `optics.power`.
    """
    ox, oy = _superpixel_offsets(height, width, optics.pixel_pitch)
    # pixel k sits in column k // height and row k % height; rows r and
    # height-1-r have exactly opposite oy, hence equal radii, so each
    # (column, |oy|) is evaluated once and the rows are gathered back in
    # pixel order for the same row-by-row sum
    rows = np.arange(height)
    upper = height // 2                       # rows upper.. have oy >= 0
    mirror = np.maximum(rows, height - 1 - rows) - upper
    dx = x_grid[None, :] - (index * optics.pixel_pitch + ox[::height])[:, None]
    r = np.hypot(dx[:, None, :], oy[upper:height, None])
    psf = psf_field(optics, r)[:, mirror]
    return psf.reshape(height * width, len(x_grid)).sum(axis=0)


@lru_cache(maxsize=1024)
def _superpixel_peak(height: int, width: int, optics: OpticsConfig) -> float:
    ox, oy = _superpixel_offsets(height, width, optics.pixel_pitch)
    field = psf_field(optics, np.hypot(ox, oy)).sum()
    return float(abs(field) ** 2)


def single_superpixel_peak(pattern: DMDPattern, optics: OpticsConfig) -> float:
    """Unit-amplitude peak intensity of one isolated superpixel (at its center).

    It depends on the superpixel size and the optics up to `power`, and is
    computed once per such key and process.
    """
    return _superpixel_peak(pattern.height, pattern.width, optics.with_power(1.0))


def project_intensity(pattern: DMDPattern, optics: OpticsConfig, x_grid,
                      chain_extent=None, *, fields=None) -> np.ndarray:
    """Projected potential of a pattern on `x_grid`, in units of E_R.

    The coherent field is the sum of :func:`superpixel_field` over the
    pattern's indices, taken directly on the grid (exact for the Airy
    model, no convolution grid needed).  Its squared modulus is normalized
    so an isolated superpixel of the configured size peaks at
    `optics.power` E_R; the detuning sign turns intensity into a repulsive
    or attractive potential.  When `chain_extent = (lo, hi)` is given, the
    grid must cover it with `GRID_MARGIN_RADII` Airy radii to spare on both
    sides.

    `fields`, when given, is a memo of superpixel fields keyed by
    `(index, height, width)`: fields found there are reused and missing
    ones are stored.  A memo is valid for one grid and one optics up to
    `power`; the caller keeps it to that scope (see
    :class:`ProjectionContext`).
    """
    intensity = pattern_intensities([pattern.indices], pattern.height, pattern.width,
                                    optics, x_grid, chain_extent, fields=fields)[0]
    # an empty pattern's field is zero, so its scale only multiplies zeros
    intensity = intensity * (optics.power / single_superpixel_peak(pattern, optics))
    return optics.color_sign * intensity


def pattern_intensities(index_rows, height: int, width: int, optics: OpticsConfig,
                        x_grid, chain_extent=None, *, fields=None) -> np.ndarray:
    """|summed superpixel field|² of many patterns of one superpixel size, one
    row per pattern, before the power scale.

    Row k of `index_rows` holds the sorted indices of pattern k.  Its fields
    are added in that order, so `color_sign * row * (power / peak)` is
    :func:`project_intensity` of that pattern bit for bit (it computes its
    intensity here).  `chain_extent` and `fields` are as there; overlapping
    superpixels raise :class:`PatternOverlapError` before any field is made.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    rows = np.asarray(index_rows, dtype=np.int64)
    if chain_extent is not None:
        margin = GRID_MARGIN_RADII * optics.first_zero_radius
        lo, hi = chain_extent
        if x_grid[0] > lo - margin or x_grid[-1] < hi + margin:
            raise GridMarginError(
                f"grid [{x_grid[0]:.3e}, {x_grid[-1]:.3e}] lacks a {margin:.3e} m "
                f"margin around the chain [{lo:.3e}, {hi:.3e}]")
    if np.any(np.diff(rows, axis=1) < width):
        raise PatternOverlapError("superpixels closer than their width overlap")
    if fields is None:
        fields = {}
    keys = np.unique(rows)
    stack = []
    for index in keys.tolist():
        key = (index, height, width)
        if key not in fields:
            fields[key] = superpixel_field(index, height, width, optics, x_grid)
        stack.append(fields[key])
    field = np.zeros((len(rows), len(x_grid)), dtype=complex)
    if stack:
        stack, cols = np.array(stack), np.searchsorted(keys, rows)
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
    The PSF margin around the chain depends on the optics, so
    :func:`project_intensity` checks it on every projection: a context may
    carry optics its grid was not built for, as long as it never projects
    with them.

    `fields` memoizes superpixel fields keyed by `(index, height, width)`.
    Its scope is one context: one optics up to its power (which only scales
    the intensity) and one grid, so a projection off the grid must not pass
    it.  It starts empty, also in a context made by `dataclasses.replace`,
    so other optics or another grid never see stale fields.  It holds one
    complex array of `len(grid)` per height and index searched: about 18 MB
    for red optics with 25 heights and span 24 on the default `spacing /
    64` grid, at most 0.75 MB for one height.  A run makes one context per
    colour (`pipeline.color_contexts`); it serves that colour's pattern
    searches and then the drift sensitivities of its accepted solutions.
    Each `(colour, heights)` group of searches runs in one process, so each
    field is computed once per run unless a group is split across workers.
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
    def n_sites(self) -> int:
        return len(self.chain_sites)

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


def _well_minima(v: np.ndarray, ctx: ProjectionContext):
    """Refined position and depth of every chain well, per row of `v`.

    `v` holds total potentials on `ctx.grid`, one per row.  Each lattice
    period hosting the chain (`ctx.windows`) is searched for its minimum; a
    three-point parabola through the grid minimum removes the grid
    quantization.  A well is lost (NaN) when its grid minimum lands on a
    window edge or its curvature is not positive.
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
    vm, v0, vp, curv, j = vm[kept], v0[kept], vp[kept], curv[kept], j[kept]
    positions, depths = np.full((2, *kept.shape), np.nan)
    positions[kept] = ctx.grid[j] + 0.5 * (vm - vp) / curv * ctx.step
    # float_power is the C pow of a float64 scalar's ** 2; array ** 2 rounds otherwise
    depths[kept] = v0 - np.float_power(vm - vp, 2) / (8 * curv)
    return positions, depths


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
    positions, depths = (a[0] for a in _well_minima(v[None], ctx))
    lost = np.flatnonzero(np.isnan(depths))
    if len(lost):
        raise ExtractionError(f"the projection destroyed the well of site {lost[0] + 1}")
    deltas = np.diff(depths) / ctx.params.U
    return ExtractionResult(bias=BiasVector(deltas), positions=positions, depths=depths)


def extract_bias_rows(values, ctx: ProjectionContext) -> np.ndarray:
    """`extract_biases(row, ctx).bias.array` for each row of `values`, bit
    for bit, with NaN next to each lost well where that call would raise."""
    _, depths = _well_minima(np.asarray(values, dtype=float), ctx)
    return np.diff(depths, axis=1) / ctx.params.U
