"""Optical-lattice physics: Hubbard parameters and superexchange couplings.

Everything downstream works in normalized units: energies are stored as
multiples of the recoil energy E_R, biases as multiples of the on-site
interaction U, and dynamics run with the nominal values J = 0.01, U = 1 so
that one normalized time unit corresponds to the physical interval returned
by :func:`time_unit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import hbar

# Bohr radius and Rb-87 mass; scattering length defaults to 95 a0.
BOHR_RADIUS = 5.29e-11
RB87_MASS = 1.4432e-25

# Nominal normalized Hubbard point used by the spin dynamics: J/U = 0.01.
NOMINAL_J = 0.01
NOMINAL_U = 1.0
NOMINAL_ALPHA = NOMINAL_J / NOMINAL_U


class BiasSingularityError(ValueError):
    """A bias magnitude reached |delta| >= 1 where the effective coupling diverges."""


@dataclass(frozen=True)
class LatticeConfig:
    """Retro-reflected 1D lattice with spacing d = wavelength / 2."""

    wavelength: float = 1064e-9
    depth: float = 10.0                      # zeta, in units of E_R
    phase: float = math.pi                   # puts a potential minimum at x = 0
    atom_mass: float = RB87_MASS
    scattering_length: float = 95 * BOHR_RADIUS

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.depth <= 0:
            raise ValueError("lattice depth must be positive")
        if self.atom_mass <= 0 or self.scattering_length <= 0:
            raise ValueError("atom mass and scattering length must be positive")

    @property
    def wavenumber(self) -> float:
        return 2 * math.pi / self.wavelength

    @property
    def spacing(self) -> float:
        return self.wavelength / 2

    @property
    def recoil_energy(self) -> float:
        """E_R = hbar^2 k^2 / 2m in joules."""
        return (hbar * self.wavenumber) ** 2 / (2 * self.atom_mass)

    def site_positions(self, n_sites: int) -> np.ndarray:
        """The n_sites potential minima closest to x = 0, sorted by position.

        Minima of cos(2kx + phase) sit at 2kx + phase = pi (mod 2pi).  Ties
        between candidates equidistant from the origin are broken toward
        negative x so the selection is deterministic for any phase.
        """
        if n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        x0 = (math.pi - self.phase) / (2 * self.wavenumber)
        m = np.arange(-n_sites - 2, n_sites + 3)
        candidates = x0 + m * self.spacing
        order = np.lexsort((candidates, np.abs(candidates)))
        return np.sort(candidates[order[:n_sites]])


@dataclass(frozen=True)
class HubbardParams:
    """Bare tunneling J and on-site interaction U, both in units of E_R."""

    J: float
    U: float

    @property
    def alpha(self) -> float:
        return self.J / self.U


#: Normalized parameters assumed by the spin dynamics and both optimizers.
NOMINAL_PARAMS = HubbardParams(J=NOMINAL_J, U=NOMINAL_U)


def bare_couplings(zeta: float, lattice: LatticeConfig) -> HubbardParams:
    """Harmonic-approximation Hubbard parameters for lattice depth zeta.

    J/E_R = (4/sqrt(pi)) zeta^(3/4) exp(-2 sqrt(zeta))
    U/E_R = (2 sqrt(2)/sqrt(pi)) zeta^(3/4) (k a_s)
    """
    if zeta <= 0:
        raise ValueError("lattice depth zeta must be positive")
    z34 = zeta ** 0.75
    J = 4 / math.sqrt(math.pi) * z34 * math.exp(-2 * math.sqrt(zeta))
    U = 2 * math.sqrt(2) / math.sqrt(math.pi) * z34 \
        * lattice.wavenumber * lattice.scattering_length
    return HubbardParams(J=J, U=U)


def _nonsingular(delta) -> np.ndarray:
    """`delta` as a float array; raise if any |delta| reaches 1."""
    d = np.asarray(delta, dtype=float)
    singular = np.abs(d) >= 1
    if singular.any():
        raise BiasSingularityError("effective coupling singular at |delta| >= 1 "
                                   f"(got {float(d[singular].flat[0])})")
    return d


def effective_coupling(params: HubbardParams, delta):
    """Superexchange coupling 2 J^2 U / (U^2 - (delta U)^2) for a normalized bias.

    `delta` is the site-to-site bias in units of U; the result carries the
    same energy units as params.J and params.U.  Diverges at |delta| = 1.
    A float gives a float; an array of biases gives the array of couplings,
    each bit for bit the float result.
    """
    d = _nonsingular(delta)
    c = 2 * params.J ** 2 / params.U / (1 - d * d)
    return c if d.ndim else float(c)


def effective_coupling_derivative(params: HubbardParams, delta):
    """d/d(delta) of :func:`effective_coupling`: 4 J^2 delta / (U (1 - delta^2)^2).

    Floats and arrays as for :func:`effective_coupling`.  The square is
    `np.float_power`, the C library's pow that Python's `** 2` calls;
    numpy's `** 2` multiplies, which differs in the last bit on about 1 in
    1000 values.
    """
    d = _nonsingular(delta)
    dc = 4 * params.J ** 2 * d / (params.U * np.float_power(1 - d * d, 2))
    return dc if d.ndim else float(dc)


def time_unit(zeta: float, lattice: LatticeConfig) -> float:
    """Physical seconds per normalized time unit at lattice depth zeta.

    tau = hbar alpha0^2 / (U alpha^2) with alpha0 = 0.01 the nominal J/U and
    U the physical on-site interaction in joules.  Satisfies
    tau * U * alpha^2 / hbar = alpha0^2 exactly.
    """
    p = bare_couplings(zeta, lattice)
    U_joule = p.U * lattice.recoil_energy
    return hbar * NOMINAL_ALPHA ** 2 / (U_joule * p.alpha ** 2)


def double_well_gap_ratio(J: float, U: float, delta: float) -> float:
    """Exact-diagonalization check of the superexchange law in a tilted double well.

    Diagonalizes the 4-state Hamiltonian over {both singly occupied (x2),
    doubly occupied left, doubly occupied right} with diagonal
    (0, 0, U - delta, U + delta) and tunneling -J linking every singly
    occupied state to every doubly occupied one.  Returns the splitting of
    the two lowest levels relative to the untilted splitting, which tends to
    U^2 / (U^2 - delta^2) in the perturbative limit J << U - |delta|.

    Here `delta` is an energy on the same scale as J and U, not a ratio.
    """
    if J <= 0 or U <= 0:
        raise ValueError("J and U must be positive")
    if J / U > 0.02:
        raise ValueError(f"J/U = {J / U:.4g} outside the perturbative regime (need <= 0.02)")
    if abs(delta) >= U:
        raise ValueError(f"|delta| = {abs(delta):.4g} must stay below U = {U:.4g}")

    def splitting(tilt: float) -> float:
        h = np.array([
            [0.0, 0.0, -J, -J],
            [0.0, 0.0, -J, -J],
            [-J, -J, U - tilt, 0.0],
            [-J, -J, 0.0, U + tilt],
        ])
        w = np.linalg.eigvalsh(h)
        return w[1] - w[0]

    return splitting(float(delta)) / splitting(0.0)


@dataclass(frozen=True)
class BiasVector:
    """Site-to-site biases in units of U; controls an (n_sites)-site chain.

    Values with |delta_j| >= 1 are representable (extraction returns them
    for diagnostics) but are rejected by the dynamics.
    """

    values: tuple = field(default=())

    def __init__(self, values):
        arr = tuple(float(v) for v in np.asarray(values, dtype=float).ravel())
        if len(arr) < 1:
            raise ValueError("a bias vector needs at least one element")
        object.__setattr__(self, "values", arr)

    @property
    def n_sites(self) -> int:
        return len(self.values) + 1

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.array)))

    def is_dynamical(self) -> bool:
        """True when every bias is strictly inside the |delta| < 1 singularity."""
        return self.max_abs < 1.0

    def min_singularity_gap(self) -> float:
        """min_j | |delta_j| - 1 |, the distance to the coupling singularity."""
        return float(np.min(np.abs(np.abs(self.array) - 1.0)))


def as_bias_array(delta) -> np.ndarray:
    """Accept a BiasVector or any array-like and return a float array."""
    if isinstance(delta, BiasVector):
        return delta.array
    return np.asarray(delta, dtype=float).ravel()
