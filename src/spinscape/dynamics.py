"""Single-excitation spin dynamics: Hamiltonian assembly, propagation, fidelity.

The chain Hamiltonian is H = sum_j c_j S_j where c_j is the superexchange
coupling for bond j and S_j the fixed bond matrix below.  H is real
symmetric, so propagation, the fidelity error and its exact gradient all go
through one eigendecomposition per bias vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (HubbardParams, effective_coupling,
                      effective_coupling_derivative, as_bias_array)

#: Eigenvalue gaps below this fraction of the spectral radius use the
#: confluent (equal-eigenvalue) limit of the divided difference.
DEGENERACY_THRESHOLD = 1e-12


def structure_matrix(j: int, n_sites: int) -> np.ndarray:
    """Bond matrix S_j (1-based bond index j = 1 .. n_sites - 1).

    S_j = I/2 + (E_{j,j+1} + E_{j+1,j}) - (E_{j,j} + E_{j+1,j+1}),
    i.e. hopping across the bond plus a -1 shift of the two bond sites on
    top of a global +1/2.  trace(S_j) = n_sites/2 - 2.
    """
    if not 1 <= j <= n_sites - 1:
        raise ValueError(f"bond index {j} outside 1..{n_sites - 1}")
    s = 0.5 * np.eye(n_sites)
    a, b = j - 1, j
    s[a, b] = s[b, a] = 1.0
    s[a, a] -= 1.0
    s[b, b] -= 1.0
    return s


@functools.lru_cache(maxsize=None)
def _bond_diagonals(n_sites: int) -> np.ndarray:
    """Read-only (n_sites, n_sites - 1) array: column j - 1 is diag(S_j)."""
    diagonals = np.stack([np.diagonal(structure_matrix(j, n_sites))
                          for j in range(1, n_sites)], axis=1)
    diagonals.flags.writeable = False
    return diagonals


@dataclass(frozen=True)
class TransferProblem:
    """State transfer between two basis sites of an n_sites chain (1-based)."""

    n_sites: int = 5
    initial: int = 1
    target: int = 5

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        for idx in (self.initial, self.target):
            if not 1 <= idx <= self.n_sites:
                raise ValueError(f"site index {idx} outside 1..{self.n_sites}")
        if self.initial == self.target:
            raise ValueError("initial and target sites must differ")

    def initial_state(self) -> np.ndarray:
        e = np.zeros(self.n_sites)
        e[self.initial - 1] = 1.0
        return e

    def target_state(self) -> np.ndarray:
        e = np.zeros(self.n_sites)
        e[self.target - 1] = 1.0
        return e


class EffectiveHamiltonian:
    """Assembled chain Hamiltonian with its eigendecomposition cached.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, couplings: np.ndarray, delta: np.ndarray, params: HubbardParams):
        self.couplings = np.array(couplings, dtype=float)
        self.delta = np.array(delta, dtype=float)
        self.params = params
        n = len(self.couplings) + 1
        # sum_j c_j S_j without the dense S_j: bond j puts c_j next to the
        # diagonal and c_j S_j[i, i] on it, which cumsum adds up in the
        # order j = 1 .. n-1 of the sum, so the matrix is bit for bit the same
        m = np.diag(np.cumsum(self.couplings * _bond_diagonals(n), axis=1)[:, -1])
        m.flat[1::n + 1] = m.flat[n::n + 1] = self.couplings
        self.matrix = m
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(m)

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]


def hamiltonian(delta, params: HubbardParams) -> EffectiveHamiltonian:
    """Build the effective Hamiltonian for a bias vector (units of U)."""
    arr = as_bias_array(delta)
    return EffectiveHamiltonian(effective_coupling(params, arr), arr, params)


def propagate(ham: EffectiveHamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-i t H) via the cached eigenbasis."""
    if t < 0:
        raise ValueError("time must be non-negative")
    v = ham.eigenvectors
    phases = np.exp(-1j * ham.eigenvalues * t)
    return (v * phases) @ v.conj().T


def transfer_amplitude(ham: EffectiveHamiltonian, t, problem: TransferProblem):
    """<target| exp(-i t H) |initial>; `t` may be a scalar or an array."""
    v = ham.eigenvectors
    weights = v[problem.target - 1] * v[problem.initial - 1]
    t = np.asarray(t, dtype=float)
    return weights @ np.exp(-1j * np.multiply.outer(ham.eigenvalues, t))


def fidelity_error_from_ham(ham: EffectiveHamiltonian, t: float,
                            problem: TransferProblem) -> float:
    a = transfer_amplitude(ham, float(t), problem)
    return float(1.0 - abs(a) ** 2)


def fidelity_error(delta, t: float, problem: TransferProblem,
                   params: HubbardParams) -> float:
    """1 - |<target| exp(-i t H(delta)) |initial>|^2, in [0, 1]."""
    return fidelity_error_from_ham(hamiltonian(delta, params), t, problem)


def divided_differences(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """Phi_mn = (exp(-i l_m t) - exp(-i l_n t)) / (-i t (l_m - l_n)).

    The propagator's Frechet derivative along S is -i t V (Phi o V^T S V) V^T
    (Najfeld & Havel, Adv. Appl. Math. 16, 1995).  (Near-)degenerate pairs
    take the confluent limit exp(-i l_m t); at t = 0 every entry is 1.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if t == 0:
        return np.ones((len(w), len(w)), dtype=complex)
    diff = np.subtract.outer(w, w)
    phases = np.exp(-1j * w * t)
    scale = max(np.max(np.abs(w)), 1.0)
    distinct = np.abs(diff) >= DEGENERACY_THRESHOLD * scale
    phi = np.repeat(phases[:, None], len(w), axis=1)       # confluent limit
    np.divide(np.subtract.outer(phases, phases), -1j * t * diff, out=phi,
              where=distinct)
    return phi


def fidelity_gradient_from_ham(ham: EffectiveHamiltonian, t: float,
                               problem: TransferProblem) -> tuple:
    """(e, de/d(delta), de/dT) at (ham.delta, t) from the cached eigenbasis.

    With a = <f|U|i>, e = 1 - |a|^2 and de = -2 Re(conj(a) da):
    - da/dT = sum_k x_k y_k (-i l_k) exp(-i l_k T), with x, y the target and
      initial rows of the eigenvectors V;
    - da/d(delta_j) = -i T <f|K(S_j)|i> dc_j/d(delta_j).  <f|K(S)|i> is
      sum_pq S_pq Q_pq with Q = V (Phi o x y^T) V^T and Phi the
      :func:`divided_differences` matrix, so each bond reads its term off
      the diagonal and the off-diagonals of Q:
      Q_{j,j+1} + Q_{j+1,j} - Q_jj - Q_{j+1,j+1}.  The I/2 in S_j adds
      tr(Q)/2 = a/2, which only turns the phase of a and drops out of e.
    `e` equals :func:`fidelity_error_from_ham` bit for bit.
    """
    w, v = ham.eigenvalues, ham.eigenvectors
    x = v[problem.target - 1]
    y = v[problem.initial - 1]
    a = transfer_amplitude(ham, float(t), problem)
    e = float(1.0 - abs(a) ** 2)
    phases = np.exp(-1j * w * t)
    de_dt = -2 * np.imag(np.conj(a) * ((x * y * w) @ phases))
    q = v @ (divided_differences(w, t) * np.outer(x, y)) @ v.T
    d = np.diagonal(q)
    k = np.diagonal(q, 1) + np.diagonal(q, -1) - d[:-1] - d[1:]
    dc = effective_coupling_derivative(ham.params, ham.delta)
    de_ddelta = -2 * t * dc * np.imag(k * np.conj(a))
    return e, de_ddelta, float(de_dt)


def fidelity_error_and_gradient(delta, t: float, problem: TransferProblem,
                                params: HubbardParams) -> tuple:
    """(e, de/d(delta), de/dT) from one eigendecomposition of H(delta)."""
    return fidelity_gradient_from_ham(hamiltonian(delta, params), t, problem)


@dataclass(frozen=True)
class FidelityTrace:
    """Fidelity error sampled on a uniform grid plus the refined minimum."""

    times: np.ndarray
    errors: np.ndarray
    t_min: float
    e_min: float


def golden_section(f, a: float, b: float, tol: float):
    """Golden-section search for a minimum of f inside [a, b].

    The endpoints are not evaluated.  Returns the final bracket pair
    ((c, f(c)), (d, f(d))) and every probe (x, f(x)) in evaluation order.
    """
    invphi = (math.sqrt(5.0) - 1) / 2
    probes = []

    def probe(x):
        fx = f(x)
        probes.append((x, fx))
        return fx

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = probe(c), probe(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = probe(d)
    return ((c, fc), (d, fd)), probes


def fidelity_trace(delta, problem: TransferProblem, params: HubbardParams,
                   t_max: float, n_steps: int = 2000,
                   refine_tol: float = 1e-10) -> FidelityTrace:
    """Sample the fidelity error on [0, t_max] and refine the grid minimum.

    The grid argmin is polished by golden-section search inside its
    bracketing interval; the reported minimum is never worse than the best
    grid sample.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    ham = hamiltonian(delta, params)
    times = np.linspace(0.0, float(t_max), int(n_steps))
    errors = 1.0 - np.abs(transfer_amplitude(ham, times, problem)) ** 2
    errors = np.clip(errors, 0.0, 1.0)
    i = int(np.argmin(errors))
    lo = times[max(i - 1, 0)]
    hi = times[min(i + 1, len(times) - 1)]
    f = lambda t: fidelity_error_from_ham(ham, t, problem)
    pair, _ = golden_section(f, lo, hi, refine_tol)
    # first wins on ties: the bracket ends, then the final golden pair
    t_min, e_min = min(((lo, f(lo)), (hi, f(hi)), *pair), key=lambda p: p[1])
    if errors[i] < e_min:
        t_min, e_min = float(times[i]), float(errors[i])
    return FidelityTrace(times=times, errors=errors, t_min=float(t_min),
                         e_min=float(e_min))
