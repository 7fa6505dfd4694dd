"""Single-excitation spin dynamics: Hamiltonian assembly, propagation, fidelity.

The chain Hamiltonian is H = sum_j c_j S_j where c_j is the superexchange
coupling for bond j and S_j the fixed bond matrix below.  H is real
symmetric, so propagation, the fidelity error and its exact gradient all go
through one eigendecomposition per bias vector.  The assembly, the
eigendecomposition and the gradient are written once, over stacks of rows;
a one-row call of the same code serves a single bias vector, so a stack
gives each row the bits of its own call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import (HubbardParams, effective_coupling,
                      effective_coupling_derivative, as_bias_array,
                      finite_positive)

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


def _eigensystems(couplings: np.ndarray) -> tuple:
    """Stacked H = sum_j c_j S_j and its eigh over rows of bond couplings.

    `couplings` is (k, n_sites - 1); returns the (k, n, n) matrices, the
    (k, n) eigenvalues and the (k, n, n) eigenvectors.  sum_j c_j S_j
    without the dense S_j: bond j puts c_j next to the diagonal and
    c_j S_j[i, i] on it, which cumsum adds up in the order j = 1 .. n-1 of
    the sum, so each matrix is bit for bit the bond-by-bond sum.
    """
    k, n = couplings.shape[0], couplings.shape[1] + 1
    m = np.zeros((k, n, n))
    i = np.arange(n)
    m[:, i, i] = np.cumsum(couplings[:, None, :] * _bond_diagonals(n), axis=2)[..., -1]
    m[:, i[:-1], i[1:]] = m[:, i[1:], i[:-1]] = couplings
    w, v = np.linalg.eigh(m)
    return m, w, v


class EffectiveHamiltonian:
    """Assembled chain Hamiltonian with its eigendecomposition cached.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, couplings: np.ndarray, delta: np.ndarray, params: HubbardParams):
        self.couplings = np.array(couplings, dtype=float)
        self.delta = np.array(delta, dtype=float)
        self.params = params
        m, w, v = _eigensystems(self.couplings[None])
        self.matrix, self.eigenvalues, self.eigenvectors = m[0], w[0], v[0]


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


def _divided_differences(w: np.ndarray, t: np.ndarray,
                         phases: np.ndarray) -> np.ndarray:
    """Stacked :func:`divided_differences` over rows of (eigenvalues, time)."""
    n = w.shape[1]
    diff = w[:, :, None] - w[:, None, :]
    scale = np.maximum(np.max(np.abs(w), axis=1), 1.0)[:, None, None]
    distinct = np.abs(diff) >= DEGENERACY_THRESHOLD * scale
    phi = np.repeat(phases[:, :, None], n, axis=2)         # confluent limit
    with np.errstate(divide="ignore", invalid="ignore"):   # t = 0 rows
        np.divide(phases[:, :, None] - phases[:, None, :],
                  -1j * t[:, None, None] * diff, out=phi, where=distinct)
    phi[t == 0] = 1.0
    return phi


def divided_differences(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """Phi_mn = (exp(-i l_m t) - exp(-i l_n t)) / (-i t (l_m - l_n)).

    The propagator's Frechet derivative along S is -i t V (Phi o V^T S V) V^T
    (Najfeld & Havel, Adv. Appl. Math. 16, 1995).  (Near-)degenerate pairs
    take the confluent limit exp(-i l_m t); at t = 0 every entry is 1.
    """
    w = np.asarray(eigenvalues, dtype=float)[None]
    t = np.array([t], dtype=float)
    return _divided_differences(w, t, np.exp(-1j * (w * t[:, None])))[0]


def _gradients(w: np.ndarray, v: np.ndarray, t: np.ndarray, slopes: np.ndarray,
               problem: TransferProblem) -> tuple:
    """Stacked (e, de/d(delta), de/dT) over rows of eigensystems and times.

    `slopes` holds the coupling derivatives dc_j/d(delta_j) of each row.
    The products of two per-row complex numbers are written out in reals,
    |a| is `hypot` and the square `float_power`: numpy's SIMD loops for
    complex `abs` and multiply round differently from the scalar ones,
    and these forms give every row the bits of a one-row call.
    """
    x = v[:, problem.target - 1]
    y = v[:, problem.initial - 1]
    phases = np.exp(-1j * (w * t[:, None]))
    a = np.matmul((x * y)[:, None, :], phases[:, :, None])[:, 0, 0]
    e = 1.0 - np.float_power(np.hypot(a.real, a.imag), 2)
    b = np.matmul((x * y * w)[:, None, :], phases[:, :, None])[:, 0, 0]
    de_dt = -2 * (a.real * b.imag + -a.imag * b.real)
    outer = x[:, :, None] * y[:, None, :]
    q = v @ (_divided_differences(w, t, phases) * outer) @ np.swapaxes(v, 1, 2)
    d = np.diagonal(q, axis1=1, axis2=2)
    k = (np.diagonal(q, 1, axis1=1, axis2=2) + np.diagonal(q, -1, axis1=1, axis2=2)
         - d[:, :-1] - d[:, 1:])
    de_ddelta = (-2 * t)[:, None] * slopes * np.imag(k * np.conj(a)[:, None])
    return e, de_ddelta, de_dt


def fidelity_gradients(deltas, times, problem: TransferProblem,
                       params: HubbardParams) -> tuple:
    """Stacked :func:`fidelity_error_and_gradient` over rows of (delta, T).

    `deltas` is (k, n_sites - 1) and `times` (k,); returns the errors (k,),
    de/d(delta) (k, n_sites - 1) and de/dT (k,).  Every row equals its
    one-row call bit for bit.  Raises BiasSingularityError if any
    |delta| >= 1.
    """
    deltas = np.asarray(deltas, dtype=float)
    _, w, v = _eigensystems(effective_coupling(params, deltas))
    return _gradients(w, v, np.asarray(times, dtype=float),
                      effective_coupling_derivative(params, deltas), problem)


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
    `e` equals :func:`fidelity_error_from_ham` bit for bit.  A one-row call
    of the stacked code behind :func:`fidelity_gradients`.
    """
    slopes = effective_coupling_derivative(ham.params, ham.delta)
    e, de_ddelta, de_dt = _gradients(ham.eigenvalues[None], ham.eigenvectors[None],
                                     np.array([t], dtype=float), slopes[None], problem)
    return float(e[0]), de_ddelta[0], float(de_dt[0])


def fidelity_error_and_gradient(delta, t: float, problem: TransferProblem,
                                params: HubbardParams) -> tuple:
    """(e, de/d(delta), de/dT) from one eigendecomposition of H(delta)."""
    return fidelity_gradient_from_ham(hamiltonian(delta, params), t, problem)


def _bounded_brent(f, lo: float, hi: float, xatol: float) -> tuple:
    """(x, f(x)) at the minimum of `f` on [lo, hi] by Brent's bounded method.

    Golden-section search with parabolic steps (Brent, *Algorithms for
    Minimization without Derivatives*, 1973), stopping once the bracket is
    within `xatol` or after 500 evaluations: the loop of scipy's
    `_minimize_scalar_bounded`, statement for statement, so the result is
    bit for bit that of `minimize_scalar(f, bounds=(lo, hi),
    method="bounded", options={"xatol": xatol})`.  Kept here because
    `scipy.optimize` costs every process about 0.17 s to import.
    """
    maxfun = 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # parabolic fit through the three best points
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            # accept the parabola only inside the bracket and shrinking
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1
        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return np.asarray(xf)[()], np.asarray(fx)[()]


@dataclass(frozen=True)
class FidelityTrace:
    """Fidelity error sampled on a uniform grid plus the refined minimum."""

    times: np.ndarray
    errors: np.ndarray
    t_min: float
    e_min: float


TRACE_STEPS = 2000             # samples of a trace on [0, t_max], ends included
TRACE_REFINE_TOL = 1e-10       # xatol of the Brent refinement of its grid minimum


def fidelity_trace(delta, problem: TransferProblem, params: HubbardParams,
                   t_max: float) -> FidelityTrace:
    """Sample the fidelity error on [0, t_max] and refine the grid minimum.

    The grid argmin is polished by :func:`_bounded_brent`, scipy's bounded
    Brent method with `TRACE_REFINE_TOL` as its `xatol`, inside its
    bracketing interval; `tests/test_dynamics.py::TestBoundedBrentOracle`
    holds it to `minimize_scalar(method="bounded")` bit for bit.  The
    reported minimum is never worse than the best grid sample.
    """
    if not finite_positive(t_max):
        raise ValueError(f"t_max must be finite and positive, not {t_max}")
    ham = hamiltonian(delta, params)
    times = np.linspace(0.0, float(t_max), TRACE_STEPS)
    errors = 1.0 - np.abs(transfer_amplitude(ham, times, problem)) ** 2
    errors = np.clip(errors, 0.0, 1.0)
    i = int(np.argmin(errors))
    lo = times[max(i - 1, 0)]
    hi = times[min(i + 1, len(times) - 1)]
    f = lambda t: fidelity_error_from_ham(ham, t, problem)
    # first wins on ties: the bracket ends, then Brent's minimum
    t_min, e_min = min(((lo, f(lo)), (hi, f(hi)),
                        _bounded_brent(f, lo, hi, TRACE_REFINE_TOL)),
                       key=lambda p: p[1])
    if errors[i] < e_min:
        t_min, e_min = float(times[i]), float(errors[i])
    return FidelityTrace(times=times, errors=errors, t_min=float(t_min),
                         e_min=float(e_min))
