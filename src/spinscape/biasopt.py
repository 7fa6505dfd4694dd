"""Stage 1: find bias vectors and transfer times minimizing the fidelity error.

Multistart bounded quasi-Newton descent over (free bias parameters, T) with
mirror symmetry folded into the parameterization.  Gradients are exact: the
analytic fidelity gradient of :mod:`spinscape.dynamics`, folded onto the
free parameters by the chain rule.  Each restart draws its own RNG stream
from (seed, restart index) so runs are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .lattice import BiasVector, HubbardParams
from .dynamics import (TransferProblem, fidelity_error,
                       fidelity_error_and_gradient)

#: A restart whose fidelity 1 - e is at most this sits on the e = 1 plateau,
#: where every derivative vanishes with the amplitude; it never counts as
#: converged, however small its gradient.
PLATEAU_FIDELITY = 1e-6


@dataclass(frozen=True)
class BiasOptimConfig:
    n_sites: int = 5
    t_max: float = None              # upper bound on T; pipeline.stage1_config fills it
    delta_bound: float = 0.95        # keep iterates clear of the |delta| = 1 singularity
    symmetric: bool = True
    restarts: int = 100
    seed: int = 0
    grad_tol: float = 1e-9
    step_tol: float = 1e-12
    max_iterations: int = 500

    def __post_init__(self):
        if not 0 < self.delta_bound < 1:
            raise ValueError("delta_bound must lie in (0, 1)")
        if self.t_max is not None and self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.restarts < 1:
            raise ValueError("need at least one restart")


@dataclass(frozen=True)
class CandidateController:
    """One optimizer outcome: biases, transfer time, and its fidelity error."""

    delta: BiasVector
    transfer_time: float
    error: float
    restart: int
    n_iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {"delta": list(self.delta.values), "T": self.transfer_time,
                "e": self.error, "restart": self.restart,
                "iterations": self.n_iterations, "converged": self.converged}


def n_free_parameters(n_sites: int) -> int:
    return (n_sites - 1 + 1) // 2


def symmetrize(free, n_sites: int) -> BiasVector:
    """Fill a mirror-symmetric bias vector from its first half.

    delta_j = delta_{n_sites - j}; when the number of bonds is odd the middle
    element pairs with itself.  (a, b) -> (a, b, b, a) for five sites.
    """
    free = np.asarray(free, dtype=float).ravel()
    half = n_free_parameters(n_sites)
    if len(free) != half:
        raise ValueError(f"expected {half} free parameters for {n_sites} sites, "
                         f"got {len(free)}")
    tail = free[:n_sites - 1 - half][::-1]
    return BiasVector(np.concatenate([free, tail]))


def fold_symmetric(grad, n_sites: int) -> np.ndarray:
    """Chain rule through :func:`symmetrize`: a bond gradient on the free half.

    Each mirrored bond's gradient is added onto the free parameter it
    copies; (g1, g2, g3, g4) -> (g1 + g4, g2 + g3) for five sites.
    """
    grad = np.asarray(grad, dtype=float)
    half = n_free_parameters(n_sites)
    free = grad[:half].copy()
    free[:n_sites - 1 - half] += grad[half:][::-1]
    return free


def _projected_gradient_norm(g, z, lower, upper) -> float:
    gp = g.copy()
    at_lo = z <= lower + 1e-14
    at_hi = z >= upper - 1e-14
    gp[at_lo] = np.minimum(gp[at_lo], 0.0)
    gp[at_hi] = np.maximum(gp[at_hi], 0.0)
    return float(np.linalg.norm(gp))


def optimize_biases(config: BiasOptimConfig, problem: TransferProblem,
                    params: HubbardParams) -> list:
    """Multistart search; returns all restart outcomes sorted by fidelity error.

    Each restart draws the free biases uniformly in (-bound, bound) and the
    initial time uniformly in (0.2 t_max, t_max), then runs bounded
    quasi-Newton descent on the exact gradient
    (:func:`~spinscape.dynamics.fidelity_error_and_gradient`, folded by
    :func:`fold_symmetric` when symmetric).  A candidate counts as converged
    when its projected gradient norm is at most 1e-6 and its fidelity
    1 - e exceeds ``PLATEAU_FIDELITY``; non-convergent restarts are kept
    and flagged.  Ties in error break toward faster, lower-bias
    controllers.
    """
    if problem.n_sites != config.n_sites:
        raise ValueError("problem and optimizer configured for different chain lengths")
    if config.t_max is None:
        raise ValueError("stage-1 t_max is unset: set it, or derive it from the "
                         "acceptance window with pipeline.stage1_config")
    n_free = n_free_parameters(config.n_sites) if config.symmetric \
        else config.n_sites - 1

    def build(freeish):
        if config.symmetric:
            return symmetrize(freeish, config.n_sites)
        return BiasVector(freeish)

    def objective(z):
        e, de_ddelta, de_dt = fidelity_error_and_gradient(
            build(z[:-1]), z[-1], problem, params)
        if config.symmetric:
            de_ddelta = fold_symmetric(de_ddelta, config.n_sites)
        return e, np.append(de_ddelta, de_dt)

    lower = np.concatenate([np.full(n_free, -config.delta_bound), [0.0]])
    upper = np.concatenate([np.full(n_free, config.delta_bound), [config.t_max]])
    bounds = list(zip(lower, upper))

    candidates = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        z0 = np.concatenate([
            rng.uniform(-config.delta_bound, config.delta_bound, n_free),
            [rng.uniform(0.2 * config.t_max, config.t_max)],
        ])
        res = minimize(objective, z0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": config.max_iterations,
                                "ftol": config.step_tol,
                                "gtol": config.grad_tol})
        z = np.clip(res.x, lower, upper)
        _, g = objective(z)
        delta = build(z[:-1])
        error = fidelity_error(delta, z[-1], problem, params)
        converged = (_projected_gradient_norm(g, z, lower, upper) <= 1e-6
                     and 1.0 - error > PLATEAU_FIDELITY)
        candidates.append(CandidateController(
            delta=delta, transfer_time=float(z[-1]), error=error,
            restart=r, n_iterations=int(res.nit), converged=converged))
    candidates.sort(key=lambda c: (c.error, c.transfer_time, c.delta.max_abs, c.restart))
    return candidates
