"""Differential sensitivity of the transfer error to bias and drift perturbations.

The error derivative with respect to each bias is the bias part of the
analytic fidelity gradient in :mod:`spinscape.dynamics`: the closed-form
coupling derivative times the spectral Frechet derivative of the
propagator, the same code path stage 1 descends along.  Physical drifts
(lattice alignment along the chain, projection power) are mapped to bias
derivatives in closed form and folded in by the chain rule.  Each well
depth is the minimum of lattice plus projection, so by the envelope
theorem (Milgrom & Segal, Econometrica 70, 2002) a drift moves it by the
drift derivative of the projection alone, taken at the well minimum that
the bias extraction returns: the power-1 projection for power drift, the
projection's slope for a rigid lattice shift.  The drifts run on the
stage-2 context of the solution's colour, the one its search used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import HubbardParams, bias_from_json, require_stored
from .dynamics import (EffectiveHamiltonian, TransferProblem,
                       divided_differences, fidelity_gradient_from_ham,
                       hamiltonian)
from .dmdopt import DMDSolution, realized_bias
from .optics import ProjectionContext, project_intensity


def frechet_derivative(ham: EffectiveHamiltonian, direction: np.ndarray,
                       t: float) -> np.ndarray:
    """K(S) = int_0^1 exp(-i t H (1-s)) S exp(-i t H s) ds, spectrally.

    In the eigenbasis the integral is the divided-difference matrix
    :func:`~spinscape.dynamics.divided_differences` applied entrywise.  The
    propagator derivative along S is -i t K(S).
    """
    v = ham.eigenvectors
    s_eig = v.conj().T @ np.asarray(direction, dtype=float) @ v
    return v @ (s_eig * divided_differences(ham.eigenvalues, t)) @ v.conj().T


def bias_sensitivities(delta, t: float, problem: TransferProblem,
                       params: HubbardParams) -> np.ndarray:
    """d(error)/d(delta_j) for every bond, at the nominal operating point.

    xi_j = -2 t (dJ_j) Im{ <target|K(S_j)|initial> <initial|U(t)^+|target> }
    with dJ_j the closed-form coupling derivative at delta_j: the bias part
    of :func:`~spinscape.dynamics.fidelity_gradient_from_ham`.
    """
    return fidelity_gradient_from_ham(hamiltonian(delta, params), t, problem)[1]


def _richardson_slope(f, x, step: float):
    """Centered differences of `f` at `step` and `step/2`, Richardson-combined."""
    d1 = (f(x + step) - f(x - step)) / (2 * step)
    d2 = (f(x + step / 2) - f(x - step / 2)) / step
    return (4 * d2 - d1) / 3


def bias_drift_x(solution: DMDSolution, ctx: ProjectionContext) -> np.ndarray:
    """d(delta_j)/dx for rigid lattice drift along the chain, per lattice spacing.

    Shifting the lattice by s under the fixed projection P moves each well
    depth by P'(x*) ds, at the well minimum x*.  The slope of the exact
    projection is taken there by Richardson-refined centered differences
    at the grid step; the bias derivative is the difference of slopes
    across each bond over U, scaled to units of one lattice spacing.  The
    points x* +- step lie off the grid, so they are projected without the
    field memo of `ctx`, which holds fields on its grid only.
    """
    sites = realized_bias(solution.pattern, solution.power, ctx).positions
    optics = ctx.optics.with_power(solution.power)
    slopes = _richardson_slope(
        lambda x: project_intensity(solution.pattern, optics, x), sites, ctx.step)
    return np.diff(slopes) / ctx.params.U * ctx.lattice.spacing


def bias_drift_power(solution: DMDSolution, ctx: ProjectionContext) -> np.ndarray:
    """d(delta_j)/dp at the solution's power, in 1/E_R.

    Power only scales the projection, V = L + p P_1, so each well depth
    moves by P_1(x*) dp, with P_1 the projection at unit power evaluated at
    the well minima x* (off the grid, so without the field memo).
    """
    sites = realized_bias(solution.pattern, solution.power, ctx).positions
    depth_slopes = project_intensity(solution.pattern, ctx.optics.with_power(1.0),
                                     sites)
    return np.diff(depth_slopes) / ctx.params.U


def physical_sensitivity(xi: np.ndarray, ddelta: np.ndarray) -> float:
    """Chain rule d(error)/d(drift) = sum_j xi_j d(delta_j)/d(drift)."""
    xi = np.asarray(xi, dtype=float)
    ddelta = np.asarray(ddelta, dtype=float)
    if xi.shape != ddelta.shape:
        raise ValueError(f"length mismatch: {xi.shape} vs {ddelta.shape}")
    return float(xi @ ddelta)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # 1-based ranks; tied values share the mean of the ranks they span
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def correlations(xs, ys) -> tuple:
    """(Pearson r, Spearman rho); Spearman is Pearson on average-tied ranks.

    Raises ValueError for inputs that are not 1-D of equal length, have
    fewer than three points, or have zero variance (a constant column).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if len(xs) < 3:
        raise ValueError("need at least three points")
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        raise ValueError("correlation undefined for zero-variance data")
    r = np.corrcoef(xs, ys)[0, 1]
    rho = np.corrcoef(_average_ranks(xs), _average_ranks(ys))[0, 1]
    return float(r), float(rho)


@dataclass(frozen=True)
class SensitivityRecord:
    """Per-controller robustness summary.

    xi is dimensionless per unit normalized bias; ddelta_dx is per lattice
    spacing, ddelta_dp per E_R.  s_x and s_p are the chain-rule error
    derivatives for alignment and power drift; min_gap the distance of the
    biases to the coupling singularity.  All sensitivities use normalized
    time, matching the dynamics.
    """

    xi: tuple
    ddelta_dx: tuple
    ddelta_dp: tuple
    s_x: float
    s_p: float
    min_gap: float
    error: float
    transfer_time: float

    def to_dict(self) -> dict:
        return {"xi": list(self.xi), "ddelta_dx": list(self.ddelta_dx),
                "ddelta_dp": list(self.ddelta_dp), "s_x": self.s_x,
                "s_p": self.s_p, "min_gap": self.min_gap, "e": self.error,
                "T": self.transfer_time}

    @classmethod
    def from_dict(cls, data: dict, n_sites: int) -> "SensitivityRecord":
        """The record of `to_dict` for an `n_sites` chain: each stored vector
        is a flat list of finite numbers, one per bond, else a ValueError
        names its key."""
        require_stored("sensitivity record", data, ("xi", "ddelta_dx", "ddelta_dp",
                                                    "s_x", "s_p", "min_gap", "e", "T"))
        xi, ddx, ddp = (bias_from_json(f"stored sensitivity record {key!r}",
                                       data[key], n_sites).values
                        for key in ("xi", "ddelta_dx", "ddelta_dp"))
        return cls(xi=xi, ddelta_dx=ddx, ddelta_dp=ddp, s_x=data["s_x"],
                   s_p=data["s_p"], min_gap=data["min_gap"], error=data["e"],
                   transfer_time=data["T"])


def sensitivity_record(solution: DMDSolution, ctx: ProjectionContext,
                       problem: TransferProblem,
                       params: HubbardParams) -> SensitivityRecord:
    """Full robustness record for a validated solution (normalized dynamics params)."""
    if solution.error is None or solution.t_min is None:
        raise ValueError("solution must be validated before sensitivity analysis")
    xi = bias_sensitivities(solution.achieved, solution.t_min, problem, params)
    ddx = bias_drift_x(solution, ctx)
    ddp = bias_drift_power(solution, ctx)
    return SensitivityRecord(
        xi=tuple(float(v) for v in xi),
        ddelta_dx=tuple(float(v) for v in ddx),
        ddelta_dp=tuple(float(v) for v in ddp),
        s_x=physical_sensitivity(xi, ddx),
        s_p=physical_sensitivity(xi, ddp),
        min_gap=solution.achieved.min_singularity_gap(),
        error=float(solution.error),
        transfer_time=float(solution.t_min))
