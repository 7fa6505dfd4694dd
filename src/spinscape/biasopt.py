"""Stage 1: find bias vectors and transfer times minimizing the fidelity error.

Multistart bounded quasi-Newton descent (L-BFGS-B; Byrd, Lu, Nocedal & Zhu,
SIAM J. Sci. Comput. 16, 1995) over (free bias parameters, T) with mirror
symmetry folded into the parameterization.  Gradients are exact: the
analytic fidelity gradient of :mod:`spinscape.dynamics`, folded onto the
free parameters by the chain rule.  Each restart draws its own RNG stream
from (seed, restart index) so runs are reproducible bit for bit.

The restarts run in lockstep.  Each keeps its own state of scipy's
L-BFGS-B routine (`scipy.optimize._lbfgsb.setulb`, the routine behind
`minimize(method="L-BFGS-B")`), stepped by the loop `minimize` runs; each
round then evaluates every restart that asks for the objective in one
stacked :func:`~spinscape.dynamics.fidelity_gradients` call.  On one x86-64
core a 5-site objective costs about 6 us per row in a stack of 150, against
100-140 us of numpy call overhead alone one point at a time.  Every restart
ends bit for bit where `minimize` would have left it.

`_lbfgsb` is the compiled module `scipy.optimize._lbfgsb` (scipy >= 1.15),
taken from :func:`~spinscape.lattice.load_scipy_extension`, which loads it
from its file without running `scipy/__init__.py` or the package
`scipy/optimize/__init__.py`; the latter costs every process about 0.17 s
to reach this one module.  It is registered in `sys.modules` under its
own name, so a later `import scipy.optimize` shares it.

`default_rng` is imported by name, so `numpy.random` (about 15 ms) loads
with this module and not in the first stage-1 run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .lattice import BiasVector, HubbardParams, finite_positive, load_scipy_extension
from .dynamics import TransferProblem, fidelity_error, fidelity_gradients

_lbfgsb = load_scipy_extension("scipy.optimize._lbfgsb", "setulb")

#: A restart whose fidelity 1 - e is at most this sits on the e = 1 plateau,
#: where every derivative vanishes with the amplitude; it never counts as
#: converged, however small its gradient.
PLATEAU_FIDELITY = 1e-6

#: `minimize(method="L-BFGS-B")` defaults: stored correction pairs, line
#: search steps per iteration and objective evaluations per restart.
LBFGSB_MEMORY = 10
LBFGSB_MAX_LINE_SEARCH = 20
LBFGSB_MAX_EVALUATIONS = 15000


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
        if self.t_max is not None and not finite_positive(self.t_max):
            raise ValueError(f"t_max must be finite and positive, "
                             f"not {self.t_max}")
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
    return BiasVector(_mirror(free, n_sites))


def _mirror(free: np.ndarray, n_sites: int) -> np.ndarray:
    """:func:`symmetrize` over the last axis of an array, unchecked."""
    tail = free[..., :n_sites - 1 - n_free_parameters(n_sites)][..., ::-1]
    return np.concatenate([free, tail], axis=-1)


def fold_symmetric(grad, n_sites: int) -> np.ndarray:
    """Chain rule through :func:`symmetrize`: a bond gradient on the free half.

    Each mirrored bond's gradient is added onto the free parameter it
    copies; (g1, g2, g3, g4) -> (g1 + g4, g2 + g3) for five sites.  A
    stack of gradients folds along its last axis.
    """
    grad = np.asarray(grad, dtype=float)
    half = n_free_parameters(n_sites)
    free = grad[..., :half].copy()
    free[..., :n_sites - 1 - half] += grad[..., half:][..., ::-1]
    return free


def _projected_gradient_norm(g, z, lower, upper) -> float:
    gp = g.copy()
    at_lo = z <= lower + 1e-14
    at_hi = z >= upper - 1e-14
    gp[at_lo] = np.minimum(gp[at_lo], 0.0)
    gp[at_hi] = np.maximum(gp[at_hi], 0.0)
    return float(np.linalg.norm(gp))


class _Restart:
    """One restart's L-BFGS-B state, stepped as `minimize` steps it.

    Replays scipy's `_minimize_lbfgsb` loop: `setulb` asks for f and g
    (task 3) or reports a finished iteration (task 1), and anything else
    ends the run.  f and g are recomputed only when x changed, as
    `ScalarFunction` does, and the iteration and evaluation caps stop the
    run with `minimize`'s task codes.
    """

    def __init__(self, x0: np.ndarray, wa: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray, config: BiasOptimConfig):
        n = len(x0)
        self.lower, self.upper = lower, upper
        self.nbd = np.full(n, 2, dtype=np.int32)          # both bounds finite
        self.factr = config.step_tol / np.finfo(float).eps
        self.pgtol = config.grad_tol
        self.max_iterations = config.max_iterations
        self.x = np.array(x0, dtype=np.float64)
        self.f = np.array(0.0)
        self.g = np.zeros(n)
        self.wa = wa                     # setulb's float workspace
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.n_iterations = 0
        self.n_evaluations = 0
        self.seen = None                 # (x, f, g) of the last evaluation

    def advance(self) -> bool:
        """Step until f and g are needed at a new x (True) or the run ends."""
        while True:
            _lbfgsb.setulb(LBFGSB_MEMORY, self.x, self.lower, self.upper,
                           self.nbd, self.f, self.g, self.factr, self.pgtol,
                           self.wa, self.iwa, self.task,
                           self.lsave, self.isave, self.dsave,
                           LBFGSB_MAX_LINE_SEARCH, self.ln_task)
            if self.task[0] == 3:
                if self.seen is None or not np.array_equal(self.x, self.seen[0]):
                    return True
                self.f, self.g = self.seen[1], self.seen[2].copy()
            elif self.task[0] == 1:
                self.n_iterations += 1
                if self.n_iterations >= self.max_iterations:
                    self.task[:] = 5, 504
                elif self.n_evaluations > LBFGSB_MAX_EVALUATIONS:
                    self.task[:] = 5, 502
            else:
                return False

    def feed(self, f: float, g: np.ndarray) -> None:
        """Hand over f and g at the x the last :meth:`advance` asked for."""
        self.n_evaluations += 1
        self.seen = (self.x.copy(), f, g.copy())
        self.f, self.g = f, g.copy()


def optimize_biases(config: BiasOptimConfig, problem: TransferProblem,
                    params: HubbardParams) -> list:
    """Multistart search; returns all restart outcomes sorted by fidelity error.

    Each restart draws the free biases uniformly in (-bound, bound) and the
    initial time uniformly in (0.2 t_max, t_max), then runs bounded
    quasi-Newton descent on the exact gradient
    (:func:`~spinscape.dynamics.fidelity_gradients`, folded by
    :func:`fold_symmetric` when symmetric).  The restarts step in
    lockstep, one scipy L-BFGS-B state each (m = 10, 20 line-search steps,
    ftol = ``step_tol``, gtol = ``grad_tol``, at most ``max_iterations``),
    and every round evaluates all pending points in one stacked call; this
    replaces one `minimize(method="L-BFGS-B")` per restart, whose per-call
    overhead dwarfed the 5x5 eigenproblem, and ends at the same bits.  A
    candidate counts as converged when its projected gradient norm is at
    most 1e-6 and its fidelity 1 - e exceeds ``PLATEAU_FIDELITY``;
    non-convergent restarts are kept and flagged.  Ties in error break
    toward faster, lower-bias controllers.
    """
    if problem.n_sites != config.n_sites:
        raise ValueError("problem and optimizer configured for different chain lengths")
    if config.t_max is None:
        raise ValueError("stage-1 t_max is unset: set it, or derive it from the "
                         "acceptance window with pipeline.stage1_config")
    n_free = n_free_parameters(config.n_sites) if config.symmetric \
        else config.n_sites - 1

    def objective(z):
        deltas = _mirror(z[:, :-1], config.n_sites) if config.symmetric \
            else z[:, :-1]
        e, de_ddelta, de_dt = fidelity_gradients(deltas, z[:, -1], problem, params)
        if config.symmetric:
            de_ddelta = fold_symmetric(de_ddelta, config.n_sites)
        return e, np.column_stack([de_ddelta, de_dt])

    lower = np.concatenate([np.full(n_free, -config.delta_bound), [0.0]])
    upper = np.concatenate([np.full(n_free, config.delta_bound), [config.t_max]])
    starts = []
    for r in range(config.restarts):
        rng = default_rng((config.seed, r))
        starts.append(np.concatenate([
            rng.uniform(-config.delta_bound, config.delta_bound, n_free),
            [rng.uniform(0.2 * config.t_max, config.t_max)],
        ]))
    # the 10 kB workspaces are rows of one block, which is freed on return;
    # 150 heap allocations of their own raised the process's peak RSS 0.8 MB
    n, m = n_free + 1, LBFGSB_MEMORY
    workspaces = np.zeros((config.restarts, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    restarts = [_Restart(z0, wa, lower, upper, config)
                for z0, wa in zip(starts, workspaces)]
    pending = [run for run in restarts if run.advance()]
    while pending:
        f, g = objective(np.array([run.x for run in pending]))
        for run, f_run, g_run in zip(pending, f, g):
            run.feed(f_run, g_run)
        pending = [run for run in pending if run.advance()]

    zs = np.clip(np.array([run.x for run in restarts]), lower, upper)
    _, gs = objective(zs)
    candidates = []
    for r, (run, z, g) in enumerate(zip(restarts, zs, gs)):
        delta = symmetrize(z[:-1], config.n_sites) if config.symmetric \
            else BiasVector(z[:-1])
        error = fidelity_error(delta, z[-1], problem, params)
        converged = (_projected_gradient_norm(g, z, lower, upper) <= 1e-6
                     and 1.0 - error > PLATEAU_FIDELITY)
        candidates.append(CandidateController(
            delta=delta, transfer_time=float(z[-1]), error=error,
            restart=r, n_iterations=run.n_iterations, converged=converged))
    candidates.sort(key=lambda c: (c.error, c.transfer_time, c.delta.max_abs, c.restart))
    return candidates
