"""Static energy-landscape control of spin-excitation transfer in optical lattices.

Submodules:

- :mod:`spinscape.lattice` — Hubbard parameters, superexchange couplings,
  time normalization, and the exact double-well oracle.
- :mod:`spinscape.dynamics` — single-excitation Hamiltonians, propagation,
  the fidelity error with its analytic gradient, and traces.
- :mod:`spinscape.optics` — the optical forward model: Airy-field
  projection of micromirror patterns, the projection context that carries
  its validated grid, and bias extraction.
- :mod:`spinscape.biasopt` — stage-1 multistart quasi-Newton bias synthesis.
- :mod:`spinscape.dmdopt` — stage-2 surrogate mixed-integer pattern search.
- :mod:`spinscape.sensitivity` — analytic error sensitivities, drift
  derivatives, and correlation statistics.
- :mod:`spinscape.pipeline` — end-to-end orchestration, databases, reports.

Importing the package loads no submodule: each name below is imported
from its submodule on first access, so ``import spinscape.dynamics`` pulls
in the dynamics and lattice layers only, not the optics stack.
"""

import importlib

_EXPORTS = {
    "lattice": ("BiasVector", "HubbardParams", "LatticeConfig", "NOMINAL_PARAMS",
                "BiasSingularityError", "bare_couplings", "double_well_gap_ratio",
                "effective_coupling", "effective_coupling_derivative",
                "time_unit"),
    "dynamics": ("EffectiveHamiltonian", "FidelityTrace", "TransferProblem",
                 "fidelity_error", "fidelity_error_and_gradient",
                 "fidelity_trace", "hamiltonian", "propagate",
                 "structure_matrix"),
    "optics": ("DMDPattern", "ExtractionError", "GridMarginError",
               "OpticsConfig", "PatternOverlapError", "ProjectionContext",
               "expand_pattern", "extract_biases", "lattice_profile",
               "make_chain_grid", "make_context", "project_intensity",
               "psf_field"),
    "biasopt": ("BiasOptimConfig", "CandidateController", "optimize_biases",
                "symmetrize"),
    "dmdopt": ("AcceptanceThresholds", "DMDOptimConfig", "DMDSolution",
               "dmd_objective", "optimize_pattern", "realized_bias",
               "validate_solution"),
    "sensitivity": ("SensitivityRecord", "bias_drift_power", "bias_drift_x",
                    "bias_sensitivities", "bias_sensitivity", "correlations",
                    "frechet_derivative", "physical_sensitivity",
                    "sensitivity_record"),
    "pipeline": ("ConfigError", "Controller", "ControllerDatabase",
                 "PipelineConfig", "Stage2Config", "antisymmetric_target",
                 "config_hash", "emit_report", "filter_controllers",
                 "run_pipeline"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))
