"""Static energy-landscape control of spin-excitation transfer in optical lattices.

Submodules:

- :mod:`spinscape.lattice` — Hubbard parameters, superexchange couplings,
  time normalization, and the exact double-well oracle.
- :mod:`spinscape.dynamics` — single-excitation Hamiltonians, propagation,
  fidelity error and traces.
- :mod:`spinscape.optics` — Airy-field projection of micromirror patterns,
  total potentials, and bias extraction.
- :mod:`spinscape.biasopt` — stage-1 multistart quasi-Newton bias synthesis.
- :mod:`spinscape.dmdopt` — stage-2 surrogate mixed-integer pattern search.
- :mod:`spinscape.sensitivity` — analytic error sensitivities, drift
  derivatives, and correlation statistics.
- :mod:`spinscape.pipeline` — end-to-end orchestration, databases, reports.
"""

from .lattice import (BiasVector, HubbardParams, LatticeConfig, NOMINAL_PARAMS,
                      BiasSingularityError, bare_couplings, double_well_gap_ratio,
                      effective_coupling, effective_coupling_derivative, time_unit)
from .dynamics import (EffectiveHamiltonian, FidelityTrace, TransferProblem,
                       fidelity_error, fidelity_trace, hamiltonian, propagate,
                       structure_matrix)
from .optics import (DMDPattern, ExtractionError, GridMarginError, OpticsConfig,
                     PatternOverlapError, PotentialProfile, expand_pattern,
                     extract_biases, lattice_profile, make_chain_grid,
                     project_intensity, psf_field, total_potential)
from .biasopt import (BiasOptimConfig, CandidateController, optimize_biases,
                      symmetrize)
from .dmdopt import (AcceptanceThresholds, DMDOptimConfig, DMDSolution,
                     ProjectionContext, dmd_objective, make_context,
                     optimize_pattern, realized_bias, validate_solution)
from .sensitivity import (SensitivityRecord, bias_drift_power, bias_drift_x,
                          bias_sensitivities, bias_sensitivity, correlations,
                          frechet_derivative, physical_sensitivity,
                          sensitivity_record)
from .pipeline import (ConfigError, Controller, ControllerDatabase,
                       PipelineConfig, Stage2Config, antisymmetric_target,
                       config_hash, emit_report, filter_controllers,
                       run_pipeline)

__version__ = "0.1.0"
