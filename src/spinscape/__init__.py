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
- :mod:`spinscape.dmdopt` — stage-2 exhaustive mixed-integer pattern search.
- :mod:`spinscape.sensitivity` — analytic error sensitivities, drift
  derivatives, and correlation statistics.
- :mod:`spinscape.pipeline` — end-to-end orchestration, databases, reports.
- :mod:`spinscape.report` — CSV and SVG writers.
- :mod:`spinscape.cli` — the ``spinscape`` command.

Names are imported from their submodules, e.g. ``from spinscape.dynamics
import fidelity_error``.  Importing the package loads no submodule, so
``import spinscape.dynamics`` pulls in the dynamics and lattice layers
only, not the optics stack.
"""

__version__ = "0.1.0"
