"""Induced-coherence two-crystal interferometer toolkit.

Layers:

- `bogoliubov`: multimode Bogoliubov transforms (the engine's algebra),
- `moments`: Gaussian second moments and photon-number statistics,
- `model`: the interferometer network plus every closed-form observable,
- `fock`: an independent truncated Fock-space oracle,
- `cli`: command-line sweeps, figure data, optimization and validation.
"""

from .bogoliubov import (
    GaussianMap,
    ValidationReport,
    beam_splitter,
    chain,
    compose,
    phase_shifter,
    two_mode_squeezer,
    validate,
)
from .model import (
    Observables,
    RegimeReport,
    SetupParams,
    build_network,
    fringe_scan,
    fringe_visibility,
    observables,
    optimize_t2,
    optimize_vb,
    regime_report,
    snr_ratio,
)
from .moments import (
    MomentSet,
    difference_statistics,
    moments_from_map,
    number_covariance,
    number_mean,
)

__all__ = [
    "GaussianMap",
    "MomentSet",
    "Observables",
    "RegimeReport",
    "SetupParams",
    "ValidationReport",
    "beam_splitter",
    "build_network",
    "chain",
    "compose",
    "difference_statistics",
    "fringe_scan",
    "fringe_visibility",
    "moments_from_map",
    "number_covariance",
    "number_mean",
    "observables",
    "optimize_t2",
    "optimize_vb",
    "phase_shifter",
    "regime_report",
    "snr_ratio",
    "two_mode_squeezer",
    "validate",
]

__version__ = "0.1.0"
