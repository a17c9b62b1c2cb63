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
    detector_counts,
    fringe_phase,
    fringe_scan,
    fringe_visibility,
    induced_coherence,
    observables,
    optimize_t2,
    optimize_vb,
    regime_report,
    snr,
    snr_multipulse,
    snr_ratio,
    visibility,
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
    "detector_counts",
    "difference_statistics",
    "fringe_phase",
    "fringe_scan",
    "fringe_visibility",
    "induced_coherence",
    "moments_from_map",
    "number_covariance",
    "number_mean",
    "observables",
    "optimize_t2",
    "optimize_vb",
    "phase_shifter",
    "regime_report",
    "snr",
    "snr_multipulse",
    "snr_ratio",
    "two_mode_squeezer",
    "validate",
    "visibility",
]

__version__ = "0.1.0"
