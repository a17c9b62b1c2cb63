"""Second-moment bookkeeping for Gaussian states produced from vacuum.

For a Bogoliubov transform a' = U a + V a^dag acting on vacuum, the
state of the output modes is zero-mean Gaussian and fully described by

    normal_ij    = <a'_i^dag a'_j> = sum_k conj(V_ik) V_jk,
    anomalous_ij = <a'_i a'_j>     = sum_k U_ik V_jk.

Photon-number statistics follow from Wick's theorem; see
docs/wick_covariance.md for the derivation of

    Cov(N_i, N_j) = |anomalous_ij|^2 + |normal_ij|^2 + delta_ij normal_ii.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bogoliubov import GaussianMap, _check_modes, _frozen, _stored, validate

_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class MomentSet:
    """Normal (<a^dag a>) and anomalous (<a a>) second moments, stored as
    `GaussianMap` stores its matrices: a read-only, C-contiguous complex128
    array as it is, anything else as a frozen copy."""

    normal: NDArray[np.complex128]
    anomalous: NDArray[np.complex128]

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", _stored(self.normal))
        object.__setattr__(self, "anomalous", _stored(self.anomalous))

    @property
    def n_modes(self) -> int:
        return self.normal.shape[0]


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"{what} should be real, found imaginary residual {value.imag:.3e}")
    return float(value.real)


def require_valid(transform: GaussianMap) -> None:
    """Raise ValueError if `transform` fails its commutator invariants at
    the engine tolerance; moments of an ill-formed map would be meaningless."""
    report = validate(transform)
    if not report.ok:
        residuals = (report.commutator_residual, report.symmetry_residual)
        finite = np.isfinite(residuals).all()
        raise ValueError(
            "transform violates commutation invariants "
            f"(residuals {residuals[0]:.3e}, {residuals[1]:.3e})"
            + ("" if finite else ": the map's entries overflow when multiplied")
        )


def moments_from_map(transform: GaussianMap) -> MomentSet:
    """Second moments of the output state when the inputs are in vacuum.

    Raises ValueError, as `require_valid`, if `transform` is ill-formed.
    """
    require_valid(transform)
    return _read_moments(transform)


def _read_moments(transform: GaussianMap) -> MomentSet:
    """`moments_from_map` without the check: for a map its caller has
    vouched for, such as a passive map composed onto a validated one."""
    v = transform.v
    normal = v.conj() @ v.T
    anomalous = transform.u @ v.T
    return MomentSet(_frozen(normal), _frozen(anomalous))


def number_mean(moments: MomentSet, mode: int) -> float:
    """Mean photon number <N_i> of one output mode."""
    _check_modes(moments.n_modes, mode)
    return _real(complex(moments.normal[mode, mode]), "number mean")


def cross_correlation(moments: MomentSet, mode_i: int, mode_j: int) -> complex:
    """First-order coherence <a_i^dag a_j> between two output modes."""
    _check_modes(moments.n_modes, mode_i)
    _check_modes(moments.n_modes, mode_j)
    return complex(moments.normal[mode_i, mode_j])


def number_covariance(moments: MomentSet) -> NDArray[np.float64]:
    """Photon-number covariance matrix Cov(N_i, N_j) of the output state, (n, n)."""
    # np.hypot rounds as abs() of one complex number does; np.abs of a
    # complex array can differ from both in the last bit
    a, n = moments.anomalous, moments.normal
    pairs = np.hypot(a.real, a.imag) ** 2 + np.hypot(n.real, n.imag) ** 2
    return pairs + np.diag(n.diagonal().real)


def difference_statistics(moments: MomentSet, mode_i: int, mode_j: int) -> tuple[float, float]:
    """Mean and variance of the photon-number difference N_i - N_j."""
    _check_modes(moments.n_modes, mode_i, mode_j)
    mean = number_mean(moments, mode_i) - number_mean(moments, mode_j)
    cov = number_covariance(moments)
    var = float(cov[mode_i, mode_i] + cov[mode_j, mode_j] - 2.0 * cov[mode_i, mode_j])
    return mean, var
