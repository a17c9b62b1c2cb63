"""Multimode Bogoliubov transforms over bosonic modes.

A transform maps input mode operators to output mode operators,

    a'_i = sum_j U_ij a_j + V_ij a_j^dag,

and is represented by the pair of complex matrices (U, V).  Canonical
commutation relations survive the map exactly when

    U U^dag - V V^dag = 1        and        U V^T symmetric,

which every constructor in this module satisfies by construction and
`validate` checks numerically for composites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

DEFAULT_TOLERANCE = 1e-9


def _frozen(matrix: NDArray) -> NDArray[np.complex128]:
    out = np.array(matrix, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaussianMap:
    """A Bogoliubov transform a' = U a + V a^dag on `n_modes` modes."""

    u: NDArray[np.complex128]
    v: NDArray[np.complex128]

    def __post_init__(self) -> None:
        u = _frozen(self.u)
        v = _frozen(self.v)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape != v.shape:
            raise ValueError(f"U and V must be equal square matrices, got {u.shape} and {v.shape}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n_modes(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the two canonical-commutator invariants."""

    commutator_residual: float
    symmetry_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.commutator_residual <= DEFAULT_TOLERANCE
            and self.symmetry_residual <= DEFAULT_TOLERANCE
        )


def _check_modes(n_modes: int, *modes: int) -> None:
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    for m in modes:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode index {m} out of range for {n_modes} modes")
    if len(set(modes)) != len(modes):
        raise ValueError(f"mode indices must be distinct, got {modes}")


def _check_phase(phase: float) -> None:
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")


def two_mode_squeezer(
    n_modes: int, signal: int, idler: int, gain: float, pump_phase: float = 0.0
) -> GaussianMap:
    """Two-mode squeezer of gain r and pump phase theta coupling `signal` and `idler`.

    Output operators: a'_s = u a_s + v a_i^dag and a'_i = u a_i + v a_s^dag
    with u = cosh(r) real and v = exp(i*theta) sinh(r); the mean photon
    number per output mode from vacuum is sinh(r)^2.
    """
    _check_modes(n_modes, signal, idler)
    if gain < 0.0 or not math.isfinite(gain):
        raise ValueError(f"crystal gain must be finite and >= 0, got {gain}")
    _check_phase(pump_phase)
    c = math.cosh(gain)
    s = math.sinh(gain) * complex(math.cos(pump_phase), math.sin(pump_phase))
    u = np.eye(n_modes, dtype=complex)
    v = np.zeros((n_modes, n_modes), dtype=complex)
    u[signal, signal] = c
    u[idler, idler] = c
    v[signal, idler] = s
    v[idler, signal] = s
    return GaussianMap(u, v)


def beam_splitter(n_modes: int, mode_a: int, mode_b: int, transmittance: float) -> GaussianMap:
    """Lossless beam splitter of intensity transmittance T: a' = t a + r b,
    b' = t b - r a with t = sqrt(T) and r = sqrt(1 - T)."""
    _check_modes(n_modes, mode_a, mode_b)
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"intensity transmittance must lie in [0, 1], got {transmittance}")
    t, r = math.sqrt(transmittance), math.sqrt(1.0 - transmittance)
    u = np.eye(n_modes, dtype=complex)
    u[mode_a, mode_a] = t
    u[mode_a, mode_b] = r
    u[mode_b, mode_b] = t
    u[mode_b, mode_a] = -r
    return GaussianMap(u, np.zeros((n_modes, n_modes)))


def phase_shifter(n_modes: int, mode: int, phase: float) -> GaussianMap:
    """Single-mode phase shift a' = exp(i*phi) a."""
    _check_modes(n_modes, mode)
    _check_phase(phase)
    u = np.eye(n_modes, dtype=complex)
    u[mode, mode] = complex(math.cos(phase), math.sin(phase))
    return GaussianMap(u, np.zeros((n_modes, n_modes)))


def compose(second: GaussianMap, first: GaussianMap) -> GaussianMap:
    """Transform equal to applying `first`, then `second`."""
    if second.n_modes != first.n_modes:
        raise ValueError(
            f"mode count mismatch: {second.n_modes} vs {first.n_modes}"
        )
    u = second.u @ first.u + second.v @ first.v.conj()
    v = second.u @ first.v + second.v @ first.u.conj()
    return GaussianMap(u, v)


def chain(*maps: GaussianMap) -> GaussianMap:
    """Compose a sequence of transforms applied left to right."""
    if not maps:
        raise ValueError("chain needs at least one transform")
    total = maps[0]
    for step in maps[1:]:
        total = compose(step, total)
    return total


def validate(transform: GaussianMap) -> ValidationReport:
    """Measure how well `transform` preserves the commutation relations."""
    u, v = transform.u, transform.v
    eye = np.eye(transform.n_modes)
    commutator = np.abs(u @ u.conj().T - v @ v.conj().T - eye).max()
    uvt = u @ v.T
    symmetry = np.abs(uvt - uvt.T).max()
    return ValidationReport(float(commutator), float(symmetry))
