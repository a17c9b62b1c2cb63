"""Truncated Fock-space oracle for the interferometer.

Everything here works directly on a state vector over occupation-number
states with a per-mode cutoff, using ladder-operator matrix elements
(a |n> = sqrt(n) |n-1>).  None of the Bogoliubov/Gaussian machinery is
reused, so agreement between the two is a genuine cross-check.

Each two-mode element is exp(s K), K = a^dag b^dag - a b for a squeezer of
gain s = r and K = a^dag b - b^dag a for a splitter of angle s = kappa,
truncated to the (cutoff+1)^2 pair space.  K is real, antisymmetric and
block diagonal in the conserved n_a - n_b (resp. n_a + n_b), so it is
exponentiated exactly from cached per-block eigendecompositions; a pump
phase theta enters as e^{i theta n_a} exp(r K) e^{-i theta n_a}.  The
truncated evolution is exactly unitary, so truncation error shows up as
population near the cutoff, which `leakage_report` exposes and
`moment_matrices` (second moments from ladder matrix elements) and
`number_moments` (number means and covariances from |psi|^2, no Wick
formula) refuse to ignore.

The interferometer is `model.network`, the element list the Gaussian
engine also evaluates; `simulate_network` applies it element by element.

No state is copied that need not be: `FockState` keeps its amplitudes
C-contiguous and read-only, and takes an array that already is both (and
complex128) as it is, copying anything else.  The `apply_*` functions
freeze the fresh arrays they build, so a draw never copies a state to
store it; whoever freezes an array vouches that it will not change.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import FULL, PHASE, SPLIT, SQUEEZE, SetupParams, network

# A moment weighted by N^k errs by up to about cutoff^k times the top-level
# population: at cutoff 12, ~25 times it for second moments and ~115 times for
# number covariances (1e-8 put one 1.08e-6 off).  5e-9 keeps both inside the
# oracle's 1e-6 tolerance.
UNRELIABLE_TOP_POPULATION = 5e-9
HARD_LEAKAGE_LIMIT = 1e-4
_SQUEEZER = "squeezer"
_SPLITTER = "splitter"


class LeakageError(RuntimeError):
    """Raised when truncation leakage makes oracle output untrustworthy."""


@dataclass(frozen=True)
class LeakageReport:
    """Population stuck near the cutoff, per mode, plus lost norm."""

    top_two_population: NDArray[np.float64]
    norm_deficit: float

    @property
    def worst(self) -> float:
        return float(self.top_two_population.max())


@dataclass(frozen=True)
class FockState:
    """State vector on (cutoff+1)^n_modes occupation states.

    `peak_top_population` tracks the largest single-mode top-level
    population seen at any point of the state's history; once it
    exceeds UNRELIABLE_TOP_POPULATION the state is flagged unreliable.
    """

    cutoff: int
    amplitudes: NDArray[np.complex128]
    peak_top_population: float = 0.0

    def __post_init__(self) -> None:
        amps = self.amplitudes
        if not (
            isinstance(amps, np.ndarray)
            and amps.dtype == np.complex128
            and amps.flags.c_contiguous
            and not amps.flags.writeable
        ):
            amps = _frozen(np.array(amps, dtype=np.complex128, order="C"))
        if amps.ndim < 1 or any(size != self.cutoff + 1 for size in amps.shape):
            raise ValueError("amplitudes must have shape (cutoff+1,) * n_modes")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def unreliable(self) -> bool:
        return self.peak_top_population > UNRELIABLE_TOP_POPULATION


def vacuum(n_modes: int, cutoff: int) -> FockState:
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    amps = np.zeros((cutoff + 1,) * n_modes, dtype=np.complex128)
    amps[(0,) * n_modes] = 1.0
    return FockState(cutoff, _frozen(amps))


def basis_state(n_modes: int, cutoff: int, occupations) -> FockState:
    """A single occupation-number state |n_0, ..., n_{k-1}>."""
    occ = tuple(int(n) for n in occupations)
    if len(occ) != n_modes:
        raise ValueError(f"need {n_modes} occupations, got {len(occ)}")
    if any(n < 0 or n > cutoff for n in occ):
        raise ValueError(f"occupations must lie in [0, {cutoff}], got {occ}")
    amps = np.zeros((cutoff + 1,) * n_modes, dtype=np.complex128)
    amps[occ] = 1.0
    return FockState(cutoff, _frozen(amps))


def _frozen(amplitudes: np.ndarray) -> np.ndarray:
    """`amplitudes`, made read-only so that `FockState` stores it uncopied."""
    amplitudes.setflags(write=False)
    return amplitudes


def _ladder(
    psi: np.ndarray, axis: int, create: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply the annihilation operator of one mode, or with `create` the
    creation operator (truncated at the cutoff), writing into `out` (a
    fresh array by default): each weighted level slice goes straight to its
    shifted place, and only the one edge slice left over is zeroed."""
    if out is None:
        out = np.empty_like(psi)
    d = psi.shape[axis]
    weights = np.sqrt(np.arange(1.0, d)).reshape((-1,) + (1,) * (psi.ndim - axis - 1))
    lead = (slice(None),) * axis
    low, high = lead + (slice(None, -1),), lead + (slice(1, None),)
    if create:
        np.multiply(weights, psi[low], out=out[high])
        out[lead + (0,)] = 0.0
    else:
        np.multiply(weights, psi[high], out=out[low])
        out[lead + (-1,)] = 0.0
    return out


def _level_population(psi: np.ndarray, axis: int, levels: list[int]) -> float:
    """Population of the given levels of one mode: |psi|^2 of just those slices."""
    return float((np.abs(psi.take(levels, axis)) ** 2).sum())


def _top_population(psi: np.ndarray) -> float:
    top = psi.shape[0] - 1
    return max(_level_population(psi, axis, [top]) for axis in range(psi.ndim))


@functools.lru_cache(maxsize=16)
def _pair_eigensystem(cutoff: int, kind: str) -> tuple:
    """(blocks, w, v, v_dag) with i K = V diag(w) V^dag on each block of K,
    K built from ladder matrix elements on the pair index n_a (cutoff+1) + n_b.

    Each conserved value picks out an evenly strided set of rows; `blocks`
    holds that slice and its length per block.  The eigensystems are
    stacked, zero-padded to (cutoff+1) levels, so that one batched product
    builds every block's unitary: the padding only adds zero terms after
    the real ones."""
    d = cutoff + 1
    lower = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    levels = np.arange(d)
    if kind == _SQUEEZER:
        generator = np.kron(lower.T, lower.T) - np.kron(lower, lower)
        conserved, stride = np.subtract.outer(levels, levels).ravel(), d + 1
    else:
        generator = np.kron(lower.T, lower) - np.kron(lower, lower.T)
        conserved, stride = np.add.outer(levels, levels).ravel(), d - 1
    values = range(conserved.min(), conserved.max() + 1)
    w = np.zeros((len(values), d))
    v = np.zeros((len(values), d, d), dtype=np.complex128)
    blocks = []
    for block, value in enumerate(values):
        index = np.flatnonzero(conserved == value)
        rows, size = slice(index[0], index[-1] + 1, stride), index.size
        w[block, :size], v[block, :size, :size] = np.linalg.eigh(1j * generator[rows, rows])
        blocks.append((rows, size))
    v_dag = v.conj().transpose(0, 2, 1)
    for cached in (w, v, v_dag):
        cached.setflags(write=False)
    return tuple(blocks), w, v, v_dag


def _apply_pair(
    psi: np.ndarray, a: int, b: int, kind: str, angle: float, phase: float = 0.0
) -> np.ndarray:
    """exp(angle K) on modes (a, b), conjugated by e^{i phase n_a}; angle 0 returns psi.

    One C-order pass brings modes (a, b) to the front (applying e^{-i phase n_a}),
    the block unitaries act there in place, and one pass takes the result
    back to a fresh C-contiguous array (applying e^{i phase n_a}).  Each
    block of exp(angle K) is real, as K is, so it acts on the real and
    imaginary parts in one matmul.  Blocks keep the cache and matmuls small:
    a dense (cutoff+1)^2 unitary added 2.5 MB to the peak memory at cutoff 12.
    """
    if not angle:
        return psi
    d = psi.shape[a]
    moved = np.moveaxis(psi, (a, b), (0, 1))
    work = np.empty(moved.shape, dtype=np.complex128)
    if phase:
        rotor = np.exp(1j * phase * np.arange(d))
        np.multiply(moved, rotor.conj().reshape((d,) + (1,) * (psi.ndim - 1)), out=work)
    else:
        work[...] = moved
    parts = work.reshape(d * d, -1).view(np.float64)
    blocks, w, v, v_dag = _pair_eigensystem(d - 1, kind)
    units = ((v * np.exp(-1j * angle * w)[:, None, :]) @ v_dag).real
    for block, (rows, size) in enumerate(blocks):
        parts[rows] = units[block, :size, :size] @ parts[rows]
    out = np.empty(psi.shape, dtype=np.complex128)
    back = np.moveaxis(work, (0, 1), (a, b))
    if phase:
        np.multiply(back, rotor.reshape((d,) + (1,) * (psi.ndim - a - 1)), out=out)
    else:
        out[...] = back
    return out


def apply_phase(state: FockState, mode: int, phase: float) -> FockState:
    """Phase shifter exp(i phase N) on one mode; exact and leak-free."""
    _check_state_modes(state, mode)
    _check_phase(phase)
    d = state.cutoff + 1
    shape = [1] * state.n_modes
    shape[mode] = d
    factors = np.exp(1j * phase * np.arange(d)).reshape(shape)
    psi = _frozen(state.amplitudes * factors)
    return FockState(state.cutoff, psi, state.peak_top_population)


def apply_two_mode_squeezer(
    state: FockState, signal: int, idler: int, gain: float, pump_phase: float = 0.0
) -> FockState:
    """Two-mode squeezer exp(xi a^dag b^dag - conj(xi) a b), xi = gain e^{i phase}.

    Raises LeakageError when the resulting population in the top two
    levels of any mode exceeds HARD_LEAKAGE_LIMIT; the cutoff is then
    too small for this gain.
    """
    _check_state_modes(state, signal, idler)
    if gain < 0.0 or not math.isfinite(gain):
        raise ValueError(f"gain must be finite and >= 0, got {gain}")
    _check_phase(pump_phase)
    psi = _frozen(_apply_pair(state.amplitudes, signal, idler, _SQUEEZER, gain, pump_phase))
    new_state = FockState(
        state.cutoff, psi, max(state.peak_top_population, _top_population(psi))
    )
    worst = leakage_report(new_state).worst
    if worst > HARD_LEAKAGE_LIMIT:
        raise LeakageError(
            f"top-two-level population {worst:.3e} exceeds {HARD_LEAKAGE_LIMIT:.0e} "
            f"after a squeezer of gain {gain}; increase the cutoff (currently {state.cutoff})"
        )
    return new_state


def apply_beam_splitter(state: FockState, mode_a: int, mode_b: int, transmittance: float) -> FockState:
    """Beam splitter of intensity transmittance T: a' = t a + r b, b' = t b - r a.

    Photon-number conserving, so the truncated evolution is exactly
    unitary and introduces no norm loss.
    """
    _check_state_modes(state, mode_a, mode_b)
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    kappa = math.atan2(math.sqrt(1.0 - transmittance), math.sqrt(transmittance))
    psi = _frozen(_apply_pair(state.amplitudes, mode_a, mode_b, _SPLITTER, kappa))
    return FockState(state.cutoff, psi, max(state.peak_top_population, _top_population(psi)))


def leakage_report(state: FockState) -> LeakageReport:
    """Per-mode population in the top two levels, plus the norm deficit."""
    psi = state.amplitudes
    top_two = [state.cutoff - 1, state.cutoff]
    populations = [_level_population(psi, axis, top_two) for axis in range(psi.ndim)]
    return LeakageReport(np.array(populations), abs(1.0 - state.norm))


def cross_correlation(state: FockState, mode_a: int, mode_b: int) -> complex:
    """<a_i^dag a_j> evaluated from ladder matrix elements."""
    _check_state_modes(state, mode_a)
    _check_state_modes(state, mode_b)
    return complex(np.vdot(_ladder(state.amplitudes, mode_a), _ladder(state.amplitudes, mode_b)))


def pair_correlation(state: FockState, mode_a: int, mode_b: int) -> complex:
    """<a_i a_j> evaluated from ladder matrix elements."""
    _check_state_modes(state, mode_a)
    _check_state_modes(state, mode_b)
    return complex(np.vdot(state.amplitudes, _ladder(_ladder(state.amplitudes, mode_a), mode_b)))


def moment_matrices(state: FockState) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """All second moments: normal <a_i^dag a_j> and anomalous <a_i a_j>, each (n, n).

    Taken as <a_i psi|a_j psi> and <a_i^dag psi|a_j psi> from 2n ladder
    applications: the n lowered states share one stacked buffer, and the n
    raised ones take turns in one more.  The normal matrix is Hermitian, so
    its lower triangle is the conjugate of the upper one.  Raises
    LeakageError for a state flagged unreliable.
    """
    _check_reliable(state)
    psi = state.amplitudes
    n = state.n_modes
    lowered = np.empty((n,) + psi.shape, dtype=np.complex128)
    for i in range(n):
        _ladder(psi, i, out=lowered[i])
    raised = np.empty_like(psi)
    normal = np.empty((n, n), dtype=np.complex128)
    anomalous = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            normal[i, j] = np.vdot(lowered[i], lowered[j])
        normal[i + 1 :, i] = normal[i, i + 1 :].conj()
        _ladder(psi, i, create=True, out=raised)
        for j in range(n):
            anomalous[i, j] = np.vdot(raised, lowered[j])
    return normal, anomalous


def number_moments(state: FockState) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Photon-number means <N_i>, shape (n,), and covariances Cov(N_i, N_j), (n, n).

    Read off the joint number distribution |psi|^2 alone, with no Wick
    formula: each entry is a weighted sum over the one- or two-mode
    marginal of the modes it involves, so no state-sized occupation array
    is built.  Raises LeakageError for a state flagged unreliable.
    """
    _check_reliable(state)
    probs = np.abs(state.amplitudes) ** 2
    n = state.n_modes
    levels = np.arange(state.cutoff + 1.0)
    means = np.empty(n)
    products = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            marginal = np.einsum(probs, range(n), sorted({i, j}))
            if i == j:
                means[i] = levels @ marginal
                products[i, i] = levels**2 @ marginal
            else:
                products[i, j] = products[j, i] = levels @ marginal @ levels
    return means, products - np.outer(means, means)


def simulate_network(params: SetupParams, cutoff: int, cut: str = FULL) -> FockState:
    """Run `model.network` from vacuum in truncated Fock space.

    Same elements and mode layout as the Gaussian engine's
    `model.build_network`, computed entirely through Fock-space unitaries.
    """
    n, elements = network(params, cut)
    # looked up per call, not at import, so rebinding a module attribute
    # (as a tracer does) reaches the propagation
    apply = {SQUEEZE: apply_two_mode_squeezer, PHASE: apply_phase, SPLIT: apply_beam_splitter}
    state = vacuum(n, cutoff)
    for kind, *args in elements:
        state = apply[kind](state, *args)
    return state


def _check_state_modes(state: FockState, *modes: int) -> None:
    for m in modes:
        if not 0 <= m < state.n_modes:
            raise ValueError(f"mode index {m} out of range for {state.n_modes} modes")
    if len(set(modes)) != len(modes):
        raise ValueError(f"mode indices must be distinct, got {modes}")


def _check_phase(phase: float) -> None:
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")


def _check_reliable(state: FockState) -> None:
    """Refuse a flagged state: its moments can be off by more than the budget."""
    if state.unreliable:
        raise LeakageError(
            f"state flagged unreliable: peak top-level population "
            f"{state.peak_top_population:.3e} exceeds {UNRELIABLE_TOP_POPULATION:.0e}; "
            f"increase the cutoff (currently {state.cutoff})"
        )
