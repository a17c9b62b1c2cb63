"""Truncated Fock-space oracle for the interferometer.

Everything here works directly on amplitudes over occupation-number
states with a per-mode cutoff, using ladder-operator matrix elements
(a |n> = sqrt(n) |n-1>).  None of the Bogoliubov/Gaussian machinery is
reused, so agreement between the two is a genuine cross-check.

A state lives in one charge `Sector`.  Each mode i carries an integer
charge c_i, and the sector holds the occupations (n_0, ..., n_{k-1}), each
level in [0, cutoff], whose total charge sum_i c_i n_i has one value.  Its
occupation table lists them in lexicographic order, and the state's
amplitudes are one flat vector over that table.  Every element must
conserve the charge, and the `apply_*` functions refuse (ValueError) one
that does not: a squeezer needs c_a + c_b = 0, a splitter c_a = c_b.  With
all charges 0 the sector is the full (cutoff+1)^k space, listed in C
order, so a generic state is the zero-charge case of the same code.
`simulate_network` derives the charges from the element list: a
squeezer's signal gets +1 and its idler -1, and a splitter joins two modes
of the same charge.  For `model.network` that conserves
Q = (n_0 + n_1 + n_4) - (n_2 + n_3), and the vacuum's Q = 0 sector holds
1,469 of the 28,561 amplitudes of 4 modes at cutoff 12.  The sector is
enumerated without the dense grid; only `FockState.to_dense` builds it.

Each two-mode element is exp(s K), K = a^dag b^dag - a b for a squeezer of
gain s = r and K = a^dag b - b^dag a for a splitter of angle s = kappa,
truncated at the cutoff.  K is real, antisymmetric and block diagonal in
the conserved n_a - n_b (resp. n_a + n_b), so it is exponentiated exactly
from cached per-block eigendecompositions.  A cached gather map lays the
sector out as (conserved value, other modes, level of mode a) blocks, so
one batched matmul applies the element.  A pump phase theta is no part of
the pair unitary: the squeezer is e^{i theta n_a} exp(r K) e^{-i theta n_a},
two phase shifts around the bare element.  The truncated evolution is
exactly unitary, so truncation error shows up as population near the
cutoff: `leakage_report` gives each mode's population in its top two
levels, a squeezer refuses a state where one exceeds HARD_LEAKAGE_LIMIT,
and `moment_matrices` and `number_moments` refuse a state flagged
unreliable.

Second moments are inner products of ladder images, <a_i^dag a_j> =
<a_i psi|a_j psi> and <a_i a_j> = <a_i^dag psi|a_j psi>.  a_j moves a state
to the sector of charge Q - c_j, a_j^dag to Q + c_j, and a cached map per
mode gathers each image from psi; two images pair only when they share a
sector.  Number means and covariances come from |psi|^2 and the occupation
table alone, with no Wick formula.

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

from .model import PHASE, SPLIT, SQUEEZE, SetupParams, network

# A moment weighted by N^k errs by up to about cutoff^k times the top-level
# population: at cutoff 12, ~25 times it for second moments and ~115 times for
# number covariances (1e-8 put one 1.08e-6 off).  5e-9 keeps both inside the
# oracle's 1e-6 tolerance.
UNRELIABLE_TOP_POPULATION = 5e-9
HARD_LEAKAGE_LIMIT = 1e-4


class LeakageError(RuntimeError):
    """Raised when truncation leakage makes oracle output untrustworthy."""


@dataclass(frozen=True)
class Sector:
    """The occupations of len(charges) modes, each level in [0, cutoff], whose
    total charge sum_i charges[i] n_i equals `charge`.  All charges 0 (and
    charge 0) is the full space.  A sector may be empty, as a ladder image's
    can be, but no state lives in one."""

    cutoff: int
    charges: tuple[int, ...]
    charge: int = 0

    def __post_init__(self) -> None:
        if not self.charges:
            raise ValueError("need at least one mode")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        object.__setattr__(self, "charges", tuple(int(c) for c in self.charges))

    @property
    def n_modes(self) -> int:
        return len(self.charges)

    @property
    def size(self) -> int:
        return _levels(self).shape[1]


@dataclass(frozen=True)
class FockState:
    """Amplitudes over the occupation table of one charge `Sector`.

    `peak_top_population` tracks the largest single-mode top-level
    population seen at any point of the state's history; once it
    exceeds UNRELIABLE_TOP_POPULATION the state is flagged unreliable.
    """

    sector: Sector
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
        size = self.sector.size
        if not size:
            raise ValueError(
                f"no occupation of {self.n_modes} modes has charge {self.sector.charge}"
            )
        if amps.shape != (size,):
            raise ValueError("amplitudes must be a flat vector over the sector's occupations")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cutoff(self) -> int:
        return self.sector.cutoff

    @property
    def n_modes(self) -> int:
        return self.sector.n_modes

    @property
    def unreliable(self) -> bool:
        return self.peak_top_population > UNRELIABLE_TOP_POPULATION

    def to_dense(self) -> NDArray[np.complex128]:
        """The amplitudes on the full (cutoff+1,) * n_modes grid, zero outside
        the sector.  Meant for tests and small cutoffs: it allocates the dense
        grid that the oracle itself never builds."""
        dense = np.zeros((self.cutoff + 1,) * self.n_modes, dtype=np.complex128)
        dense[tuple(_levels(self.sector))] = self.amplitudes
        return dense


def vacuum(n_modes: int, cutoff: int, charges: tuple[int, ...] | None = None) -> FockState:
    """|0, ..., 0>, in the charge-0 sector of the given per-mode charges
    (all 0, the full space, by default)."""
    return basis_state(n_modes, cutoff, (0,) * n_modes, charges)


def basis_state(
    n_modes: int, cutoff: int, occupations, charges: tuple[int, ...] | None = None
) -> FockState:
    """A single occupation-number state |n_0, ..., n_{k-1}>, in the sector of
    its own charge under the given per-mode charges (all 0 by default)."""
    occ = tuple(int(n) for n in occupations)
    if len(occ) != n_modes:
        raise ValueError(f"need {n_modes} occupations, got {len(occ)}")
    if any(n < 0 or n > cutoff for n in occ):
        raise ValueError(f"occupations must lie in [0, {cutoff}], got {occ}")
    charges = (0,) * n_modes if charges is None else tuple(charges)
    if len(charges) != n_modes:
        raise ValueError(f"need {n_modes} charges, got {len(charges)}")
    sector = Sector(cutoff, charges, sum(c * n for c, n in zip(charges, occ)))
    amps = np.zeros(sector.size, dtype=np.complex128)
    amps[_index(sector, np.array(occ))] = 1.0
    return FockState(sector, _frozen(amps))


def _frozen(amplitudes: np.ndarray) -> np.ndarray:
    """`amplitudes`, made read-only so that `FockState` stores it uncopied."""
    amplitudes.setflags(write=False)
    return amplitudes


@functools.lru_cache(maxsize=8)
def _levels(sector: Sector) -> NDArray[np.int64]:
    """The sector's occupation table, (n_modes, size): column k is the k-th
    occupation in lexicographic order, row i the levels of mode i.

    Built one mode at a time: each partial occupation is extended only by
    the levels from which the remaining modes can still reach the sector's
    charge, so no occupation outside the sector, and no dense grid, is made.
    """
    cutoff, charges = sector.cutoff, sector.charges
    table = np.zeros((0, 1), dtype=np.int64)
    partial = np.zeros(1, dtype=np.int64)
    for mode, c in enumerate(charges):
        rest = charges[mode + 1 :]
        low = cutoff * sum(min(r, 0) for r in rest)
        high = cutoff * sum(max(r, 0) for r in rest)
        # the remaining modes add a charge in [low, high], so c n must lie in [least, most]
        least, most = sector.charge - partial - high, sector.charge - partial - low
        if c > 0:
            first, last = -(-least // c), most // c
        elif c < 0:
            first, last = -(-most // c), least // c
        else:
            first, last = np.zeros_like(partial), np.where((least <= 0) & (most >= 0), cutoff, -1)
        first, last = np.maximum(first, 0), np.minimum(last, cutoff)
        counts = np.maximum(last - first + 1, 0)
        parents = np.repeat(np.arange(partial.size), counts)
        levels = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(parents.size)
        table = np.vstack([table[:, parents], levels])
        partial = partial[parents] + c * levels
    table = np.ascontiguousarray(table)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=8)
def _codes(sector: Sector) -> NDArray[np.int64]:
    """Each occupation read as a base-(cutoff+1) number: ascending, as the
    table is lexicographic, so a search finds an occupation's position."""
    codes = _place_values(sector) @ _levels(sector)
    codes.setflags(write=False)
    return codes


def _place_values(sector: Sector) -> NDArray[np.int64]:
    return (sector.cutoff + 1) ** np.arange(sector.n_modes - 1, -1, -1)


def _index(sector: Sector, occupations: np.ndarray) -> NDArray[np.intp]:
    """Positions in the sector of in-sector occupations, given as the columns
    of an (n_modes, k) array."""
    return np.searchsorted(_codes(sector), _place_values(sector) @ occupations)


@functools.lru_cache(maxsize=8)
def _top_levels(sector: Sector) -> tuple:
    """For each mode's top level and for its top two levels, the (mode, state)
    index pairs that lie there, so that `_populations` is one gather and one
    `np.bincount`."""
    levels = _levels(sector)
    top, top_two = np.nonzero(levels == sector.cutoff), np.nonzero(levels >= sector.cutoff - 1)
    for cached in (*top, *top_two):
        cached.setflags(write=False)
    return top, top_two


def _populations(psi: np.ndarray, levels: tuple, n_modes: int) -> NDArray[np.float64]:
    """Per-mode population of the `_top_levels` entry `levels`."""
    modes, states = levels
    return np.bincount(modes, weights=np.abs(psi[states]) ** 2, minlength=n_modes)


@functools.lru_cache(maxsize=16)
def _pair_eigensystem(cutoff: int, kind: str) -> tuple:
    """(w, v) with i K = V diag(w) V^dag on each block of K.

    Block b holds the pair states with n_a - n_b + cutoff = b (squeezer) or
    n_a + n_b = b (splitter), rows running over n_a from max(0, b - cutoff);
    K raises row k to row k + 1 with weight sqrt(n_a + 1) sqrt(n_b + 1)
    (squeezer) or sqrt(n_a + 1) sqrt(n_b) (splitter), and lowers it back with
    the opposite sign.  The 2 cutoff + 1 eigensystems are stacked, zero-padded
    to cutoff + 1 levels, so that one batched product builds every block's
    unitary: the padding only adds zero terms after the real ones."""
    d = cutoff + 1
    root = np.sqrt(np.arange(1.0, d))  # root[m] = sqrt(m + 1)
    w = np.zeros((2 * cutoff + 1, d))
    v = np.zeros((2 * cutoff + 1, d, d), dtype=np.complex128)
    for block in range(2 * cutoff + 1):
        n_a = np.arange(max(0, block - cutoff), min(block, cutoff) + 1)
        if kind == SQUEEZE:
            weight = root[n_a[:-1]] * root[n_a[:-1] - block + cutoff]
        else:
            weight = root[n_a[:-1]] * root[block - n_a[:-1] - 1]
        size = n_a.size
        generator = np.zeros((size, size))
        generator[np.arange(1, size), np.arange(size - 1)] = weight
        generator[np.arange(size - 1), np.arange(1, size)] = -weight
        w[block, :size], v[block, :size, :size] = np.linalg.eigh(1j * generator)
    for cached in (w, v):
        cached.setflags(write=False)
    return w, v


@functools.lru_cache(maxsize=32)
def _pair_layout(sector: Sector, a: int, b: int, kind: str) -> tuple:
    """(gather, place) laying the sector out for a pair element on (a, b).

    `gather`, (2 cutoff + 1, cutoff + 1, width), holds the sector index of
    each slot: block as in `_pair_eigensystem`, then the level n_a -
    max(0, block - cutoff), then the occupation of the other modes, numbered
    within the block.  Padding slots point at amplitude 0.  `place` gives
    each sector state's flat slot."""
    table = _levels(sector)
    cutoff, n = sector.cutoff, sector.n_modes
    d = cutoff + 1
    n_a, n_b = table[a], table[b]
    block = n_a - n_b + cutoff if kind == SQUEEZE else n_a + n_b
    level = n_a - np.maximum(block - cutoff, 0)
    span = d ** (n - 2)
    others = d ** np.arange(n - 3, -1, -1) @ np.delete(table, (a, b), axis=0)
    keys, column = np.unique(block * span + others, return_inverse=True)
    column = column - np.searchsorted(keys, keys // span * span)[column]
    width = int(column.max()) + 1
    place = (block * d + level) * width + column
    gather = np.zeros((2 * cutoff + 1) * d * width, dtype=np.intp)
    gather[place] = np.arange(sector.size)
    gather = gather.reshape(2 * cutoff + 1, d, width)
    for cached in (gather, place):
        cached.setflags(write=False)
    return gather, place


def _apply_pair(state: FockState, a: int, b: int, kind: str, angle: float) -> np.ndarray:
    """Amplitudes of exp(angle K) on modes (a, b), the state's own for angle 0;
    unchecked, so the caller runs `_check_charge` first.

    One gather lays the sector out in `_pair_layout`'s blocks, one batched
    matmul applies each block's unitary, and one gather takes the result back
    to sector order.  Each block of exp(angle K) is real, as K is, so it acts
    on the real and imaginary parts at once.  Padding slots hold copies of
    amplitude 0: the padded unitaries' zero columns ignore them, and their
    rows are never read back.
    """
    psi = state.amplitudes
    if not angle:
        return psi
    gather, place = _pair_layout(state.sector, a, b, kind)
    w, v = _pair_eigensystem(state.cutoff, kind)
    units = ((v * np.exp(-1j * angle * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)).real
    out = (units @ psi[gather].view(np.float64)).view(np.complex128)
    return out.reshape(-1)[place]


def _check_charge(state: FockState, a: int, b: int, kind: str) -> None:
    """ValueError unless a pair element of `kind` on (a, b) keeps the state's
    charge: a squeezer needs c_a + c_b = 0, a splitter c_a = c_b."""
    charges = state.sector.charges
    if charges[a] + (charges[b] if kind == SQUEEZE else -charges[b]):
        raise ValueError(
            f"a {kind} element on modes {a} and {b} of charges {charges[a]} and {charges[b]} "
            f"does not conserve the state's charge"
        )


def _evolved(state: FockState, psi: np.ndarray) -> FockState:
    """`state` after a pair element gave it the amplitudes `psi`, with the peak
    top-level population updated."""
    top = _populations(psi, _top_levels(state.sector)[0], state.n_modes).max()
    return FockState(state.sector, _frozen(psi), max(state.peak_top_population, float(top)))


def apply_phase(state: FockState, mode: int, phase: float) -> FockState:
    """Phase shifter exp(i phase N) on one mode; exact and leak-free."""
    _check_state_modes(state, mode)
    _check_phase(phase)
    factors = np.exp(1j * phase * np.arange(state.cutoff + 1))[_levels(state.sector)[mode]]
    # np.multiply, not `*`: numpy may reuse a large temporary operand as the
    # output of `*` and swap the operands, which changes the product's last bit
    psi = _frozen(np.multiply(state.amplitudes, factors))
    return FockState(state.sector, psi, state.peak_top_population)


def apply_two_mode_squeezer(
    state: FockState, signal: int, idler: int, gain: float, pump_phase: float = 0.0
) -> FockState:
    """Two-mode squeezer exp(xi a^dag b^dag - conj(xi) a b), xi = gain e^{i phase},
    applied as e^{i phase n_signal} exp(gain K) e^{-i phase n_signal}.

    Raises ValueError unless the two modes carry opposite charges, and
    LeakageError when the resulting population in the top two levels of
    any mode exceeds HARD_LEAKAGE_LIMIT; the cutoff is then too small for
    this gain.
    """
    _check_state_modes(state, signal, idler)
    if gain < 0.0 or not math.isfinite(gain):
        raise ValueError(f"gain must be finite and >= 0, got {gain}")
    _check_phase(pump_phase)
    _check_charge(state, signal, idler, SQUEEZE)
    turned = apply_phase(state, signal, -pump_phase)
    squeezed = FockState(state.sector, _frozen(_apply_pair(turned, signal, idler, SQUEEZE, gain)))
    new_state = _evolved(state, apply_phase(squeezed, signal, pump_phase).amplitudes)
    worst = leakage_report(new_state).max()
    if worst > HARD_LEAKAGE_LIMIT:
        raise LeakageError(
            f"top-two-level population {worst:.3e} exceeds {HARD_LEAKAGE_LIMIT:.0e} "
            f"after a squeezer of gain {gain}; increase the cutoff (currently {state.cutoff})"
        )
    return new_state


def apply_beam_splitter(state: FockState, mode_a: int, mode_b: int, transmittance: float) -> FockState:
    """Beam splitter of intensity transmittance T: a' = t a + r b, b' = t b - r a.

    Photon-number conserving, so the truncated evolution is exactly
    unitary and introduces no norm loss.  Raises ValueError unless the two
    modes carry the same charge.
    """
    _check_state_modes(state, mode_a, mode_b)
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    _check_charge(state, mode_a, mode_b, SPLIT)
    kappa = math.atan2(math.sqrt(1.0 - transmittance), math.sqrt(transmittance))
    return _evolved(state, _apply_pair(state, mode_a, mode_b, SPLIT, kappa))


def leakage_report(state: FockState) -> NDArray[np.float64]:
    """Per-mode population in the top two levels, shape (n_modes,)."""
    return _populations(state.amplitudes, _top_levels(state.sector)[1], state.n_modes)


@functools.lru_cache(maxsize=32)
def _ladder_map(sector: Sector, mode: int, create: bool) -> tuple:
    """(target, source) for the image of the sector under a_mode, or under
    a_mode^dag with `create`.

    `target` is the sector the image lies in, of charge shifted by -c_mode
    (+c_mode), and `source`, one per target occupation t, the index of
    t + e_mode (t - e_mode) in the sector, or `sector.size` where that
    occupation leaves [0, cutoff]: with a 0 appended to psi, psi[source]
    times sqrt(t_mode + 1) (sqrt(t_mode)) is the image.
    """
    step = -1 if create else 1
    target = Sector(sector.cutoff, sector.charges, sector.charge - step * sector.charges[mode])
    occupations = _levels(target).copy()
    occupations[mode] += step
    inside = (occupations[mode] >= 0) & (occupations[mode] <= sector.cutoff)
    source = np.full(target.size, sector.size, dtype=np.intp)
    source[inside] = _index(sector, occupations[:, inside])
    source.setflags(write=False)
    return target, source


def _second_moments(state: FockState) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Normal and anomalous moment matrices from the ladder images, unchecked.

    Two images pair when they lie in the same sector, which, as all sectors
    here share the cutoff and charges, is when their charges agree."""
    psi = np.append(state.amplitudes, 0.0)
    root = np.sqrt(np.arange(state.cutoff + 2.0))
    n = state.n_modes
    images = {}
    for create in (False, True):
        weights = root if create else root[1:]
        for mode in range(n):
            target, source = _ladder_map(state.sector, mode, create)
            images[create, mode] = target.charge, psi[source] * weights[_levels(target)[mode]]
    moments = np.zeros((2, n, n), dtype=np.complex128)
    for kind, create in enumerate((False, True)):
        for i in range(n):
            for j in range(i, n):
                (bra_charge, bra), (ket_charge, ket) = images[create, i], images[False, j]
                if bra_charge == ket_charge:
                    moments[kind, i, j] = value = np.vdot(bra, ket)
                    moments[kind, j, i] = value if create else value.conjugate()
    normal, anomalous = moments
    np.fill_diagonal(normal, normal.diagonal().real)
    return normal, anomalous


def cross_correlation(state: FockState, mode_a: int, mode_b: int) -> complex:
    """<a_i^dag a_j>, one entry of `moment_matrices`."""
    _check_state_modes(state, mode_a)
    _check_state_modes(state, mode_b)
    return complex(_second_moments(state)[0][mode_a, mode_b])


def pair_correlation(state: FockState, mode_a: int, mode_b: int) -> complex:
    """<a_i a_j>, one entry of `moment_matrices`."""
    _check_state_modes(state, mode_a)
    _check_state_modes(state, mode_b)
    return complex(_second_moments(state)[1][mode_a, mode_b])


def moment_matrices(state: FockState) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """All second moments: normal <a_i^dag a_j> and anomalous <a_i a_j>, each (n, n).

    Each upper-triangle entry is one inner product of ladder images,
    <a_i psi|a_j psi> or <a_i^dag psi|a_j psi>, 0 where the two lie in
    different sectors (the moment would change the charge); the normal
    matrix is Hermitian, with a real diagonal, and the anomalous one
    symmetric, so the lower triangles are copies.  Raises LeakageError for a
    state flagged unreliable.
    """
    _check_reliable(state)
    return _second_moments(state)


def number_moments(state: FockState) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Photon-number means <N_i>, shape (n,), and covariances Cov(N_i, N_j), (n, n).

    Read off the joint number distribution |psi|^2 alone, with no Wick
    formula: two products of it with the occupation table, n_i |psi|^2 and
    n_i n_j |psi|^2 (i <= j), each summed over the sector.  Raises
    LeakageError for a state flagged unreliable.
    """
    _check_reliable(state)
    levels = _levels(state.sector)
    weighted = levels * (np.abs(state.amplitudes) ** 2)
    means = weighted.sum(axis=1)
    rows, cols = np.triu_indices(state.n_modes)
    products = np.empty((state.n_modes, state.n_modes))
    products[rows, cols] = products[cols, rows] = (weighted[rows] * levels[cols]).sum(axis=1)
    return means, products - np.outer(means, means)


def _charges(n_modes: int, elements: list[tuple]) -> tuple[int, ...]:
    """Per-mode charges that every element conserves: a squeezer's signal +1
    and idler -1, equal charges across a splitter, 0 for a mode no squeezer
    reaches.  Each squeezer whose signal is still uncharged seeds it with +1,
    and the charge spreads along the pair elements from there; a network that
    no assignment fits is refused by its `apply_*` call."""
    links: dict[int, list[tuple[int, int]]] = {}
    for kind, a, b, *_ in (element for element in elements if element[0] != PHASE):
        sign = -1 if kind == SQUEEZE else 1
        links.setdefault(a, []).append((b, sign))
        links.setdefault(b, []).append((a, sign))
    charges = [0] * n_modes
    for kind, signal, *_ in elements:
        if kind != SQUEEZE or charges[signal]:
            continue
        charges[signal], todo = 1, [signal]
        while todo:
            mode = todo.pop()
            for other, sign in links[mode]:
                if not charges[other]:
                    charges[other] = sign * charges[mode]
                    todo.append(other)
    return tuple(charges)


def simulate_network(params: SetupParams, cutoff: int) -> FockState:
    """Run `model.network` from vacuum in truncated Fock space.

    Same elements and mode layout as the Gaussian engine's
    `model.build_network`, computed entirely through Fock-space unitaries
    on the vacuum's charge sector.
    """
    n, elements = network(params)
    # looked up per call, not at import, so rebinding a module attribute
    # (as a tracer does) reaches the propagation
    apply = {SQUEEZE: apply_two_mode_squeezer, PHASE: apply_phase, SPLIT: apply_beam_splitter}
    state = vacuum(n, cutoff, _charges(n, elements))
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
