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
from cached per-block eigendecompositions.  Each block is similar to -i J
for a real symmetric tridiagonal J, so its exponential is real and comes
from J's real eigensystem, one real batched product for all blocks
(docs/pair_unitaries.md).  Two blocks whose n_a ranges complement each
other share one slot of cutoff + 1 rows, so the 2 cutoff + 1 blocks fill
cutoff + 1 slots.  A cached gather map lays the sector out as (slot, n_a,
other modes), so one more batched matmul applies the element.  A pump
phase theta is no part of the pair unitary: the squeezer is
e^{i theta n_a} exp(r K) e^{-i theta n_a}: the rows of the gathered slots
are multiplied by e^{-i theta n_a} before the product and by
e^{i theta n_a} after it.  The truncated evolution is exactly unitary, so
truncation error shows up as population near the cutoff: `leakage_report`
gives each mode's population in its top two levels, a squeezer refuses a
state where one exceeds HARD_LEAKAGE_LIMIT, and every moment read refuses
a state flagged unreliable: `moment_matrices`, its single entries
`cross_correlation` and `pair_correlation`, and `number_moments`.

Second moments are inner products of ladder images, <a_i^dag a_j> =
<a_i psi|a_j psi> and <a_i a_j> = <a_i^dag psi|a_j psi>.  a_j moves a state
to the sector of charge Q - c_j, a_j^dag to Q + c_j, and a cached plan
gathers, in one step per image sector, every image that lies there; two
images pair only when they share a sector.  Number means and covariances
come from |psi|^2 and the occupation table alone, with no Wick formula:
two matrix products against the table.

The interferometer is `model.network` and `model.DETECTION`, the elements
the Gaussian engine also evaluates; `simulate_network` applies each.

No state is copied that need not be: `FockState` keeps its amplitudes
C-contiguous and read-only, and takes an array that already is both (and
complex128) as it is, copying anything else.  The `apply_*` functions
freeze the fresh arrays they build, so a draw never copies a state to
store it; whoever freezes an array vouches that it will not change.

What depends only on the layout is built once and reused, not per draw:
the charges of an element layout, the vacuum's sector (one object per
cutoff and charges, so that the caches below find it by identity), each
sector's hash, occupation table and per-element layouts, each (cutoff,
kind) pair eigensystem, and the unitaries of angles that repeat, as the
fixed 50:50 detection splitter's does.  The vacuum needs no search: the
all-zero occupation is the lexicographically first, entry 0 of every
charge-0 sector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import DETECTION, PHASE, SPLIT, SQUEEZE, SetupParams, network

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
        if len(self.charges) == 0:
            raise ValueError(f"charges must name at least one mode, got {self.charges!r}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        object.__setattr__(self, "charges", tuple(int(c) for c in self.charges))
        # a sector keys the layout caches and is looked up many times per
        # draw, so its hash, the dataclass one, is taken once
        object.__setattr__(self, "_hash", hash((self.cutoff, self.charges, self.charge)))

    def __hash__(self) -> int:
        return self._hash

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
    (all 0, the full space, by default): its entry 0, the first occupation
    of the lexicographic table."""
    sector, _ = _basis_sector(n_modes, cutoff, (0,) * n_modes, charges)
    amps = np.zeros(sector.size, dtype=np.complex128)
    amps[0] = 1.0
    return FockState(sector, _frozen(amps))


def basis_state(
    n_modes: int, cutoff: int, occupations, charges: tuple[int, ...] | None = None
) -> FockState:
    """A single occupation-number state |n_0, ..., n_{k-1}>, in the sector of
    its own charge under the given per-mode charges (all 0 by default)."""
    sector, occ = _basis_sector(n_modes, cutoff, occupations, charges)
    amps = np.zeros(sector.size, dtype=np.complex128)
    amps[_index(sector, np.array(occ))] = 1.0
    return FockState(sector, _frozen(amps))


def _basis_sector(
    n_modes: int, cutoff: int, occupations, charges: tuple[int, ...] | None
) -> tuple[Sector, tuple[int, ...]]:
    """The sector of a basis state and its occupations as ints, after the
    checks that `basis_state` and `vacuum` make of their arguments."""
    occ = tuple(int(n) for n in occupations)
    if len(occ) != n_modes:
        raise ValueError(f"need {n_modes} occupations, got {len(occ)}")
    if any(n < 0 or n > cutoff for n in occ):
        raise ValueError(f"occupations must lie in [0, {cutoff}], got {occ}")
    charges = (0,) * n_modes if charges is None else tuple(charges)
    if len(charges) != n_modes:
        raise ValueError(f"need {n_modes} charges, got {len(charges)}")
    return _sector(cutoff, charges, sum(c * n for c, n in zip(charges, occ))), occ


@functools.lru_cache(maxsize=8)
def _sector(cutoff: int, charges: tuple, charge: int) -> Sector:
    """One `Sector` object per (cutoff, charges, charge), so that every draw
    from that sector's vacuum finds the layout caches' keys by identity."""
    return Sector(cutoff, charges, charge)


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
def _number_table(sector: Sector) -> NDArray[np.float64]:
    """`_levels` as floats, the photon numbers that `number_moments` weighs."""
    table = _levels(sector).astype(np.float64)
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
    """(lam, q, qt, sign) with exp(s K) = sign * (Q diag(cos s lam + sin s lam) Q^T)
    on each slot of K, qt = Q^T; all real (docs/pair_unitaries.md).

    K is block diagonal: block b holds the pair states with n_a - n_b +
    cutoff = b (squeezer) or n_a + n_b = b (splitter), n_a running from
    max(0, b - cutoff), and K raises n_a to n_a + 1 with weight
    sqrt(n_a + 1) sqrt(n_b + 1) (squeezer) or sqrt(n_a + 1) sqrt(n_b)
    (splitter), and lowers it back with the opposite sign.  Slot b mod
    (cutoff + 1) holds block b on the rows of its n_a: blocks b and
    b + cutoff + 1 fill the cutoff + 1 rows of one slot between them.  So
    K = D (-i J) D^-1, D = diag(i^n_a), for the real symmetric J with the
    same weights on both off-diagonals, whose eigensystem J = Q diag(lam)
    Q^T is taken block by block, so that the unitaries of two blocks in one
    slot meet only in exact zeros.  J's eigenvalues pair as +-lam, so
    cos(s J) lives on the even offsets k - l and sin(s J) on the odd ones,
    and D's phases reduce to the fixed pattern sign[k, l] =
    (-1)^floor((k - l) / 2)."""
    d = cutoff + 1
    root = np.sqrt(np.arange(1.0, d))  # root[m] = sqrt(m + 1)
    lam = np.zeros((d, d))
    q = np.zeros((d, d, d))
    for block in range(2 * cutoff + 1):
        n_a = np.arange(max(0, block - cutoff), min(block, cutoff) + 1)
        if kind == SQUEEZE:
            weight = root[n_a[:-1]] * root[n_a[:-1] - block + cutoff]
        else:
            weight = root[n_a[:-1]] * root[block - n_a[:-1] - 1]
        rows = slice(n_a[0], n_a[-1] + 1)
        lam[block % d, rows], q[block % d, rows, rows] = np.linalg.eigh(
            np.diag(weight, 1) + np.diag(weight, -1)
        )
    qt = np.ascontiguousarray(q.transpose(0, 2, 1))
    offset = np.arange(d)[:, None] - np.arange(d)
    sign = np.where(offset // 2 % 2, -1.0, 1.0)
    for cached in (lam, q, qt, sign):
        cached.setflags(write=False)
    return lam, q, qt, sign


@functools.lru_cache(maxsize=8)
def _pair_unitary(cutoff: int, kind: str, angle: float) -> NDArray[np.float64]:
    """The slots of exp(angle K), (cutoff + 1,) * 3 real and frozen, from
    `_pair_eigensystem`.

    Kept for angles that repeat, as the fixed 50:50 detection splitter's
    does, which is then exponentiated once per process; a squeezer's gain
    rarely repeats.  One entry holds 8 (cutoff + 1)^3 B: 17.6 kB at cutoff
    12, and 4.25 MB at cutoff 80, where the 8 entries hold at most 34 MB."""
    lam, q, qt, sign = _pair_eigensystem(cutoff, kind)
    turn = angle * lam
    units = sign * ((q * (np.cos(turn) + np.sin(turn))[:, None, :]) @ qt)
    units.setflags(write=False)
    return units


@functools.lru_cache(maxsize=32)
def _pair_layout(sector: Sector, a: int, b: int, kind: str) -> tuple:
    """(gather, place) laying the sector out for a pair element on (a, b).

    `gather`, (cutoff + 1, cutoff + 1, width), holds the sector index of
    each entry: slot as in `_pair_eigensystem`, then n_a, then the
    occupation of the other modes, numbered within the block.  Padding
    entries point at amplitude 0.  `place` gives each sector state's flat
    entry."""
    table = _levels(sector)
    cutoff, n = sector.cutoff, sector.n_modes
    d = cutoff + 1
    n_a, n_b = table[a], table[b]
    block = n_a - n_b + cutoff if kind == SQUEEZE else n_a + n_b
    span = d ** (n - 2)
    others = d ** np.arange(n - 3, -1, -1) @ np.delete(table, (a, b), axis=0)
    keys, column = np.unique(block * span + others, return_inverse=True)
    column = column - np.searchsorted(keys, keys // span * span)[column]
    width = int(column.max()) + 1
    place = (block % d * d + n_a) * width + column
    gather = np.zeros(d * d * width, dtype=np.intp)
    gather[place] = np.arange(sector.size)
    gather = gather.reshape(d, d, width)
    for cached in (gather, place):
        cached.setflags(write=False)
    return gather, place


def _apply_pair(
    state: FockState, a: int, b: int, kind: str, angle: float, phase: float = 0.0
) -> np.ndarray:
    """Amplitudes of e^{i phase n_a} exp(angle K) e^{-i phase n_a} on modes
    (a, b), the state's own for angle 0; unchecked, so the caller runs
    `_check_charge` first.

    One gather lays the sector out in `_pair_layout`'s slots, one batched
    matmul applies each slot's unitary, and one gather takes the result back
    to sector order.  Each block of exp(angle K) is real, as K is, so it acts
    on the real and imaginary parts at once, and the rows of a slot are n_a
    itself, so the phase factors act on the rows of the gathered slots.
    Padding entries, the rows of a block that has no state in that column,
    hold copies of amplitude 0: that block's unitary mixes them only among
    themselves, as it meets the other block of its slot in exact zeros, and
    they are never read back.
    """
    psi = state.amplitudes
    if not angle:
        return psi
    gather, place = _pair_layout(state.sector, a, b, kind)
    units = _pair_unitary(state.cutoff, kind, angle)
    slots = psi[gather]
    if phase:
        rotor = np.exp(1j * phase * np.arange(state.cutoff + 1.0))[:, None]
        slots *= rotor.conj()
    out = (units @ slots.view(np.float64)).view(np.complex128)
    if phase:
        out *= rotor
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
    new_state = _evolved(state, _apply_pair(state, signal, idler, SQUEEZE, gain, pump_phase))
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


def _ladder_map(sector: Sector, mode: int, create: bool) -> tuple[np.ndarray, np.ndarray]:
    """(source, weight) for the image of the sector under a_mode, or under
    a_mode^dag with `create`.

    The image lies in the sector of charge shifted by -c_mode (+c_mode).
    `source`, one per occupation t of that sector, is the index of t + e_mode
    (t - e_mode) in the sector, or `sector.size` where that occupation leaves
    [0, cutoff], and `weight` is sqrt(t_mode + 1) (sqrt(t_mode)): with a 0
    appended to psi, psi[source] * weight is the image.
    """
    step = -1 if create else 1
    target = Sector(sector.cutoff, sector.charges, sector.charge - step * sector.charges[mode])
    occupations = _levels(target).copy()
    occupations[mode] += step
    inside = (occupations[mode] >= 0) & (occupations[mode] <= sector.cutoff)
    source = np.full(target.size, sector.size, dtype=np.intp)
    source[inside] = _index(sector, occupations[:, inside])
    return source, np.sqrt(occupations[mode] + create)


@functools.lru_cache(maxsize=8)
def _ladder_plan(sector: Sector) -> tuple:
    """How `moment_matrices` builds and pairs the sector's ladder images: one
    group per sector that an image a_j psi lies in.

    A group is (source, weight, pairs): a row of `_ladder_map` for each
    image a_j psi or a_i^dag psi that lies in that sector, and, for each
    moment <a_i psi|a_j psi> (kind 0) or <a_i^dag psi|a_j psi> (kind 1) with
    i <= j that pairs two of its rows, (bra row, ket row, kind, i, j).  Two
    images in different sectors never pair: that moment would change the
    charge, so it is 0."""
    n, charges = sector.n_modes, sector.charges
    groups = []
    for charge in dict.fromkeys(sector.charge - c for c in charges):
        rows = [
            (create, mode)
            for create in (False, True)
            for mode in range(n)
            if sector.charge + (charges[mode] if create else -charges[mode]) == charge
        ]
        size = Sector(sector.cutoff, charges, charge).size
        source, weight = np.empty((len(rows), size), dtype=np.intp), np.empty((len(rows), size))
        for row, (create, mode) in enumerate(rows):
            source[row], weight[row] = _ladder_map(sector, mode, create)
        for cached in (source, weight):
            cached.setflags(write=False)
        pairs = tuple(
            (bra, ket, int(create), i, j)
            for bra, (create, i) in enumerate(rows)
            for ket, (raised, j) in enumerate(rows)
            if not raised and i <= j
        )
        groups.append((source, weight, pairs))
    return tuple(groups)


def moment_matrices(state: FockState) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """All second moments: normal <a_i^dag a_j> and anomalous <a_i a_j>, each (n, n).

    Each upper-triangle entry is one inner product of ladder images,
    <a_i psi|a_j psi> or <a_i^dag psi|a_j psi>, 0 where the two lie in
    different sectors (the moment would change the charge).  One gather
    builds all images that share a sector (`_ladder_plan`).  The normal
    matrix is Hermitian, with a real diagonal, and the anomalous one
    symmetric, so the lower triangles are copies.  Raises LeakageError for
    a state flagged unreliable.
    """
    _check_reliable(state)
    psi = np.append(state.amplitudes, 0.0)
    moments = np.zeros((2, state.n_modes, state.n_modes), dtype=np.complex128)
    for source, weight, pairs in _ladder_plan(state.sector):
        images = psi[source]
        images *= weight
        for bra, ket, kind, i, j in pairs:
            moments[kind, i, j] = value = np.vdot(images[bra], images[ket])
            moments[kind, j, i] = value if kind else value.conjugate()
    normal, anomalous = moments
    np.fill_diagonal(normal, normal.diagonal().real)
    return normal, anomalous


def cross_correlation(state: FockState, mode_a: int, mode_b: int) -> complex:
    """<a_i^dag a_j>, one entry of `moment_matrices`, which refuses a flagged state."""
    _check_state_modes(state, mode_a)
    _check_state_modes(state, mode_b)
    return complex(moment_matrices(state)[0][mode_a, mode_b])


def pair_correlation(state: FockState, mode_a: int, mode_b: int) -> complex:
    """<a_i a_j>, one entry of `moment_matrices`, which refuses a flagged state."""
    _check_state_modes(state, mode_a)
    _check_state_modes(state, mode_b)
    return complex(moment_matrices(state)[1][mode_a, mode_b])


def number_moments(state: FockState) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Photon-number means <N_i>, shape (n,), and covariances Cov(N_i, N_j), (n, n).

    Read off the joint number distribution |psi|^2 alone, with no Wick
    formula: with w = n |psi| over the occupation table, sum n_i |psi|^2 is
    w @ |psi| and sum n_i n_j |psi|^2 is the Gram product w @ w^T, which
    comes out exactly symmetric.  Raises LeakageError for a state flagged
    unreliable.
    """
    _check_reliable(state)
    magnitude = np.abs(state.amplitudes)
    weighted = _number_table(state.sector) * magnitude
    means = weighted @ magnitude
    return means, weighted @ weighted.T - np.outer(means, means)


def _charges(n_modes: int, elements: list[tuple]) -> tuple[int, ...]:
    """Per-mode charges that every element conserves: a squeezer's signal +1
    and idler -1, equal charges across a splitter, 0 for a mode no squeezer
    reaches.  They depend only on the layout, the kind and modes of each pair
    element, so they are derived once per layout (`_layout_charges`)."""
    pairs = tuple(element[:3] for element in elements if element[0] != PHASE)
    return _layout_charges(n_modes, pairs)


@functools.lru_cache(maxsize=8)
def _layout_charges(n_modes: int, pairs: tuple[tuple, ...]) -> tuple[int, ...]:
    """`_charges` of the pair elements `pairs`, each (kind, a, b) in order.
    Each squeezer whose signal is still uncharged seeds it with +1, and the
    charge spreads along the pair elements from there; a network that no
    assignment fits is refused by its `apply_*` call."""
    links: dict[int, list[tuple[int, int]]] = {}
    for kind, a, b in pairs:
        sign = -1 if kind == SQUEEZE else 1
        links.setdefault(a, []).append((b, sign))
        links.setdefault(b, []).append((a, sign))
    charges = [0] * n_modes
    for kind, signal, _ in pairs:
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
    """Run `model.network` and `model.DETECTION` from vacuum in Fock space.

    Same elements and mode layout as the Gaussian engine's detector map
    (`model.engine_moments`), computed entirely through Fock-space
    unitaries on the vacuum's charge sector.
    """
    n, elements = network(params)
    elements.append(DETECTION)
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
