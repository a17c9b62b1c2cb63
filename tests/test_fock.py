"""Truncated Fock-space simulator: generator-level checks and leakage policy."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from inducoh import fock, model


def _norm(state):
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def test_vacuum_expectations_and_norm():
    state = fock.vacuum(4, 10)
    assert _norm(state) == pytest.approx(1.0, abs=0)
    means, covariance = fock.number_moments(state)
    assert means.tolist() == [0.0] * 4
    assert not covariance.any()
    assert not state.unreliable


def test_vacuum_argument_validation():
    with pytest.raises(ValueError):
        fock.vacuum(0, 5)
    with pytest.raises(ValueError):
        fock.vacuum(2, 0)


def test_basis_state_validation():
    with pytest.raises(ValueError):
        fock.basis_state(2, 3, (4, 0))
    with pytest.raises(ValueError):
        fock.basis_state(2, 3, (1,))
    with pytest.raises(ValueError):
        fock.basis_state(2, 3, (-1, 0))


def test_zero_gain_squeezer_is_identity():
    before = fock.vacuum(2, 5)
    after = fock.apply_two_mode_squeezer(before, 0, 1, 0.0)
    np.testing.assert_array_equal(after.amplitudes, before.amplitudes)


def test_full_transmittance_splitter_is_identity():
    before = fock.basis_state(2, 4, (2, 1))
    after = fock.apply_beam_splitter(before, 0, 1, 1.0)
    np.testing.assert_array_equal(after.amplitudes, before.amplitudes)


def test_squeezed_vacuum_photon_number():
    state = fock.apply_two_mode_squeezer(fock.vacuum(2, 12), 0, 1, 0.3)
    expected = math.sinh(0.3) ** 2  # 0.092732609121
    means, _ = fock.number_moments(state)
    assert means[0] == pytest.approx(expected, abs=1e-6)
    assert means[1] == pytest.approx(expected, abs=1e-6)


def test_squeezed_vacuum_number_variance():
    state = fock.apply_two_mode_squeezer(fock.vacuum(2, 12), 0, 1, 0.3)
    expected = (math.sinh(0.3) * math.cosh(0.3)) ** 2  # 0.101331945915
    _, covariance = fock.number_moments(state)
    assert covariance[0, 0] == pytest.approx(expected, abs=1e-6)


def test_squeezed_vacuum_pair_correlation():
    state = fock.apply_two_mode_squeezer(fock.vacuum(2, 12), 0, 1, 0.3)
    expected = math.cosh(0.3) * math.sinh(0.3)  # 0.318326791074
    assert fock.pair_correlation(state, 0, 1) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("gain", [0.03, 0.07, 0.1])
@pytest.mark.parametrize("pump_phase", [0.0, 0.7, 2.5, -1.9])
def test_squeezer_pump_phase_amplitudes(gain, pump_phase):
    """exp(xi a^dag b^dag - conj(xi) a b)|0,0> = sum_n (e^{i theta} tanh r)^n / cosh r |n,n>;
    tanh(r)^13 < 1e-12 keeps the truncation at cutoff 12 below the tolerance."""
    state = fock.apply_two_mode_squeezer(fock.vacuum(2, 12), 0, 1, gain, pump_phase)
    n = np.arange(13)
    expected = np.diag((np.exp(1j * pump_phase) * math.tanh(gain)) ** n / math.cosh(gain))
    np.testing.assert_allclose(state.to_dense(), expected, rtol=0, atol=1e-12)


def _full_space_state(amps):
    """A state on the full space, the zero-charge sector, whose table lists the
    occupations in C order: the dense amplitudes flattened."""
    return fock.FockState(fock.Sector(amps.shape[0] - 1, (0,) * amps.ndim), amps.ravel())


def _low_occupation_state(rng, n_modes, cutoff, max_occupation=2):
    """Random normalised state supported on occupations <= max_occupation."""
    amps = np.zeros((cutoff + 1,) * n_modes, dtype=np.complex128)
    low = (slice(0, max_occupation + 1),) * n_modes
    amps[low] = rng.normal(size=amps[low].shape) + 1j * rng.normal(size=amps[low].shape)
    return _full_space_state(amps / np.linalg.norm(amps))


def _unflagged(state):
    """The same amplitudes with the unreliable flag cleared, for checks of
    conservation laws that the truncated evolution keeps exactly, leakage
    or not."""
    return fock.FockState(state.sector, state.amplitudes)


def test_pair_elements_obey_group_law_and_stay_unitary():
    """Gains and splitter angles add, the norm stays 1, and each element keeps
    its conserved quantity; two cutoffs alternate so that cached generators
    of one cutoff or kind cannot stand in for another."""
    rng = np.random.default_rng(11)
    for cutoff in (8, 11, 8, 11):
        state = _low_occupation_state(rng, 3, cutoff)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        one = fock.apply_two_mode_squeezer(state, 0, 2, 0.1, theta)
        two = fock.apply_two_mode_squeezer(one, 0, 2, 0.15, theta)
        summed = fock.apply_two_mode_squeezer(state, 0, 2, 0.25, theta)
        np.testing.assert_allclose(two.amplitudes, summed.amplitudes, rtol=0, atol=1e-13)
        means, _ = fock.number_moments(state)
        two_means, _ = fock.number_moments(_unflagged(two))
        assert two_means[0] - two_means[2] == pytest.approx(means[0] - means[2], abs=1e-12)

        k1, k2 = 0.3, 0.9
        one = fock.apply_beam_splitter(two, 1, 2, math.cos(k1) ** 2)
        split = fock.apply_beam_splitter(one, 1, 2, math.cos(k2) ** 2)
        summed = fock.apply_beam_splitter(two, 1, 2, math.cos(k1 + k2) ** 2)
        np.testing.assert_allclose(split.amplitudes, summed.amplitudes, rtol=0, atol=1e-13)
        split_means, _ = fock.number_moments(_unflagged(split))
        assert split_means[1] + split_means[2] == pytest.approx(
            two_means[1] + two_means[2], abs=1e-12
        )
        for final in (two, split, summed):
            assert _norm(final) == pytest.approx(1.0, abs=1e-13)


def _dense_pair_unitary(d, kind, angle, phase):
    """e^{i phase n_a} exp(angle K) e^{-i phase n_a} on the pair index n_a d + n_b,
    from the dense truncated generator K = A - A^T, A = a^dag b^dag or a^dag b."""
    raising = np.zeros((d * d, d * d))
    for m in range(d - 1):
        for n in range(d):
            if kind == model.SQUEEZE and n + 1 < d:
                raising[(m + 1) * d + n + 1, m * d + n] = math.sqrt((m + 1) * (n + 1))
            if kind == model.SPLIT and n >= 1:
                raising[(m + 1) * d + n - 1, m * d + n] = math.sqrt((m + 1) * n)
    w, v = np.linalg.eigh(1j * (raising - raising.T))
    rotor = np.repeat(np.exp(1j * phase * np.arange(d)), d)
    return rotor[:, None] * ((v * np.exp(-1j * angle * w)) @ v.conj().T) * rotor.conj()


_PAIR_CASES = [
    (kind, angle, phase, cutoff)
    for cutoff in (1, 5, 12)
    for kind, angle, phase in (
        (model.SQUEEZE, 0.0, 1.2),
        (model.SQUEEZE, 0.37, 1.2),
        (model.SQUEEZE, -0.8, -2.3),
        (model.SQUEEZE, 4.1, 0.6),
        (model.SPLIT, 0.0, 0.0),
        (model.SPLIT, 0.9, 0.0),
        (model.SPLIT, -0.8, 0.0),
        (model.SPLIT, 4.1, 0.0),
    )
]


def _pair_case_id(case):
    """kind-angle-phase, with the cutoff appended unless it is 5."""
    kind, angle, phase, cutoff = case
    name = "squeezer" if kind == model.SQUEEZE else "splitter"
    return f"{name}-{angle}-{phase}" + ("" if cutoff == 5 else f"-cutoff{cutoff}")


@pytest.mark.parametrize("kind, angle, phase, cutoff", _PAIR_CASES, ids=map(_pair_case_id, _PAIR_CASES))
def test_pair_unitary_matches_dense_exponential(kind, angle, phase, cutoff):
    """Every conserved-number block is evolved, on a full-space state populating
    all of them, from one level up to thirteen, at angles 0, negative and past
    pi.  The squeezer goes through the folded pump phase of the pair kernel
    and, as a reference, through the composed `apply_phase` route; neither
    goes through `apply_two_mode_squeezer`, whose leakage check refuses any
    state with population in the top levels.  The splitter goes through the
    pair kernel, and through `apply_beam_splitter` where its angle is one a
    transmittance gives."""
    rng = np.random.default_rng(5)
    d = cutoff + 1
    psi = rng.normal(size=(d,) * 3) + 1j * rng.normal(size=(d,) * 3)
    moved = np.moveaxis(psi, (2, 0), (0, 1)).reshape(d * d, -1)
    expected = np.moveaxis(
        (_dense_pair_unitary(d, kind, angle, phase) @ moved).reshape((d,) * 3), (0, 1), (2, 0)
    )
    state = _full_space_state(psi)
    routes = [fock._apply_pair(state, 2, 0, kind, angle, phase)]
    if kind == model.SPLIT and 0.0 <= angle <= math.pi / 2:
        routes.append(fock.apply_beam_splitter(state, 2, 0, math.cos(angle) ** 2).amplitudes)
    if kind == model.SQUEEZE:
        turned = fock.apply_phase(state, 2, -phase)
        squeezed = fock.FockState(state.sector, fock._apply_pair(turned, 2, 0, kind, angle))
        routes.append(fock.apply_phase(squeezed, 2, phase).amplitudes)
    for amplitudes in routes:
        np.testing.assert_allclose(amplitudes.reshape(psi.shape), expected, rtol=0, atol=1e-12)


def _full_support_state(rng, n_modes, cutoff):
    """Random normalised amplitudes on every occupation state, top levels included."""
    shape = (cutoff + 1,) * n_modes
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps)


def _kron_lowering(d, n_modes, mode):
    """Annihilation operator of one mode on the flattened (C-order) state space."""
    lower = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    op = np.ones((1, 1))
    for m in range(n_modes):
        op = np.kron(op, lower if m == mode else np.eye(d))
    return op


@pytest.mark.parametrize("create", [False, True])
def test_ladder_matches_kronecker_operators(create):
    """Every mode pair, on a full-space state populating every level, top ones
    included: <a_i^dag a_j> = <a_i psi|a_j psi> from `cross_correlation`, or
    with `create` <a_i a_j> = <a_i^dag psi|a_j psi> from `pair_correlation`,
    against Kronecker ladder operators."""
    rng = np.random.default_rng(21)
    d, n = 5, 3
    psi = _full_support_state(rng, n, d - 1)
    state = _full_space_state(psi)
    flat = psi.ravel()
    ops = [_kron_lowering(d, n, mode) for mode in range(n)]
    correlation = fock.pair_correlation if create else fock.cross_correlation
    for i in range(n):
        bra = (ops[i].T if create else ops[i]) @ flat
        for j in range(n):
            expected = np.vdot(bra, ops[j] @ flat)
            assert abs(correlation(state, i, j) - expected) <= 1e-15


def test_moment_matrices_match_operator_reference():
    """<a_i^dag a_j> and <a_i a_j> as psi^dag (operator product) psi on a
    full-support state; the normal matrix comes out exactly Hermitian."""
    rng = np.random.default_rng(22)
    d, n = 5, 3
    psi = _full_support_state(rng, n, d - 1)
    flat = psi.ravel()
    ops = [_kron_lowering(d, n, mode) for mode in range(n)]
    normal, anomalous = fock.moment_matrices(_full_space_state(psi))
    expected_normal = [[flat.conj() @ (a.T @ b) @ flat for b in ops] for a in ops]
    expected_anomalous = [[flat.conj() @ (a @ b) @ flat for b in ops] for a in ops]
    np.testing.assert_allclose(normal, expected_normal, rtol=0, atol=1e-14)
    np.testing.assert_allclose(anomalous, expected_anomalous, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(normal, normal.conj().T)
    assert np.abs(anomalous - anomalous.T).max() <= 1e-15


def _number_moments_reference(state):
    """<N_i> and Cov(N_i, N_j) summed term by term over the dense grid."""
    dense = state.to_dense()
    n = state.n_modes
    means, products = np.zeros(n), np.zeros((n, n))
    for occupation in np.ndindex(dense.shape):
        weight = abs(dense[occupation]) ** 2
        for i in range(n):
            means[i] += occupation[i] * weight
            for j in range(n):
                products[i, j] += occupation[i] * occupation[j] * weight
    return means, products - np.outer(means, means)


@pytest.mark.parametrize("charged", [False, True], ids=["full-support", "charged-sector"])
def test_number_moments_match_elementwise_reference(charged):
    """Means and covariances on a full-support 3-mode state, top levels
    included, and on random amplitudes over a sector of charges (1, -1, 0)
    and charge 1; the covariance comes out exactly symmetric."""
    rng = np.random.default_rng(23)
    if charged:
        sector = fock.Sector(6, (1, -1, 0), 1)
        amps = rng.normal(size=sector.size) + 1j * rng.normal(size=sector.size)
        state = fock.FockState(sector, amps / np.linalg.norm(amps))
    else:
        state = _full_space_state(_full_support_state(rng, 3, 4))
    means, covariance = fock.number_moments(state)
    expected_means, expected_covariance = _number_moments_reference(state)
    np.testing.assert_allclose(means, expected_means, rtol=0, atol=1e-14)
    np.testing.assert_allclose(covariance, expected_covariance, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(covariance, covariance.T)


def test_state_copies_what_it_cannot_trust():
    """A writable or non-C-contiguous array is copied into a frozen C-contiguous
    one; an array that already is frozen, C-contiguous and complex128 is kept."""
    sector = fock.Sector(2, (0, 0))
    amps = np.zeros(9, dtype=np.complex128)
    amps[3] = 1.0
    state = fock.FockState(sector, amps)
    amps[3] = 0.5
    assert state.amplitudes[3] == 1.0
    strided = fock.FockState(sector, np.repeat(state.amplitudes, 2)[::2])
    assert strided.amplitudes.flags.c_contiguous
    assert strided.amplitudes[3] == 1.0
    for kept in (state, strided):
        assert not kept.amplitudes.flags.writeable
        assert fock.FockState(sector, kept.amplitudes).amplitudes is kept.amplitudes


@pytest.mark.parametrize("cutoff", [1, 5, 12])
@pytest.mark.parametrize(
    "charges", [None, (1, 1, -1, -1), (1, 1, -1, -1, 1)], ids=["full-space", "4-mode", "5-mode"]
)
def test_vacuum_is_the_all_zero_basis_state(charges, cutoff):
    """`vacuum` sets entry 0 without a search: bit for bit the basis state
    of no photons, on the full space and on the charge-0 sectors of both
    network layouts."""
    n = 4 if charges is None else len(charges)
    state = fock.vacuum(n, cutoff, charges)
    reference = fock.basis_state(n, cutoff, (0,) * n, charges)
    assert state.sector == reference.sector
    assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()


def test_repeated_splitter_angle_gives_the_same_bits():
    """A pair unitary is kept per (cutoff, kind, angle): one transmittance
    applied twice, and again after the cache is cleared, gives the same
    amplitudes to the bit, and the kept unitary is read-only."""
    state = fock.apply_two_mode_squeezer(fock.vacuum(3, 8, (1, -1, -1)), 0, 1, 0.2, 0.7)
    runs = [fock.apply_beam_splitter(state, 1, 2, 0.5).amplitudes for _ in range(2)]
    fock._pair_unitary.cache_clear()
    runs.append(fock.apply_beam_splitter(state, 1, 2, 0.5).amplitudes)
    assert runs[1].tobytes() == runs[0].tobytes() == runs[2].tobytes()
    assert fock._pair_unitary.cache_info().currsize == 1
    kappa = math.atan2(math.sqrt(0.5), math.sqrt(0.5))
    assert not fock._pair_unitary(8, model.SPLIT, kappa).flags.writeable


def test_sector_with_numpy_integers_equals_and_hashes_like_ints():
    """Charges are stored as ints and the hash is taken once, so a sector
    made from numpy integers finds the same cache entries."""
    plain = fock.Sector(6, (1, -1, 0), 1)
    numpy_built = fock.Sector(np.int64(6), tuple(np.array([1, -1, 0])), np.int64(1))
    assert numpy_built == plain
    assert hash(numpy_built) == hash(plain)
    assert {plain: "found"}[numpy_built] == "found"


def test_sector_takes_a_numpy_array_of_charges():
    """An array of charges is stored as a tuple of ints, like any sequence."""
    from_array = fock.Sector(6, np.array([1, -1, 0]), 1)
    assert from_array.charges == (1, -1, 0)
    assert from_array == fock.Sector(6, (1, -1, 0), 1)
    assert hash(from_array) == hash(fock.Sector(6, (1, -1, 0), 1))


@pytest.mark.parametrize("charges", [(), np.array([], dtype=int)], ids=["tuple", "array"])
def test_sector_without_modes_names_its_charges(charges):
    with pytest.raises(ValueError, match="charges must name at least one mode"):
        fock.Sector(6, charges)


def test_apply_outputs_are_frozen_and_c_contiguous():
    """The `apply_*` functions hand over fresh arrays that `FockState` stores
    uncopied, whatever the mode order."""
    rng = np.random.default_rng(23)
    state = _low_occupation_state(rng, 3, 10)
    outputs = [
        fock.apply_phase(state, 1, 0.4),
        fock.apply_two_mode_squeezer(state, 2, 0, 0.05),
        fock.apply_two_mode_squeezer(state, 1, 2, 0.05, 1.3),
        fock.apply_beam_splitter(state, 2, 1, 0.3),
        fock.simulate_network(model.SetupParams(va=0.01, vb=0.02, t=0.5, t2=0.5), cutoff=4),
    ]
    for out in outputs:
        assert out.amplitudes.flags.c_contiguous
        assert not out.amplitudes.flags.writeable


def test_pairwise_emission_conserves_number_difference():
    """The squeezer generator commutes with n_a - n_b, so signal and idler
    counts of a single crystal agree to machine precision."""
    for gain in (0.1, 0.4, 0.6):
        state = fock.apply_two_mode_squeezer(fock.vacuum(2, 12), 0, 1, gain)
        means, covariance = fock.number_moments(_unflagged(state))
        assert abs(means[0] - means[1]) < 1e-13
        var = covariance[0, 0] + covariance[1, 1] - 2.0 * covariance[0, 1]
        assert abs(var) < 1e-12


def test_single_photon_splits_evenly():
    state = fock.apply_beam_splitter(fock.basis_state(2, 3, (1, 0)), 0, 1, 0.5)
    probs = np.abs(state.to_dense()) ** 2
    assert probs[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_splitter_amplitude_signs():
    # photon entering the first port: transmitted +t, reflected -r
    amps = fock.apply_beam_splitter(fock.basis_state(2, 3, (1, 0)), 0, 1, 0.64).to_dense()
    assert amps[1, 0].real == pytest.approx(0.8, abs=1e-12)
    assert amps[0, 1].real == pytest.approx(-0.6, abs=1e-12)
    # photon entering the second port: transmitted +t, reflected +r
    amps = fock.apply_beam_splitter(fock.basis_state(2, 3, (0, 1)), 0, 1, 0.64).to_dense()
    assert amps[0, 1].real == pytest.approx(0.8, abs=1e-12)
    assert amps[1, 0].real == pytest.approx(0.6, abs=1e-12)


def test_hong_ou_mandel_dip():
    amps = fock.apply_beam_splitter(fock.basis_state(2, 4, (1, 1)), 0, 1, 0.5).to_dense()
    assert abs(amps[1, 1]) < 1e-12
    assert abs(amps[2, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_phase_shift_multiplies_by_occupation():
    state = fock.apply_phase(fock.basis_state(2, 4, (3, 1)), 0, 0.5)
    assert state.to_dense()[3, 1] == pytest.approx(np.exp(3j * 0.5), abs=1e-12)


def test_number_conserving_steps_preserve_norm():
    state = fock.apply_two_mode_squeezer(fock.vacuum(3, 10), 0, 1, 0.5)
    for step in range(5):
        state = fock.apply_beam_splitter(state, step % 3, (step + 1) % 3, 0.37)
        state = fock.apply_phase(state, step % 3, 1.1)
    assert _norm(state) == pytest.approx(1.0, abs=1e-12)


def test_leakage_drops_with_cutoff():
    worsts = []
    for cutoff in (6, 8, 10):
        state = fock.apply_two_mode_squeezer(fock.vacuum(2, cutoff), 0, 1, 0.35)
        worsts.append(fock.leakage_report(state).max())
    assert worsts[0] > worsts[1] > worsts[2]


def test_undersized_cutoff_is_a_hard_error():
    with pytest.raises(fock.LeakageError, match="cutoff"):
        fock.apply_two_mode_squeezer(fock.vacuum(2, 3), 0, 1, 0.6)


def test_flagged_state_refuses_observables():
    # leaky enough to flag (top level above 5e-9) but below the hard limit
    state = fock.apply_two_mode_squeezer(fock.vacuum(2, 6), 0, 1, 0.4)
    assert state.unreliable
    with pytest.raises(fock.LeakageError, match="cutoff"):
        fock.moment_matrices(state)
    with pytest.raises(fock.LeakageError, match="cutoff"):
        fock.number_moments(state)
    with pytest.raises(fock.LeakageError, match="cutoff"):
        fock.cross_correlation(state, 0, 1)
    with pytest.raises(fock.LeakageError, match="cutoff"):
        fock.pair_correlation(state, 0, 1)


def test_induced_coherence_low_gain_anchor():
    params = model.SetupParams(va=math.sinh(0.05) ** 2, vb=math.sinh(0.05) ** 2, t=0.49)
    n, elements = model.network(params)
    state = fock.vacuum(n, 6)
    for kind, *args in elements:
        state = _APPLY[kind](state, *args)
    means, _ = fock.number_moments(state)
    normal, _ = fock.moment_matrices(state)
    gamma12 = abs(normal[0, 1]) / math.sqrt(means[0] * means[1])
    assert gamma12 == pytest.approx(0.7, abs=3e-3)


def test_full_network_matches_closed_forms():
    va = math.sinh(0.4) ** 2
    params = model.SetupParams(va=va, vb=va, t=0.5, theta_a=0.8)
    # cutoff 12 leaves a top-level population of 8.9e-9, which is flagged
    state = fock.simulate_network(params, cutoff=13)
    means, covariance = fock.number_moments(state)
    obs = model.observables(params)
    assert means[0] == pytest.approx(obs.n1_det, abs=1e-6)
    assert means[1] == pytest.approx(obs.n2_det, abs=1e-6)
    assert means[0] + means[1] == pytest.approx(2 * va + va * va * 0.5, abs=1e-6)
    assert means[0] - means[1] == pytest.approx(obs.n_minus_mean, abs=1e-5)
    diff_var = covariance[0, 0] + covariance[1, 1] - 2.0 * covariance[0, 1]
    assert diff_var == pytest.approx(obs.n_minus_var, abs=1e-5)


def test_oracle_and_engine_agree_with_attenuator():
    params = model.SetupParams(va=0.1, vb=0.15, t=0.7, t2=0.5, theta_a=0.3)
    state = fock.simulate_network(params, cutoff=12)
    means, _ = fock.number_moments(state)
    normal, _ = fock.moment_matrices(state)
    engine = model.engine_observables(params)
    assert means[0] == pytest.approx(engine.n1_det, abs=1e-7)
    assert means[1] == pytest.approx(engine.n2_det, abs=1e-7)
    assert abs(normal[0, 1]) == pytest.approx(
        abs(model.engine_moments(params)[1].normal[0, 1]), abs=1e-7
    )


def test_mode_index_validation():
    state = fock.vacuum(2, 3)
    with pytest.raises(ValueError):
        fock.apply_phase(state, 2, 0.5)
    with pytest.raises(ValueError):
        fock.apply_beam_splitter(state, 0, 0, 0.5)


def test_oracle_imports_nothing_from_the_engine():
    """The oracle checks the engine only while it shares none of its code:
    no import of `bogoliubov` or `moments`, in any form."""
    tree = ast.parse(Path(fock.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert "model" in imported
    assert not imported & {"bogoliubov", "moments"}


_APPLY = {
    model.SQUEEZE: fock.apply_two_mode_squeezer,
    model.PHASE: fock.apply_phase,
    model.SPLIT: fock.apply_beam_splitter,
}


def _full_space_network(params, cutoff):
    """`model.network` and `model.DETECTION` propagated from the all-zero-charge
    vacuum, i.e. on the full space, or the message of the LeakageError that
    refused it."""
    n, elements = model.network(params)
    state = fock.vacuum(n, cutoff)
    try:
        for kind, *args in [*elements, model.DETECTION]:
            state = _APPLY[kind](state, *args)
    except fock.LeakageError as error:
        return str(error)
    return state


def _random_network_setup(rng, r_max, t2):
    ra, rb = rng.uniform(0.0, r_max, size=2)
    return model.SetupParams(
        va=math.sinh(ra) ** 2,
        vb=math.sinh(rb) ** 2,
        t=float(rng.uniform(0.0, 1.0)),
        t2=t2,
        theta_a=float(rng.uniform(0.0, 2.0 * math.pi)),
        theta_b=float(rng.uniform(0.0, 2.0 * math.pi)),
        idler_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def test_charge_sector_matches_full_space():
    """`simulate_network` propagates on the vacuum's Q = 0 sector under charges
    it derives; the same elements on the full space (all charges 0) give the
    same amplitudes after embedding, the same flags and refusals, and the same
    moments.  Gains up to r = 1.1 mix certified, flagged and refused draws."""
    rng = np.random.default_rng(31)
    cases = [(_random_network_setup(rng, 1.1, 1.0), 12) for _ in range(24)]
    cases += [(_random_network_setup(rng, 0.6, float(rng.uniform(0.2, 0.9))), 9) for _ in range(4)]
    seen = set()
    for params, cutoff in cases:
        full = _full_space_network(params, cutoff)
        try:
            state = fock.simulate_network(params, cutoff)
        except fock.LeakageError as error:
            assert str(error) == full
            seen.add("refused")
            continue
        charges = {4: (1, 1, -1, -1), 5: (1, 1, -1, -1, 1)}[state.n_modes]
        assert state.sector == fock.Sector(cutoff, charges)
        assert full.sector == fock.Sector(cutoff, (0,) * state.n_modes)
        np.testing.assert_array_equal(state.to_dense(), full.to_dense())
        assert state.unreliable == full.unreliable
        if state.unreliable:
            seen.add("flagged")
            for refused in (state, full):
                with pytest.raises(fock.LeakageError):
                    fock.moment_matrices(refused)
            continue
        seen.add(f"certified {state.n_modes} modes")
        pairs = zip(
            fock.moment_matrices(state) + fock.number_moments(state),
            fock.moment_matrices(full) + fock.number_moments(full),
        )
        for sector_moment, full_moment in pairs:
            np.testing.assert_allclose(sector_moment, full_moment, rtol=0, atol=1e-14)
    assert seen == {"refused", "flagged", "certified 4 modes", "certified 5 modes"}


def test_nonzero_charge_sector_matches_full_space():
    """A basis state lives in the sector of its own charge, and evolves there
    as it does on the full space."""
    charged = fock.basis_state(3, 8, (1, 2, 0), charges=(1, 1, -1))
    full = fock.basis_state(3, 8, (1, 2, 0))
    assert charged.sector == fock.Sector(8, (1, 1, -1), 3)
    for step in (
        lambda s: fock.apply_beam_splitter(s, 0, 1, 0.3),
        lambda s: fock.apply_phase(s, 1, 0.8),
        lambda s: fock.apply_two_mode_squeezer(s, 1, 2, 0.05, 0.4),
    ):
        charged, full = step(charged), step(full)
        np.testing.assert_array_equal(charged.to_dense(), full.to_dense())


@pytest.mark.parametrize("charge", [0, 1])
def test_charged_sector_moments_match_full_space(charge):
    """Random amplitudes on a sector of charges (1, -1, 0): every ladder image
    leaves it, and mode 2's anomalous diagonal <a_2 a_2> pairs two images in
    the sector itself.  The moments equal those of the full-space embedding."""
    rng = np.random.default_rng(41 + charge)
    sector = fock.Sector(6, (1, -1, 0), charge)
    amps = rng.normal(size=sector.size) + 1j * rng.normal(size=sector.size)
    state = fock.FockState(sector, amps / np.linalg.norm(amps))
    full = _full_space_state(state.to_dense())
    pairs = zip(
        fock.moment_matrices(state) + fock.number_moments(state),
        fock.moment_matrices(full) + fock.number_moments(full),
    )
    for sector_moment, full_moment in pairs:
        np.testing.assert_allclose(sector_moment, full_moment, rtol=0, atol=1e-14)
    assert abs(fock.pair_correlation(state, 2, 2)) > 0.01


def test_ladder_image_in_an_empty_sector_is_zero():
    """With charges (1, 1) the vacuum is the only charge-0 occupation, and a_i
    maps it to the empty sector of charge -1: every moment is 0.  No state
    lives in an empty sector."""
    normal, anomalous = fock.moment_matrices(fock.vacuum(2, 3, charges=(1, 1)))
    assert not normal.any() and not anomalous.any()
    with pytest.raises(ValueError, match="no occupation"):
        fock.FockState(fock.Sector(3, (1, 1), -1), np.zeros(0))


def test_full_space_moments_stay_below_50_mb():
    """Second moments of a full-support state on the full 5-mode cutoff-9
    space (1.6 MB of amplitudes), cold caches included, peak below 50 MB."""
    for cached in vars(fock).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    state = _full_space_state(_full_support_state(np.random.default_rng(43), 5, 9))
    tracemalloc.start()
    try:
        fock.moment_matrices(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_elements_that_change_the_charge_are_refused():
    state = fock.vacuum(3, 4, charges=(1, 1, -1))
    with pytest.raises(ValueError, match="charge"):
        fock.apply_two_mode_squeezer(state, 0, 1, 0.1)
    with pytest.raises(ValueError, match="charge"):
        fock.apply_two_mode_squeezer(state, 0, 1, 0.0)
    with pytest.raises(ValueError, match="charge"):
        fock.apply_beam_splitter(state, 1, 2, 0.5)
    fock.apply_beam_splitter(fock.apply_two_mode_squeezer(state, 0, 2, 0.1), 0, 1, 0.5)
    for charges in ((1, -1), (1, 1, -1, 0)):
        with pytest.raises(ValueError, match="charges"):
            fock.vacuum(3, 4, charges)
        with pytest.raises(ValueError, match="charges"):
            fock.basis_state(3, 4, (0, 1, 0), charges)
    with pytest.raises(ValueError, match="flat vector"):
        fock.FockState(state.sector, np.ones(state.amplitudes.size + 1))


def test_cutoff_30_draw_stays_below_one_dense_state():
    """A 4-mode draw at cutoff 30 and both moment functions, cold caches
    included, peak below the 16 * 31^4 B = 14.8 MB of one dense state: no step
    may build the dense grid."""
    params = model.SetupParams(
        va=math.sinh(0.5) ** 2, vb=math.sinh(0.4) ** 2, t=0.6, theta_a=0.3, theta_b=1.0
    )
    tracemalloc.start()
    try:
        state = fock.simulate_network(params, cutoff=30)
        fock.moment_matrices(state)
        fock.number_moments(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 31**4
