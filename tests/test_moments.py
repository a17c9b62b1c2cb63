"""Second/fourth moment extraction from Gaussian maps on vacuum.

Frozen reference numbers were computed with the truncated Fock
simulator at cutoff 12 (see tests/test_fock.py for the generator-level
checks of that path).
"""

import itertools
import math

import numpy as np
import pytest

from inducoh import bogoliubov as bg
from inducoh import model, moments

# fock-oracle values for a single two-mode squeezer at r = 0.3
TMS_MEAN = 0.092732609121  # sinh^2(0.3)
TMS_VAR = 0.101331945915  # sinh^2(0.3) cosh^2(0.3)
TMS_PAIR = 0.318326791074  # cosh(0.3) sinh(0.3)


def random_network(rng: np.random.Generator, depth: int = 6) -> bg.GaussianMap:
    steps = []
    for _ in range(depth):
        modes = rng.choice(4, size=2, replace=False)
        kind = rng.integers(3)
        if kind == 0:
            gain, phase = float(rng.uniform(0, 1.2)), float(rng.uniform(0, 2 * math.pi))
            steps.append(bg.two_mode_squeezer(4, int(modes[0]), int(modes[1]), gain, phase))
        elif kind == 1:
            transmittance = float(rng.uniform(0, 1))
            steps.append(bg.beam_splitter(4, int(modes[0]), int(modes[1]), transmittance))
        else:
            steps.append(bg.phase_shifter(4, int(modes[0]), float(rng.uniform(0, 2 * math.pi))))
    return bg.chain(*steps)


def test_identity_map_gives_vacuum_moments():
    ms = moments.moments_from_map(bg.phase_shifter(3, 0, 0.0))
    assert np.all(ms.normal == 0)
    assert np.all(ms.anomalous == 0)
    assert moments.number_mean(ms, 0) == 0.0
    assert np.all(moments.number_covariance(ms) == 0)


def test_two_mode_squeezer_moments_match_fock_oracle():
    ms = moments.moments_from_map(bg.two_mode_squeezer(2, 0, 1, 0.3))
    assert moments.number_mean(ms, 0) == pytest.approx(TMS_MEAN, abs=1e-9)
    assert moments.number_mean(ms, 1) == pytest.approx(TMS_MEAN, abs=1e-9)
    np.testing.assert_allclose(moments.number_covariance(ms), TMS_VAR, atol=1e-9)
    assert abs(ms.anomalous[0, 1]) == pytest.approx(TMS_PAIR, abs=1e-9)
    # emitted pairwise, so the photon-number difference carries no noise
    mean, var = moments.difference_statistics(ms, 0, 1)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_squeezer_diagonal_matches_sinh_squared():
    for r in (0.1, 0.3, 0.9, 1.5):
        ms = moments.moments_from_map(bg.two_mode_squeezer(2, 0, 1, r))
        assert ms.normal[0, 0].real == pytest.approx(math.sinh(r) ** 2, rel=1e-12)


def test_arm_counts_at_the_pre_splitter_plane():
    """First arm carries va photons, second (1 + t va) vb."""
    for vb in (0.3, 1.0, 4.0):
        params = model.SetupParams(va=1.0, vb=vb, t=0.5)
        ms = model.engine_moments(params, model.AFTER_CRYSTALS)
        assert moments.number_mean(ms, model.SIGNAL_A) == pytest.approx(1.0, rel=1e-12)
        assert moments.number_mean(ms, model.SIGNAL_B) == pytest.approx(1.5 * vb, rel=1e-12)


def test_detector_count_at_bright_fringe():
    params = model.SetupParams(va=1.0, vb=1.0, t=1.0)
    ms = model.engine_moments(params, model.FULL)
    expected = 0.5 * 3.0 * (1.0 + 2.0 * math.sqrt(2.0) / 3.0)
    assert moments.number_mean(ms, 0) == pytest.approx(expected, rel=1e-12)


def test_normal_hermitian_anomalous_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ms = moments.moments_from_map(random_network(rng))
        assert np.abs(ms.normal - ms.normal.conj().T).max() < 1e-12
        assert np.abs(ms.anomalous - ms.anomalous.T).max() < 1e-12
        diag = np.diag(ms.normal)
        assert np.abs(diag.imag).max() < 1e-12
        assert diag.real.min() >= -1e-12


def test_purity_relation_on_vacuum_networks():
    """For pure Gaussian states M(M+1) and A A^dag are transposes of each
    other, so they share their spectrum."""
    rng = np.random.default_rng(22)
    for _ in range(20):
        ms = moments.moments_from_map(random_network(rng))
        m, a = ms.normal, ms.anomalous
        lhs = m @ (m + np.eye(4))
        rhs = a @ a.conj().T
        scale = max(1.0, float(np.abs(lhs).max()))
        assert np.abs(lhs - rhs.T).max() < 1e-9 * scale
        spectrum_gap = np.abs(np.linalg.eigvalsh(lhs) - np.linalg.eigvalsh(rhs)).max()
        assert spectrum_gap < 1e-9 * scale


def test_number_means_unchanged_by_global_phase():
    rng = np.random.default_rng(23)
    net = random_network(rng)
    shifted = net
    for mode in range(4):
        shifted = bg.compose(bg.phase_shifter(4, mode, 0.83), shifted)
    before = moments.moments_from_map(net)
    after = moments.moments_from_map(shifted)
    np.testing.assert_allclose(
        np.diag(after.normal).real, np.diag(before.normal).real, atol=1e-12
    )


def test_difference_statistics_against_closed_forms():
    """Mean and excess variance of N1 - N2 over the documented grid."""
    for va, vb, t, phi in itertools.product(
        (0.25, 1.0, 4.0), (0.25, 1.0, 4.0), (0.0, 0.3, 0.7, 1.0), (0.0, math.pi / 6, math.pi / 4)
    ):
        params = model.SetupParams(va=va, vb=vb, t=t, theta_a=2 * phi)
        ms = model.engine_moments(params, model.FULL)
        mean, var = moments.difference_statistics(ms, 0, 1)
        expected_mean = 2.0 * math.sqrt((1 + va) * va * vb * t) * math.cos(2 * phi)
        expected_excess = va + vb + va * vb * (2.0 - t)
        assert mean == pytest.approx(expected_mean, abs=1e-9)
        assert var - mean**2 == pytest.approx(expected_excess, abs=1e-8)


def test_difference_mean_zero_for_decoupled_crystals():
    for phi in np.linspace(0, 2 * math.pi, 7):
        params = model.SetupParams(va=0.7, vb=0.7, t=0.0, theta_a=phi)
        ms = model.engine_moments(params, model.FULL)
        mean, _ = moments.difference_statistics(ms, 0, 1)
        assert mean == pytest.approx(0.0, abs=1e-12)


def test_difference_variance_nonnegative_on_random_networks():
    rng = np.random.default_rng(24)
    for _ in range(30):
        ms = moments.moments_from_map(random_network(rng))
        i, j = rng.choice(4, size=2, replace=False)
        _, var = moments.difference_statistics(ms, int(i), int(j))
        assert var >= -1e-12


def test_cross_correlation_is_conjugate_symmetric():
    rng = np.random.default_rng(25)
    ms = moments.moments_from_map(random_network(rng))
    assert moments.cross_correlation(ms, 0, 2) == pytest.approx(
        np.conj(moments.cross_correlation(ms, 2, 0))
    )


def test_moments_from_map_rejects_corrupted_map():
    good = bg.two_mode_squeezer(2, 0, 1, 0.4)
    bad = bg.GaussianMap(1.01 * good.u, good.v)
    with pytest.raises(ValueError, match="invariant"):
        moments.moments_from_map(bad)


def test_index_validation():
    ms = moments.moments_from_map(bg.phase_shifter(3, 0, 0.0))
    with pytest.raises(ValueError):
        moments.number_mean(ms, 3)
    with pytest.raises(ValueError):
        moments.cross_correlation(ms, -1, 0)
    with pytest.raises(ValueError):
        moments.difference_statistics(ms, 1, 1)
