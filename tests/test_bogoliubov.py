"""Constructors, composition, and canonical-invariant checks."""

import math

import numpy as np
import pytest

from inducoh import bogoliubov as bg
from inducoh import fock
from inducoh.model import PHASE, SPLIT, SQUEEZE
from inducoh.moments import moments_from_map, total_photons

# largest gain the package promises to handle: sinh^2(r) = 10
R_MAX = math.asinh(math.sqrt(10.0))


def random_element(rng: np.random.Generator, n_modes: int) -> bg.GaussianMap:
    kind = rng.integers(3)
    modes = rng.choice(n_modes, size=2, replace=False)
    if kind == 0:
        gain, phase = float(rng.uniform(0, R_MAX)), float(rng.uniform(0, 2 * math.pi))
        return bg.two_mode_squeezer(n_modes, int(modes[0]), int(modes[1]), gain, phase)
    if kind == 1:
        return bg.beam_splitter(n_modes, int(modes[0]), int(modes[1]), float(rng.uniform(0, 1)))
    return bg.phase_shifter(n_modes, int(modes[0]), float(rng.uniform(0, 2 * math.pi)))


def test_crystal_params_cosh_sinh():
    """A crystal's gain r and pump phase theta give u = cosh r, v = e^{i theta} sinh r."""
    tms = bg.two_mode_squeezer(2, 0, 1, 0.3, math.pi / 5)
    u, v = tms.u[0, 0], tms.v[0, 1]
    assert u == pytest.approx(math.cosh(0.3), abs=0)
    assert abs(v) == pytest.approx(math.sinh(0.3))
    assert np.angle(v) == pytest.approx(math.pi / 5)
    assert abs(u) ** 2 - abs(v) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_filter_params_intensity_roundtrip():
    """A filter's intensity transmittance T gives amplitudes t = sqrt(T), r = sqrt(1 - T)."""
    bs = bg.beam_splitter(2, 0, 1, 0.3)
    t, r = bs.u[0, 0].real, bs.u[0, 1].real
    assert t**2 == pytest.approx(0.3, abs=1e-15)
    assert t**2 + r**2 == pytest.approx(1.0, abs=1e-12)


# each kind of refused argument, as (engine call, oracle call) on the offending value
_REFUSALS = {
    SQUEEZE: (
        lambda gain: bg.two_mode_squeezer(2, 0, 1, gain),
        lambda gain: fock.apply_two_mode_squeezer(fock.vacuum(2, 4), 0, 1, gain),
    ),
    SPLIT: (
        lambda t: bg.beam_splitter(2, 0, 1, t),
        lambda t: fock.apply_beam_splitter(fock.vacuum(2, 4), 0, 1, t),
    ),
    PHASE: (
        lambda phase: bg.phase_shifter(2, 0, phase),
        lambda phase: fock.apply_phase(fock.vacuum(2, 4), 0, phase),
    ),
    "pump_phase": (
        lambda phase: bg.two_mode_squeezer(2, 0, 1, 0.1, phase),
        lambda phase: fock.apply_two_mode_squeezer(fock.vacuum(2, 4), 0, 1, 0.1, phase),
    ),
}


@pytest.mark.parametrize(
    "kind, value",
    [
        (SQUEEZE, -0.1),
        (SQUEEZE, math.inf),
        (SQUEEZE, math.nan),
        (SPLIT, -0.1),
        (SPLIT, 1.5),
        (PHASE, math.inf),
        (PHASE, math.nan),
        ("pump_phase", math.inf),
        ("pump_phase", math.nan),
    ],
)
def test_engine_and_oracle_refuse_the_same_elements(kind, value):
    """A gain below 0 or not finite, a transmittance outside [0, 1], or a
    phase or pump phase that is not finite is refused by the engine's
    constructor and the oracle's `apply_*` alike, not turned into NaN."""
    engine, oracle = _REFUSALS[kind]
    with pytest.raises(ValueError):
        engine(value)
    with pytest.raises(ValueError):
        oracle(value)


def test_identity_has_zero_residuals():
    report = bg.validate(bg.identity(3))
    assert report.commutator_residual == 0.0
    assert report.symmetry_residual == 0.0
    assert report.ok


def test_squeezer_residuals_tiny_at_high_gain():
    report = bg.validate(bg.two_mode_squeezer(2, 0, 1, 1.2))
    assert report.worst < 1e-12


def test_squeezer_with_phase_validates():
    report = bg.validate(bg.two_mode_squeezer(3, 0, 2, 0.5, math.pi / 3))
    assert report.worst < 1e-12


def test_beam_splitter_matrix_at_half():
    bs = bg.beam_splitter(2, 0, 1, 0.5)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(bs.u, np.array([[s, s], [-s, s]]), atol=1e-15)
    np.testing.assert_allclose(bs.v, np.zeros((2, 2)), atol=0)


def test_constructor_invariants_across_gain_range():
    """Both invariants hold to 1e-9 out to the largest supported gain."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        element = random_element(rng, 4)
        assert bg.validate(element).ok


def test_composition_invariants_random_chains():
    rng = np.random.default_rng(12)
    for _ in range(30):
        net = bg.chain(*(random_element(rng, 4) for _ in range(6)))
        report = bg.validate(net)
        assert report.ok, f"residuals {report.commutator_residual}, {report.symmetry_residual}"


def test_corrupted_map_is_detected():
    """Scaling U by 1.01 leaves a commutator residual of 0.0201 cosh^2(r)."""
    r = 0.5
    good = bg.two_mode_squeezer(2, 0, 1, r)
    bad = bg.GaussianMap(1.01 * good.u, good.v)
    report = bg.validate(bad)
    assert not report.ok
    expected = (1.01**2 - 1.0) * math.cosh(r) ** 2
    assert report.commutator_residual == pytest.approx(expected, rel=1e-12)


def test_compose_with_identity_is_neutral():
    rng = np.random.default_rng(13)
    x = bg.chain(*(random_element(rng, 4) for _ in range(3)))
    for composed in (bg.compose(bg.identity(4), x), bg.compose(x, bg.identity(4))):
        np.testing.assert_allclose(composed.u, x.u, atol=1e-15)
        np.testing.assert_allclose(composed.v, x.v, atol=1e-15)


def test_chain_reproduces_seeded_crystal_coefficients():
    """Squeezer, filter, squeezer on four modes: the second signal picks up
    t*sinh(rA)*sinh(rB) from the first input and keeps cosh(rB) of its own."""
    sa = bg.two_mode_squeezer(4, 0, 2, 0.4)
    filt = bg.beam_splitter(4, 2, 3, 0.64)
    sb = bg.two_mode_squeezer(4, 1, 2, 0.4)
    net = bg.chain(sa, filt, sb)

    s, c = math.sinh(0.4), math.cosh(0.4)
    assert net.u[1, 0] == pytest.approx(0.8 * s * s, abs=1e-12)  # 0.134973978522
    assert net.u[1, 1] == pytest.approx(c, abs=1e-12)  # 1.081072371838
    assert net.v[1, 2] == pytest.approx(0.8 * c * s, abs=1e-12)  # 0.355242392875
    assert net.v[1, 3] == pytest.approx(0.6 * s, abs=1e-12)  # 0.246451395482


def test_compose_is_associative():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b, c = (random_element(rng, 4) for _ in range(3))
        left = bg.compose(bg.compose(c, b), a)
        right = bg.compose(c, bg.compose(b, a))
        assert np.abs(left.u - right.u).max() < 1e-12
        assert np.abs(left.v - right.v).max() < 1e-12


def test_disjoint_elements_commute():
    rng = np.random.default_rng(15)
    for _ in range(20):
        gain, phase = float(rng.uniform(0, R_MAX)), float(rng.uniform(0, 6))
        first = bg.two_mode_squeezer(4, 0, 1, gain, phase)
        second = bg.beam_splitter(4, 2, 3, float(rng.uniform(0, 1)))
        ab = bg.compose(second, first)
        ba = bg.compose(first, second)
        assert np.abs(ab.u - ba.u).max() < 1e-12
        assert np.abs(ab.v - ba.v).max() < 1e-12


def test_phase_shifters_add():
    one = bg.phase_shifter(3, 1, 0.7)
    two = bg.phase_shifter(3, 1, 1.1)
    both = bg.compose(two, one)
    np.testing.assert_allclose(both.u, bg.phase_shifter(3, 1, 1.8).u, atol=1e-15)


def test_total_photons_equals_trace_vv_dagger():
    rng = np.random.default_rng(16)
    for _ in range(10):
        net = bg.chain(*(random_element(rng, 4) for _ in range(5)))
        ms = moments_from_map(net)
        trace = float(np.trace(net.v @ net.v.conj().T).real)
        assert total_photons(ms) == pytest.approx(trace, abs=1e-9)


def test_gaussian_map_arrays_are_read_only():
    net = bg.identity(2)
    with pytest.raises(ValueError):
        net.u[0, 0] = 2.0


def test_gaussian_map_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        bg.GaussianMap(np.eye(2), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        bg.GaussianMap(np.zeros((2, 3)), np.zeros((2, 3)))


def test_mode_index_validation():
    with pytest.raises(ValueError):
        bg.two_mode_squeezer(2, 0, 2, 0.1)
    with pytest.raises(ValueError):
        bg.beam_splitter(3, 1, 1, 0.5)
    with pytest.raises(ValueError):
        bg.compose(bg.identity(2), bg.identity(3))
    with pytest.raises(ValueError):
        bg.chain()
