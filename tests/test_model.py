"""Closed forms, optimizer, regimes, and the engine/closed-form duality."""

import math
from dataclasses import replace

import numpy as np
import pytest

from inducoh import model


def random_params(rng: np.random.Generator) -> model.SetupParams:
    return model.SetupParams(
        va=float(rng.uniform(0.01, 10)),
        vb=float(rng.uniform(0.01, 10)),
        t=float(rng.uniform(0, 1)),
        theta_a=float(rng.uniform(0, 2 * math.pi)),
        theta_b=float(rng.uniform(0, 2 * math.pi)),
        idler_phase=float(rng.uniform(0, 2 * math.pi)),
    )


# ---------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "kwargs",
    [
        {"va": -0.1, "vb": 1, "t": 1},
        {"va": 1, "vb": math.nan, "t": 1},
        {"va": 1, "vb": 1, "t": 1.2},
        {"va": 1, "vb": 1, "t": 1, "t2": -0.5},
        {"va": 1, "vb": 1, "t": 1, "pulses": 0},
        {"va": 1, "vb": 1, "t": 1, "pulses": 2.5},
    ],
)
def test_setup_params_rejects_bad_values(kwargs):
    with pytest.raises((ValueError, TypeError)):
        model.SetupParams(**kwargs)


def test_gain_brightness_roundtrip():
    params = model.SetupParams(va=3.7, vb=0.2, t=1.0)
    assert math.sinh(params.gain_a) ** 2 == pytest.approx(3.7, rel=1e-12)
    assert math.sinh(params.gain_b) ** 2 == pytest.approx(0.2, rel=1e-12)


def test_effective_brightness_includes_attenuator():
    params = model.SetupParams(va=1, vb=2.0, t=1, t2=0.25)
    assert params.vb_effective == pytest.approx(0.5)


# ------------------------------------------------------------------- network


def test_network_without_gain_emits_nothing():
    params = model.SetupParams(va=0, vb=0, t=0.7)
    obs = model.observables(params)
    assert obs.n1_det == 0.0 and obs.n2_det == 0.0
    ms = model.engine_moments(params, model.FULL)
    assert np.all(ms.normal == 0)


@pytest.mark.parametrize("t2, n_modes", [(1.0, 4), (0.3, 5)])
def test_full_network_is_the_crystals_plus_the_detection_split(t2, n_modes):
    params = model.SetupParams(va=1.5, vb=0.4, t=0.6, t2=t2, theta_a=0.2, theta_b=1.3, idler_phase=0.8)
    n_full, full = model.network(params, model.FULL)
    n_arm, arm = model.network(params, model.AFTER_CRYSTALS)
    assert n_full == n_arm == n_modes
    assert full == arm + [(model.SPLIT, model.SIGNAL_A, model.SIGNAL_B, 0.5)]
    attenuator = (model.SPLIT, model.SIGNAL_B, model.BALANCE_PORT, t2)
    assert (attenuator in arm) == (t2 < 1.0)
    modes = [m for kind, *args in full for m in (args[:1] if kind == model.PHASE else args[:2])]
    assert set(modes) == set(range(n_modes))


def test_build_network_rejects_an_unknown_cut():
    with pytest.raises(ValueError, match="unknown cut"):
        model.build_network(model.SetupParams(va=0.1, vb=0.1, t=1), cut="nowhere")


def test_network_grows_to_five_modes_only_when_attenuating():
    assert model.build_network(model.SetupParams(va=1, vb=1, t=0.5)).n_modes == 4
    assert model.build_network(model.SetupParams(va=1, vb=1, t=0.5, t2=0.9)).n_modes == 5


@pytest.mark.parametrize("va", [0.5, 2.0])
@pytest.mark.parametrize("vb", [0.5, 2.0])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_full_network_counts_match_closed_form(va, vb, t):
    params = model.SetupParams(va=va, vb=vb, t=t, theta_a=0.6)
    ms = model.engine_moments(params, model.FULL)
    obs = model.observables(params)
    assert float(ms.normal[0, 0].real) == pytest.approx(obs.n1_det, rel=1e-10, abs=1e-10)
    assert float(ms.normal[1, 1].real) == pytest.approx(obs.n2_det, rel=1e-10, abs=1e-10)


# -------------------------------------------------------------------- counts


def test_detector_counts_at_bright_fringe():
    params = model.SetupParams(va=1, vb=1, t=1)
    obs = model.observables(params)
    vis = 2.0 * math.sqrt(2.0) / 3.0
    assert obs.n1_det == pytest.approx(1.5 * (1 + vis), rel=1e-12)  # 2.914213562373
    assert obs.n2_det == pytest.approx(1.5 * (1 - vis), rel=1e-12)  # 0.085786437627


@pytest.mark.parametrize("phi", np.linspace(0.0, math.pi, 5))
def test_count_sum_independent_of_phase(phi):
    params = model.SetupParams(va=2, vb=0.5, t=0.6, theta_a=2 * phi)
    obs = model.observables(params)
    assert obs.n1_det + obs.n2_det == pytest.approx(2 + 0.5 + 2 * 0.5 * 0.6, rel=1e-12)


# ---------------------------------------------------------------- visibility


def test_visibility_low_gain_limit_is_sqrt_t():
    params = model.SetupParams(va=1e-6, vb=1e-6, t=0.49)
    assert model.observables(params).visibility == pytest.approx(0.7, abs=1e-5)


def test_visibility_at_unit_brightness():
    params = model.SetupParams(va=1, vb=1, t=1)
    assert model.observables(params).visibility == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-12)


def test_visibility_zero_cases():
    assert model.observables(model.SetupParams(va=1, vb=1, t=0)).visibility == 0.0
    assert model.observables(model.SetupParams(va=0, vb=0, t=1)).visibility == 0.0


@pytest.mark.parametrize("t, t2", [(0.0, 1.0), (1.0, 0.0)])
def test_an_overflow_times_zero_is_refused_not_nan(t, t2):
    """(1 + va) va overflows to inf, and a zero t or vb_eff turns the fringe's
    product into NaN, which the closed forms used to return."""
    params = model.SetupParams(va=1e200, vb=1e200, t=t, t2=t2)
    with pytest.raises(ValueError, match="overflow"):
        model.observables(params)


def test_visibility_uses_attenuated_brightness():
    direct = model.observables(model.SetupParams(va=1, vb=0.5, t=0.8)).visibility
    attenuated = model.observables(model.SetupParams(va=1, vb=2.0, t=0.8, t2=0.25)).visibility
    assert attenuated == pytest.approx(direct, rel=1e-12)


# -------------------------------------------------------------- fringe phase


def test_fringe_phase_follows_pump_phase_difference():
    params = model.SetupParams(va=1, vb=1, t=1, theta_a=math.pi / 2)
    assert model.fringe_phase(params) == pytest.approx(math.pi / 2, abs=1e-12)
    both = model.SetupParams(va=1, vb=1, t=1, theta_a=0.9, theta_b=0.4)
    assert model.fringe_phase(both) == pytest.approx(0.5, abs=1e-12)


def test_fringe_phase_undefined_without_both_crystals():
    assert math.isnan(model.fringe_phase(model.SetupParams(va=0, vb=1, t=1)))
    assert math.isnan(model.fringe_phase(model.SetupParams(va=1, vb=0, t=1)))


def test_idler_phase_of_pi_flips_the_fringe():
    bright = model.SetupParams(va=1, vb=1, t=1)
    flipped = replace(bright, idler_phase=math.pi)
    ours, theirs = model.observables(bright), model.observables(flipped)
    assert theirs.n1_det == pytest.approx(ours.n2_det, rel=1e-12)
    assert theirs.n2_det == pytest.approx(ours.n1_det, rel=1e-12)


def test_engine_phase_agrees_with_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = random_params(rng)
        engine = model.engine_observables(params).phase_2phi
        gap = (engine - params.fringe_2phi) % (2 * math.pi)
        assert min(gap, 2 * math.pi - gap) < 1e-9


# ------------------------------------------------------------------ coherence


def test_coherence_boundary_values():
    assert model.observables(model.SetupParams(va=5, vb=1, t=0)).gamma12 == 0.0
    assert model.observables(model.SetupParams(va=1e9, vb=1, t=0.3)).gamma12 == pytest.approx(
        1.0, abs=1e-8
    )
    # va = 0 falls back to the closed-form limit sqrt(t)
    assert model.observables(model.SetupParams(va=0, vb=1, t=0.49)).gamma12 == pytest.approx(0.7)


def test_coherence_frozen_value():
    params = model.SetupParams(va=10, vb=1, t=0.5)
    assert model.observables(params).gamma12 == pytest.approx(math.sqrt(11.0 / 12.0), rel=1e-12)


def test_coherence_ignores_crystal_b():
    base = model.SetupParams(va=2, vb=1, t=0.7)
    reference = model.observables(base).gamma12
    for vb in (0.0, 0.5, 10.0, 100.0):
        for t2 in (1.0, 0.3):
            params = replace(base, vb=vb, t2=t2)
            assert model.observables(params).gamma12 == pytest.approx(reference, abs=1e-12)


def test_coherence_monotone_in_t_and_va():
    ts = np.linspace(0, 1, 21)
    values = [model.observables(model.SetupParams(va=3, vb=1, t=float(t))).gamma12 for t in ts]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    vas = np.linspace(0, 50, 21)
    values = [model.observables(model.SetupParams(va=float(v), vb=1, t=0.4)).gamma12 for v in vas]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


# ------------------------------------------------------------------ optimizer


def test_optimize_vb_closed_form_points():
    assert model.optimize_vb(1.0, 1.0) == pytest.approx(0.5)
    assert model.optimize_vb(0.0, 0.7) == 0.0
    assert model.optimize_vb(2.5, 0.0) == pytest.approx(2.5)


def test_optimum_balances_arms_and_reaches_coherence():
    rng = np.random.default_rng(32)
    for _ in range(20):
        va, t = float(rng.uniform(0.01, 10)), float(rng.uniform(0, 1))
        params = model.SetupParams(va=va, vb=model.optimize_vb(va, t), t=t)
        obs = model.observables(params)
        assert obs.n1_arm == pytest.approx(obs.n2_arm, abs=1e-12)
        assert obs.visibility == pytest.approx(obs.gamma12, abs=1e-12)


def test_optimum_is_a_maximum_over_vb():
    rng = np.random.default_rng(33)
    for _ in range(10):
        va, t = float(rng.uniform(0.01, 10)), float(rng.uniform(0, 1))
        optimal = model.SetupParams(va=va, vb=model.optimize_vb(va, t), t=t)
        best = model.observables(optimal).visibility
        for vb in rng.uniform(0, 20, size=20):
            other = model.observables(model.SetupParams(va=va, vb=float(vb), t=t)).visibility
            assert other <= best + 1e-12


def test_optimize_t2_points():
    assert model.optimize_t2(1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert model.optimize_t2(1.0, 0.5, 1.0) == pytest.approx(1.0)  # already optimal
    assert model.optimize_t2(1.0, 0.2, 1.0) is None  # too dim to balance
    assert model.optimize_t2(0.0, 1.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        model.optimize_t2(1.0, -1.0, 0.5)


def test_optimize_t2_restores_the_optimal_visibility():
    va, vb, t = 2.0, 5.0, 0.6
    t2 = model.optimize_t2(va, vb, t)
    tuned = model.SetupParams(va=va, vb=vb, t=t, t2=t2)
    obs = model.observables(tuned)
    assert obs.visibility == pytest.approx(obs.gamma12, abs=1e-12)


# ------------------------------------------------------------------------ snr


def test_snr_zero_at_dark_fringe():
    params = model.SetupParams(va=1, vb=1, t=1, theta_a=math.pi / 2)  # cos(2 phi) = 0
    assert model.observables(params).snr == pytest.approx(0.0, abs=1e-30)
    assert model.observables(model.SetupParams(va=0, vb=1, t=1)).snr == 0.0


def test_snr_low_gain_matches_linear_law():
    params = model.SetupParams(va=0.01, vb=0.01, t=1)
    assert model.observables(params).snr == pytest.approx(0.02, abs=5e-4)


def test_snr_equals_moment_ratio():
    rng = np.random.default_rng(34)
    for _ in range(20):
        params = random_params(rng)
        obs = model.observables(params)
        mean, var = obs.n_minus_mean, obs.n_minus_var
        expected = mean**2 / var if mean != 0.0 else 0.0
        assert obs.snr == pytest.approx(expected, rel=1e-10)


def test_snr_approaches_one_when_optimized_and_bright():
    va, t = 1e4, 1.0
    params = model.SetupParams(va=va, vb=model.optimize_vb(va, t), t=t)
    assert 1.0 - model.observables(params).snr < 1e-3


@pytest.mark.parametrize("pulses", [1, 10, 1000])
def test_multipulse_scaling_is_exact(pulses):
    single = model.SetupParams(va=0.8, vb=1.2, t=0.7)
    multi = replace(single, pulses=pulses)
    assert model.observables(multi).snr_multipulse == pulses * model.observables(single).snr


def test_snr_bounds_on_random_grid():
    rng = np.random.default_rng(35)
    for _ in range(50):
        params = random_params(rng)
        value = model.observables(params).snr
        assert 0.0 <= value <= 1.0


# ------------------------------------------------------------------ snr ratio


def test_snr_ratio_reference_points():
    assert model.snr_ratio(model.SetupParams(va=1, vb=1, t=0)) == pytest.approx(1.0, abs=1e-12)
    assert model.snr_ratio(model.SetupParams(va=1, vb=1, t=1)) == pytest.approx(
        11.0 / 12.0, rel=1e-12
    )


def test_snr_ratio_tends_to_one_in_high_gain():
    params = model.SetupParams(va=2000, vb=1, t=0.5)
    assert 1.0 - model.snr_ratio(params) < 1e-3


def test_snr_ratio_range_on_random_grid():
    rng = np.random.default_rng(36)
    for _ in range(50):
        params = random_params(rng)
        ratio = model.snr_ratio(params)
        assert 0.0 < ratio <= 1.0


# -------------------------------------------------------------------- regimes


def test_regime_report_structure():
    report = model.regime_report(model.SetupParams(va=1, vb=1, t=0.5))
    assert [entry.regime for entry in report] == [
        "low-gain",
        "high-gain-source",
        "equal-gain",
        "optimized",
    ]
    assert all(entry.validity >= 0.0 for entry in report)


def test_low_gain_regime_accuracy():
    params = model.SetupParams(va=0.001, vb=0.001, t=0.5)
    entry = model.regime_report(params)[0]
    assert entry.approx_visibility == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert abs(model.observables(params).visibility - entry.approx_visibility) < 1e-3


def test_high_gain_source_regime_accuracy():
    params = model.SetupParams(va=100, vb=0.01, t=0.5)
    entry = model.regime_report(params)[1]
    assert entry.approx_visibility == pytest.approx(2 * math.sqrt(0.005), rel=1e-12)
    assert abs(model.observables(params).visibility - entry.approx_visibility) < 1e-3


def test_equal_gain_visibility_sits_below_sqrt_t_at_high_gain():
    params = model.SetupParams(va=10, vb=10, t=1)
    entry = model.regime_report(params)[2]
    assert entry.approx_visibility == pytest.approx(2 * math.sqrt(11) / 12, rel=1e-12)
    assert entry.approx_visibility < math.sqrt(params.t)
    # at vb = va the equal-gain forms are exact, not approximations
    exact = model.observables(params)
    assert entry.approx_visibility == pytest.approx(exact.visibility, rel=1e-12)
    assert entry.approx_snr == pytest.approx(exact.snr, rel=1e-12)


def test_high_gain_expansion_of_optimal_visibility():
    va, t = 1e3, 0.5
    expansion = model.visibility_high_gain_expansion(va, t)
    assert expansion == pytest.approx(1.0 - 0.5 / (2 * 0.5 * va), rel=1e-12)
    exact = model.visibility_optimal(va, t)
    assert abs(exact - expansion) < 10.0 / (t * va) ** 2
    assert math.isnan(model.visibility_high_gain_expansion(va, 0.0))
    assert math.isnan(model.visibility_high_gain_expansion(0.0, t))


def test_optimized_regime_compares_against_the_optimum():
    params = model.SetupParams(va=50, vb=3, t=0.8)
    entry = model.regime_report(params)[3]
    optimal = replace(params, vb=model.optimize_vb(params.va, params.t), t2=1.0)
    exact = model.observables(optimal)
    expected_gap = max(
        abs(exact.visibility - entry.approx_visibility),
        abs(exact.snr - entry.approx_snr),
    )
    assert entry.validity == pytest.approx(expected_gap, abs=1e-15)


# ---------------------------------------------------------------- attenuator


def test_attenuator_equivalent_to_dimmer_crystal():
    """Replacing (vb, t2) by (t2 vb, 1) leaves every observable unchanged."""
    rng = np.random.default_rng(37)
    for _ in range(10):
        params = replace(random_params(rng), t2=float(rng.uniform(0.1, 1)))
        folded = replace(params, vb=params.t2 * params.vb, t2=1.0)
        ours = model.observables(params)
        theirs = model.observables(folded)
        for name in (
            "n1_det",
            "n2_det",
            "visibility",
            "gamma12",
            "n_minus_mean",
            "n_minus_var",
            "snr",
        ):
            assert getattr(ours, name) == pytest.approx(getattr(theirs, name), abs=1e-12)
        engine = model.engine_observables(params)
        assert engine.n1_det == pytest.approx(ours.n1_det, rel=1e-10, abs=1e-12)
        assert engine.n2_det == pytest.approx(ours.n2_det, rel=1e-10, abs=1e-12)


# -------------------------------------------------------------------- duality


def test_engine_matches_closed_forms_on_random_grid():
    rng = np.random.default_rng(38)
    for _ in range(25):
        params = random_params(rng)
        engine = model.engine_observables(params)
        closed = model.observables(params)
        assert engine.n1_det == pytest.approx(closed.n1_det, rel=1e-9, abs=1e-12)
        assert engine.n2_det == pytest.approx(closed.n2_det, rel=1e-9, abs=1e-12)
        assert engine.gamma12 == pytest.approx(closed.gamma12, rel=1e-9)
        assert engine.visibility == pytest.approx(closed.visibility, rel=1e-9)
        assert engine.n_minus_mean == pytest.approx(closed.n_minus_mean, rel=1e-9, abs=1e-12)
        assert engine.n_minus_var == pytest.approx(closed.n_minus_var, rel=1e-9)


# ---------------------------------------------------------------- fringe scan


def test_fringe_scan_flat_for_dark_input():
    rows = model.fringe_scan(model.SetupParams(va=0, vb=0, t=1))
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in rows)


def test_fringe_scan_recovers_visibility():
    params = model.SetupParams(va=1, vb=1, t=1)
    rows = model.fringe_scan(params)
    assert model.fringe_visibility(rows) == pytest.approx(0.942809041582063, abs=1e-9)


def test_fringe_scan_conserves_energy():
    params = model.SetupParams(va=2, vb=0.3, t=0.6, theta_a=1.0)
    rows = model.fringe_scan(params)
    totals = [row[1] + row[2] for row in rows]
    assert max(totals) - min(totals) < 1e-12


def test_observable_bounds_on_random_grid():
    rng = np.random.default_rng(39)
    for _ in range(40):
        obs = model.observables(random_params(rng))
        assert 0.0 <= obs.visibility <= 1.0
        assert 0.0 <= obs.gamma12 <= 1.0
        assert obs.n_minus_var >= 0.0
