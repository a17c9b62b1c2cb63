"""Closed forms, optimizer, regimes, and the engine/closed-form duality."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from inducoh import bogoliubov, model
from inducoh.moments import moments_from_map, number_mean
from inducoh.validation import CLOSED_FORM_TOLERANCE, closed_form_residual


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
        {"va": 1, "vb": 1, "t": 1, "pulses": 10**400},  # no finite float
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
    for ms in model.engine_moments(params):
        assert np.all(ms.normal == 0)


@pytest.mark.parametrize("t2, n_modes", [(1.0, 4), (0.3, 5)])
def test_full_network_is_the_crystals_plus_the_detection_split(t2, n_modes):
    params = model.SetupParams(va=1.5, vb=0.4, t=0.6, t2=t2, theta_a=0.2, theta_b=1.3, idler_phase=0.8)
    n, arm = model.network(params)
    assert n == n_modes
    assert model.DETECTION == (model.SPLIT, model.SIGNAL_A, model.SIGNAL_B, 0.5)
    attenuator = (model.SPLIT, model.SIGNAL_B, model.BALANCE_PORT, t2)
    assert (attenuator in arm) == (t2 < 1.0)
    full = [*arm, model.DETECTION]
    modes = [m for kind, *args in full for m in (args[:1] if kind == model.PHASE else args[:2])]
    assert set(modes) == set(range(n_modes))


def test_network_grows_to_five_modes_only_when_attenuating():
    assert model.build_network(model.SetupParams(va=1, vb=1, t=0.5)).n_modes == 4
    assert model.build_network(model.SetupParams(va=1, vb=1, t=0.5, t2=0.9)).n_modes == 5


@pytest.mark.parametrize("va", [0.5, 2.0])
@pytest.mark.parametrize("vb", [0.5, 2.0])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_full_network_counts_match_closed_form(va, vb, t):
    params = model.SetupParams(va=va, vb=vb, t=t, theta_a=0.6)
    _, ms = model.engine_moments(params)
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
    assert model.observables(params).phase_2phi == pytest.approx(math.pi / 2, abs=1e-12)
    both = model.SetupParams(va=1, vb=1, t=1, theta_a=0.9, theta_b=0.4)
    assert model.observables(both).phase_2phi == pytest.approx(0.5, abs=1e-12)


def test_fringe_phase_undefined_without_both_crystals():
    assert math.isnan(model.observables(model.SetupParams(va=0, vb=1, t=1)).phase_2phi)
    assert math.isnan(model.observables(model.SetupParams(va=1, vb=0, t=1)).phase_2phi)


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
        gap = (engine - model.observables(params).phase_2phi) % (2 * math.pi)
        assert min(gap, 2 * math.pi - gap) < 1e-9


# each phase is finite, but theta_a - theta_b overflows to inf
_OVERFLOWING_2PHI = model.SetupParams(va=1, vb=1, t=1, theta_a=1e308, theta_b=-1e308)


@pytest.mark.parametrize(
    "evaluate",
    [
        model.observables,
        lambda params: model.observables(params, "theta_a", [0.0, 1e308]),
        model.snr_ratio,
    ],
    ids=["observables", "observables-grid", "snr_ratio"],
)
def test_closed_forms_refuse_an_overflowing_phase_sum(evaluate):
    with pytest.raises(ValueError, match=r"theta_a - theta_b \+ idler_phase overflows"):
        evaluate(_OVERFLOWING_2PHI)


def test_engine_answers_where_the_phase_sum_overflows():
    """The engine turns each phase on its own, and the visibility does not
    depend on the phases.  The fringe scan aligns on the engine's arm
    coherence, not on the phase sum, so it answers too."""
    engine = model.engine_observables(_OVERFLOWING_2PHI)
    closed = model.observables(replace(_OVERFLOWING_2PHI, theta_a=0.0, theta_b=0.0))
    assert engine.visibility == pytest.approx(closed.visibility, rel=1e-9)
    assert engine.n1_det + engine.n2_det == pytest.approx(closed.n1_det + closed.n2_det, rel=1e-9)
    scan = model.fringe_scan(_OVERFLOWING_2PHI)
    assert abs(model.fringe_visibility(scan) - engine.visibility) <= 1e-9


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


# draws of `bench/workloads.py` Duality.inputs(seed) at op index n, near a
# dark fringe (cos 2 phi ~ 4e-7), with their N1 - N2 means from mpmath at
# 50 digits; rounding theta_a - theta_b + idler_phase twice put the closed
# form off by 2.2e-9 and 1.3e-9 of them
_DARK_FRINGE_DRAWS = {
    "seed-25-op-91511": (
        model.SetupParams(
            va=2.1148775968344524,
            vb=8.723146226510025,
            t=0.3068938247828106,
            t2=0.5223915352841938,
            theta_a=5.209863287279906,
            theta_b=1.0361339117587556,
            idler_phase=3.68025185699716,
        ),
        2.4370248810698988e-6,
    ),
    "seed-9-op-275366": (
        model.SetupParams(
            va=6.66224168132482,
            vb=9.883856224135672,
            t=0.1179554855010897,
            theta_a=4.436540923901634,
            theta_b=1.3705988877009199,
            idler_phase=1.6464465984253052,
        ),
        -5.3347426128683836e-6,
    ),
}


@pytest.mark.parametrize("params, exact", _DARK_FRINGE_DRAWS.values(), ids=list(_DARK_FRINGE_DRAWS))
def test_closed_forms_take_cos_at_the_exact_phase_sum(params, exact):
    assert abs(model.observables(params).n_minus_mean - exact) <= 1e-14 * abs(exact)
    assert closed_form_residual(params) <= CLOSED_FORM_TOLERANCE


@pytest.mark.parametrize(
    "phases",
    [
        {"theta_a": 1e8 + 0.3},
        {"theta_a": 1e13 + 0.3},
        {"theta_a": 1e17},
        {"theta_a": 1e17 + 0.3},
        {"theta_a": 1e300},
        {
            "theta_a": 5.957644153913411e307,
            "theta_b": 1.7976931348623157e308,
            "idler_phase": 0.1462988262088517,
        },
    ],
    ids=["1e8", "1e13", "1e17", "1e17+0.3", "1e300", "near-float-max"],
)
def test_closed_forms_answer_the_engine_at_large_phases(phases):
    """Each rounding of the phase sum loses up to half an ulp of it: 7.5e-9
    and 8 radians at theta_a = 1e8 and 1e17; theta_b and idler_phase whole
    at 1e300.  Near the float range the two rounding errors differ by more
    than the float precision, so their own sum is inexact too.  The closed
    forms, `snr_ratio` and `regime_report` take the exact sum, as the
    engine does by turning each phase on its own; the fringe scan, which
    aligns on the engine's arm coherence, gives the closed-form visibility."""
    params, _ = _DARK_FRINGE_DRAWS["seed-25-op-91511"]
    params = replace(params, **phases)
    _assert_engine_matches_closed_forms(params)
    assert closed_form_residual(params) <= CLOSED_FORM_TOLERANCE
    # the same point with its fringe phase read off the engine
    turned = replace(
        params, theta_a=model.engine_observables(params).phase_2phi, theta_b=0.0, idler_phase=0.0
    )
    assert model.snr_ratio(params) == pytest.approx(model.snr_ratio(turned), rel=1e-12)
    for report, reference in zip(model.regime_report(params), model.regime_report(turned)):
        assert report.approx_snr == pytest.approx(reference.approx_snr, rel=1e-12)


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


def _high_gain_grid() -> list[model.SetupParams]:
    """va = vb from 1e2 to 1e4 at three filter and two attenuator settings,
    all phases 0: 150 points, some of whose engine maps are refused."""
    return [
        model.SetupParams(va=va, vb=va, t=t, t2=t2)
        for va in np.geomspace(1e2, 1e4, 25).tolist()
        for t in (1.0, 0.5, 0.1)
        for t2 in (1.0, 0.3)
    ]


_ELEMENTS = {
    model.SQUEEZE: bogoliubov.two_mode_squeezer,
    model.PHASE: bogoliubov.phase_shifter,
    model.SPLIT: bogoliubov.beam_splitter,
}


def _per_plane_moments(params):
    """The engine's two moment sets from their definition: a chain over
    `network`, `DETECTION` composed onto it, and each plane's moments."""
    n, elements = model.network(params)
    arm = bogoliubov.chain(*(_ELEMENTS[kind](n, *args) for kind, *args in elements))
    kind, *args = model.DETECTION
    detectors = bogoliubov.compose(_ELEMENTS[kind](n, *args), arm)
    return moments_from_map(arm), moments_from_map(detectors)


def _engine_equals_per_plane_reference(params) -> bool:
    """Assert that `engine_moments` equals the per-plane reference bit for bit,
    or refuses with the same message; True where it refuses."""
    try:
        reference = _per_plane_moments(params)
    except ValueError as error:
        with pytest.raises(ValueError) as refusal:
            model.engine_moments(params)
        assert str(refusal.value) == str(error)
        return True
    for engine, expected in zip(model.engine_moments(params), reference, strict=True):
        assert np.array_equal(engine.normal, expected.normal)
        assert np.array_equal(engine.anomalous, expected.anomalous)
    return False


def test_engine_moments_equal_the_per_plane_reference():
    rng = np.random.default_rng(19)
    for draw in range(240):
        brightness_max = 1e3 if draw % 3 == 0 else 10.0
        params = model.SetupParams(
            va=float(rng.uniform(0, brightness_max)),
            vb=float(rng.uniform(0, brightness_max)),
            t=float(rng.uniform(0, 1)),
            t2=float(rng.uniform(0.05, 1)) if draw % 4 == 3 else 1.0,
            theta_a=float(rng.uniform(0, 2 * math.pi)),
            theta_b=float(rng.uniform(0, 2 * math.pi)),
            idler_phase=float(rng.uniform(0, 2 * math.pi)),
        )
        assert not _engine_equals_per_plane_reference(params)


def _assert_engine_matches_closed_forms(params) -> None:
    """Every `engine_observables` field within CLOSED_FORM_TOLERANCE of
    `observables`, relative."""
    engine = model.engine_observables(params)
    closed = model.observables(params)
    for field in fields(closed):
        expected = getattr(closed, field.name)
        assert getattr(engine, field.name) == pytest.approx(
            expected, rel=CLOSED_FORM_TOLERANCE, abs=0, nan_ok=True
        ), field.name


def test_engine_moments_equal_the_per_plane_reference_at_high_gain():
    """Where the per-plane reference answers, the engine equals it bit for
    bit.  Where only the reference's composed detector map is refused, the
    engine, which validates the arm map alone, answers with the closed
    forms' observables; where the arm map is refused, so is the engine."""
    refused = answered_past_reference = 0
    for params in _high_gain_grid():
        try:
            _per_plane_moments(params)
        except ValueError:
            try:
                moments_from_map(model.build_network(params))
            except ValueError as error:
                with pytest.raises(ValueError) as refusal:
                    model.engine_moments(params)
                assert str(refusal.value) == str(error)
                refused += 1
                continue
            _assert_engine_matches_closed_forms(params)
            answered_past_reference += 1
        else:
            assert not _engine_equals_per_plane_reference(params)
    assert 0 < refused < 150
    assert answered_past_reference > 0


@pytest.mark.parametrize(
    "params",
    [
        # dim A, bright B: N1 - N2 as the difference of two detector
        # counts of about vb / 2 loses 1.5e-9 here
        model.SetupParams(
            va=1.2598248278650317e-08,
            vb=1262600.3300566077,
            t=0.9229444759812865,
            theta_a=5.664812744311068,
            theta_b=5.3398425172223885,
            idler_phase=2.030700922232505,
        ),
        # the arm map passes validate; the composed detector map does
        # not (residuals 9.313e-10 and 3.725e-09)
        model.SetupParams(va=6812.920690579608, vb=6812.920690579608, t=1, t2=0.3),
    ],
    ids=["dim-a-bright-b", "valid-arm-map"],
)
def test_engine_answers_the_closed_forms_at_high_gain(params):
    _assert_engine_matches_closed_forms(params)


@pytest.mark.parametrize("va", [1e160, 1e300])
@pytest.mark.parametrize(
    "evaluate", [model.engine_observables, model.engine_moments, model.fringe_scan]
)
def test_engine_refuses_an_overflowing_map_without_numpy_warnings(evaluate, va):
    """The commutator products of such a map overflow; the refusal says so,
    and no RuntimeWarning escapes first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="commutation invariants .*overflow"):
            evaluate(model.SetupParams(va=va, vb=va, t=1))


# ------------------------------------------------------ one arm map per point


def test_closed_form_residual_builds_one_arm_map(monkeypatch):
    """`engine_observables` and `fringe_scan` share one validated arm map."""
    build_network = model.build_network
    built = []

    def counted(params):
        built.append(params)
        return build_network(params)

    monkeypatch.setattr(model, "build_network", counted)
    params, _ = _DARK_FRINGE_DRAWS["seed-25-op-91511"]
    for theta_a in (0.1, 0.2):
        closed_form_residual(replace(params, theta_a=theta_a))
    assert len(built) == 2


def _moment_bytes(params) -> list[bytes]:
    return [ms.normal.tobytes() + ms.anomalous.tobytes() for ms in model.engine_moments(params)]


# what each engine entry point answers, as bytes or a repr
_ENGINE_ANSWERS = (
    _moment_bytes,
    lambda params: repr(model.engine_observables(params)),
    lambda params: repr(model.fringe_scan(params)),
)


def test_the_shared_arm_map_is_invisible():
    """Each answer is the same from a cold cache and from one warmed by an
    equal point, here one whose zero phases have the other sign."""
    rng = np.random.default_rng(53)
    phases = ("theta_a", "theta_b", "idler_phase")
    for _ in range(40):
        params = replace(random_params(rng), t2=float(rng.uniform(0.05, 1.0)))
        zeroed = [name for name in phases if rng.uniform() < 0.5] or ["theta_b"]
        plus = replace(params, **{name: 0.0 for name in zeroed})
        minus = replace(params, **{name: -0.0 for name in zeroed})
        assert plus == minus
        for point, twin in ((plus, minus), (minus, plus)):
            for answer in _ENGINE_ANSWERS:
                model._arm.cache_clear()
                cold = answer(point)
                model.engine_moments(twin)
                assert answer(point) == cold
                assert answer(point) == cold  # warmed by the point itself


@pytest.mark.parametrize(
    "params",
    [model.SetupParams(va=1e160, vb=1e160, t=1), model.SetupParams(va=1e4, vb=1e4, t=1)],
    ids=["overflowing", "past-tolerance"],
)
def test_a_refused_arm_map_is_refused_on_every_call(params):
    with pytest.raises(ValueError) as first:
        moments_from_map(model.build_network(params))
    for evaluate in (model.engine_moments, model.engine_observables, model.fringe_scan) * 2:
        with pytest.raises(ValueError) as refusal:
            evaluate(params)
        assert str(refusal.value) == str(first.value)


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


def _composed_scan(params, phases):
    """The scan as one composed map per phase: splitter . phase(alpha) . arm."""
    arm = model.build_network(params)
    n = arm.n_modes
    splitter = bogoliubov.beam_splitter(n, model.SIGNAL_A, model.SIGNAL_B, 0.5)
    rows = []
    for alpha in phases:
        net = bogoliubov.compose(
            splitter, bogoliubov.compose(bogoliubov.phase_shifter(n, model.SIGNAL_A, alpha), arm)
        )
        ms = moments_from_map(net)
        rows.append((alpha, number_mean(ms, model.SIGNAL_A), number_mean(ms, model.SIGNAL_B)))
    return rows


def test_fringe_scan_matches_composed_maps():
    """The scan equals one composed map per phase at its own phases, and its
    grid, aligned on the arm coherence, starts at the n1 maximum and holds
    the minimum half a period on, also where theta_a is near 1e17."""
    rng = np.random.default_rng(15)
    for draw in range(200):
        params = model.SetupParams(
            va=float(rng.uniform(0, 1e3)),
            vb=float(rng.uniform(0, 1e3)),
            t=float(rng.uniform(0, 1)),
            t2=float(rng.uniform(0.05, 1)) if draw % 4 == 3 else 1.0,
            theta_a=float(rng.uniform(0, 2 * math.pi)) + (1e17 if draw % 5 == 4 else 0.0),
            theta_b=float(rng.uniform(0, 2 * math.pi)),
            idler_phase=float(rng.uniform(0, 2 * math.pi)),
        )
        rows = model.fringe_scan(params)
        phases = [phase for phase, _, _ in rows]
        for row, reference in zip(rows, _composed_scan(params, phases), strict=True):
            assert row[0] == reference[0]
            assert row[1:] == pytest.approx(reference[1:], rel=1e-13, abs=0)
        n1 = [row[1] for row in rows]
        top, bottom = n1[0], n1[model.SCAN_POINTS // 2]
        assert top == pytest.approx(max(n1), rel=1e-12, abs=0)
        assert bottom == pytest.approx(min(n1), rel=1e-12, abs=0)
        # the fringe swings by 2 |c| = visibility * (n_A + n_B): a grid
        # collapsed onto one phase would be flat
        engine = model.engine_observables(params)
        swing = engine.visibility * (engine.n1_arm + engine.n2_arm)
        assert top - bottom == pytest.approx(swing, rel=1e-12, abs=1e-12 * top)


def test_detection_map_is_built_once_per_mode_count():
    """`engine_moments` and `fringe_scan` share one `DETECTION` map per mode
    count: the splitter `DETECTION` names, with read-only matrices."""
    for n in (4, 5):
        shared = model._detection(n)
        assert model._detection(n) is shared
        fresh = bogoliubov.beam_splitter(n, *model.DETECTION[1:])
        assert shared.u.tobytes() == fresh.u.tobytes()
        assert shared.v.tobytes() == fresh.v.tobytes()
        for matrix in (shared.u, shared.v):
            with pytest.raises(ValueError):
                matrix[0, 0] = 2.0


def test_fringe_scan_refuses_exactly_the_invalid_arm_maps():
    refused = 0
    for params in _high_gain_grid():
        arm = model.build_network(params)
        if not bogoliubov.validate(arm).ok:
            refused += 1
            with pytest.raises(ValueError, match="commutation invariants"):
                model.fringe_scan(params)
            with pytest.raises(ValueError, match="commutation invariants"):
                _composed_scan(params, [0.0])
            continue
        # a valid arm map gives the closed-form counts, even where
        # rounding in a composed map pushes it past the tolerance; the
        # first row is the fringe top, which all phases zero put at n1_det
        closed = model.observables(params)
        _, n1, n2 = model.fringe_scan(params)[0]
        assert (n1, n2) == pytest.approx((closed.n1_det, closed.n2_det), rel=1e-9)
    assert 0 < refused < 150


def test_observable_bounds_on_random_grid():
    rng = np.random.default_rng(39)
    for _ in range(40):
        obs = model.observables(random_params(rng))
        assert 0.0 <= obs.visibility <= 1.0
        assert 0.0 <= obs.gamma12 <= 1.0
        assert obs.n_minus_var >= 0.0


# --------------------------------------------------------------------- grids


def _grid_bases() -> list[model.SetupParams]:
    """Seeded points with t2 < 1 and dark ones (va = 0, vb_eff = 0),
    va = vb = 3.5e102 at t = 1, whose N1 - N2 variance, 1.715e308, is
    finite while amplitude^2 + variance is not, and a point of ints."""
    rng = np.random.default_rng(41)
    bases = [replace(random_params(rng), t2=float(rng.uniform(0.05, 1.0)), pulses=7) for _ in range(3)]
    bases += [replace(random_params(rng), va=0.0), replace(random_params(rng), t2=0.0)]
    bases.append(model.SetupParams(va=3.5e102, vb=3.5e102, t=1.0))
    bases.append(model.SetupParams(va=3, vb=2, t=1))  # int fields, float results
    return bases


_GRID_RANGES = {"va": (0.0, 10.0), "vb": (0.0, 10.0), "t": (0.0, 1.0), "t2": (0.0, 1.0)}


@pytest.mark.parametrize("field", model.GRID_FIELDS)
def test_a_grid_equals_its_points_bit_for_bit(field):
    rng = np.random.default_rng(43)
    low, high = _GRID_RANGES.get(field, (-10.0, 10.0))
    dark = 0
    for base in _grid_bases():
        values = [getattr(base, field), low, high, *(float(v) for v in rng.uniform(low, high, 1000))]
        grid = model.observables(base, field, values)
        for index, value in enumerate(values):
            point_params = replace(base, **{field: value})
            point = model.observables(point_params)
            assert all(type(v) is float for v in vars(point).values())
            for name, expected in vars(point).items():
                column = getattr(grid, name)
                assert isinstance(column, np.ndarray) and column.shape == (len(values),)
                got = column[index]
                assert got == expected or (math.isnan(got) and math.isnan(expected)), (name, value)
            if point_params.va * point_params.vb_effective == 0.0:
                dark += 1
                assert math.isnan(point.phase_2phi)
                assert point.visibility == point.snr == 0.0
    assert dark > 0


def test_a_grid_is_refused_where_a_point_would_be():
    base = model.SetupParams(va=1.0, vb=1.0, t=0.5)
    with pytest.raises(ValueError, match="t must lie in"):
        model.observables(base, "t", [0.2, 1.5, 0.4])
    with pytest.raises(ValueError, match="va must be finite"):
        model.observables(base, "va", [1.0, math.nan])
    with pytest.raises(ValueError, match="cannot vary 'pulses'"):
        model.observables(base, "pulses", [1, 2])
    # only the middle point overflows, and the refusal names it
    with pytest.raises(ValueError, match=r"overflow at va=1e\+200"):
        model.observables(replace(base, vb=1e200), "va", [1.0, 1e200, 2.0])
