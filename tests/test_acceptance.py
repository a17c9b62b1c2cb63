"""End-to-end acceptance checks, one test per release criterion, and for
criteria 3, 4, 5 and 9 a second that reads the claim from the Gaussian
engine alone (`engine_observables`).

Each test prints a single [ACCEPTANCE] line on success; a failed
criterion shows up as the usual pytest failure for that test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from inducoh import model, validation
from inducoh.cli import main as cli_main

GRID_SEED = 20240811


def announce(number: int, text: str) -> None:
    print(f"[ACCEPTANCE] criterion {number}: PASS ({text})")


def criterion_grid(samples: int = 200):
    rng = np.random.default_rng(GRID_SEED)
    return [validation.random_setup(rng) for _ in range(samples)]


def test_criterion_1_closed_form_engine_duality():
    """Counts, scan visibility, coherence and difference statistics agree
    between the matrix engine and the closed forms at 1e-9 relative."""
    result = validation.closed_form_suite()
    assert result.tolerance == 1e-9
    assert result.passed, result.summary()
    assert result.runtime < 5.0, f"duality suite took {result.runtime:.1f} s"
    announce(1, f"worst residual {result.worst_residual:.3e} in {result.runtime:.1f} s")


def test_criterion_2_fock_oracle_equivalence():
    """All first and second moments and the photon-number covariance
    matrix match the truncated-Fock oracle to 1e-6 absolute on 50 random
    certified configurations at cutoff 12."""
    result = validation.oracle_suite(samples=50, cutoff=12, r_max=0.6)
    assert result.tolerance == 1e-6
    assert result.samples >= 50
    assert result.passed, result.summary()
    assert result.runtime < 60.0, f"oracle suite took {result.runtime:.1f} s"
    announce(
        2,
        f"worst residual {result.worst_residual:.3e}, "
        f"{result.skipped} uncertifiable draws skipped, {result.runtime:.1f} s",
    )


def test_criterion_3_low_gain_visibility_is_sqrt_t():
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 201):
        params = model.SetupParams(va=1e-6, vb=1e-6, t=float(t))
        worst = max(worst, abs(model.observables(params).visibility - math.sqrt(t)))
    assert worst < 1e-5
    announce(3, f"max |V - sqrt(T)| = {worst:.3e}")


def test_criterion_3_through_the_engine():
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 201):
        params = model.SetupParams(va=1e-6, vb=1e-6, t=float(t))
        worst = max(worst, abs(model.engine_observables(params).visibility - math.sqrt(t)))
    assert worst < 1e-5
    announce(3, f"engine: max |V - sqrt(T)| = {worst:.3e}")


def test_criterion_4_optimal_brightness_reaches_coherence():
    rng = np.random.default_rng(GRID_SEED + 1)
    worst_gap = 0.0
    for params in criterion_grid():
        tuned = replace(params, vb=model.optimize_vb(params.va, params.t), t2=1.0)
        optimum = model.observables(tuned)
        best = optimum.visibility
        worst_gap = max(worst_gap, abs(best - optimum.gamma12))
        for vb in rng.uniform(0.0, 20.0, size=20):
            assert model.observables(replace(tuned, vb=float(vb))).visibility <= best + 1e-12
    assert worst_gap < 1e-12
    announce(4, f"max |V(vb*) - gamma12| = {worst_gap:.3e}, maximal over 4000 probes")


def test_criterion_4_through_the_engine():
    """V = gamma12 at vb = vb*, and on the 5-mode network where the
    attenuator t2* < 1 balances the arms, both read from the engine."""
    worst_gap, attenuated = 0.0, 0
    for params in criterion_grid():
        points = [replace(params, vb=model.optimize_vb(params.va, params.t), t2=1.0)]
        t2 = model.optimize_t2(params.va, params.vb, params.t)
        if t2 is not None and t2 < 1.0:
            points.append(replace(params, t2=t2))
            attenuated += 1
        for point in points:
            engine = model.engine_observables(point)
            worst_gap = max(worst_gap, abs(engine.visibility - engine.gamma12))
    assert attenuated > 100
    assert worst_gap < 1e-12
    announce(4, f"engine: max |V - gamma12| = {worst_gap:.3e}, {attenuated} points at t2* < 1")


def test_criterion_5_high_gain_expansion_error_bound():
    """The 1/(T va) expansion of the optimal visibility has quadratically
    small error: |exact - approx| <= 10/(T va)^2 for T va >= 100."""
    worst_factor = 0.0
    for t in (0.2, 0.5, 1.0):
        for va in (1e3, 1e4):
            exact = model.visibility_optimal(va, t)
            approx = model.visibility_high_gain_expansion(va, t)
            factor = abs(exact - approx) * (t * va) ** 2
            worst_factor = max(worst_factor, factor)
    assert worst_factor <= 10.0
    announce(5, f"worst |error| * (T va)^2 = {worst_factor:.3f} <= 10")


def test_criterion_5_through_the_engine():
    """At vb = vb* the engine's visibility keeps the expansion bound and
    matches the closed form up to va = 1e6; from va = 1e7 the engine
    refuses its arm map (its commutator check is absolute)."""
    worst_factor = worst_relative = 0.0
    for t in (0.2, 0.5, 1.0):
        for va in (1e3, 1e4, 1e6):
            params = model.SetupParams(va=va, vb=model.optimize_vb(va, t), t=t)
            engine = model.engine_observables(params).visibility
            exact = model.observables(params).visibility
            approx = model.visibility_high_gain_expansion(va, t)
            worst_factor = max(worst_factor, abs(engine - approx) * (t * va) ** 2)
            worst_relative = max(worst_relative, abs(engine - exact) / exact)
        refused = model.SetupParams(va=1e7, vb=model.optimize_vb(1e7, t), t=t)
        with pytest.raises(ValueError, match="commutation invariants"):
            model.engine_observables(refused)
    assert worst_factor <= 10.0
    assert worst_relative <= validation.CLOSED_FORM_TOLERANCE
    announce(5, f"engine: worst |error| * (T va)^2 = {worst_factor:.3f}, V within {worst_relative:.1e}")


def load_curve(path) -> list[tuple[float, float]]:
    lines = path.read_text().strip().split("\n")[1:]
    return [tuple(float(cell) for cell in line.split(",")) for line in lines]


def test_criterion_6_snr_regime_curves(tmp_path):
    """Regenerated SNR figure data reproduces the three regime laws and
    keeps the optimal >= seeded >= low-gain ordering on tau in (0, 1]."""
    code = cli_main(
        ["figure", "snr", "--out", str(tmp_path), "--resolution", "101",
         "--gains", "1,10,100"]
    )
    assert code == 0
    low = load_curve(tmp_path / "snr_lg.csv")
    for tau, value in low:
        assert value == pytest.approx(model.snr_low_gain(0.01, tau), abs=1e-12)
    for gain in (1.0, 10.0, 100.0):
        seeded = load_curve(tmp_path / f"snr_hgs_va{gain:g}.csv")
        optimal = load_curve(tmp_path / f"snr_opt_va{gain:g}.csv")
        for (tau, hgs), (_, opt), (_, lg) in zip(seeded, optimal, low):
            assert hgs == pytest.approx(model.snr_high_gain_source(gain, 0.01, tau), abs=1e-12)
            assert opt == pytest.approx(model.snr_optimal(gain, tau), abs=1e-12)
            if tau > 0.0:
                assert opt >= hgs >= lg
    announce(6, "3 gains x 101 points match the closed laws at 1e-12, ordering holds")


def test_criterion_7_snr_ratio_bound():
    for params in criterion_grid():
        ratio = model.snr_ratio(params)
        assert 0.0 < ratio <= 1.0
    at_zero = model.snr_ratio(model.SetupParams(va=3.0, vb=1.0, t=0.0))
    assert abs(at_zero - 1.0) < 1e-12
    worst_gap = 0.0
    for va, t in ((1000.0, 0.5), (2000.0, 1.0), (5000.0, 0.3)):
        params = model.SetupParams(va=va, vb=1.0, t=t)  # va t cos^2(2 phi) >= 500
        worst_gap = max(worst_gap, 1.0 - model.snr_ratio(params))
    assert worst_gap < 1e-3
    announce(7, f"ratio in (0,1], exactly 1 at T=0, within {worst_gap:.1e} of 1 in high gain")


def test_criterion_8_multipulse_scaling_exact():
    base = model.SetupParams(va=0.8, vb=1.2, t=0.7)
    single = model.observables(base).snr
    assert single > 0.0
    for pulses in (1, 10, 1000):
        scaled = model.observables(replace(base, pulses=pulses)).snr_multipulse
        assert scaled == pulses * single  # bitwise, not approximate
    announce(8, "snr_multipulse(p) = p * snr for p in {1, 10, 1000}")


def test_criterion_9_published_curve_anchors():
    """Coherence vanishes at T=0, strictly beats the zero-gain sqrt(T)
    curve for va > 0, and the equal-gain visibility drops below sqrt(T)
    at high gain and large T."""
    for va in (0.1, 1.0, 10.0, 100.0):
        assert model.observables(model.SetupParams(va=va, vb=1.0, t=0.0)).gamma12 == 0.0
        for t in np.linspace(0.05, 0.95, 19):
            gamma = model.observables(model.SetupParams(va=va, vb=1.0, t=float(t))).gamma12
            assert gamma > math.sqrt(t)
    for t in (0.7, 0.85, 1.0):
        params = model.SetupParams(va=10.0, vb=10.0, t=t)
        assert model.observables(params).visibility < math.sqrt(t)
    announce(9, "gamma12 anchors and equal-gain high-gain behavior hold strictly")


def test_criterion_9_through_the_engine():
    for va in (0.1, 1.0, 10.0, 100.0):
        assert model.engine_observables(model.SetupParams(va=va, vb=1.0, t=0.0)).gamma12 == 0.0
        for t in np.linspace(0.05, 0.95, 19):
            gamma = model.engine_observables(model.SetupParams(va=va, vb=1.0, t=float(t))).gamma12
            assert gamma > math.sqrt(t)
    for t in (0.7, 0.85, 1.0):
        params = model.SetupParams(va=10.0, vb=10.0, t=t)
        assert model.engine_observables(params).visibility < math.sqrt(t)
    announce(9, "engine: gamma12 anchors and equal-gain high-gain behavior hold strictly")
