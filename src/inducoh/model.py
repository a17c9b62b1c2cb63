"""Two-crystal induced-coherence interferometer.

Two parametric crystals share one idler path.  Crystal A feeds its
idler through a lossy filter (intensity transmittance T) into crystal
B, so the signal of B inherits first-order coherence with the signal of
A even though the two signals never interacted.  Both signals meet on a
balanced splitter and the detector counts show fringes in the pump
phase difference.

`network` alone knows the layout; the Gaussian engine (`build_network`)
and the Fock oracle (`fock.simulate_network`) both evaluate its element
list, passing each element's arguments verbatim to the constructor or
`apply_*` function of its kind.  Its modes are

    0  signal of crystal A
    1  signal of crystal B
    2  shared idler
    3  vacuum port of the idler filter
    4  vacuum port of the signal-B attenuator (present only when t2 < 1)

All closed forms are expressed through the crystal brightnesses
va = sinh(r_A)^2 and vb = sinh(r_B)^2; an attenuator of intensity
transmittance t2 in the signal-B arm acts on every detector observable
exactly as the substitution vb -> t2 * vb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bogoliubov import (
    GaussianMap,
    beam_splitter,
    chain,
    compose,
    phase_shifter,
    two_mode_squeezer,
)
from .moments import (
    MomentSet,
    cross_correlation,
    difference_statistics,
    moments_from_map,
    number_mean,
)

SIGNAL_A = 0
SIGNAL_B = 1
IDLER = 2
FILTER_PORT = 3
BALANCE_PORT = 4

AFTER_CRYSTALS = "after_crystals"
FULL = "full"

SQUEEZE = "squeeze"
PHASE = "phase"
SPLIT = "split"

_DETECTION = (SPLIT, SIGNAL_A, SIGNAL_B, 0.5)

SCAN_POINTS = 32


@dataclass(frozen=True)
class SetupParams:
    """Source brightnesses, filter settings and phases of the interferometer.

    Parameters
    ----------
    va, vb:
        Mean photon numbers sinh(r)^2 emitted per pulse by crystals A and B.
    t:
        Intensity transmittance of the idler filter between the crystals.
    t2:
        Intensity transmittance of an optional attenuator in the signal-B
        arm (1 means absent).
    theta_a, theta_b:
        Pump phases of the two crystals.
    idler_phase:
        Extra phase on the idler path between crystal A and the filter.
    pulses:
        Number of identical pulses averaged by the detection.
    """

    va: float
    vb: float
    t: float
    t2: float = 1.0
    theta_a: float = 0.0
    theta_b: float = 0.0
    idler_phase: float = 0.0
    pulses: int = 1

    def __post_init__(self) -> None:
        for name in ("va", "vb"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("t", "t2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        for name in ("theta_a", "theta_b", "idler_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.pulses, int) or self.pulses < 1:
            raise ValueError(f"pulses must be a positive integer, got {self.pulses}")

    @property
    def gain_a(self) -> float:
        return math.asinh(math.sqrt(self.va))

    @property
    def gain_b(self) -> float:
        return math.asinh(math.sqrt(self.vb))

    @property
    def vb_effective(self) -> float:
        """Brightness of crystal B as seen by the detectors (t2 folded in)."""
        return self.t2 * self.vb

    @property
    def fringe_2phi(self) -> float:
        """The phase 2*phi entering the fringe term cos(2*phi)."""
        return self.theta_a - self.theta_b + self.idler_phase


@dataclass(frozen=True)
class Observables:
    """Every closed-form observable of one parameter point.

    n1_det, n2_det: mean detector counts N1,2 = (sum +/- fringe) / 2.
    n1_arm, n2_arm: mean photon numbers of the two signal arms before the
        final splitter.
    visibility: fringe visibility of the detector counts; 0 when nothing
        is emitted.
    gamma12: degree of first-order coherence between the signal arms,
        sqrt(t (1 + va) / (1 + t va)).  It does not depend on vb or t2; at
        va = 0, where the engine evaluation degenerates to 0/0, it
        continues smoothly to sqrt(t).
    phase_2phi: operational fringe phase, as `fringe_phase`.
    n_minus_mean, n_minus_var: mean and variance of the count difference
        N1 - N2.
    snr: single-pulse signal-to-noise ratio <N_->^2 / Var(N_-); 0 when dark.
    snr_multipulse: SNR after averaging `pulses` identical pulses; it
        scales linearly.
    """

    n1_det: float
    n2_det: float
    n1_arm: float
    n2_arm: float
    visibility: float
    gamma12: float
    phase_2phi: float
    n_minus_mean: float
    n_minus_var: float
    snr: float
    snr_multipulse: float


@dataclass(frozen=True)
class RegimeReport:
    """One regime's approximate visibility/SNR and its accuracy at a point."""

    regime: str
    approx_visibility: float
    approx_snr: float
    validity: float


def network(params: SetupParams, cut: str = FULL) -> tuple[int, list[tuple]]:
    """Mode count and element list of the interferometer up to the given plane.

    Elements come in order of traversal as (SQUEEZE, signal, idler, gain,
    pump_phase), (PHASE, mode, phase) and (SPLIT, mode_a, mode_b,
    transmittance), arguments in the order both evaluators take them:
    the `bogoliubov` constructors after the mode count, the `fock.apply_*`
    functions after the state.  `cut="after_crystals"` stops after
    crystal B (and the optional signal-B attenuator); `cut="full"` appends
    the balanced splitter in front of the detectors.
    """
    if cut not in (AFTER_CRYSTALS, FULL):
        raise ValueError(f"unknown cut {cut!r}")
    n = 4 if params.t2 >= 1.0 else 5
    elements = [
        (SQUEEZE, SIGNAL_A, IDLER, params.gain_a, params.theta_a),
        (PHASE, IDLER, params.idler_phase),
        (SPLIT, IDLER, FILTER_PORT, params.t),
        (SQUEEZE, SIGNAL_B, IDLER, params.gain_b, params.theta_b),
    ]
    if n == 5:
        elements.append((SPLIT, SIGNAL_B, BALANCE_PORT, params.t2))
    if cut == FULL:
        elements.append(_DETECTION)
    return n, elements


def _gaussian(n: int, element: tuple) -> GaussianMap:
    """Bogoliubov transform of one `network` element on n modes."""
    # looked up per call, not at import, so rebinding a module attribute
    # (as a tracer does) reaches the constructors
    build = {SQUEEZE: two_mode_squeezer, PHASE: phase_shifter, SPLIT: beam_splitter}
    kind, *args = element
    return build[kind](n, *args)


def build_network(params: SetupParams, cut: str = FULL) -> GaussianMap:
    """Bogoliubov transform of the interferometer up to the given plane."""
    n, elements = network(params, cut)
    return chain(*(_gaussian(n, element) for element in elements))


def _no_overflow(value: float, params: SetupParams) -> float:
    """`value`, unless a product of the (finite) inputs overflowed to inf, or
    to NaN where an inf meets a zero factor."""
    if not math.isfinite(value):
        raise ValueError(f"closed forms overflow at va={params.va:g}, vb_eff={params.vb_effective:g}")
    return value


def fringe_phase(params: SetupParams) -> float:
    """Operational fringe phase 2*phi, principal value in (-pi, pi].

    Not applicable (NaN) when either crystal arm is dark, since no
    fringe exists to carry the phase.
    """
    if params.va * params.vb_effective == 0.0:
        return math.nan
    raw = params.fringe_2phi
    return math.atan2(math.sin(raw), math.cos(raw))


def snr_ratio(params: SetupParams) -> float:
    """SNR of the brightness-optimized source over the equal-brightness one.

    Always in (0, 1]; equals 1 at t = 0 and approaches 1 at large
    va * t * cos^2(2 phi).
    """
    cos_sq = math.cos(params.fringe_2phi) ** 2
    va, t = params.va, params.t
    return 1.0 - t * va / (2.0 * (1.0 + va) * (1.0 + 2.0 * va * t * cos_sq))


def optimize_vb(va: float, t: float) -> float:
    """Brightness of crystal B that maximizes visibility: va / (1 + va t).

    At this setting the two arm counts are equal and the visibility
    reaches the coherence bound gamma_12.
    """
    if not math.isfinite(va) or va < 0.0:
        raise ValueError(f"va must be finite and >= 0, got {va}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return va / (1.0 + va * t)


def optimize_t2(va: float, vb: float, t: float) -> float | None:
    """Attenuation of the signal-B arm that balances the detector arms.

    Returns t2* = va / ((1 + va t) vb), or None when vb is too dim for
    any attenuation to balance the arms (t2* would exceed 1).
    """
    if not math.isfinite(vb) or vb < 0.0:
        raise ValueError(f"vb must be finite and >= 0, got {vb}")
    target = optimize_vb(va, t)
    if target == 0.0:
        return 0.0
    if vb == 0.0 or target / vb > 1.0:
        return None
    return target / vb


def visibility_low_gain(t: float) -> float:
    """Visibility when both crystals are dim: sqrt(t)."""
    return math.sqrt(t)


def visibility_high_gain_source(vb: float, t: float) -> float:
    """Visibility for bright A and dim B: 2 sqrt(vb t)."""
    return 2.0 * math.sqrt(vb * t)


def visibility_equal_gain(va: float, t: float) -> float:
    """Visibility at equal brightnesses: 2 sqrt((1 + va) t) / (2 + va t)."""
    return 2.0 * math.sqrt((1.0 + va) * t) / (2.0 + va * t)


def visibility_optimal(va: float, t: float) -> float:
    """Visibility at the optimal vb, equal to the coherence bound."""
    return math.sqrt(t * (1.0 + va) / (1.0 + t * va))


def visibility_high_gain_expansion(va: float, t: float) -> float:
    """Large-va expansion of the optimal visibility: 1 - (1 - t)/(2 t va).

    NaN when t * va = 0, outside the expansion's domain.
    """
    if t * va == 0.0:
        return math.nan
    return 1.0 - (1.0 - t) / (2.0 * t * va)


def snr_low_gain(va: float, tau: float) -> float:
    """Low-gain SNR, linear in the phase-transmittance product tau: 2 va tau."""
    return 2.0 * va * tau


def snr_high_gain_source(va: float, vb: float, tau: float) -> float:
    """SNR for bright A seeding a dim B."""
    x = 4.0 * (1.0 + va) * vb * tau
    return x / (1.0 + x)


def snr_optimal(va: float, tau: float) -> float:
    """SNR at the visibility-optimal vb."""
    x = 2.0 * va * tau
    return x / (1.0 + x)


def snr_equal_gain(va: float, t: float, cos_sq_2phi: float) -> float:
    """SNR at equal brightnesses vb = va."""
    x = 2.0 * va * t * cos_sq_2phi
    d = t * va / (2.0 + 2.0 * va)
    return x / (1.0 + x - d)


def regime_report(params: SetupParams) -> tuple[RegimeReport, ...]:
    """Approximate visibility and SNR of each regime at this point.

    The validity entry is the larger of the two deviations from the
    exact values.  For the "optimized" regime the approximations are
    compared against the exact optimum (vb set to its optimal value),
    and the reported visibility is the large-va expansion.
    """
    exact = observables(params)
    exact_vis, exact_snr = exact.visibility, exact.snr
    cos_sq = math.cos(params.fringe_2phi) ** 2
    tau = params.t * cos_sq
    va, t = params.va, params.t

    def entry(regime: str, av: float, asnr: float, exact_v: float, exact_s: float) -> RegimeReport:
        return RegimeReport(regime, av, asnr, max(abs(exact_v - av), abs(exact_s - asnr)))

    optimal = replace(params, vb=optimize_vb(va, t), t2=1.0)
    return (
        entry("low-gain", visibility_low_gain(t), snr_low_gain(va, tau), exact_vis, exact_snr),
        entry(
            "high-gain-source",
            visibility_high_gain_source(params.vb_effective, t),
            snr_high_gain_source(va, params.vb_effective, tau),
            exact_vis,
            exact_snr,
        ),
        entry(
            "equal-gain",
            visibility_equal_gain(va, t),
            snr_equal_gain(va, t, cos_sq),
            exact_vis,
            exact_snr,
        ),
        entry(
            "optimized",
            visibility_high_gain_expansion(va, t),
            snr_optimal(va, tau),
            visibility_optimal(va, t),
            observables(optimal).snr,
        ),
    )


def engine_moments(params: SetupParams, cut: str = FULL) -> MomentSet:
    """Second moments of the network evaluated through the Gaussian engine."""
    return moments_from_map(build_network(params, cut))


def engine_observables(params: SetupParams) -> Observables:
    """The same observables as `observables`, but via the Gaussian engine.

    Serves as the dual evaluation path: no closed form enters except for
    the multi-pulse scaling of the SNR.
    """
    arm = engine_moments(params, AFTER_CRYSTALS)
    full = engine_moments(params, FULL)
    n1_arm = number_mean(arm, SIGNAL_A)
    n2_arm = number_mean(arm, SIGNAL_B)
    n1_det = number_mean(full, SIGNAL_A)
    n2_det = number_mean(full, SIGNAL_B)
    coherence = cross_correlation(arm, SIGNAL_A, SIGNAL_B)
    denom = math.sqrt(n1_arm * n2_arm)
    gamma = abs(coherence) / denom if denom > 0.0 else math.nan
    total = n1_arm + n2_arm
    vis = 2.0 * abs(coherence) / total if total > 0.0 else 0.0
    mean, var = difference_statistics(full, SIGNAL_A, SIGNAL_B)
    ratio = mean**2 / var if mean != 0.0 else 0.0
    return Observables(
        n1_det=n1_det,
        n2_det=n2_det,
        n1_arm=n1_arm,
        n2_arm=n2_arm,
        visibility=vis,
        gamma12=gamma,
        phase_2phi=-np.angle(coherence) if abs(coherence) > 0.0 else math.nan,
        n_minus_mean=mean,
        n_minus_var=var,
        snr=ratio,
        snr_multipulse=params.pulses * ratio,
    )


def observables(params: SetupParams) -> Observables:
    """All closed-form observables at one parameter point.

    The count, visibility and N1 - N2 closed forms are written here
    once, each shared factor evaluated once.  So where any of these
    overflows, the whole point is refused.
    """
    va, vb, t = params.va, params.vb_effective, params.t
    n2_arm = _no_overflow((1.0 + t * va) * vb, params)
    total = _no_overflow(va + vb + va * vb * t, params)
    # |<a_1'^dag a_2'>| = sqrt((1 + va) va vb_eff t)
    amplitude = math.sqrt(_no_overflow((1.0 + va) * va * vb * t, params))
    mean = 2.0 * amplitude * math.cos(params.fringe_2phi)
    try:
        mean_sq = mean**2
    except OverflowError:  # where float * gives inf, float ** raises
        mean_sq = math.inf
    var = _no_overflow(mean_sq + va + vb + va * vb * (2.0 - t), params)
    single = mean_sq / var if mean != 0.0 else 0.0
    return Observables(
        n1_det=0.5 * (total + mean),
        n2_det=0.5 * (total - mean),
        n1_arm=va,
        n2_arm=n2_arm,
        visibility=2.0 * amplitude / total if total != 0.0 else 0.0,
        gamma12=visibility_optimal(va, t),
        phase_2phi=fringe_phase(params),
        n_minus_mean=mean,
        n_minus_var=var,
        snr=single,
        snr_multipulse=params.pulses * single,
    )


def fringe_scan(params: SetupParams) -> list[tuple[float, float, float]]:
    """Detector counts versus a scanning phase in the signal-A arm.

    A phase shifter is stepped through SCAN_POINTS phases spanning one
    full period between the crystals and the final splitter; each row is
    (phase, n1, n2), evaluated through the Gaussian engine.
    """
    # the counts vary as cos(2 phi + alpha), so a uniform grid starting at
    # alpha = -2 phi hits the maximum exactly and, as SCAN_POINTS is even,
    # the minimum as well
    grid = -params.fringe_2phi + np.arange(SCAN_POINTS) * (2.0 * math.pi / SCAN_POINTS)
    base = build_network(params, AFTER_CRYSTALS)
    n = base.n_modes
    splitter = _gaussian(n, _DETECTION)
    rows = []
    for alpha in grid.tolist():
        net = compose(splitter, compose(phase_shifter(n, SIGNAL_A, alpha), base))
        ms = moments_from_map(net)
        rows.append((alpha, number_mean(ms, SIGNAL_A), number_mean(ms, SIGNAL_B)))
    return rows


def fringe_visibility(rows) -> float:
    """(max - min)/(max + min) of the n1 column of a fringe scan.

    Exact only when the scanned grid contains the fringe extrema, as the
    grid of `fringe_scan` does.
    """
    n1 = [row[1] for row in rows]
    top, bottom = max(n1), min(n1)
    if top + bottom == 0.0:
        return 0.0
    return (top - bottom) / (top + bottom)
