"""Two-crystal induced-coherence interferometer.

Two parametric crystals share one idler path.  Crystal A feeds its
idler through a lossy filter (intensity transmittance T) into crystal
B, so the signal of B inherits first-order coherence with the signal of
A even though the two signals never interacted.  Both signals meet on a
balanced splitter and the detector counts show fringes in the pump
phase difference.

`network` alone knows the layout up to the arm plane, and `DETECTION`
is the balanced splitter after it.  The Gaussian engine (`engine_moments`)
and the Fock oracle (`fock.simulate_network`) both evaluate these
elements, passing each element's arguments verbatim to the constructor or
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

import functools
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
    _read_moments,
    cross_correlation,
    moments_from_map,
    number_mean,
)

SIGNAL_A = 0
SIGNAL_B = 1
IDLER = 2
FILTER_PORT = 3
BALANCE_PORT = 4

SQUEEZE = "squeeze"
PHASE = "phase"
SPLIT = "split"

DETECTION = (SPLIT, SIGNAL_A, SIGNAL_B, 0.5)

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
        try:
            float(self.pulses)  # the multi-pulse SNR multiplies by it
        except OverflowError:
            bits = self.pulses.bit_length()
            raise ValueError(f"pulses must convert to a finite float, got a {bits}-bit integer") from None

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


@dataclass(frozen=True)
class Observables:
    """Every closed-form observable of one parameter point, or of a grid.

    Each field is a float at a point and a float array, one entry per
    grid value, along a grid (see `observables`).

    n1_det, n2_det: mean detector counts N1,2 = (sum +/- fringe) / 2.
    n1_arm, n2_arm: mean photon numbers of the two signal arms before the
        final splitter.
    visibility: fringe visibility of the detector counts; 0 when nothing
        is emitted.
    gamma12: degree of first-order coherence between the signal arms,
        sqrt(t (1 + va) / (1 + t va)).  It does not depend on vb or t2; at
        va = 0, where the engine evaluation degenerates to 0/0, it
        continues smoothly to sqrt(t).
    phase_2phi: operational fringe phase 2 phi, principal value in
        (-pi, pi]; NaN when either crystal arm is dark, since no fringe
        exists to carry the phase.
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


def network(params: SetupParams) -> tuple[int, list[tuple]]:
    """Mode count and element list of the interferometer up to the arm plane.

    Elements come in order of traversal as (SQUEEZE, signal, idler, gain,
    pump_phase), (PHASE, mode, phase) and (SPLIT, mode_a, mode_b,
    transmittance), arguments in the order both evaluators take them:
    the `bogoliubov` constructors after the mode count, the `fock.apply_*`
    functions after the state.  The list stops after crystal B and the
    optional signal-B attenuator; `DETECTION`, an element of the same
    form, follows it in front of the detectors.
    """
    n = 4 if params.t2 >= 1.0 else 5
    elements = [
        (SQUEEZE, SIGNAL_A, IDLER, params.gain_a, params.theta_a),
        (PHASE, IDLER, params.idler_phase),
        (SPLIT, IDLER, FILTER_PORT, params.t),
        (SQUEEZE, SIGNAL_B, IDLER, params.gain_b, params.theta_b),
    ]
    if n == 5:
        elements.append((SPLIT, SIGNAL_B, BALANCE_PORT, params.t2))
    return n, elements


def _gaussian(n: int, element: tuple) -> GaussianMap:
    """Bogoliubov transform of one `network` element on n modes."""
    # looked up per call, not at import, so rebinding a module attribute
    # (as a tracer does) reaches the constructors
    build = {SQUEEZE: two_mode_squeezer, PHASE: phase_shifter, SPLIT: beam_splitter}
    kind, *args = element
    return build[kind](n, *args)


def build_network(params: SetupParams) -> GaussianMap:
    """Bogoliubov transform of the interferometer up to the arm plane."""
    n, elements = network(params)
    return chain(*(_gaussian(n, element) for element in elements))


@functools.lru_cache(maxsize=4)
def _detection(n: int) -> GaussianMap:
    """Bogoliubov transform of `DETECTION` on n modes, built once per mode
    count and shared: its matrices are read-only."""
    return _gaussian(n, DETECTION)


def snr_ratio(params: SetupParams) -> float:
    """SNR of the brightness-optimized source over the equal-brightness one.

    Always in (0, 1]; equals 1 at t = 0 and approaches 1 at large
    va * t * cos^2(2 phi).
    """
    cos_sq = _cos_2phi(params) ** 2
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
    return _sqrt(t * (1.0 + va) / (1.0 + t * va))


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
    cos_sq = _cos_2phi(params) ** 2
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


@functools.lru_cache(maxsize=1)
def _arm(params: SetupParams) -> tuple[GaussianMap, MomentSet]:
    """The arm-plane map of `params` and its moments, validated once and
    kept for the last point, so that `engine_moments` and `fringe_scan` at
    one point share them.  Points equal under == differ at most in the
    signs of zero fields, which wash out of the composed map, so a kept
    map is the one the point would build.  A refused map is not kept: it
    is refused again, with the same message."""
    arm = build_network(params)
    return arm, moments_from_map(arm)


def engine_moments(params: SetupParams) -> tuple[MomentSet, MomentSet]:
    """Second moments at the arm plane and at the detectors, through the
    Gaussian engine.  The arm map is built and validated once per point
    and shared with `fringe_scan` (`_arm`); the detector moments are read
    from `DETECTION` composed onto it, which is not validated again: the
    splitter is passive (V = 0, unitary U), so the product keeps the arm
    map's commutator invariants.  The `DETECTION` map is built once per
    mode count and shared with `fringe_scan` too."""
    arm, at_arms = _arm(params)
    return at_arms, _read_moments(compose(_detection(arm.n_modes), arm))


def engine_observables(params: SetupParams) -> Observables:
    """The same observables as `observables`, but via the Gaussian engine.

    Serves as the dual evaluation path: no closed form enters except for
    the multi-pulse scaling of the SNR.

    N1 - N2 is read at the arm plane, not as the difference of the two
    detector counts: behind the 50:50 splitter `DETECTION` it equals
    a_A^dag a_B + a_B^dag a_A, so its mean is 2 Re c and, by Wick's
    theorem, its variance is n_A + n_B + 2 n_A n_B + 2 Re(c^2) + 2 |m|^2
    + 2 Re(conj(p) q), with c = <a_A^dag a_B>, m = <a_A a_B>, p = <a_A^2>
    and q = <a_B^2> (docs/wick_covariance.md).  Both forms hold only for
    that balanced splitter.
    """
    arm, detectors = engine_moments(params)
    n1_arm = number_mean(arm, SIGNAL_A)
    n2_arm = number_mean(arm, SIGNAL_B)
    n1_det = number_mean(detectors, SIGNAL_A)
    n2_det = number_mean(detectors, SIGNAL_B)
    coherence = cross_correlation(arm, SIGNAL_A, SIGNAL_B)
    denom = math.sqrt(n1_arm * n2_arm)
    gamma = abs(coherence) / denom if denom > 0.0 else math.nan
    total = n1_arm + n2_arm
    vis = 2.0 * abs(coherence) / total if total > 0.0 else 0.0
    pair = complex(arm.anomalous[SIGNAL_A, SIGNAL_B])
    square_a = complex(arm.anomalous[SIGNAL_A, SIGNAL_A])
    square_b = complex(arm.anomalous[SIGNAL_B, SIGNAL_B])
    mean = 2.0 * coherence.real
    var = (
        total
        + 2.0 * n1_arm * n2_arm
        + 2.0 * (coherence * coherence).real
        + 2.0 * abs(pair) ** 2
        + 2.0 * (square_a.conjugate() * square_b).real
    )
    ratio = mean**2 / var if mean != 0.0 else 0.0
    return Observables(
        n1_det=n1_det,
        n2_det=n2_det,
        n1_arm=n1_arm,
        n2_arm=n2_arm,
        visibility=vis,
        gamma12=gamma,
        phase_2phi=float(-np.angle(coherence)) if abs(coherence) > 0.0 else math.nan,
        n_minus_mean=mean,
        n_minus_var=var,
        snr=ratio,
        snr_multipulse=params.pulses * ratio,
    )


GRID_FIELDS = ("va", "vb", "t", "t2", "theta_a", "theta_b", "idler_phase")


def observables(params: SetupParams, field: str | None = None, values=None) -> Observables:
    """All closed-form observables at one parameter point, or along a grid.

    `observables(params)` evaluates the point `params` and every field of
    its result is a float.  `observables(params, field, values)` evaluates
    the grid of points `replace(params, field=v)` for v in `values`, field
    one of GRID_FIELDS, in one call: every field of its result is a float
    array with one entry per value, each equal bit for bit to the point's.
    Every field's valid set is an interval, so the grid is checked by
    `SetupParams` at the values' minimum and maximum.

    The count, visibility and N1 - N2 closed forms are written here
    once, each shared factor evaluated once.  So where any of these
    overflows, the whole point is refused, and a grid with it.
    """
    fields = vars(params)
    if field is None:
        return _closed_forms(**fields)
    if field not in GRID_FIELDS:
        raise ValueError(f"cannot vary {field!r}; choose from {', '.join(GRID_FIELDS)}")
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{field} values must be a non-empty 1-D sequence")
    for end in (grid.min(), grid.max()):
        replace(params, **{field: float(end)})
    # brightnesses and transmittances become arrays along the grid, so
    # every result is one; the phases stay floats unless varied, so that
    # `math` evaluates a fixed phase once
    points = {**fields, field: grid}
    for name in ("va", "vb", "t", "t2"):
        points[name] = np.full(grid.shape, points[name], dtype=float)
    # numpy warns where a product overflows; the closed forms refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        return _closed_forms(**points)


def _closed_forms(va, vb, t, t2, theta_a, theta_b, idler_phase, pulses) -> Observables:
    """The body of `observables`, on floats at a point and on float arrays
    along a grid.

    Arithmetic and sqrt round alike in Python and numpy; cos, sin and
    atan2 do not, so they go through `_each`, which applies `math` to
    every element of an array.

    The fringe term cos 2 phi and the phase are taken at the exact phase
    sum, the terms of `_phase_sum`, not at its rounding alone.
    """
    vb = t2 * vb  # vb_eff
    cos_2phi, sin_2phi = _turn(*_phase_sum(theta_a, theta_b, idler_phase))
    n2_arm = (1.0 + t * va) * vb
    total = va + vb + va * vb * t
    # |<a_1'^dag a_2'>| = sqrt((1 + va) va vb_eff t)
    amplitude_sq = (1.0 + va) * va * vb * t
    amplitude = _sqrt(amplitude_sq)
    mean = 2.0 * amplitude * cos_2phi
    mean_sq = mean * mean
    var = mean_sq + va + vb + va * vb * (2.0 - t)
    _no_overflow(va, vb, n2_arm, total, amplitude_sq, var)
    single = _ratio(mean_sq, var)  # var >= mean^2 > 0 where mean != 0
    return Observables(
        n1_det=0.5 * (total + mean),
        n2_det=0.5 * (total - mean),
        n1_arm=1.0 * va,  # a float also where SetupParams holds an int
        n2_arm=n2_arm,
        visibility=_ratio(2.0 * amplitude, total),
        gamma12=visibility_optimal(va, t),
        phase_2phi=_phase(va * vb, cos_2phi, sin_2phi),
        n_minus_mean=mean,
        n_minus_var=var,
        snr=single,
        snr_multipulse=float(pulses) * single,
    )


def _sqrt(value):
    return np.sqrt(value) if isinstance(value, np.ndarray) else math.sqrt(value)


def _each(function, *values):
    """`function`, built on `math`, of floats, or of each element of arrays
    of one shape."""
    if isinstance(values[0], np.ndarray):
        return np.array(list(map(function, *(value.tolist() for value in values))))
    return function(*values)


def _ratio(num, den):
    """num / den, or 0 where den is 0."""
    if isinstance(den, np.ndarray):
        return np.where(den != 0.0, num / den, 0.0)
    return num / den if den != 0.0 else 0.0


def _phase_sum(theta_a, theta_b, idler_phase) -> tuple:
    """The phase sum 2 phi = theta_a - theta_b + idler_phase, floats or
    arrays along a grid, as terms whose sum is exact: (hi, lo, tail).

    hi is the sum rounded as written, refused where it overflowed: each
    phase is finite, their sum need not be.  lo + tail is the sum of the
    exact errors of its two roundings, itself split exactly (`_sum_error`,
    an error-free sum as in Ogita, Rump and Oishi, SIAM J. Sci. Comput.
    26, 1955 (2005)).  The errors matter near a dark fringe, where cos 2 phi
    is small, and at large phases, where they reach ulp(2 phi); tail
    matters only where the two errors differ greatly in size, as for
    theta_a and theta_b near the float range.  The sum is (hi,) alone
    where it is exact by construction: theta_b and idler_phase are float
    zeros, as at every point the CLI evaluates.
    """
    difference = theta_a - theta_b
    hi = difference + idler_phase
    if not np.isfinite(hi).all():
        raise ValueError("the phase sum theta_a - theta_b + idler_phase overflows")
    varied = isinstance(theta_b, np.ndarray) or isinstance(idler_phase, np.ndarray)
    if not varied and theta_b == 0.0 and idler_phase == 0.0:
        return (hi,)
    first = _sum_error(theta_a, -theta_b, difference)
    second = _sum_error(difference, idler_phase, hi)
    lo = first + second
    return hi, lo, _sum_error(first, second, lo)


def _sum_error(a, b, total):
    """a + b - total for total = a + b rounded, exactly, of floats or arrays.

    Dekker's Fast2Sum on the operands ordered by magnitude: the larger is
    taken off total first, so no step overflows where total is finite
    (Knuth's branch-free TwoSum can, for operands near the float range).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        larger = np.abs(a) >= np.abs(b)
        a, b = np.where(larger, a, b), np.where(larger, b, a)
    elif abs(a) < abs(b):
        a, b = b, a
    return b - (total - a)


def _turn(hi, *rest):
    """cos and sin of the sum of the phases hi, *rest, floats or arrays
    along a grid, by angle addition, one term at a time; a zero term is
    skipped, so all-zero terms give cos hi and sin hi exactly.  libm
    reduces each term exactly, so no term need be small: a first-order
    cos hi - lo sin hi fails where lo is not."""
    cos_sum, sin_sum = _each(math.cos, hi), _each(math.sin, hi)
    for term in rest:
        c, s = _each(math.cos, term), _each(math.sin, term)
        turned = cos_sum * c - sin_sum * s, sin_sum * c + cos_sum * s
        if isinstance(term, np.ndarray):
            cos_sum, sin_sum = np.where(term == 0.0, (cos_sum, sin_sum), turned)
        elif term:
            cos_sum, sin_sum = turned
    return cos_sum, sin_sum


def _cos_2phi(params: SetupParams) -> float:
    """cos 2 phi at the exact phase sum of `params`."""
    return _turn(*_phase_sum(params.theta_a, params.theta_b, params.idler_phase))[0]


def _phase(brightness, cos_2phi, sin_2phi):
    """Principal value of the fringe phase, from its cos and sin, NaN where
    the product `brightness` = va * vb_eff is 0."""
    principal = _each(math.atan2, sin_2phi, cos_2phi)
    if isinstance(brightness, np.ndarray):
        return np.where(brightness == 0.0, math.nan, principal)
    return math.nan if brightness == 0.0 else principal


def _no_overflow(va, vb, *values) -> None:
    """Refuse where a product of the (finite) inputs overflowed to inf, or
    to NaN where an inf met a zero factor; a grid at its first such point."""
    if isinstance(va, np.ndarray):
        finite = np.logical_and.reduce([np.isfinite(value) for value in values])
        if finite.all():
            return
        first = int(np.argmin(finite))
        va, vb = float(va[first]), float(vb[first])
    elif all(map(math.isfinite, values)):
        return
    raise ValueError(f"closed forms overflow at va={va:g}, vb_eff={vb:g}")


def fringe_scan(params: SetupParams) -> list[tuple[float, float, float]]:
    """Detector counts versus a scanning phase in the signal-A arm.

    A phase shifter is stepped through SCAN_POINTS phases spanning one
    full period between the crystals and the final splitter; each row is
    (phase, n1, n2), evaluated through the Gaussian engine.

    The phase shifter and the splitter are passive (V = 0, unitary U), so
    together they act on the arm-plane map (U, V) as the unitary
    congruence (W U, W V), W(alpha) = splitter . phase(alpha), and on its
    normal moments as N -> W* N W^T (Weedbrook et al., RMP 84, 621
    (2012)).  The arm map is built and validated once; each count is the
    squared norm of a detector row of W(alpha) V, see
    docs/wick_covariance.md.  The arm map and the splitter are the ones
    `engine_moments` uses at the same point: one validated arm map per
    point (`_arm`), one `DETECTION` map per mode count.

    The grid starts at alpha_0 = arg c, c = <a_A^dag a_B> at the arm plane,
    or at 0 where c = 0 and the counts are flat: behind `DETECTION`,
    n1(alpha) = (n_A + n_B)/2 + Re(exp(-i alpha) c), so row 0 is the n1
    maximum and row SCAN_POINTS // 2 the minimum.  No phase sum enters.
    """
    arm, at_arms = _arm(params)
    coherence = cross_correlation(at_arms, SIGNAL_A, SIGNAL_B)
    start = np.angle(coherence) if coherence else 0.0
    grid = start + np.arange(SCAN_POINTS) * (2.0 * math.pi / SCAN_POINTS)
    detectors = [SIGNAL_A, SIGNAL_B]
    # rows[k] = W(grid[k])[detectors]: the splitter's rows with the
    # SIGNAL_A column turned by exp(i alpha)
    rows = np.repeat(_detection(arm.n_modes).u[None, detectors], SCAN_POINTS, axis=0)
    rows[:, :, SIGNAL_A] *= np.exp(1j * grid)[:, None]
    out = rows @ arm.v
    counts = (out.real**2 + out.imag**2).sum(axis=2)
    return list(zip(grid.tolist(), counts[:, 0].tolist(), counts[:, 1].tolist()))


def fringe_visibility(rows) -> float:
    """(max - min)/(max + min) of the n1 column of a fringe scan.

    Exact only when the scanned grid contains the fringe extrema, as the
    grid of `fringe_scan`, aligned on the engine's arm coherence, does at
    every point the engine answers.
    """
    n1 = [row[1] for row in rows]
    top, bottom = max(n1), min(n1)
    if top + bottom == 0.0:
        return 0.0
    return (top - bottom) / (top + bottom)
