"""Dual-path validation suites.

Two independent routes compute the same observables:

- closed forms vs. the Gaussian engine, on a random grid of brightnesses,
  transmittances and phases (relative tolerance, residuals measured as
  |a - b| / |b|, with |b| floored at 1e-12 only so that a reference of
  exactly zero cannot divide by zero);
- the truncated Fock-space oracle vs. the Gaussian engine, comparing all
  first and second moments and the photon-number covariance matrix
  (absolute tolerance); the oracle reads the covariance off the joint
  number distribution, so this checks the engine's Wick formula.

The oracle suite only scores configurations whose final state the oracle
certifies (no unreliable flag, no hard leakage); uncertifiable draws are
counted as skipped and replaced by fresh draws, since their moments are
not trustworthy at the requested cutoff by the oracle's own criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fock, model, moments

CLOSED_FORM_TOLERANCE = 1e-9
ORACLE_TOLERANCE = 1e-6
CLOSED_FORM_SAMPLES = 200
DEFAULT_SAMPLES = 50
DEFAULT_SEED = 1234
DEFAULT_CUTOFF = 12
DEFAULT_R_MAX = 0.6


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one validation suite."""

    name: str
    samples: int
    worst_residual: float
    tolerance: float
    runtime: float
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return self.worst_residual <= self.tolerance

    def summary(self) -> str:
        """One line that depends only on the suite's inputs, not on the wall
        time, so the same seed prints the same bytes."""
        skipped = f" ({self.skipped} skipped as uncertifiable)" if self.skipped else ""
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: {self.samples} samples{skipped}, worst residual "
            f"{self.worst_residual:.3e} (tolerance {self.tolerance:.0e}): {verdict}"
        )


def _relative(value: float, reference: float) -> float:
    # floor only guards against a reference of exactly zero
    return abs(value - reference) / max(abs(reference), 1e-12)


def random_setup(rng: np.random.Generator, brightness_max: float = 10.0) -> model.SetupParams:
    """One random interferometer configuration for the closed-form suite."""
    return model.SetupParams(
        va=float(rng.uniform(0.0, brightness_max)),
        vb=float(rng.uniform(0.0, brightness_max)),
        t=float(rng.uniform(0.0, 1.0)),
        theta_a=float(rng.uniform(0.0, 2.0 * math.pi)),
        theta_b=float(rng.uniform(0.0, 2.0 * math.pi)),
        idler_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def closed_form_residual(params: model.SetupParams) -> float:
    """Worst relative deviation between engine and closed forms at one point.

    Covers both detector counts, the visibility of a `model.SCAN_POINTS`
    fringe scan, the arm coherence and the difference-count mean and
    variance, each read from one `model.observables`.
    """
    eng = model.engine_observables(params)
    closed = model.observables(params)
    scan = model.fringe_scan(params)
    residuals = (
        _relative(eng.n1_det, closed.n1_det),
        _relative(eng.n2_det, closed.n2_det),
        _relative(model.fringe_visibility(scan), closed.visibility),
        _relative(eng.gamma12, closed.gamma12),
        _relative(eng.n_minus_mean, closed.n_minus_mean),
        _relative(eng.n_minus_var, closed.n_minus_var),
    )
    return max(residuals)


def closed_form_suite(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Engine vs. closed forms over CLOSED_FORM_SAMPLES random configurations."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(CLOSED_FORM_SAMPLES):
        worst = max(worst, closed_form_residual(random_setup(rng)))
    return SuiteResult(
        "closed-form vs engine",
        CLOSED_FORM_SAMPLES,
        worst,
        CLOSED_FORM_TOLERANCE,
        time.perf_counter() - start,
    )


def oracle_residual(params: model.SetupParams, cutoff: int) -> float | None:
    """Worst absolute deviation, oracle vs engine, over the second moments
    and the photon-number covariance, or None if the oracle cannot certify
    the state at this cutoff."""
    try:
        state = fock.simulate_network(params, cutoff)
        normal, anomalous = fock.moment_matrices(state)
        _, covariance = fock.number_moments(state)
    except fock.LeakageError:
        return None
    _, ms = model.engine_moments(params)
    wick = moments.number_covariance(ms)
    residuals = (normal - ms.normal, anomalous - ms.anomalous, covariance - wick)
    return float(max(np.abs(residual).max() for residual in residuals))


def check_oracle_arguments(samples: int, cutoff: int, r_max: float) -> None:
    """ValueError unless `oracle_suite` can run with these arguments: at least
    one sample, a cutoff >= 1, and a finite r_max > 0 whose brightness
    sinh(r_max)^2 is a finite float."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    try:
        brightness = math.sinh(r_max) ** 2
    except OverflowError:
        brightness = math.inf
    if not (r_max > 0.0 and math.isfinite(brightness)):
        raise ValueError(f"r_max must be > 0 with a finite sinh(r_max)^2, got {r_max}")


def oracle_suite(
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    cutoff: int = DEFAULT_CUTOFF,
    r_max: float = DEFAULT_R_MAX,
) -> SuiteResult:
    """Fock oracle vs. Gaussian engine over random certified configurations.

    Gains are drawn uniformly from [0, r_max].  Raises LeakageError when
    certified configurations are too rare to collect: the cutoff is too
    small for these gains, or r_max too large for any cutoff.
    """
    check_oracle_arguments(samples, cutoff, r_max)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    certified = 0
    skipped = 0
    max_draws = 20 * samples
    for _ in range(max_draws):
        ra, rb = rng.uniform(0.0, r_max, size=2)
        params = model.SetupParams(
            va=float(math.sinh(ra) ** 2),
            vb=float(math.sinh(rb) ** 2),
            t=float(rng.uniform(0.0, 1.0)),
            theta_a=float(rng.uniform(0.0, 2.0 * math.pi)),
            theta_b=float(rng.uniform(0.0, 2.0 * math.pi)),
            idler_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        residual = oracle_residual(params, cutoff)
        if residual is None:
            skipped += 1
            continue
        worst = max(worst, residual)
        certified += 1
        if certified >= samples:
            break
    if certified < samples:
        raise fock.LeakageError(
            f"only {certified} of the requested {samples} configurations could be "
            f"certified after {max_draws} draws at cutoff {cutoff} (r_max {r_max}); "
            f"increase the cutoff or lower r_max"
        )
    return SuiteResult(
        "oracle vs engine", certified, worst, ORACLE_TOLERANCE, time.perf_counter() - start, skipped
    )
