"""Oracle residual: moment matrices and |psi|^2 marginals against per-pair loops;
closed-form residual: `model.observables` against the single closed forms."""

import math

import numpy as np
import pytest

from inducoh import fock, model, moments, validation


def _setup(t2):
    return model.SetupParams(
        va=math.sinh(0.3) ** 2,
        vb=math.sinh(0.25) ** 2,
        t=0.6,
        t2=t2,
        theta_a=0.4,
        theta_b=1.1,
        idler_phase=2.0,
    )


def _occupation_weighted(values, axis):
    shape = [1] * values.ndim
    shape[axis] = values.shape[axis]
    return values * np.arange(values.shape[axis]).reshape(shape)


def _per_pair_number_covariance(state, i, j):
    """Cov(N_i, N_j) as one full-state weighted sum per mode pair."""
    probs = np.abs(state.to_dense()) ** 2
    joint = _occupation_weighted(_occupation_weighted(probs, i), j).sum()
    return joint - _occupation_weighted(probs, i).sum() * _occupation_weighted(probs, j).sum()


def _per_pair_residual(params, cutoff):
    """Worst deviation from one ladder-operator correlation and one number
    covariance per mode pair."""
    state = fock.simulate_network(params, cutoff)
    _, ms = model.engine_moments(params)
    worst = 0.0
    for i in range(ms.n_modes):
        for j in range(ms.n_modes):
            worst = max(worst, abs(fock.cross_correlation(state, i, j) - ms.normal[i, j]))
            worst = max(worst, abs(fock.pair_correlation(state, i, j) - ms.anomalous[i, j]))
            worst = max(
                worst,
                abs(_per_pair_number_covariance(state, i, j) - moments.number_covariance(ms)[i, j]),
            )
    return worst


@pytest.mark.parametrize("t2", [1.0, 0.7])
def test_oracle_residual_matches_per_pair_loop(t2):
    params = _setup(t2)
    residual = validation.oracle_residual(params, 12)
    assert residual is not None
    state = fock.simulate_network(params, 12)
    assert state.n_modes == (4 if t2 == 1.0 else 5)
    assert residual == pytest.approx(_per_pair_residual(params, 12), abs=1e-15)
    _, covariance = fock.number_moments(state)
    for i in range(state.n_modes):
        for j in range(state.n_modes):
            reference = _per_pair_number_covariance(state, i, j)
            assert covariance[i, j] == pytest.approx(reference, abs=1e-15)


@pytest.mark.parametrize("t2", [1.0, 0.7])
def test_oracle_residual_sees_a_wrong_number_covariance(monkeypatch, t2):
    """Only the covariance term can catch an error in the Wick formula:
    the moment matrices do not use it."""
    params = _setup(t2)
    assert validation.oracle_residual(params, 12) <= validation.ORACLE_TOLERANCE
    exact = moments.number_covariance
    monkeypatch.setattr(moments, "number_covariance", lambda ms: exact(ms) + 1e-5)
    assert validation.oracle_residual(params, 12) > validation.ORACLE_TOLERANCE


def test_observables_equal_the_single_closed_forms_bit_for_bit():
    """The fields of `observables` that have a closed-form function of their
    own are that function's value, to the bit."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        params = validation.random_setup(rng)
        obs = model.observables(params)
        assert obs.gamma12 == model.visibility_optimal(params.va, params.t)
