"""Oracle residual: moments from 2n ladder applications against the per-pair loop."""

import math

import pytest

from inducoh import fock, model, validation


def _per_pair_residual(params, cutoff):
    """Worst moment deviation from one ladder-operator correlation per mode pair."""
    state = fock.simulate_network(params, cutoff)
    ms = model.engine_moments(params)
    worst = 0.0
    for i in range(ms.n_modes):
        for j in range(ms.n_modes):
            worst = max(worst, abs(fock.cross_correlation(state, i, j) - ms.normal[i, j]))
            worst = max(worst, abs(fock.pair_correlation(state, i, j) - ms.anomalous[i, j]))
    return worst


@pytest.mark.parametrize("t2", [1.0, 0.7])
def test_oracle_residual_matches_per_pair_loop(t2):
    params = model.SetupParams(
        va=math.sinh(0.3) ** 2,
        vb=math.sinh(0.25) ** 2,
        t=0.6,
        t2=t2,
        theta_a=0.4,
        theta_b=1.1,
        idler_phase=2.0,
    )
    residual = validation.oracle_residual(params, 12)
    assert residual is not None
    assert fock.simulate_network(params, 12).n_modes == (4 if t2 == 1.0 else 5)
    assert residual == pytest.approx(_per_pair_residual(params, 12), abs=1e-15)
