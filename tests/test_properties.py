"""Property tests of the closed forms over the whole brightness range.

Where the brightnesses are moderate, the closed forms must obey the
bounds of the physics.  Where a product of brightnesses overflows double
precision, they must refuse with ValueError instead of returning inf or
NaN.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inducoh import model

# inequalities that hold with equality at some points (balanced arms,
# t = 1) may be broken by a few ulp of rounding
_ROUNDING = 1e-12

_phases = st.floats(0.0, 2.0 * math.pi)


def _setups(brightness, transmittance):
    return st.builds(
        model.SetupParams,
        va=brightness,
        vb=brightness,
        t=transmittance,
        t2=transmittance,
        theta_a=_phases,
        theta_b=_phases,
        idler_phase=_phases,
    )


# every product of up to three brightnesses and transmittances stays a
# normal double: no overflow above, no subnormal below
_moderate = _setups(
    st.just(0.0) | st.floats(1e-6, 1e100),
    st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0),
)
# va * vb_eff * t >= 1e160 * 1e157 * 1e-3 overflows
_overflowing = _setups(st.floats(1e160, 1e300), st.floats(1e-3, 1.0))


@settings(max_examples=300, deadline=None)
@given(_moderate)
def test_visibility_is_bounded_by_the_coherence(params):
    obs = model.observables(params)
    assert 0.0 <= obs.visibility <= obs.gamma12 * (1.0 + _ROUNDING)
    assert obs.gamma12 <= 1.0 + _ROUNDING


@settings(max_examples=300, deadline=None)
@given(_moderate)
def test_difference_variance_is_non_negative(params):
    obs = model.observables(params)
    assert obs.n_minus_var >= 0.0
    assert obs.snr >= 0.0


@settings(max_examples=300, deadline=None)
@given(_moderate)
def test_visibility_is_coherence_times_arm_balance(params):
    """V = gamma12 * 2 sqrt(n1 n2) / (n1 + n2) on the arm counts."""
    obs = model.observables(params)
    n1, n2 = obs.n1_arm, obs.n2_arm
    balance = 2.0 * math.sqrt(n1 * n2) / (n1 + n2) if n1 + n2 > 0.0 else 0.0
    expected = obs.gamma12 * balance
    assert obs.visibility == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(_overflowing)
@example(model.SetupParams(va=1e160, vb=1e160, t=0.5))
# the count sum and the squared fringe overflow, va * vb does not
@example(model.SetupParams(va=0.5, vb=1.5e308, t=1.0))
def test_overflowing_brightness_products_are_refused(params):
    with pytest.raises(ValueError, match="overflow"):
        model.observables(params)
