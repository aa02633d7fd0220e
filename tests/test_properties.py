"""Property-based invariants of the lane-stacked feasibility projection."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from xlwpt.pa import project_feasible  # noqa: E402


@st.composite
def lane_stacks(draw):
    n_lanes = draw(st.integers(1, 5))
    n_sub = draw(st.integers(1, 6))
    n_users = draw(st.integers(1, 5))
    v = draw(arrays(np.float64, (n_lanes, n_sub, n_users),
                    elements=st.floats(-2.0, 2.0, allow_nan=False)))
    active = draw(arrays(np.bool_, (n_lanes, n_sub)))
    p_sub = draw(st.floats(0.05, 2.0))
    p_total = p_sub * draw(st.floats(0.2, float(n_sub)))
    return v, active, p_sub, p_total


@settings(max_examples=80, deadline=None)
@given(lane_stacks())
def test_projection_feasible_idempotent_and_lane_exact(stack):
    v, active, p_sub, p_total = stack
    got = project_feasible(v, p_sub, p_total, active)

    assert np.all(got >= 0.0)
    assert np.all(got[~active] == 0.0)
    assert np.all(got.sum(axis=-1) <= p_sub * (1 + 1e-12))
    assert np.all(got.sum(axis=(-2, -1)) <= p_total * (1 + 1e-12))

    again = project_feasible(got, p_sub, p_total, active)
    np.testing.assert_allclose(again, got, rtol=1e-12, atol=1e-15)

    for lane in range(len(v)):
        want = project_feasible(v[lane], p_sub, p_total, active[lane])
        assert got[lane].tobytes() == want.tobytes()
