"""Property-based invariants of the feasibility projection, both proxes,
the harvest lane kernel, the batched polish and the joint
activation/allocation loop."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from oracles import sequential_polish  # noqa: E402
from test_power import harvested_power_oracle, small_channel_set  # noqa: E402
from xlwpt import pa  # noqa: E402
from xlwpt.pa import (  # noqa: E402
    PAConfig,
    project_feasible,
    prox_consumption,
    prox_neg_harvest,
)
from xlwpt.power import (  # noqa: E402
    AllocationState,
    PowerConfig,
    consumed_lanes,
    harvested_lanes,
    uniform_split,
)
from xlwpt.sa import HPE_MONOTONE_SLACK, SAConfig, joint_solve  # noqa: E402
from xlwpt.scenario import ClusterSpec, ScenarioConfig  # noqa: E402


@st.composite
def lane_stacks(draw):
    n_lanes = draw(st.integers(1, 5))
    n_sub = draw(st.integers(1, 6))
    n_users = draw(st.integers(1, 5))
    v = draw(arrays(np.float64, (n_lanes, n_sub, n_users),
                    elements=st.floats(-2.0, 2.0, allow_nan=False)))
    active = draw(arrays(np.bool_, (n_lanes, n_sub)))
    p_sub = draw(st.floats(0.05, 2.0))
    return v, active, p_sub


@settings(max_examples=80, deadline=None)
@given(lane_stacks())
def test_projection_feasible_idempotent_and_lane_exact(stack):
    v, active, p_sub = stack
    got = project_feasible(v, p_sub, active)

    assert np.all(got >= 0.0)
    assert np.all(got[~active] == 0.0)
    assert np.all(got.sum(axis=-1) <= p_sub * (1 + 1e-12))
    # no total budget is passed: the row caps imply P_t = S * P_s
    assert np.all(got.sum(axis=(-2, -1)) <= v.shape[-2] * p_sub * (1 + 1e-12))

    again = project_feasible(got, p_sub, active)
    np.testing.assert_allclose(again, got, rtol=1e-12, atol=1e-15)

    # one element per sub-array, so P_s = P_et
    power_cfg = PowerConfig(p_et=p_sub)
    for lane in range(len(v)):
        AllocationState(got[lane], a=active[lane],
                        a_tilde=active[lane]).validate(power_cfg, 1)
        want = project_feasible(v[lane], p_sub, active[lane])
        assert got[lane].tobytes() == want.tobytes()


@st.composite
def harvest_stacks(draw):
    """Entrywise non-negative PSD stacks A = G G^T, (B, M, S, S), with
    2 gamma lambda_max(A) < 1 per lane; the solve's q is then >= 0."""
    n_lanes = draw(st.integers(1, 4))
    n_users = draw(st.integers(1, 3))
    n_sub = draw(st.integers(1, 5))
    rank = draw(st.integers(1, 3))
    g = draw(arrays(np.float64, (n_lanes, n_users, n_sub, rank),
                    elements=st.floats(0.0, 1.0)))
    # no tiny entries: a lambda_max near underflow would overflow gamma
    g[g < 1e-3] = 0.0
    quad = g @ np.swapaxes(g, -1, -2)
    lam_max = np.linalg.eigvalsh(quad).max(axis=(-2, -1))
    share = draw(arrays(np.float64, (n_lanes,), elements=st.floats(0.01, 0.95)))
    gamma = np.where(lam_max > 0, share / (2.0 * np.where(lam_max > 0, lam_max, 1.0)),
                     share)
    v = draw(arrays(np.float64, (n_lanes, n_sub, n_users),
                    elements=st.floats(0.0, 2.0)))
    return v, gamma, quad


@settings(max_examples=60, deadline=None)
@given(harvest_stacks())
def test_harvest_prox_solves_its_system(stack):
    v, gamma, quad = stack
    q = np.sqrt(prox_neg_harvest(v, gamma, quad))
    lhs = np.eye(quad.shape[-1]) - 2.0 * gamma[:, None, None, None] * quad
    # (B, M, S) columns: (I - 2 gamma A_m) q_m against sqrt(v_m)
    got = np.einsum("bmst,btm->bms", lhs, q)
    want = np.swapaxes(np.sqrt(v), -1, -2)
    err = np.linalg.norm(got - want, axis=-1)
    assert np.all(err <= 1e-10 * np.linalg.norm(want, axis=-1))


@st.composite
def consumption_stacks(draw):
    """A lane stack of prox inputs: z, per-lane lambda and gamma, activations
    in [0, 1] with some rows off, and feasible points drawn row by row."""
    n_lanes = draw(st.integers(1, 4))
    n_sub = draw(st.integers(1, 5))
    n_users = draw(st.integers(1, 4))
    n_elements = draw(st.integers(1, 16))
    z = draw(arrays(np.float64, (n_lanes, n_sub, n_users),
                    elements=st.floats(-1.0, 1.0)))
    lam = draw(arrays(np.float64, (n_lanes,), elements=st.floats(0.0, 0.5)))
    gamma = draw(arrays(np.float64, (n_lanes,), elements=st.floats(0.0, 5.0)))
    a_tilde = draw(arrays(np.float64, (n_lanes, n_sub), elements=st.sampled_from(
        [0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    # feasible points: active rows only, each row scaled within P_s
    shares = draw(arrays(np.float64, (8, n_lanes, n_sub, n_users),
                         elements=st.floats(0.0, 1.0)))
    fill = draw(arrays(np.float64, (8, n_lanes, n_sub, 1), elements=st.floats(0.0, 1.0)))
    p_sub = PowerConfig().p_sub(n_elements)
    row = shares.sum(axis=-1, keepdims=True)
    omega = np.where(row > 0, shares / np.where(row > 0, row, 1.0), 0.0) * fill * p_sub
    omega = omega * (a_tilde > 0)[..., None]
    return z, lam, gamma, a_tilde, n_elements, omega


@settings(max_examples=80, deadline=None)
@given(consumption_stacks())
def test_consumption_prox_meets_its_optimality_condition(stack):
    # p = prox(z) iff <z - gamma lam slope - p, omega - p> <= 0 for every
    # feasible omega: p is the projection of the shifted point
    z, lam, gamma, a_tilde, n_elements, omega = stack
    cfg = PowerConfig()
    p = prox_consumption(z, lam, gamma, cfg, a_tilde, n_elements)
    shifted = z - (gamma * lam)[:, None, None] * (a_tilde / cfg.varsigma)[..., None]
    assert np.all(p >= 0.0) and np.all(p[a_tilde == 0] == 0.0)
    assert np.all(p.sum(axis=-1) <= cfg.p_sub(n_elements) * (1 + 1e-12))
    inner = np.sum((shifted - p) * (omega - p), axis=(-2, -1))
    scale = 1.0 + np.abs(shifted).sum(axis=(-2, -1)) * cfg.p_sub(n_elements)
    assert np.all(inner <= 1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(consumption_stacks())
def test_projection_meets_its_kkt_conditions(stack):
    # the rows decouple: p = proj(v) iff <v - p, omega - p> <= 0 for every feasible
    # omega, and each row over its budget is max(v - tau, 0) for one
    # tau >= 0 and sums to P_s
    v, _, _, a_tilde, n_elements, omega = stack
    active = a_tilde > 0
    p_sub = PowerConfig().p_sub(n_elements)
    p = project_feasible(v, p_sub, active)
    scale = 1.0 + np.abs(v).sum(axis=(-2, -1)) * p_sub
    inner = np.sum((v - p) * (omega - p), axis=(-2, -1))
    assert np.all(inner <= 1e-12 * scale)

    tol = 1e-12 * (1.0 + np.abs(v).max(initial=0.0))
    over = active & (np.maximum(v, 0.0).sum(axis=-1) > p_sub)
    for vr, pr in zip(v[over], p[over]):
        assert abs(pr.sum() - p_sub) <= 1e-12 * p_sub
        kept = pr > 0
        tau = np.max(vr[kept] - pr[kept])
        assert tau >= -tol
        np.testing.assert_allclose(vr[kept] - pr[kept], tau, rtol=0, atol=tol)
        assert np.all(vr[~kept] <= tau + tol)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n_sub=st.integers(1, 4), n_users=st.integers(1, 3),
       n_lanes=st.integers(1, 3), data=st.data())
def test_harvest_kernel_equals_pair_sum_expansion(seed, n_sub, n_users, n_lanes, data):
    _, ch = small_channel_set(n_sub=n_sub, n_users=n_users, seed=seed)
    omega = data.draw(arrays(np.float64, (n_lanes, n_sub, n_users),
                             elements=st.floats(0.0, 0.4)))
    weights = data.draw(arrays(np.float64, (n_lanes, n_sub),
                               elements=st.floats(0.0, 1.0)))
    got = harvested_lanes(ch, omega, weights)
    assert got.shape == (n_lanes,)
    for lane in range(n_lanes):
        want = harvested_power_oracle(ch, omega[lane], weights[lane])
        assert got[lane] == pytest.approx(want, rel=1e-10, abs=1e-300)


@st.composite
def polish_stacks(draw):
    """A lane stack, polish lanes that index it, each with a ratio around
    its lane's uniform-split HPE and a feasible seed."""
    n_sub, n_users = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    _, ch = small_channel_set(n_sub=n_sub, n_users=n_users,
                              seed=draw(st.integers(0, 10**6)))
    n_lanes = draw(st.integers(1, 3))
    a_tilde = draw(arrays(np.float64, (n_lanes, n_sub), elements=st.sampled_from(
        [0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)))
    cfg = PowerConfig()
    lanes = pa.Lanes.build(ch, a_tilde, cfg)
    lane_of = np.array(draw(st.lists(st.integers(0, n_lanes - 1), min_size=1,
                                     max_size=6)))
    uniform = np.broadcast_to(uniform_split(ch, cfg), (n_lanes, n_sub, n_users))
    ratio = (harvested_lanes(ch, uniform, a_tilde)
             / consumed_lanes(uniform, a_tilde, cfg, n_users, ch.n_elements))
    scale = draw(arrays(np.float64, (len(lane_of),), elements=st.floats(0.0, 3.0)))
    raw = draw(arrays(np.float64, (len(lane_of), n_sub, n_users),
                      elements=st.floats(0.0, 2.0 * cfg.p_sub(ch.n_elements))))
    seeds = lanes.take(lane_of).project(raw)
    return lanes, lane_of, ratio[lane_of] * scale, seeds


@settings(max_examples=60, deadline=None)
@given(stack=polish_stacks(), cap=st.sampled_from([1, 2, 7, 500]),
       entries=st.integers(1, 200), max_batch=st.integers(1, 6))
def test_batched_polish_repeats_the_sequential_ascent(stack, cap, entries, max_batch):
    # small trial caps and budgets put the cap and the changes of k
    # inside batched passes
    lanes, lane_of, lam, seeds = stack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pa, "_PGA_MAX_ITER", cap)
        mp.setattr(pa, "_PGA_BATCH_ENTRIES", entries)
        mp.setattr(pa, "_PGA_MAX_BATCH", max_batch)
        omega, phi, trials = pa._polish(lanes, lane_of, lam, seeds)
    want_omega, want_phi, want_trials = sequential_polish(lanes, lane_of, lam, seeds,
                                                          max_iter=cap)
    assert omega.tobytes() == want_omega.tobytes()
    assert phi.tobytes() == want_phi.tobytes()
    assert trials.tolist() == want_trials.tolist()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), n_sub=st.integers(1, 6), n_vr=st.integers(1, 2),
       warm_start=st.booleans())
def test_joint_solve_prunes_for_good_and_never_loses(seed, n_sub, n_vr, warm_start):
    cfg = ScenarioConfig(n_sub=n_sub, nx=8, ny=2, seed=seed,
                         clusters=ClusterSpec(n_vr=n_vr, count=3, range_m=0.5,
                                              radius_m=0.1))
    alloc, report = joint_solve(cfg.channel_set(), PAConfig(),
                                SAConfig(warm_start=warm_start), PowerConfig())
    active = np.array(report.active_trace)
    # a pruned module never comes back, down to the final binary re-solve
    assert np.all(np.diff(active, axis=0) <= 0)
    assert np.array_equal(alloc.a, active[-1])
    # accepted iterates never lose more than the declared slack
    assert np.all(np.diff(report.hpe_trace) >= -HPE_MONOTONE_SLACK)
    assert report.final_hpe >= report.hpe_trace[-1] - HPE_MONOTONE_SLACK
    for block in report.lambda_trace:
        assert np.all(np.diff(block) >= 0.0)
