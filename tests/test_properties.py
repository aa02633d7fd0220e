"""Property-based invariants of the feasibility projection, both proxes,
the harvest lane kernel, the batched polish, the joint
activation/allocation loop and PA-ES's subset bound, the bytes of the
lane core's column and matmul kernels against the row reductions and
einsum they replace, and each method's answer under a one-ulp change of
the harvest matrices."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from oracles import einsum_harvest_grad, sequential_polish, sort_projection  # noqa: E402
from test_power import harvested_power_oracle, small_channel_set  # noqa: E402
from xlwpt import pa  # noqa: E402
from xlwpt.baselines import hpe_bound  # noqa: E402
from xlwpt.bench import run_methods  # noqa: E402
from xlwpt.geometry import ArrayGeometry, UserPosition, build_channel_set  # noqa: E402
from xlwpt.pa import (  # noqa: E402
    PAConfig,
    harvest_system,
    pa_solve,
    project_feasible,
    prox_consumption,
    prox_neg_harvest,
)
from xlwpt.power import (  # noqa: E402
    AllocationState,
    PowerConfig,
    consumed_lanes,
    harvested_lanes,
    hpe,
    uniform_split,
)
from xlwpt.sa import HPE_MONOTONE_SLACK, SAConfig, joint_solve  # noqa: E402
from xlwpt.scenario import ClusterSpec, ScenarioConfig, scenario_from_dict  # noqa: E402


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
    got = project_feasible(v, p_sub, active[..., None])

    assert np.all(got >= 0.0)
    assert np.all(got[~active] == 0.0)
    assert np.all(got.sum(axis=-1) <= p_sub * (1 + 1e-12))
    # no total budget is passed: the row caps imply P_t = S * P_s
    assert np.all(got.sum(axis=(-2, -1)) <= v.shape[-2] * p_sub * (1 + 1e-12))

    again = project_feasible(got, p_sub, active[..., None])
    np.testing.assert_allclose(again, got, rtol=1e-12, atol=1e-15)

    # one element per sub-array, so P_s = P_et
    power_cfg = PowerConfig(p_et=p_sub)
    for lane in range(len(v)):
        AllocationState(got[lane], a=active[lane],
                        a_tilde=active[lane]).validate(power_cfg, 1)
        want = project_feasible(v[lane], p_sub, active[lane, :, None])
        assert got[lane].tobytes() == want.tobytes()


# kernel shapes: one user (the einsum path), 8 users and more (the row
# ``sum`` path) and everything between, drawn more often at the edges
KERNEL_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 8) | st.just(8),
                          st.integers(1, 9) | st.sampled_from([1, 8, 9]))
# inf and NaN rows, and rows where 1e20 swamps P_s: in both no k has u_k > tau_k
SPECIAL = np.array([np.inf, np.nan, -np.inf, 1e20])


@settings(max_examples=150, deadline=None)
@given(shape=KERNEL_SHAPES, seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["spread", "ties", "special"]),
       full_mask=st.booleans(), at_budget=st.booleans())
# an 8-user row whose pairwise ``sum`` sits at P_s, under its column sum
@example(shape=(1, 1, 8), seed=48, kind="spread", full_mask=False, at_budget=True)
def test_projection_keeps_the_bits_of_the_row_reductions(shape, seed, kind, full_mask,
                                                        at_budget):
    rng = np.random.default_rng(seed)
    p_sub = float(rng.uniform(0.05, 2.0))
    if kind == "ties":
        # exact ties, zeros of both signs and entries whose rows meet P_s
        v = rng.choice([0.0, -0.0, -1.0, p_sub / 4, p_sub / 2, p_sub], shape)
    else:
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
        if kind == "special":
            v[rng.random(shape) < 0.15] = rng.choice(SPECIAL)
    if at_budget:
        # P_s is exactly one row's sum, as NumPy adds it
        rows = np.maximum(v, 0.0).reshape(-1, shape[-1])
        row = rows[rng.integers(len(rows))]
        if 0.0 < row.sum() < np.inf:
            p_sub = float(row.sum())
    active = rng.random(shape if full_mask else shape[:-1]) < 0.8
    if not full_mask:
        active = active[..., None]  # a mask of sub-array rows
    with np.errstate(invalid="ignore"):  # inf - inf in inf rows, as before
        got, want = project_feasible(v, p_sub, active), sort_projection(v, p_sub, active)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(shape=KERNEL_SHAPES, seed=st.integers(0, 2**32 - 1))
# one user: a stacked matmul would call BLAS gemv, which sums in another order
@example(shape=(2, 8, 1), seed=0)
def test_polish_gradient_keeps_the_einsum_bits(shape, seed):
    rng = np.random.default_rng(seed)
    n_lanes, n_sub, n_users = shape
    # the (B, M, S, S) view of a C-contiguous (B, S, S, M) array, as in Lanes
    quad = np.moveaxis(rng.standard_normal((n_lanes, n_sub, n_sub, n_users))
                       * 10.0 ** rng.integers(-3, 3, (n_lanes, n_sub, n_sub, n_users)),
                       -1, 1)
    q = np.abs(rng.standard_normal(shape))
    q[rng.random(shape) < 0.2] = 0.0
    got, want = pa._harvest_grad(quad, q), einsum_harvest_grad(quad, q)
    # the layout decides the order of later sums over the stack
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


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
    q = np.sqrt(prox_neg_harvest(v, harvest_system(gamma, quad)))
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


def lanes_on(a_tilde, n_users, n_elements, cfg):
    """The solver's lane stack for ``a_tilde`` on sub-arrays of n_elements x 1
    elements, with users in front of the array."""
    geom = ArrayGeometry(n_sub=a_tilde.shape[-1], nx=n_elements, ny=1, d=0.05,
                         wavelength=0.1, element_size=0.025, boresight_exp=2)
    users = [UserPosition(x=0.1 * m, y=0.0, z=0.6) for m in range(n_users)]
    return pa.Lanes.build(build_channel_set(geom, users), a_tilde, cfg)


@settings(max_examples=80, deadline=None)
@given(consumption_stacks())
def test_consumption_prox_meets_its_optimality_condition(stack):
    # p = prox(z) iff <z - gamma lam slope - p, omega - p> <= 0 for every
    # omega in the lane's feasible set: p is the projection of the shifted
    # point. That set also drops users whose a~ * norm underflows to 0 on
    # every active row, so the drawn points are masked with it.
    z, lam, gamma, a_tilde, n_elements, omega = stack
    cfg = PowerConfig()
    lanes = lanes_on(a_tilde, z.shape[-1], n_elements, cfg)
    omega = omega * lanes.allowed
    p = prox_consumption(lanes, z, gamma * lam)
    shifted = z - (gamma * lam)[:, None, None] * (a_tilde / cfg.varsigma)[..., None]
    assert np.all(p >= 0.0) and np.all(p[a_tilde == 0] == 0.0)
    assert np.all(p[~lanes.allowed] == 0.0)
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
    p = project_feasible(v, p_sub, active[..., None])
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


# circuit constants of zero (no circuit power at all) drawn often
CIRCUIT = st.just(0.0) | st.floats(0.0, 0.2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), n_sub=st.integers(1, 6), n_users=st.integers(1, 3),
       model=st.sampled_from(["center", "per_element"]), data=st.data())
def test_no_feasible_allocation_exceeds_the_subset_bound(seed, n_sub, n_users, model,
                                                         data):
    # PA-ES skips subset A when UB_A (1 + 1e-9) is below its incumbent, so
    # hpe() of every feasible omega on A must stay within that margin
    _, ch = small_channel_set(n_sub=n_sub, n_users=n_users, seed=seed,
                              amplitude_model=model)
    cfg = PowerConfig(varsigma=data.draw(st.floats(0.01, 1.0)),
                      p_et=data.draw(st.floats(1e-3, 1.0)), p_syn=data.draw(CIRCUIT),
                      p_ct=data.draw(CIRCUIT), p_cr=data.draw(CIRCUIT))
    mask = data.draw(arrays(np.bool_, (n_sub,)).filter(np.any))
    p_sub = cfg.p_sub(ch.n_elements)
    # entries up to 2 P_s: the projection puts many rows on their budget
    raw = data.draw(arrays(np.float64, (n_sub, n_users),
                           elements=st.floats(0.0, 2.0 * p_sub)))
    omega = project_feasible(raw, p_sub, mask[:, None])
    alloc = AllocationState(omega, mask.astype(int))
    alloc.validate(cfg, ch.n_elements)
    bound = hpe_bound(pa.Lanes.build(ch, mask[None].astype(float), cfg), cfg.varsigma)
    consumed = consumed_lanes(omega, mask.astype(float), cfg, n_users, ch.n_elements)
    if consumed > 0:
        assert hpe(ch, alloc, cfg) <= bound[0] * (1.0 + 1e-9)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("power_cfg", [PowerConfig(),
                                       PowerConfig(p_syn=0.0, p_ct=0.0, p_cr=0.0)],
                         ids=["default", "no_circuit"])
def test_every_subset_solve_stays_below_its_bound(seed, power_cfg):
    n_sub = 5
    _, ch = small_channel_set(n_sub=n_sub, n_users=2, seed=seed)
    masks = ((np.arange(1, 2**n_sub)[:, None] >> np.arange(n_sub)) & 1).astype(float)
    bound = hpe_bound(pa.Lanes.build(ch, masks, power_cfg), power_cfg.varsigma)
    for mask, ub in zip(masks, bound):
        omega, _ = pa_solve(ch, mask, PAConfig(), power_cfg)
        # a full budget on one top eigenvector attains the bound, so the
        # value can sit an ulp above it: PA-ES's margin covers that
        value = hpe(ch, AllocationState(omega, mask.astype(int)), power_cfg)
        assert value <= ub * (1.0 + 1e-9)


def roundoff_build(build, perturbation):
    """``Lanes.build`` with every harvest matrix moved by about one ulp.

    ``"scale"`` multiplies every entry by 1 + 2**-52; ``"pattern"`` moves
    each entry by -1, 0 or +1 ulp-sized steps in a seeded pattern that keeps
    every matrix symmetric. The product is taken in place, so the matrices
    keep their memory order, and lam_max follows them.
    """

    def perturbed(ch, a_tilde, power_cfg):
        lanes = build(ch, a_tilde, power_cfg)
        if perturbation == "scale":
            lanes.quad *= 1.0 + 2.0**-52
        else:
            sign = np.random.default_rng(0).integers(-1, 2, size=lanes.quad.shape)
            sign = np.triu(sign) + np.triu(sign, 1).swapaxes(-1, -2)
            lanes.quad *= 1.0 + sign * 2.0**-52
        return replace(lanes, lam_max=pa.quadratic_sup(lanes.quad))

    return perturbed


ROUNDOFF_PA_SA_REASON = (
    "PA-SA's final binary re-solve can stop after one Dinkelbach iteration "
    "from the last fractional iterate, so it carries that iterate's "
    "round-off: its HPE moves by ~3e-10 at S=16, V=2, seed 8 (ROADMAP item 13)")


@pytest.mark.parametrize("n_sub, n_vr, seed, methods", [
    (6, 2, 0, ("EA-FA", "PA-FA", "PA-SA", "PA-ES")),
    (8, 2, 0, ("EA-FA", "PA-FA", "PA-SA", "PA-ES")),
    (16, 2, 8, ("EA-FA", "PA-FA")),
    pytest.param(16, 2, 8, ("PA-SA",),
                 marks=pytest.mark.xfail(strict=True, reason=ROUNDOFF_PA_SA_REASON)),
])
def test_roundoff_in_harvest_matrices_keeps_every_answer(n_sub, n_vr, seed, methods):
    # S=16, V=2, seed 8 is scenario 35 of the sa_fleet workload at seed 0
    cfg = scenario_from_dict({"geometry": {"S": n_sub},
                              "users": {"clusters": {"V": n_vr}},
                              "solver": {"seed": seed}, "methods": list(methods)})
    want, faults = run_methods(cfg)
    assert faults == {}
    assert sorted(r.method for r in want) == sorted(methods)
    for perturbation in ("scale", "pattern"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pa.Lanes, "build", roundoff_build(pa.Lanes.build, perturbation))
            got, faults = run_methods(cfg)
        assert faults == {}
        assert [r.method for r in got] == [r.method for r in want]
        for a, b in zip(got, want):
            assert a.allocation.a.tolist() == b.allocation.a.tolist()
            assert abs(a.hpe - b.hpe) <= 1e-12 * b.hpe, (perturbation, a.method)
