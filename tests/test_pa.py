"""Power-allocation solver tests.

Oracles: bisection for the capped-simplex projection, variational
inequalities for both prox operators, and exhaustive grids for small
whole-solver instances.
"""

import numpy as np
import pytest

from oracles import sequential_polish
from xlwpt import pa
from xlwpt.geometry import ArrayGeometry, ChannelSet, UserPosition, build_channel_set
from xlwpt.pa import (
    PAConfig,
    SolverFault,
    build_quadratic,
    dr_solve,
    pa_solve,
    project_feasible,
    prox_consumption,
    prox_neg_harvest,
    quadratic_sup,
)
from xlwpt.power import (
    AllocationState,
    PowerConfig,
    consumed_lanes,
    harvested_lanes,
    uniform_split,
)
from xlwpt.scenario import ScenarioConfig


def make_channels(n_sub=2, n_users=2, seed=0, nx=4, ny=2):
    geom = ArrayGeometry(n_sub=n_sub, nx=nx, ny=ny, d=0.05, wavelength=0.1,
                         element_size=0.025, boresight_exp=2)
    rng = np.random.default_rng(seed)
    users = [UserPosition(x=rng.uniform(-0.3, 0.3), y=rng.uniform(-0.1, 0.1),
                          z=rng.uniform(0.4, 1.0)) for _ in range(n_users)]
    return geom, build_channel_set(geom, users)


def capped_simplex_oracle(v, cap, tol=1e-13):
    """Projection of v onto {x >= 0, sum x <= cap} by bisection on the shift."""
    x0 = np.maximum(v, 0.0)
    if x0.sum() <= cap:
        return x0
    lo, hi = 0.0, np.max(v)
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        s = np.maximum(v - tau, 0.0).sum()
        if s > cap:
            lo = tau
        else:
            hi = tau
        if hi - lo < tol:
            break
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


class TestProjection:
    @pytest.mark.parametrize("seed", range(20))
    def test_row_projection_matches_bisection(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(0.5, 1.0, size=(1, 5))
        cap = rng.uniform(0.2, 2.0)
        got = project_feasible(v, cap, np.array([True]))
        want = capped_simplex_oracle(v[0], cap)
        np.testing.assert_allclose(got[0], want, atol=1e-9)

    def test_feasible_point_unchanged(self):
        v = np.array([[0.1, 0.2], [0.0, 0.3]])
        got = project_feasible(v, 0.5, np.array([True, True]))
        np.testing.assert_allclose(got, v)

    def test_inactive_rows_zeroed(self):
        v = np.full((2, 2), 0.1)
        got = project_feasible(v, 0.5, np.array([True, False]))
        assert np.all(got[1] == 0.0)
        np.testing.assert_allclose(got[0], v[0])

    def test_negative_entries_clamped(self):
        got = project_feasible(np.array([[-0.4, 0.1]]), 1.0, np.array([True]))
        np.testing.assert_allclose(got, [[0.0, 0.1]])

    @pytest.mark.parametrize("seed", range(10))
    def test_output_always_feasible(self, seed):
        rng = np.random.default_rng(100 + seed)
        v = rng.normal(0, 1, size=(4, 3))
        active = rng.integers(0, 2, 4).astype(bool)
        active[0] = True
        got = project_feasible(v, 0.3, active)
        assert np.all(got >= 0)
        assert np.all(got.sum(axis=1) <= 0.3 + 1e-12)
        assert got.sum() <= len(v) * 0.3 * (1 + 1e-12)
        assert np.all(got[~active] == 0.0)


class TestLaneProjection:
    """A lane stack projects exactly as its lanes do one call at a time."""

    P_SUB = 0.5

    def stack(self):
        rng = np.random.default_rng(7)
        v = rng.normal(0.3, 0.6, size=(6, 4, 3))
        v[1] *= 5.0        # several overweight rows
        v[2] += 1.0        # every row overweight
        active = rng.random((6, 4)) < 0.7
        active[:, 0] = True
        return v, active

    def test_stack_matches_per_lane_calls(self):
        v, active = self.stack()
        # the stack covers inactive rows and lanes with several overweight rows
        row = (np.maximum(v, 0.0) * active[..., None]).sum(axis=-1)
        assert (~active).any()
        assert ((row > self.P_SUB).sum(axis=-1) >= 2).any()

        got = project_feasible(v, self.P_SUB, active)
        assert got.shape == v.shape
        for lane in range(len(v)):
            want = project_feasible(v[lane], self.P_SUB, active[lane])
            assert got[lane].tobytes() == want.tobytes()


class TestLaneStack:
    def test_dr_step_lanes_match_one_lane_calls(self):
        """Each lane's allocation and diagnostics, phi included, equal dr_solve's bits."""
        _, ch = make_channels(n_sub=4, n_users=3, seed=3)
        pa_cfg, power_cfg = PAConfig(), PowerConfig()
        masks = ((np.arange(1, 16)[:, None] >> np.arange(4)) & 1).astype(float)
        stack = pa.Lanes.build(ch, masks, power_cfg)
        omega0 = np.full((len(masks), 4, 3), power_cfg.p_sub(ch.n_elements) / 3)
        omega, info = pa.dr_step(stack, np.full(len(masks), 0.01),
                                 pa.initial_gamma(stack.lam_max, pa_cfg), omega0, pa_cfg)
        for i, mask in enumerate(masks):
            want, want_info = dr_solve(ch, mask, 0.01, pa_cfg, power_cfg)
            assert omega[i].tobytes() == want.tobytes()
            assert {k: v[i] for k, v in info.items()} == want_info


def count_projections(monkeypatch):
    """Count ``Lanes.project`` calls in the returned dict's ``"n"``; the
    polish projects once per pass."""
    calls = {"n": 0}
    project = pa.Lanes.project

    def counted(self, omega):
        calls["n"] += 1
        return project(self, omega)

    monkeypatch.setattr(pa.Lanes, "project", counted)
    return calls


class TestPolishBatching:
    """The polish tries several halvings per pass with the one-trial bits."""

    @pytest.mark.parametrize("fractional", [False, True], ids=["masks", "fractional"])
    def test_dr_step_matches_sequential_polish_in_fewer_passes(self, monkeypatch,
                                                               fractional):
        _, ch = make_channels(n_sub=4, n_users=3, seed=5)
        pa_cfg, power_cfg = PAConfig(), PowerConfig()
        masks = ((np.arange(1, 16)[:, None] >> np.arange(4)) & 1).astype(float)
        if fractional:
            masks = masks * np.linspace(0.2, 1.0, 4)
        stack = pa.Lanes.build(ch, masks, power_cfg)
        omega0 = np.full((len(masks), 4, 3), power_cfg.p_sub(ch.n_elements) / 3)
        lam = np.linspace(0.0, 2e-2, len(masks))
        gamma = pa.initial_gamma(stack.lam_max, pa_cfg)
        calls = count_projections(monkeypatch)
        omega, info = pa.dr_step(stack, lam, gamma, omega0, pa_cfg)
        batched = calls["n"]
        monkeypatch.setattr(pa, "_polish", sequential_polish)
        calls["n"] = 0
        want_omega, want_info = pa.dr_step(stack, lam, gamma, omega0, pa_cfg)
        assert omega.tobytes() == want_omega.tobytes()
        assert want_info.keys() == info.keys()
        for key in want_info:
            assert info[key].tobytes() == want_info[key].tobytes(), key
        # the DR loops project alike, so the polish alone takes fewer passes
        assert batched < calls["n"]

    def test_rejection_tail_takes_one_pass_per_batch(self, monkeypatch):
        # from q = 0 the gradient is 0, so every trial is rejected and the
        # step halves 40 times, down to its floor of 1e-12 of the first step
        _, ch = make_channels(n_sub=2, n_users=2, seed=1)
        stack = pa.Lanes.build(ch, np.ones((1, 2)), PowerConfig())
        calls = count_projections(monkeypatch)
        omega, _, trials = pa._polish(stack, np.array([0]), np.array([0.1]),
                                      np.zeros((1, 2, 2)))
        assert trials.tolist() == [40] and not omega.any()
        # one trial first, then full batches of halvings
        k = min(pa._PGA_MAX_BATCH, pa._PGA_BATCH_ENTRIES // 4)
        assert calls["n"] == 1 + -(-39 // k)

    def test_counters_reach_the_trace(self):
        _, ch = make_channels(n_sub=3, n_users=2, seed=7)
        pa_cfg, power_cfg = PAConfig(), PowerConfig()
        a_tilde = np.array([1.0, 0.5, 1.0])
        _, trace = pa_solve(ch, a_tilde, pa_cfg, power_cfg)
        for state in trace.states:
            assert state.pga_seed in (0, 1)
            assert 1 <= state.pga_trials <= pa._PGA_MAX_ITER
        # the first Dinkelbach iteration is dr_solve at the start's ratio
        start = uniform_split(ch, power_cfg)
        lam = (harvested_lanes(ch, start[None], a_tilde[None])
               / consumed_lanes(start[None], a_tilde[None], power_cfg, 2,
                                ch.n_elements))[0]
        _, info = dr_solve(ch, a_tilde, lam, pa_cfg, power_cfg)
        assert isinstance(info["pga_trials"], int) and isinstance(info["pga_seed"], int)
        assert info["pga_trials"] == trace.states[0].pga_trials
        assert info["pga_seed"] == trace.states[0].pga_seed


def oracle_dr_loop(ch, power_cfg):
    """The DR loop as first written, for ``pa._dr_loop``'s signature.

    It calls both public prox operators on every iteration and checks
    every 10 iterations for a stall against the window's best residual.
    """

    def loop(stack, lam, gamma, start, pa_cfg):
        n = len(lam)
        x_out = np.empty_like(start)
        residual_out, gamma_out = np.empty(n), np.empty(n)
        iters_out = np.empty(n, dtype=int)
        run = np.arange(n)
        z = start.copy()
        window_best = np.full(n, np.inf)
        for u in range(pa_cfg.max_dr):
            x = prox_consumption(z, lam, gamma, power_cfg, stack.a_tilde, ch.n_elements)
            y = prox_neg_harvest(2.0 * x - z, gamma, stack.quad)
            f = (y - x).reshape(len(run), 1, -1)
            residual = np.sqrt((f @ f.transpose(0, 2, 1))[:, 0, 0])
            done = residual <= pa_cfg.dr_residual_tol
            if done.any():
                fin = run[done]
                x_out[fin], residual_out[fin] = x[done], residual[done]
                iters_out[fin], gamma_out[fin] = u + 1, gamma[done]
                keep = np.flatnonzero(~done)
                run, x, y, z, residual, window_best, lam, gamma = (
                    a[keep] for a in (run, x, y, z, residual, window_best, lam, gamma))
                if not len(run):
                    break
                stack = stack.take(keep)
            z = z + (y - x)
            window_best = np.minimum(window_best, residual)
            if (u + 1) % 10 == 0:
                stall = residual > 0.5 * window_best
                gamma = np.where(stall, gamma * 0.25, gamma)
                z = np.where(stall[:, None, None], x, z)
                window_best = residual
        x_out[run], residual_out[run] = x, residual
        iters_out[run], gamma_out[run] = pa_cfg.max_dr, gamma
        return x_out, residual_out, iters_out, gamma_out

    return loop


class TestDRLoopOracle:
    """dr_step gives the bits of the DR loop as first written."""

    @pytest.mark.parametrize("gamma_scale", [1.0, 10.0, 0.1],
                             ids=["default", "capped", "small"])
    def test_dr_step_matches_oracle(self, monkeypatch, gamma_scale):
        _, ch = make_channels(n_sub=4, n_users=3, seed=1)
        pa_cfg, power_cfg = PAConfig(), PowerConfig()
        masks = ((np.arange(1, 16)[:, None] >> np.arange(4)) & 1).astype(float)
        stack = pa.Lanes.build(ch, masks, power_cfg)
        rng = np.random.default_rng(0)
        omega0 = rng.uniform(0.0, power_cfg.p_sub(ch.n_elements) / 3, (15, 4, 3))
        lam = np.linspace(0.0, 1e-3, 15)
        gamma = gamma_scale * pa.initial_gamma(stack.lam_max, pa_cfg)

        def step():
            return pa.dr_step(stack, lam, gamma, omega0, pa_cfg)

        omega, info = step()
        monkeypatch.setattr(pa, "_dr_loop", oracle_dr_loop(ch, power_cfg))
        want_omega, want_info = step()
        assert omega.tobytes() == want_omega.tobytes()
        for key in want_info:
            assert info[key].tobytes() == want_info[key].tobytes(), key
        # every stack runs past three prox-step shrinks, and at the default
        # step lanes leave between them
        iters = info["dr_iterations"]
        assert iters.max() > 30
        if gamma_scale == 1.0:
            for lo, hi in ((10, 20), (20, 30), (30, iters.max())):
                assert np.any((iters > lo) & (iters < hi)), (lo, hi)


class TestDeadUsers:
    """A user that no active sub-array reaches is given no power."""

    USER = 1
    # both leave sub-array 0, the only one that reaches USER, switched off
    MASKS = np.array([[0, 1, 1, 1], [0, 0, 1, 1]], dtype=float)

    def channels(self):
        ch = ScenarioConfig(n_sub=4).channel_set()
        g = ch.g.copy()
        g[1:, self.USER, :] = 0.0
        norms = np.linalg.norm(g, axis=2)
        kappa = np.zeros_like(norms)
        kappa[norms > 0] = 1.0 / norms[norms > 0]
        return ChannelSet(g=g, norms=norms, kappa=kappa,
                          gram=np.einsum("ski,smi->skm", g, np.conj(g)))

    def warm_start(self, ch, power_cfg):
        omega0 = np.full((ch.n_sub, ch.n_users), 0.1 * power_cfg.p_sub(ch.n_elements))
        omega0[:, self.USER] = 0.7 * power_cfg.p_sub(ch.n_elements)
        return omega0

    def test_unreached_column_is_zero(self):
        ch, pa_cfg, power_cfg = self.channels(), PAConfig(), PowerConfig()
        warm = self.warm_start(ch, power_cfg)
        for mask in self.MASKS:
            for omega0 in (None, warm):
                omega, _ = pa_solve(ch, mask, pa_cfg, power_cfg, omega0)
                assert np.all(omega[:, self.USER] == 0.0)

    def test_stack_matches_one_lane_calls(self):
        ch, pa_cfg, power_cfg = self.channels(), PAConfig(), PowerConfig()
        warm = self.warm_start(ch, power_cfg)
        for omega0 in (None, np.stack([warm] * len(self.MASKS))):
            omega, log = pa.solve_lanes(ch, self.MASKS, pa_cfg, power_cfg, omega0)
            for i, mask in enumerate(self.MASKS):
                want, trace = pa_solve(ch, mask, pa_cfg, power_cfg,
                                       None if omega0 is None else warm)
                assert omega[i].tobytes() == want.tobytes()
                assert log.trace(i).lambda_trace == trace.lambda_trace


class TestSolverChecks:
    def test_ratio_decrease_is_a_fault(self):
        _, ch = make_channels(n_sub=2, n_users=2, seed=1)
        with pytest.raises(SolverFault, match="decreased"):
            pa_solve(ch, np.ones(2), PAConfig(lambda0=1e3), PowerConfig())

    def test_non_finite_prox_is_a_fault(self):
        _, ch = make_channels(n_sub=2, n_users=2, seed=1)
        with pytest.raises(SolverFault, match="non-finite"):
            dr_solve(ch, np.ones(2), np.nan, PAConfig(), PowerConfig())


class TestQuadraticForm:
    def test_harvest_equals_quadratic(self):
        # I(omega) written as the per-user quadratic form in q = sqrt(omega)
        _, ch = make_channels(n_sub=3, n_users=2, seed=4)
        rng = np.random.default_rng(4)
        a_tilde = rng.uniform(0.2, 1.0, 3)
        omega = rng.uniform(0, 0.2, size=(3, 2))
        quad = build_quadratic(ch, a_tilde)
        q = np.sqrt(omega)
        val = float(np.einsum("sm,mst,tm->", q, quad, q))
        assert val == pytest.approx(harvested_lanes(ch, omega, a_tilde), rel=1e-10)

    def test_matrices_symmetric_psd(self):
        _, ch = make_channels(n_sub=3, n_users=2, seed=5)
        quad = build_quadratic(ch, np.ones(3))
        for a in quad:
            np.testing.assert_allclose(a, a.T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(a)) > -1e-12

    def test_sup_matches_rayleigh_oracle(self):
        _, ch = make_channels(n_sub=4, n_users=2, seed=6)
        quad = build_quadratic(ch, np.ones(4))
        sup = quadratic_sup(quad[None])[0]
        rng = np.random.default_rng(6)
        best = 0.0
        for a in quad:
            # power iteration as an independent largest-eigenvalue oracle
            x = rng.normal(size=4)
            for _ in range(500):
                x = a @ x
                x /= np.linalg.norm(x)
            best = max(best, float(x @ a @ x))
        assert sup == pytest.approx(best, rel=1e-8)

    def test_zero_activation_kills_rows(self):
        _, ch = make_channels(n_sub=2, n_users=1, seed=1)
        quad = build_quadratic(ch, np.array([1.0, 0.0]))
        assert np.all(quad[:, 1, :] == 0.0)
        assert np.all(quad[:, :, 1] == 0.0)


class TestProxConsumption:
    @pytest.mark.parametrize("seed", range(10))
    def test_variational_inequality(self, seed):
        # x = prox iff (w - x) . (x - (z - gamma lam c)) >= 0 for all feasible w
        rng = np.random.default_rng(seed)
        cfg = PowerConfig()
        n_elements = 8
        a_tilde = np.array([1.0, 0.5])
        z = rng.normal(0.2, 0.3, size=(2, 2))
        lam, gamma = 0.004, 3.0
        x = prox_consumption(z, lam, gamma, cfg, a_tilde, n_elements)
        p_sub = cfg.p_sub(n_elements)
        target = z - gamma * lam * (a_tilde / cfg.varsigma)[:, None]
        for _ in range(60):
            w = rng.uniform(0, p_sub / 2, size=(2, 2))
            w = project_feasible(w, p_sub, a_tilde > 0)
            assert np.sum((w - x) * (x - target)) >= -1e-9

    def test_grid_refinement_oracle(self):
        # one active row, two users: sweep the objective on refined grids
        cfg = PowerConfig()
        n_elements = 4          # p_sub = 0.2 W
        a_tilde = np.array([1.0])
        z = np.array([[0.18, 0.12]])
        lam, gamma = 0.02, 2.5
        x = prox_consumption(z, lam, gamma, cfg, a_tilde, n_elements)

        def objective(w):
            pc_var = w.sum() / cfg.varsigma
            return gamma * lam * pc_var + 0.5 * np.sum((w - z) ** 2)

        lo = np.zeros(2)
        hi = np.full(2, cfg.p_sub(n_elements))
        best = None
        for _ in range(6):
            g1 = np.linspace(lo[0], hi[0], 41)
            g2 = np.linspace(lo[1], hi[1], 41)
            vals = []
            for w1 in g1:
                for w2 in g2:
                    if w1 + w2 <= cfg.p_sub(n_elements) + 1e-12:
                        vals.append((objective(np.array([w1, w2])), w1, w2))
            best = min(vals)
            span1 = (g1[1] - g1[0]) * 2
            span2 = (g2[1] - g2[0]) * 2
            lo = np.array([max(0, best[1] - span1), max(0, best[2] - span2)])
            hi = np.array([best[1] + span1, best[2] + span2])
        assert objective(x[0]) <= best[0] + 1e-10
        np.testing.assert_allclose(x[0], [best[1], best[2]], atol=1e-6)


class TestProxNegHarvest:
    def test_stationarity_in_q_space(self):
        # the returned q zeroes the gradient of -gamma q^T A q + ||q - q0||^2/2
        _, ch = make_channels(n_sub=2, n_users=2, seed=8)
        a_tilde = np.ones(2)
        quad = build_quadratic(ch, a_tilde)
        gamma = 0.2 / quadratic_sup(quad[None])[0]
        v = np.full((2, 2), 0.05)
        out = prox_neg_harvest(v, gamma, quad)
        q = np.sqrt(out)
        q0 = np.sqrt(v)
        grad = q - q0 - 2.0 * gamma * np.einsum("mst,tm->sm", quad, q)
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)

    def test_grid_refinement_oracle_single_entry(self):
        # scalar case: minimize -gamma A q^2 + (q - q0)^2 / 2 over q
        _, ch = make_channels(n_sub=1, n_users=1, seed=9)
        a_tilde = np.ones(1)
        quad = build_quadratic(ch, a_tilde)
        A = float(quad[0, 0, 0])
        gamma = 0.3 / A
        v = np.array([[0.09]])
        out = prox_neg_harvest(v, gamma, quad)
        q0 = 0.3

        def obj(q):
            return -gamma * A * q**2 + 0.5 * (q - q0) ** 2

        lo, hi = 0.0, 5.0 * q0
        for _ in range(8):
            grid = np.linspace(lo, hi, 201)
            i = int(np.argmin([obj(q) for q in grid]))
            step = grid[1] - grid[0]
            lo, hi = max(0.0, grid[i] - 2 * step), grid[i] + 2 * step
        q_star = 0.5 * (lo + hi)
        assert np.sqrt(out[0, 0]) == pytest.approx(q_star, abs=1e-6)

    def test_expansive_step_autoshrinks(self):
        # the solver caps a step with 2 gamma lam_max >= 1 at 0.45 / lam_max,
        # so the harvest prox neither blows up nor goes negative; gamma=10
        # asks for a first step of 10 / lam_max
        _, ch = make_channels(n_sub=2, n_users=1, seed=10)
        a_tilde = np.ones(2)
        lam_max = quadratic_sup(build_quadratic(ch, a_tilde[None]))[0]
        out, info = dr_solve(ch, a_tilde, 0.01, PAConfig(gamma=10.0), PowerConfig(),
                             omega0=np.full((2, 1), 0.1))
        assert info["gamma"] <= 0.45 / lam_max
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0)


class TestDRSolve:
    def test_single_pair_closed_form(self):
        # S = M = 1: phi is linear in omega, optimum sits at a budget corner
        _, ch = make_channels(n_sub=1, n_users=1, seed=11)
        cfg = PowerConfig()
        pa_cfg = PAConfig()
        A = float(build_quadratic(ch, np.ones(1))[0, 0, 0])
        p_sub = cfg.p_sub(ch.n_elements)
        for lam in (0.0, A * cfg.varsigma * 0.5, A * cfg.varsigma * 2.0):
            omega, info = dr_solve(ch, np.ones(1), lam, pa_cfg, cfg)
            want = p_sub if A - lam / cfg.varsigma > 0 else 0.0
            assert omega[0, 0] == pytest.approx(want, abs=1e-6)
            assert info["dr_residual"] <= pa_cfg.dr_residual_tol

    @pytest.mark.parametrize("seed", range(4))
    def test_two_user_grid_oracle(self, seed):
        # S = 1, M = 2: exhaustive refined grid over the triangle
        _, ch = make_channels(n_sub=1, n_users=2, seed=20 + seed)
        cfg = PowerConfig()
        pa_cfg = PAConfig()
        quad = build_quadratic(ch, np.ones(1))
        p_sub = cfg.p_sub(ch.n_elements)
        lam = 1e-3 * (1 + seed)

        def phi(w):
            q = np.sqrt(w)
            return (float(np.einsum("sm,mst,tm->", q, quad, q))
                    - lam * w.sum() / cfg.varsigma)

        omega, info = dr_solve(ch, np.ones(1), lam, pa_cfg, cfg)
        lo = np.zeros(2)
        hi = np.full(2, p_sub)
        best = (-np.inf, None)
        for _ in range(7):
            g1 = np.linspace(lo[0], hi[0], 61)
            g2 = np.linspace(lo[1], hi[1], 61)
            for w1 in g1:
                for w2 in g2:
                    if w1 + w2 <= p_sub + 1e-12:
                        val = phi(np.array([[w1, w2]]))
                        if val > best[0]:
                            best = (val, (w1, w2))
            s1, s2 = (g1[1] - g1[0]) * 2, (g2[1] - g2[0]) * 2
            lo = np.array([max(0, best[1][0] - s1), max(0, best[1][1] - s2)])
            hi = np.array([min(p_sub, best[1][0] + s1), min(p_sub, best[1][1] + s2)])
        assert phi(omega) >= best[0] - 1e-8 * max(1.0, abs(best[0]))

    def test_never_below_start(self):
        _, ch = make_channels(n_sub=3, n_users=2, seed=13)
        cfg = PowerConfig()
        pa_cfg = PAConfig()
        a_tilde = np.array([1.0, 0.4, 0.7])
        start = np.full((3, 2), cfg.p_sub(ch.n_elements) / 2)
        lam = 0.005
        omega, info = dr_solve(ch, a_tilde, lam, pa_cfg, cfg, omega0=start)
        x0 = project_feasible(start, cfg.p_sub(ch.n_elements), a_tilde > 0)
        phi_start = (harvested_lanes(ch, x0, a_tilde)
                     - lam * consumed_lanes(x0, a_tilde, cfg, ch.n_users, ch.n_elements))
        assert info["phi"] >= phi_start - 1e-12

    def test_output_feasible(self):
        _, ch = make_channels(n_sub=3, n_users=2, seed=14)
        cfg = PowerConfig()
        omega, _ = dr_solve(ch, np.array([1.0, 0.0, 0.8]), 0.002, PAConfig(), cfg)
        p_sub = cfg.p_sub(ch.n_elements)
        assert np.all(omega >= -1e-9)
        assert np.all(omega.sum(axis=1) <= p_sub + 1e-9)
        assert np.all(omega[1] == 0.0)


class TestPASolve:
    def test_lambda_trace_monotone_and_converged(self):
        _, ch = make_channels(n_sub=3, n_users=2, seed=15)
        cfg = PowerConfig()
        omega, trace = pa_solve(ch, np.ones(3), PAConfig(), cfg)
        lams = trace.lambda_trace
        assert trace.converged
        assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
        assert trace.states[-1].residual <= 1e-7
        assert all(s.dr_residual <= 1e-6 for s in trace.states)

    def test_matches_hpe_grid_oracle_single_pair(self):
        # S = M = 1: HPE maximum located by brute scalar scan
        _, ch = make_channels(n_sub=1, n_users=1, seed=16)
        cfg = PowerConfig()
        omega, trace = pa_solve(ch, np.ones(1), PAConfig(), cfg)
        A = float(build_quadratic(ch, np.ones(1))[0, 0, 0])
        p_sub = cfg.p_sub(ch.n_elements)
        fixed = 2 * cfg.p_syn + ch.n_elements * cfg.p_ct + cfg.p_cr
        grid = np.linspace(0, p_sub, 10001)
        ratios = A * grid / (grid / cfg.varsigma + fixed)
        best = float(np.max(ratios))
        got = trace.lambda_trace[-1]
        assert got >= best * (1 - 1e-6)

    def test_matches_hpe_grid_oracle_two_modules(self):
        # S = 2, M = 1 at fine grid resolution
        _, ch = make_channels(n_sub=2, n_users=1, seed=17)
        cfg = PowerConfig()
        omega, trace = pa_solve(ch, np.ones(2), PAConfig(), cfg)
        quad = build_quadratic(ch, np.ones(2))
        p_sub = cfg.p_sub(ch.n_elements)
        fixed = 2 * (2 * cfg.p_syn + ch.n_elements * cfg.p_ct) + cfg.p_cr
        g = np.linspace(0, p_sub, 301)
        best = 0.0
        for w1 in g:
            q = np.sqrt(np.stack([np.full_like(g, w1), g]))
            num = np.einsum("sm,st,tm->m", q, quad[0], q)
            den = (w1 + g) / cfg.varsigma + fixed
            best = max(best, float(np.max(num / den)))
        assert trace.lambda_trace[-1] >= best * (1 - 1e-4)

    def test_warm_start_never_hurts(self):
        _, ch = make_channels(n_sub=3, n_users=2, seed=18)
        cfg = PowerConfig()
        omega_cold, trace_cold = pa_solve(ch, np.ones(3), PAConfig(), cfg)
        omega_warm, trace_warm = pa_solve(ch, np.ones(3), PAConfig(), cfg,
                                          omega0=omega_cold)
        assert trace_warm.lambda_trace[-1] >= trace_cold.lambda_trace[-1] - 1e-10

    def test_all_inactive_rejected(self):
        _, ch = make_channels(seed=19)
        with pytest.raises(ValueError):
            pa_solve(ch, np.zeros(2), PAConfig(), PowerConfig())

    def test_output_feasible_and_matches_hpe(self):
        _, ch = make_channels(n_sub=3, n_users=2, seed=21)
        cfg = PowerConfig()
        a_tilde = np.array([1.0, 0.5, 0.25])
        omega, trace = pa_solve(ch, a_tilde, PAConfig(), cfg)
        alloc = AllocationState(omega=omega, a=(a_tilde > 0).astype(int),
                                a_tilde=a_tilde)
        alloc.validate(cfg, ch.n_elements)
        value = (harvested_lanes(ch, omega, a_tilde)
                 / consumed_lanes(omega, a_tilde, cfg, ch.n_users, ch.n_elements))
        assert trace.lambda_trace[-1] == pytest.approx(value, rel=1e-9)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PAConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            PAConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            PAConfig(max_outer=0)
