"""Sub-array activation loop tests."""

import json
from dataclasses import replace

import numpy as np
import pytest

from xlwpt import sa
from xlwpt.bench import run_methods
from xlwpt.geometry import ArrayGeometry, UserPosition, build_channel_set
from xlwpt.pa import PAConfig, pa_solve, project_feasible
from xlwpt.power import AllocationState, PowerConfig, hpe
from xlwpt.sa import (
    SAConfig,
    activation_update,
    joint_solve,
    parameterize,
    surrogate,
)
from xlwpt.scenario import ScenarioConfig


def clustered_channels(n_sub=4, seed=0):
    """Users bunched near one end of the array, so some modules barely help."""
    geom = ArrayGeometry(n_sub=n_sub, nx=8, ny=4, d=0.05, wavelength=0.1,
                         element_size=0.025, boresight_exp=2)
    rng = np.random.default_rng(seed)
    width = n_sub * 8 * 0.05
    users = [UserPosition(x=width / 2 + rng.uniform(-0.05, 0.05),
                          y=rng.uniform(-0.05, 0.05),
                          z=rng.uniform(0.4, 0.6)) for _ in range(2)]
    return geom, build_channel_set(geom, users)


class TestSurrogate:
    def test_shares_sum_to_one(self):
        g = surrogate(np.array([[0.1, 0.3], [0.2, 0.2], [0.0, 0.2]]))
        assert g.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(g, [0.4, 0.4, 0.2])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            surrogate(np.zeros((2, 2)))


class TestActivationUpdate:
    def test_keeps_above_mean(self):
        np.testing.assert_array_equal(
            activation_update(np.array([0.5, 0.3, 0.1, 0.1])), [1, 1, 0, 0])

    def test_uniform_shares_keep_everything(self):
        for n in (2, 3, 6, 7, 12):
            g = np.full(n, 1.0 / n)
            assert activation_update(g).sum() == n

    def test_exact_tie_at_mean_stays_active(self):
        np.testing.assert_array_equal(
            activation_update(np.array([0.25, 0.25, 0.4, 0.1])), [1, 1, 1, 0])

    def test_never_all_off(self):
        a = activation_update(np.array([1.0, 0.0, 0.0]))
        assert a.sum() >= 1


class TestParameterize:
    def test_elementwise_product(self):
        np.testing.assert_allclose(
            parameterize(np.array([1, 0, 1]), np.array([0.5, 0.3, 0.2])),
            [0.5, 0.0, 0.2])


class TestJointSolve:
    def test_monotone_trace_and_convergence(self):
        geom, ch = clustered_channels()
        alloc, report = joint_solve(ch, PAConfig(), SAConfig(), PowerConfig())
        tr = report.hpe_trace
        assert len(tr) >= 1
        assert all(b >= a - 1e-9 for a, b in zip(tr, tr[1:]))
        assert report.converged
        assert report.final_hpe >= tr[-1] - 1e-9
        assert report.outer_iterations <= SAConfig().max_iters

    def test_prunes_far_modules(self):
        # users sit beside the last module: the far end should be switched off
        geom, ch = clustered_channels(n_sub=4, seed=1)
        alloc, report = joint_solve(ch, PAConfig(), SAConfig(), PowerConfig())
        assert alloc.a.sum() < 4
        assert alloc.a[0] == 0  # farthest module

    def test_pruned_modules_never_return(self):
        geom, ch = clustered_channels(n_sub=5, seed=2)
        alloc, report = joint_solve(ch, PAConfig(), SAConfig(), PowerConfig())
        prev = np.ones(5, dtype=int)
        for a in report.active_trace:
            assert np.all(a <= prev)
            prev = a

    def test_beats_full_activation(self):
        geom, ch = clustered_channels(n_sub=4, seed=3)
        cfg = PowerConfig()
        alloc, report = joint_solve(ch, PAConfig(), SAConfig(), cfg)
        from xlwpt.pa import pa_solve
        omega_full, _ = pa_solve(ch, np.ones(4), PAConfig(), cfg)
        full = hpe(ch, AllocationState(omega_full, np.ones(4, int), np.ones(4)),
                   cfg)
        assert report.final_hpe >= full - 1e-9

    def test_final_allocation_feasible_and_binary(self):
        geom, ch = clustered_channels(seed=4)
        cfg = PowerConfig()
        alloc, report = joint_solve(ch, PAConfig(), SAConfig(), cfg)
        alloc.validate(cfg, ch.n_elements)
        assert set(np.unique(alloc.a)) <= {0, 1}
        np.testing.assert_allclose(alloc.a_tilde, alloc.a.astype(float))
        assert report.final_hpe == pytest.approx(hpe(ch, alloc, cfg), rel=1e-9)

    def test_cold_start_also_works(self):
        geom, ch = clustered_channels(seed=5)
        cfg = PowerConfig()
        _, warm = joint_solve(ch, PAConfig(), SAConfig(warm_start=True), cfg)
        _, cold = joint_solve(ch, PAConfig(), SAConfig(warm_start=False), cfg)
        # both must land in the same ballpark; warm starts are a speed feature
        assert cold.final_hpe == pytest.approx(warm.final_hpe, rel=0.05)

    def test_dr_residuals_recorded(self):
        geom, ch = clustered_channels(seed=6)
        _, report = joint_solve(ch, PAConfig(), SAConfig(), PowerConfig())
        flat = [r for block in report.dr_residuals for r in block]
        assert flat
        assert all(r <= 1e-6 for r in flat)

    def test_every_pa_solve_keeps_its_lambda_trace(self):
        geom, ch = clustered_channels(seed=6)
        _, report = joint_solve(ch, PAConfig(), SAConfig(), PowerConfig())
        # one block per accepted PA solve, as for the DR residuals
        assert len(report.lambda_trace) == len(report.dr_residuals) > 1
        for lams, residuals in zip(report.lambda_trace, report.dr_residuals):
            assert len(lams) == len(residuals) > 0
            assert all(b >= a for a, b in zip(lams, lams[1:]))

    def test_all_zero_hpe_trace_converges(self):
        # a boresight exponent of 1e6 underflows every channel to 0, so every
        # HPE is 0 and no relative change can fall below delta
        cfg = ScenarioConfig(n_sub=3, boresight_exp=1e6)
        ch = cfg.channel_set()
        assert not np.any(ch.gram)
        _, report = joint_solve(ch, cfg.pa, cfg.sa, cfg.power)
        assert report.converged
        assert report.hpe_trace == [0.0, 0.0]
        assert report.outer_iterations == 2
        # two outer solves and the binary re-solve
        assert len(report.lambda_trace) == 3

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SAConfig(delta=0.0)
        with pytest.raises(ValueError):
            SAConfig(max_iters=0)


class TestWarmStartHandOff:
    def test_raw_start_solves_like_its_projection(self, monkeypatch):
        # joint_solve hands its last allocation to pa_solve as it is; the
        # lane core's own projection must make that the same solve as one
        # from the start projected onto a~'s rows. Only real hand-offs are
        # checked: project_feasible is not bitwise idempotent on arbitrary
        # input, so drawn starts would test something else.
        base = ScenarioConfig()
        pairs = []

        def spy(ch, a_tilde, pa_cfg, power_cfg, omega0=None):
            p_sub = power_cfg.p_sub(ch.n_elements)
            if omega0 is not None and np.any(omega0[a_tilde > 0].sum(axis=1) > p_sub):
                pairs.append((ch, np.array(a_tilde), np.array(omega0)))
            return pa_solve(ch, a_tilde, pa_cfg, power_cfg, omega0=omega0)

        monkeypatch.setattr(sa, "pa_solve", spy)
        for seed in (0, 1):
            for n_sub in (10, 16):
                for n_vr in (1, 2):
                    cfg = replace(base, n_sub=n_sub, seed=seed,
                                  clusters=replace(base.clusters, n_vr=n_vr))
                    joint_solve(cfg.channel_set(), cfg.pa_config(), cfg.sa_config(),
                                cfg.power)
        assert pairs
        pa_cfg, power_cfg = base.pa_config(), base.power
        for ch, a_tilde, start in pairs:
            projected = project_feasible(start, power_cfg.p_sub(ch.n_elements),
                                         (a_tilde > 0)[:, None])
            got = pa_solve(ch, a_tilde, pa_cfg, power_cfg, omega0=start)
            want = pa_solve(ch, a_tilde, pa_cfg, power_cfg, omega0=projected)
            assert got[0].tobytes() == want[0].tobytes()
            assert ([replace(s, wall_ns=0) for s in got[1].states]
                    == [replace(s, wall_ns=0) for s in want[1].states])


class TestExports:
    def test_report_json_round_trip(self, tmp_path):
        cfg = ScenarioConfig(n_sub=4, nx=8, ny=4, seed=7, methods=("PA-SA",))
        (result,), _ = run_methods(cfg, outdir=str(tmp_path))
        alloc, report = result.allocation, result.extra["report"]
        data = json.loads((tmp_path / "allocation_PA-SA.json").read_text())
        assert data["final_hpe"] == pytest.approx(report.final_hpe)
        assert data["allocation"]["a"] == [int(v) for v in alloc.a]
        assert len(data["hpe_trace"]) == report.outer_iterations
        assert data["lambda_trace"] == report.lambda_trace
