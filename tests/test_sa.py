"""Sub-array activation loop tests."""

import json

import numpy as np
import pytest

from xlwpt.geometry import ArrayGeometry, UserPosition, build_channel_set
from xlwpt.pa import PAConfig
from xlwpt.power import AllocationState, PowerConfig, hpe
from xlwpt.sa import (
    SAConfig,
    activation_update,
    export_report_json,
    joint_solve,
    parameterize,
    surrogate,
)


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

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SAConfig(delta=0.0)
        with pytest.raises(ValueError):
            SAConfig(max_iters=0)


class TestExports:
    def test_report_json_round_trip(self, tmp_path):
        geom, ch = clustered_channels(seed=7)
        alloc, report = joint_solve(ch, PAConfig(), SAConfig(), PowerConfig())
        path = tmp_path / "report.json"
        export_report_json(report, alloc, path)
        data = json.loads(path.read_text())
        assert data["final_hpe"] == pytest.approx(report.final_hpe)
        assert data["allocation"]["a"] == [int(v) for v in alloc.a]
        assert len(data["hpe_trace"]) == report.outer_iterations
