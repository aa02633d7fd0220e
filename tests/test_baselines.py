"""Reference-method tests: dominance ordering, exhaustive search, grid oracle."""

import numpy as np
import pytest

from xlwpt import baselines
from xlwpt.baselines import (
    ea_fa,
    grid_oracle,
    normalize,
    pa_es,
    pa_fa,
    pa_sa,
    results_to_csv,
)
from xlwpt.geometry import ArrayGeometry, UserPosition, build_channel_set
from xlwpt.pa import PAConfig, pa_solve
from xlwpt.power import AllocationState, PowerConfig, hpe


def make_channels(n_sub=3, n_users=2, seed=0, nx=8, ny=2):
    geom = ArrayGeometry(n_sub=n_sub, nx=nx, ny=ny, d=0.05, wavelength=0.1,
                         element_size=0.025, boresight_exp=2)
    rng = np.random.default_rng(seed)
    width = n_sub * nx * 0.05
    users = [UserPosition(x=rng.uniform(0, width / 2), y=rng.uniform(-0.05, 0.05),
                          z=rng.uniform(0.4, 0.8)) for _ in range(n_users)]
    return build_channel_set(geom, users)


class TestEAFA:
    def test_uniform_split_value(self):
        ch = make_channels()
        cfg = PowerConfig()
        res = ea_fa(ch, cfg)
        p_sub = cfg.p_sub(ch.n_elements)
        alloc = AllocationState(omega=np.full((3, 2), p_sub / 2),
                                a=np.ones(3, int), a_tilde=np.ones(3))
        assert res.hpe == pytest.approx(hpe(ch, alloc, cfg), rel=1e-12)
        assert res.active_count == 3
        assert res.method == "EA-FA"


class TestDominanceChain:
    @pytest.mark.parametrize("seed", range(3))
    def test_ordering(self, seed):
        ch = make_channels(seed=seed)
        cfg = PowerConfig()
        pa_cfg = PAConfig()
        r_ea = ea_fa(ch, cfg)
        r_fa = pa_fa(ch, pa_cfg, cfg)
        r_sa = pa_sa(ch, pa_cfg, cfg)
        r_es = pa_es(ch, pa_cfg, cfg)
        # optimizing can only help; activation pruning can only help further;
        # exhaustive search bounds everything (up to solver tolerance)
        assert r_fa.hpe >= r_ea.hpe - 1e-12
        assert r_sa.hpe >= r_fa.hpe - 1e-9
        assert r_es.hpe >= r_sa.hpe * (1 - 1e-6)


class TestPAES:
    def test_enumerates_all_subsets(self):
        ch = make_channels(n_sub=3)
        res = pa_es(ch, PAConfig(), PowerConfig())
        assert res.extra["subsets_evaluated"] == 2**3 - 1

    def test_cap_guard(self):
        ch = make_channels(n_sub=3)
        with pytest.raises(ValueError, match="2\\^3"):
            pa_es(ch, PAConfig(), PowerConfig(), subarray_cap=2)

    def test_beats_every_fixed_subset(self):
        ch = make_channels(n_sub=3, seed=5)
        cfg = PowerConfig()
        pa_cfg = PAConfig()
        res = pa_es(ch, pa_cfg, cfg)
        from xlwpt.pa import pa_solve
        for index in range(1, 8):
            mask = np.array([(index >> s) & 1 for s in range(3)], dtype=float)
            omega, _ = pa_solve(ch, mask, pa_cfg, cfg)
            alloc = AllocationState(omega, mask.astype(int), mask)
            assert res.hpe >= hpe(ch, alloc, cfg) - 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_sub", [3, 5])
    def test_lane_stacks_match_per_subset_solves(self, monkeypatch, n_sub, seed):
        """Every lane of every stack equals a one-lane solve bit for bit.

        Stacks of 4 lanes put chunk seams inside the subset range.
        """
        ch = make_channels(n_sub=n_sub, seed=seed)
        pa_cfg, cfg = PAConfig(), PowerConfig()
        lanes = []
        solve_lanes = baselines.solve_lanes

        def recording(ch_, masks, *args):
            omegas, log = solve_lanes(ch_, masks, *args)
            lanes.extend(zip(masks.copy(), omegas.copy()))
            return omegas, log

        monkeypatch.setattr(baselines, "_ES_CHUNK_LANES", 4)
        monkeypatch.setattr(baselines, "solve_lanes", recording)
        res = pa_es(ch, pa_cfg, cfg)

        assert len(lanes) == res.extra["subsets_evaluated"] == 2**n_sub - 1
        best = None
        for index, (mask, omega) in enumerate(lanes, start=1):
            assert mask.tolist() == [(index >> s) & 1 for s in range(n_sub)]
            want, _ = pa_solve(ch, mask, pa_cfg, cfg)
            assert omega.tobytes() == want.tobytes()
            value = hpe(ch, AllocationState(want, mask.astype(int), mask), cfg)
            key = (-value, int(mask.sum()), index)
            if best is None or key < best[0]:
                best = (key, value, mask.astype(int).tolist())
        assert res.hpe == best[1]
        assert res.allocation.a.tolist() == best[2]

    def test_allocation_matches_reported_active_count(self):
        ch = make_channels(n_sub=3, seed=6)
        res = pa_es(ch, PAConfig(), PowerConfig())
        assert res.active_count == int(res.allocation.a.sum())


class TestGridOracle:
    def test_variable_guard(self):
        ch = make_channels(n_sub=3, n_users=2)
        with pytest.raises(ValueError, match="free variables"):
            grid_oracle(ch, PowerConfig(), [True, True, True], steps=3)

    def test_nested_refinement_monotone(self):
        ch = make_channels(n_sub=2, n_users=2, seed=2)
        cfg = PowerConfig()
        active = [True, True]
        coarse = grid_oracle(ch, cfg, active, steps=10)
        fine = grid_oracle(ch, cfg, active, steps=40)
        assert fine >= coarse - 1e-15

    def test_single_variable_matches_scan(self):
        ch = make_channels(n_sub=1, n_users=1, seed=3)
        cfg = PowerConfig()
        best = grid_oracle(ch, cfg, [True], steps=2000)
        norm2 = ch.norms[0, 0] ** 2
        p_sub = cfg.p_sub(ch.n_elements)
        fixed = 2 * cfg.p_syn + ch.n_elements * cfg.p_ct + cfg.p_cr
        grid = np.linspace(0, p_sub, 2001)
        want = float(np.max(norm2 * grid / (grid / cfg.varsigma + fixed)))
        assert best == pytest.approx(want, rel=1e-12)

    def test_solver_between_grid_and_grid_plus_gap(self):
        # the converged solver can beat any finite grid but never by more
        # than the grid gap allows
        ch = make_channels(n_sub=1, n_users=2, seed=4)
        cfg = PowerConfig()
        from xlwpt.pa import pa_solve
        omega, trace = pa_solve(ch, np.ones(1), PAConfig(), cfg)
        best = grid_oracle(ch, cfg, [True], steps=200)
        assert trace.lambda_trace[-1] >= best - 1e-10
        assert trace.lambda_trace[-1] <= best * 1.01

    def test_empty_active_set(self):
        ch = make_channels(n_sub=2, n_users=1)
        assert grid_oracle(ch, PowerConfig(), [False, False], steps=5) == 0.0


class TestNormalize:
    def test_eta_reference(self):
        ch = make_channels(seed=7)
        cfg = PowerConfig()
        results = [ea_fa(ch, cfg), pa_fa(ch, PAConfig(), cfg)]
        normalize(results)
        assert results[0].eta == pytest.approx(1.0)
        assert results[1].eta == pytest.approx(results[1].hpe / results[0].hpe)

    def test_requires_reference(self):
        ch = make_channels(seed=8)
        with pytest.raises(ValueError):
            normalize([pa_fa(ch, PAConfig(), PowerConfig())])


class TestResultsCSV:
    def test_header_and_rows(self, tmp_path):
        ch = make_channels(seed=9)
        cfg = PowerConfig()
        results = normalize([ea_fa(ch, cfg), pa_fa(ch, PAConfig(), cfg)])
        path = tmp_path / "results.csv"
        results_to_csv(results, path, n_sub=3, n_vr=1)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,n_subarrays,n_vr,hpe,eta,active_count,seconds"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "EA-FA"
        assert first[1] == "3" and first[2] == "1"
        assert float(first[3]) == pytest.approx(results[0].hpe)
