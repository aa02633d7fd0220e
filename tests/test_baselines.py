"""Reference-method tests: dominance ordering, exhaustive search, and the
grid oracle that the other test modules use."""

import tracemalloc

import numpy as np
import pytest

from oracles import enumerate_pa_es, grid_oracle
from xlwpt import baselines
from xlwpt.baselines import (
    ea_fa,
    normalize,
    pa_es,
    pa_fa,
    pa_sa,
)
from xlwpt.bench import run_methods
from xlwpt.geometry import ArrayGeometry, UserPosition, build_channel_set
from xlwpt.pa import Lanes, PAConfig, pa_solve
from xlwpt.power import AllocationState, PowerConfig, hpe, uniform_split
from xlwpt.scenario import ClusterSpec, ScenarioConfig


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
        """Every solved lane equals a one-lane solve bit for bit, and every
        skipped subset's one-lane solve scores below the winner.

        Stacks of 4 lanes put stack seams inside the solved subsets.
        """
        ch = make_channels(n_sub=n_sub, seed=seed)
        pa_cfg, cfg = PAConfig(), PowerConfig()
        solved = {}
        solve_lanes = baselines.solve_lanes

        def recording(ch_, masks, *args):
            omegas, log = solve_lanes(ch_, masks, *args)
            for mask, omega in zip(masks, omegas):
                index = int(mask @ 2 ** np.arange(n_sub))
                assert index not in solved
                solved[index] = omega.copy()
            return omegas, log

        monkeypatch.setattr(baselines, "_ES_STACK_ENTRIES", 4 * ch.n_users * n_sub**2)
        monkeypatch.setattr(baselines, "solve_lanes", recording)
        res = pa_es(ch, pa_cfg, cfg)

        assert len(solved) == res.extra["subsets_solved"]
        assert res.extra["subsets_evaluated"] == 2**n_sub - 1
        # every singleton is solved
        assert {1 << s for s in range(n_sub)} <= set(solved)
        best, skipped = None, []
        for index in range(1, 2**n_sub):
            mask = np.array([(index >> s) & 1 for s in range(n_sub)], dtype=float)
            want, _ = pa_solve(ch, mask, pa_cfg, cfg)
            value = hpe(ch, AllocationState(want, mask.astype(int), mask), cfg)
            if index not in solved:
                skipped.append(value)
                continue
            assert solved[index].tobytes() == want.tobytes()
            key = (-value, int(mask.sum()), index)
            if best is None or key < best[0]:
                best = (key, value, mask.astype(int).tolist())
        assert res.hpe == best[1]
        assert res.allocation.a.tolist() == best[2]
        assert all(value < res.hpe for value in skipped)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_sub", [4, 6, 8])
    def test_reported_hpe_is_hpe_of_the_allocation(self, n_sub, seed):
        # PA-ES scores its subsets with hpe()'s lane kernels, so the winner's
        # value has hpe()'s bits
        cfg = ScenarioConfig(n_sub=n_sub, seed=seed)
        ch = cfg.channel_set()
        res = pa_es(ch, cfg.pa, cfg.power)
        assert res.hpe == hpe(ch, res.allocation, cfg.power)

    def test_stacks_fit_the_budget_at_the_cap(self, monkeypatch):
        # the stub solve returns each lane's uniform split, so its values
        # are real HPEs and the bound skips some subsets at S = 12
        n_sub = baselines.ES_SUBARRAY_CAP
        ch = make_channels(n_sub=n_sub, seed=1)
        cfg = PowerConfig()
        solves, bounds = [], []

        def recording(ch_, masks, pa_cfg, power_cfg):
            solves.append(len(masks))
            return masks[..., None] * uniform_split(ch_, power_cfg), None

        class Recording(Lanes):
            @classmethod
            def build(cls, ch_, a_tilde, power_cfg):
                bounds.append(len(a_tilde))
                return Lanes.build(ch_, a_tilde, power_cfg)

        monkeypatch.setattr(baselines, "solve_lanes", recording)
        monkeypatch.setattr(baselines, "Lanes", Recording)
        res = pa_es(ch, PAConfig(), cfg)

        per_stack = baselines._ES_STACK_ENTRIES // (ch.n_users * n_sub**2)
        n_subsets = 2**n_sub - 1
        assert sum(bounds) == res.extra["subsets_evaluated"] == n_subsets
        assert sum(solves) == res.extra["subsets_solved"] < n_subsets
        # the singletons in one stack, then as few stacks of equal size
        # as the budget allows
        assert per_stack >= n_sub and solves[0] == n_sub
        for sizes in (bounds, solves[1:]):
            assert max(sizes) <= per_stack
            assert max(sizes) - min(sizes) <= 1
            assert len(sizes) == -(-sum(sizes) // per_stack)

    def test_stack_split_leaves_every_subset_unchanged(self, monkeypatch):
        n_sub = 7
        ch = make_channels(n_sub=n_sub, seed=2)
        solve_lanes = baselines.solve_lanes
        runs = []

        def recording(ch_, masks, *args):
            omegas, log = solve_lanes(ch_, masks, *args)
            runs[-1][0] += 1
            runs[-1][1].update((mask.tobytes(), omega.tobytes())
                               for mask, omega in zip(masks, omegas))
            return omegas, log

        monkeypatch.setattr(baselines, "solve_lanes", recording)
        # the singletons, then every other solved subset, each in one
        # stack; then stacks of at most 5
        results = []
        for budget in (ch.n_users * n_sub**2 * 2**n_sub, 5 * ch.n_users * n_sub**2):
            monkeypatch.setattr(baselines, "_ES_STACK_ENTRIES", budget)
            runs.append([0, {}])
            results.append(pa_es(ch, PAConfig(), PowerConfig()))
        (n_one, one), (n_many, many) = runs
        n_solved = results[0].extra["subsets_solved"]
        assert len(one) == len(many) == n_solved < 2**n_sub - 1
        assert n_one == 2 and n_many == 2 + -(-(n_solved - n_sub) // 5)
        assert one == many
        a, b = results
        assert (a.hpe, a.allocation.a.tobytes(), a.allocation.omega.tobytes()) == (
            b.hpe, b.allocation.a.tobytes(), b.allocation.omega.tobytes())

    def test_traced_peak_is_bounded_by_the_budget(self):
        # the working memory of a stack is a few copies of its harvest
        # matrices (8-byte entries), whatever the subset count
        ch = make_channels(n_sub=10, n_users=1, seed=0)
        tracemalloc.start()
        try:
            pa_es(ch, PAConfig(), PowerConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * baselines._ES_STACK_ENTRIES

    @pytest.mark.parametrize("cfg", [
        *(pytest.param(ScenarioConfig(n_sub=n_sub, clusters=ClusterSpec(n_vr=n_vr),
                                      seed=seed), id="S%d-V%d-%d" % (n_sub, n_vr, seed))
          for n_sub in (3, 5, 8) for n_vr in (1, 2) for seed in range(3)),
        # the bound reads Lambda_A varsigma with no circuit power
        pytest.param(ScenarioConfig(power=PowerConfig(p_syn=0.0, p_ct=0.0, p_cr=0.0)),
                     id="zero_circuit_power"),
        pytest.param(ScenarioConfig(n_sub=5, amplitude_model="per_element", seed=1),
                     id="per_element"),
    ])
    def test_matches_the_enumerating_oracle(self, cfg):
        # skipping the subsets that the bound rules out keeps the
        # winner's bits
        ch = cfg.channel_set()
        res = pa_es(ch, cfg.pa, cfg.power)
        value, active, omega = enumerate_pa_es(ch, cfg.pa, cfg.power)
        assert res.hpe == value
        assert res.allocation.a.tobytes() == active.tobytes()
        assert res.allocation.omega.tobytes() == omega.tobytes()
        n_subsets = 2**ch.n_sub - 1
        assert res.extra["subsets_solved"] <= res.extra["subsets_evaluated"] == n_subsets

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

    def test_zero_reference_leaves_eta_none(self):
        results = [baselines.MethodResult(method, 0.0, 1, 0.0, None)
                   for method in ("EA-FA", "PA-FA")]
        normalize(results)
        assert [r.eta for r in results] == [None, None]


class TestResultsCSV:
    def test_header_and_rows(self, tmp_path):
        cfg = ScenarioConfig(n_sub=3, nx=8, ny=2, seed=9, methods=("EA-FA", "PA-FA"),
                             clusters=ClusterSpec(n_vr=1, count=2, range_m=0.5,
                                                  radius_m=0.1))
        results, _ = run_methods(cfg, outdir=str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "method,n_subarrays,n_vr,hpe,eta,active_count,seconds"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "EA-FA"
        assert first[1] == "3" and first[2] == "1"
        assert float(first[3]) == pytest.approx(results[0].hpe)
