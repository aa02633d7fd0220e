"""End-to-end acceptance checks for the HPE benchmark.

Each test prints one PASS/FAIL line (visible with pytest -s). Heavy method
runs are cached and shared across criteria; every scenario is seeded, so
the whole suite is reproducible.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from xlwpt.baselines import grid_oracle
from xlwpt.bench import bench_timing, emit_powermap, run_methods
from xlwpt.geometry import ArrayGeometry, UserPosition, build_channel_set, radiation_pattern
from xlwpt.pa import (
    PAConfig,
    build_quadratic,
    pa_solve,
    prox_consumption,
    prox_neg_harvest,
    quadratic_sup,
)
from xlwpt.power import AllocationState, PowerConfig, consumed_power, harvested_power
from xlwpt.scenario import ClusterSpec, ScenarioConfig

SEEDS = (0, 1, 2, 3, 4)

_CACHE = {}


def results_for(n_sub, n_vr, seed, methods):
    """Run (and cache) the requested methods on one seeded scenario."""
    entry = _CACHE.setdefault((n_sub, n_vr, seed), {})
    missing = tuple(m for m in methods if m not in entry)
    if missing:
        cfg = replace(ScenarioConfig(), n_sub=n_sub, seed=seed,
                      clusters=ClusterSpec(n_vr=n_vr), methods=missing)
        results, faults = run_methods(cfg)
        assert not faults, faults
        for r in results:
            entry[r.method] = r
    return entry


def announce(num, ok, text):
    print("\nACCEPTANCE %d: %s — %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


class TestCriterion1NearOptimality:
    def test_pa_sa_near_exhaustive(self):
        tic = time.perf_counter()
        ratios = []
        for n_sub in (4, 6):
            for n_vr in (1, 2):
                for seed in SEEDS:
                    res = results_for(n_sub, n_vr, seed, ("PA-SA", "PA-ES"))
                    ratios.append(res["PA-SA"].hpe / res["PA-ES"].hpe)
        elapsed = time.perf_counter() - tic
        worst = min(ratios)
        med = float(np.median(ratios))
        ok = worst >= 0.90 and med >= 0.95 and elapsed < 600
        announce(1, ok,
                 "PA-SA vs PA-ES on 20 scenarios: worst ratio %.4f (>= 0.90), "
                 "median %.4f (>= 0.95), %.1f s (< 600 s)"
                 % (worst, med, elapsed))


class TestExhaustiveSearchBoundsPaSa:
    """PA-ES searches every subset, so PA-SA should never beat it."""

    @pytest.mark.xfail(strict=True, reason=(
        "PA-ES's cold solve stops below PA-SA's on the same subset at "
        "(S, V, seed) = (4, 1, 3), (4, 1, 4), (6, 1, 3), (6, 1, 4); the PA "
        "solver reaches no certified optimum (ROADMAP items 1 and 5)"))
    def test_pa_sa_not_above_pa_es(self):
        over = []
        for n_sub in (4, 6):
            for n_vr in (1, 2):
                for seed in SEEDS:
                    # criterion 1's cells, from its cache
                    res = results_for(n_sub, n_vr, seed, ("PA-SA", "PA-ES"))
                    if res["PA-SA"].hpe > res["PA-ES"].hpe * (1.0 + 1e-6):
                        over.append((n_sub, n_vr, seed))
        assert over == []


class TestCriterion2GainOverEqualAllocation:
    def test_eta_thresholds_and_ordering(self):
        etas = {1: [], 2: []}
        for n_vr in (1, 2):
            for seed in SEEDS:
                res = results_for(6, n_vr, seed, ("PA-SA", "EA-FA"))
                etas[n_vr].append(res["PA-SA"].hpe / res["EA-FA"].hpe)
        min1, min2 = min(etas[1]), min(etas[2])
        ordered = all(b >= a for a, b in zip(etas[1], etas[2]))
        ok = min1 >= 1.5 and min2 >= 1.5 and ordered
        announce(2, ok,
                 "eta over EA-FA at S=6: min %.3f (V=1) and %.3f (V=2), both "
                 ">= 1.5; eta(V=2) >= eta(V=1) on all matched seeds: %s"
                 % (min1, min2, ordered))


class TestCriterion3GainOverFullArrayPA:
    def test_pa_sa_dominates_pa_fa(self):
        gains = []
        dominated = True
        for n_sub in (4, 6):
            for n_vr in (1, 2):
                for seed in SEEDS:
                    res = results_for(n_sub, n_vr, seed, ("PA-SA", "PA-FA"))
                    if res["PA-SA"].hpe < res["PA-FA"].hpe - 1e-12:
                        dominated = False
                    if n_sub == 6:
                        gains.append(res["PA-SA"].hpe / res["PA-FA"].hpe - 1.0)
        med_gain = float(np.median(gains))
        ok = dominated and med_gain >= 0.15
        announce(3, ok,
                 "PA-SA >= PA-FA on every scenario: %s; median S=6 gain "
                 "%.1f%% (>= 15%%)" % (dominated, 100 * med_gain))


class TestCriterion4ActiveRatio:
    def test_ratio_small_and_non_increasing(self):
        means = {}
        for n_vr in (1, 2):
            for n_sub in (4, 6, 8):
                ratios = [results_for(n_sub, n_vr, seed, ("PA-SA",))["PA-SA"]
                          .active_count / n_sub for seed in SEEDS]
                means[(n_vr, n_sub)] = float(np.mean(ratios))
        small = means[(1, 8)] <= 0.6 and means[(2, 8)] <= 0.6
        non_increasing = all(
            means[(v, 4)] >= means[(v, 6)] >= means[(v, 8)] for v in (1, 2))
        ok = small and non_increasing
        announce(4, ok,
                 "mean active ratio at S=8: %.3f (V=1), %.3f (V=2), both <= "
                 "0.6; non-increasing over S in {4,6,8}: %s"
                 % (means[(1, 8)], means[(2, 8)], non_increasing))


class TestCriterion5SolverInvariants:
    def test_residuals_and_monotone_lambda(self):
        worst_res, worst_dr = 0.0, 0.0
        monotone = True
        for n_sub in (4, 6):
            for n_vr in (1, 2):
                for seed in SEEDS:
                    res = results_for(n_sub, n_vr, seed, ("PA-FA", "PA-SA"))
                    trace = res["PA-FA"].extra["pa_trace"]
                    worst_res = max(worst_res, trace.states[-1].residual)
                    lams = trace.lambda_trace
                    if any(b < a for a, b in zip(lams, lams[1:])):
                        monotone = False
                    worst_dr = max(worst_dr,
                                   max(s.dr_residual for s in trace.states))
                    report = res["PA-SA"].extra["report"]
                    for lams in report.lambda_trace:
                        if any(b < a for a, b in zip(lams, lams[1:])):
                            monotone = False
                    flat = [r for block in report.dr_residuals for r in block]
                    worst_dr = max(worst_dr, max(flat))
        ok = worst_res <= 1e-7 and monotone and worst_dr <= 1e-6
        announce(5, ok,
                 "terminal ratio residual max %.2e (<= 1e-7); lambda traces "
                 "non-decreasing: %s; DR residual max %.2e (<= 1e-6)"
                 % (worst_res, monotone, worst_dr))


def _tiny_channels(n_sub, seed):
    geom = ArrayGeometry(n_sub=n_sub, nx=8, ny=2, d=0.05, wavelength=0.1,
                         element_size=0.025, boresight_exp=2)
    rng = np.random.default_rng(seed)
    user = UserPosition(x=rng.uniform(-0.2, 0.2), y=rng.uniform(-0.05, 0.05),
                        z=rng.uniform(0.4, 0.8))
    return build_channel_set(geom, [user])


def _refine_2d(objective, cap, rounds=7, pts=41):
    """Numeric argmin of a convex objective over {w >= 0, w1 + w2 <= cap}."""
    lo = np.zeros(2)
    hi = np.full(2, cap)
    best = None
    for _ in range(rounds):
        g1 = np.linspace(lo[0], hi[0], pts)
        g2 = np.linspace(lo[1], hi[1], pts)
        w1, w2 = np.meshgrid(g1, g2, indexing="ij")
        vals = objective(w1, w2)
        vals = np.where(w1 + w2 <= cap + 1e-12, vals, np.inf)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = (g1[i], g2[j])
        s1 = 2 * (g1[1] - g1[0])
        s2 = 2 * (g2[1] - g2[0])
        lo = np.array([max(0.0, best[0] - s1), max(0.0, best[1] - s2)])
        hi = np.array([min(cap, best[0] + s1), min(cap, best[1] + s2)])
    return np.array(best)


class TestCriterion6OracleEquivalence:
    def test_solver_matches_dense_grid(self):
        cfg = PowerConfig()
        worst = 1.0
        for n_sub in (1, 2):
            ch = _tiny_channels(n_sub, seed=40 + n_sub)
            omega, trace = pa_solve(ch, np.ones(n_sub), PAConfig(), cfg)
            got = trace.lambda_trace[-1]
            best = grid_oracle(ch, cfg, [True] * n_sub, steps=10_000)
            worst = min(worst, got / best)
        ok = worst >= 0.99
        announce(6, ok,
                 "pa_solve vs dense grid oracle (S=1 and S=2, M=1, step "
                 "P_s/10^4): worst HPE ratio %.5f (>= 0.99)" % worst)

    def test_prox_operators_match_numeric_argmin(self):
        cfg = PowerConfig()
        rng = np.random.default_rng(99)
        n_elements = 4
        p_sub = cfg.p_sub(n_elements)
        worst_cons = 0.0
        for _ in range(100):
            z = rng.normal(0.1, 0.1, size=(1, 2))
            lam = rng.uniform(1e-4, 0.05)
            gamma = rng.uniform(0.5, 5.0)
            x = prox_consumption(z, lam, gamma, cfg, np.array([1.0]), n_elements)

            def objective(w1, w2):
                return (gamma * lam * (w1 + w2) / cfg.varsigma
                        + 0.5 * ((w1 - z[0, 0]) ** 2 + (w2 - z[0, 1]) ** 2))

            want = _refine_2d(objective, p_sub)
            worst_cons = max(worst_cons, float(np.max(np.abs(x[0] - want))))

        ch = _tiny_channels(1, seed=50)
        quad = build_quadratic(ch, np.ones(1))
        A = float(quad[0, 0, 0])
        worst_harv = 0.0
        for _ in range(100):
            v = np.array([[rng.uniform(0.0, 0.2)]])
            gamma = rng.uniform(0.05, 0.35) / A
            out = prox_neg_harvest(v, gamma, quad)
            q0 = np.sqrt(v[0, 0])
            lo, hi = 0.0, 3.0 * (q0 + 0.1) / (1.0 - 2.0 * gamma * A)
            for _ in range(9):
                grid = np.linspace(lo, hi, 101)
                vals = -gamma * A * grid**2 + 0.5 * (grid - q0) ** 2
                i = int(np.argmin(vals))
                step = grid[1] - grid[0]
                lo, hi = max(0.0, grid[i] - 2 * step), grid[i] + 2 * step
            q_star = 0.5 * (lo + hi)
            worst_harv = max(worst_harv, abs(np.sqrt(out[0, 0]) - q_star))
        ok = worst_cons <= 1e-6 and worst_harv <= 1e-6
        announce(6, ok,
                 "prox vs numeric argmin on 100 probes each: consumption max "
                 "dev %.2e, harvest max dev %.2e (both <= 1e-6)"
                 % (worst_cons, worst_harv))


class TestCriterion7ConvergenceSpeed:
    def test_outer_loop_speed(self):
        worst_iters = 0
        worst_frac = 1.0
        monotone = True
        for n_vr in (1, 2):
            for seed in SEEDS:
                report = results_for(6, n_vr, seed,
                                     ("PA-SA",))["PA-SA"].extra["report"]
                worst_iters = max(worst_iters, report.outer_iterations)
                tr = report.hpe_trace
                if any(b < a - 1e-9 for a, b in zip(tr, tr[1:])):
                    monotone = False
                at2 = tr[min(1, len(tr) - 1)]
                worst_frac = min(worst_frac, at2 / report.final_hpe)
        ok = worst_iters <= 20 and monotone and worst_frac >= 0.7
        announce(7, ok,
                 "outer iterations max %d (<= 20); HPE traces monotone: %s; "
                 "fraction of final at iteration 2 min %.3f (>= 0.7)"
                 % (worst_iters, monotone, worst_frac))


class TestCriterion8ComplexityTrend:
    def test_wall_clock_growth(self):
        cfg = ScenarioConfig()
        _, growth = bench_timing(cfg, s_values=(6, 7, 8, 9, 10))
        es, sa = growth["PA-ES"], growth["PA-SA"]
        ok = es >= 1.7 and sa <= 1.4
        announce(8, ok,
                 "fitted wall-clock growth per added sub-array over S in "
                 "{6..10}: PA-ES x%.2f (>= 1.7), PA-SA x%.2f (<= 1.4)"
                 % (es, sa))


class TestCriterion9UnitChecks:
    def test_model_level_identities(self):
        checks = []
        # boresight gain
        checks.append(radiation_pattern(0.0, 2) == pytest.approx(6.0))
        checks.append(radiation_pattern(0.0, 0.5) == pytest.approx(3.0))
        # consumed power with everything off is only the receiver circuits
        cfg = PowerConfig()
        off = AllocationState(omega=np.zeros((6, 3)), a=np.zeros(6, int),
                              a_tilde=np.zeros(6))
        checks.append(consumed_power(off, cfg, 3, 256)
                      == pytest.approx(3 * cfg.p_cr, rel=1e-12))
        # single-pair harvested power closed form
        geom = ArrayGeometry(n_sub=1, nx=4, ny=4, d=0.05, wavelength=0.1,
                             element_size=0.025, boresight_exp=2)
        ch = build_channel_set(geom, [UserPosition(0.05, 0.0, 0.9)])
        one = AllocationState(omega=[[0.23]], a=[1], a_tilde=[1.0])
        checks.append(harvested_power(ch, one)
                      == pytest.approx(0.23 * ch.norms[0, 0] ** 2, rel=1e-12))
        # power-map peak lands within one cell of the served user
        cfg_map = replace(ScenarioConfig(), n_sub=4, nx=8, ny=4,
                          positions=((0.3, 0.0, 0.8, 1),),
                          methods=("PA-SA",))
        results, _ = run_methods(cfg_map)
        res = 41
        extent = (-0.3, 0.9, 0.3, 1.3)
        grid = emit_powermap(cfg_map, results[0].allocation, plane="xz",
                             extent=extent, resolution=res,
                             path="/dev/null")
        xs = np.linspace(extent[0], extent[1], res)
        zs = np.linspace(extent[2], extent[3], res)
        iz, ix = np.unravel_index(np.argmax(grid), grid.shape)
        cell = max(xs[1] - xs[0], zs[1] - zs[0])
        near = (abs(xs[ix] - 0.3) <= cell + 1e-12
                and abs(zs[iz] - 0.8) <= cell + 1e-12)
        checks.append(near)
        ok = all(checks)
        announce(9, ok,
                 "unit identities (pattern gain, idle consumption, single-"
                 "pair harvest, power-map peak at user): %d/%d hold"
                 % (sum(bool(c) for c in checks), len(checks)))
