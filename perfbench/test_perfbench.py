"""Tests of the benchmark's own code: tracing, counters and the gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (HERE, os.path.join(ROOT, "src")) if p not in sys.path]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import xlwpt  # noqa: E402
from xlwpt import bench  # noqa: E402
from xlwpt.power import AllocationState  # noqa: E402
from xlwpt.scenario import ScenarioConfig  # noqa: E402

# binding sites every traced run must cover
REQUIRED_SITES = {
    ("xlwpt.pa", "project_feasible"), ("xlwpt.sa", "project_feasible"),
    ("xlwpt.pa", "pa_solve"), ("xlwpt.sa", "pa_solve"),
    ("xlwpt.baselines", "pa_solve"),
    ("xlwpt.sa", "joint_solve"), ("xlwpt.baselines", "joint_solve"),
    ("xlwpt.power", "hpe"), ("xlwpt.sa", "hpe"), ("xlwpt.baselines", "hpe"),
    ("xlwpt.power", "harvested_power"), ("xlwpt.pa", "harvested_power"),
    ("xlwpt.geometry", "channel"), ("xlwpt.power", "build_channel"),
    ("xlwpt.power", "power_map"), ("xlwpt.bench", "power_map"),
    ("xlwpt.geometry", "build_channel_set"),
    ("xlwpt.scenario", "build_channel_set"),
}


def small_cfg(seed=0):
    # S=4 is the smallest default array whose near-field boundary holds the users
    return replace(ScenarioConfig(), n_sub=4, seed=seed,
                   methods=("EA-FA", "PA-FA", "PA-SA", "PA-ES"))


def bindings():
    """Identity snapshot of every attribute of every loaded xlwpt module."""
    snap = {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "xlwpt" or name.startswith("xlwpt.")
            for attr, value in vars(mod).items()}
    snap["ScenarioConfig.channel_set"] = vars(ScenarioConfig)["channel_set"]
    return snap


def same_bindings(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_wraps_every_required_site_and_restores_them():
    before = bindings()
    with spans.Tracer():
        during = bindings()
        wrapped = {k for k in before if during[k] is not before[k]}
        wrapped_sites = {k for k in wrapped if isinstance(k, tuple)}
        assert REQUIRED_SITES <= wrapped_sites
        assert "ScenarioConfig.channel_set" in wrapped
        bench.run_methods(small_cfg())
    assert same_bindings(before, bindings())


def test_tracer_restores_bindings_after_an_error():
    before = bindings()
    with pytest.raises(ValueError):
        with spans.Tracer():
            xlwpt.pa.pa_solve(None, np.zeros(2), None, None)
    assert same_bindings(before, bindings())


def test_traced_results_equal_untraced_and_counts_match_returns():
    cfg = small_cfg()
    plain, _ = bench.run_methods(cfg)
    with spans.Tracer() as tracer:
        traced, _ = bench.run_methods(cfg)
    assert gate.record(cfg, traced) == gate.record(cfg, plain)

    passes = spans.TracedPasses()
    passes.add(tracer, wall=1.0, artifact_bytes=0)
    names = ["baselines.pa_es.subsets", "pa.pa_solve.calls",
             "pa.dinkelbach_iters", "pa.dr_solve.calls", "sa.outer_iters",
             "geometry.channel.calls", "trace.coverage"]
    m = passes.metrics(names, untraced_wall=1.0)
    es = next(r for r in traced if r.method == "PA-ES")
    assert m["baselines.pa_es.subsets"] == es.extra["subsets_evaluated"] == 15
    # one Dinkelbach iteration is one dr_solve call
    assert m["pa.dinkelbach_iters"] == m["pa.dr_solve.calls"]
    sa = next(r for r in traced if r.method == "PA-SA")
    assert m["sa.outer_iters"] == sa.extra["report"].outer_iterations
    # PA-FA 1 + PA-ES 15 + PA-SA (outer iterations + final re-solve)
    assert m["pa.pa_solve.calls"] == 16 + sa.extra["report"].outer_iterations + 1
    assert m["geometry.channel.calls"] == cfg.n_sub * 3
    assert 0 < m["trace.coverage"] <= 1


def test_self_time_subtracts_direct_children_only():
    spans_list = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0),
                  ("c", 2.0, 3.0, 1), ("b", 6.0, 7.0, 0), ("a", 20.0, 21.0, -1)]
    stats, top_s, parents = spans.summarize(spans_list)
    assert stats["a"] == {"calls": 2, "incl_s": 11.0, "self_s": 6.0}
    assert stats["b"] == {"calls": 2, "incl_s": 5.0, "self_s": 4.0}
    assert stats["c"]["self_s"] == 1.0
    assert top_s == 11.0
    assert parents == {("b", "a"): 2, ("c", "b"): 1}


def test_sampler_ticks_while_active_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler:
        time.sleep(3 * speed.PERIOD_S)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3  # the first sample plus the ticks


def test_sampler_removes_kernel_runs_from_the_timed_call():
    sampler = speed.Sampler()

    def work():  # 0.1 s of work interrupted by one kernel run
        time.sleep(0.05)
        sampler.sample()
        time.sleep(0.05)

    _, raw, scaled = sampler.timed(work)
    assert abs(raw - 0.1) < 0.02
    assert scaled == raw * speed.NOMINAL_S / sampler.samples[-1][1]


def es_reference():
    return run.load_json(run.REFERENCE)["es_s8"][0]


def test_gate_fires_on_perturbed_hpe():
    ref = es_reference()
    rec = copy.deepcopy(ref)
    assert gate.reference_misses(rec, ref) == []
    rec["methods"]["PA-SA"]["hpe"] *= 1 + 1e-13
    assert gate.reference_misses(rec, ref) == []
    rec["methods"]["PA-SA"]["hpe"] *= 1 + 1e-11
    assert [u for u, _ in gate.reference_misses(rec, ref)] == ["PA-SA"]


def test_gate_fires_on_perturbed_subset():
    ref = es_reference()
    rec = copy.deepcopy(ref)
    rec["methods"]["PA-ES"]["active"][0] ^= 1
    assert [u for u, _ in gate.reference_misses(rec, ref)] == ["PA-ES"]
    del rec["methods"]["EA-FA"]
    assert {u for u, _ in gate.reference_misses(rec, ref)} == {"PA-ES", "EA-FA"}


def test_gate_fires_on_perturbed_raster():
    ref = run.load_json(run.REFERENCE)["powermap_81"][0]
    assert len(ref["raster"]) == 81 * 81
    rec = copy.deepcopy(ref)
    rec["raster"][100] *= 1 + 1e-11
    assert [u for u, _ in gate.reference_misses(rec, ref)] == ["powermap"]
    assert [u for u, _ in gate.repeat_misses(rec, ref)] == ["powermap"]


def test_invariants_fire():
    cfg = small_cfg()
    results, _ = bench.run_methods(cfg)
    n_el = cfg.geometry().n_elements
    assert gate.invariant_misses(results, None, cfg.power, n_el) == []
    by = {r.method: r for r in results}
    by["PA-SA"].hpe = by["PA-ES"].hpe * 1.001
    by["PA-FA"].hpe = by["EA-FA"].hpe * 0.999
    a = by["PA-ES"].allocation
    by["PA-ES"].allocation = AllocationState(omega=a.omega * 1e3, a=a.a,
                                             a_tilde=a.a_tilde)
    units = sorted(u for u, _ in gate.invariant_misses(
        results, np.array([1.0, np.inf]), cfg.power, n_el))
    assert units == ["PA-ES", "PA-FA", "PA-SA", "powermap"]
    by["EA-FA"].hpe = float("nan")
    assert ("EA-FA", "HPE is not finite") in gate.invariant_misses(
        results, None, cfg.power, n_el)


def test_check_pass_counts_each_failed_method_run_once():
    cfg = small_cfg()
    outcome = bench.run_methods(cfg) + (None,)
    ref = gate.record(cfg, outcome[0])
    assert run.check_pass([cfg], [outcome], [ref], [ref])[1] == 0
    bad = copy.deepcopy(ref)
    bad["methods"]["PA-SA"]["hpe"] *= 1 + 1e-9
    bad["methods"]["PA-SA"]["active"][0] ^= 1
    bad["methods"]["PA-ES"]["active"][0] ^= 1
    assert run.check_pass([cfg], [outcome], [bad], None)[1] == 2
    faulted = (outcome[0], {"PA-FA": "boom"}, None)
    assert run.check_pass([cfg], [faulted], [ref], None)[1] == 1


def test_layers_file_covers_every_per_layer_metric():
    spec = run.load_json(run.BENCHMARK)
    layers = run.load_json(os.path.join(HERE, "layers.json"))["layers"]
    names = [m["name"] for m in spec["per_layer"]]
    assert [layer["name"] for layer in layers] == names
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for layer in layers:
        for move in layer["moves"]:
            assert move["metric"] in e2e and move["workload"] in workloads
    passes = spans.TracedPasses()
    with spans.Tracer() as tracer:
        pass
    passes.add(tracer, wall=1.0, artifact_bytes=0)
    assert set(passes.metrics(names, untraced_wall=1.0)) == set(names)


def test_benchmark_command_reports_every_metric():
    spec = run.load_json(run.BENCHMARK)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "powermap_81",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())
