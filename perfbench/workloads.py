"""The benchmark's workloads, each a closed loop with one caller.

A workload turns the seed argument into a list of scenarios and runs one
scenario at a time through xlwpt's public API. Functions are looked up on
their modules at call time, so a tracer that rebinds them sees every call.
"""

import os
from dataclasses import dataclass
from typing import Callable

from xlwpt import baselines, bench
from xlwpt.scenario import scenario_from_dict

FLEET_SEEDS = 12
POWERMAP_RES = 81


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str                 # what work_per_s counts
    methods: tuple                 # method runs attempted per scenario
    scenarios: Callable            # seed -> list of ScenarioConfig
    run: Callable                  # (cfg, outdir) -> (results, faults, raster)
    work: Callable                 # (results, raster) -> units of work done


def _cfg(n_sub, n_vr, seed, methods):
    return scenario_from_dict({
        "geometry": {"S": n_sub},
        "users": {"clusters": {"V": n_vr}},
        "solver": {"seed": seed},
        "methods": list(methods),
    })


def _run_es(cfg, outdir):
    results, faults = bench.run_methods(cfg)
    return results, faults, None


def _run_fleet(cfg, outdir):
    results, faults = bench.run_methods(cfg, outdir=outdir)
    return results, faults, None


def _run_powermap(cfg, outdir):
    """The body of `xlwpt powermap --res 81`; a fault is counted, not raised."""
    try:
        ch = cfg.channel_set()
        result = baselines.pa_sa(ch, cfg.pa_config(), cfg.power, cfg.sa_config())
    except Exception as exc:  # noqa: BLE001 - per-method fault isolation
        return [], {"PA-SA": repr(exc)}, None
    try:
        raster = bench.emit_powermap(cfg, result.allocation, plane="xz",
                                     resolution=POWERMAP_RES,
                                     path=os.path.join(outdir, "powermap.csv"))
    except Exception as exc:  # noqa: BLE001
        return [result], {"powermap": repr(exc)}, None
    return [result], {}, raster


ES_METHODS = ("EA-FA", "PA-SA", "PA-ES")
# PA-ES is left out: S=16 exceeds its cap of 12 sub-arrays
FLEET_METHODS = ("EA-FA", "PA-FA", "PA-SA")

WORKLOADS = {w.name: w for w in (
    # 255 cold binary-mask PA solves: the PA solver does nearly all the work
    Workload(
        "es_s8", "PA-ES subsets", ES_METHODS,
        scenarios=lambda seed: [_cfg(8, 2, seed, ES_METHODS)],
        run=_run_es,
        work=lambda results, raster: sum(
            r.extra.get("subsets_evaluated", 0) for r in results)),
    # warm starts, fractional activations, SA pruning and artifact writing
    Workload(
        "sa_fleet", "scenarios", FLEET_METHODS,
        scenarios=lambda seed: [
            _cfg(s, v, seed * FLEET_SEEDS + i, FLEET_METHODS)
            for i in range(FLEET_SEEDS) for s in (10, 16) for v in (1, 2)],
        run=_run_fleet,
        work=lambda results, raster: 1),
    # channel synthesis dominates and the PA solver barely shows
    Workload(
        "powermap_81", "raster probes", ("PA-SA", "powermap"),
        scenarios=lambda seed: [scenario_from_dict({"solver": {"seed": seed}})],
        run=_run_powermap,
        work=lambda results, raster: 0 if raster is None else raster.size),
)}
