"""Experiment orchestration: method runs, sweeps, power maps, timing bench."""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import baselines
from .pa import export_pa_trace_csv
from .power import power_map
from .sa import export_report_json

WORKERS_ENV = "XLWPT_WORKERS"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: variable name, values, repetitions, seed policy."""

    variable: str                  # "S" or "V"
    values: tuple
    repetitions: int = 1
    seed_policy: str = "offset"    # seed + repetition index

    def __post_init__(self):
        if self.variable not in ("S", "V"):
            raise ValueError("sweep variable must be 'S' or 'V'")
        if not self.values:
            raise ValueError("sweep needs a non-empty value list")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def worker_count():
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def run_methods(cfg, outdir=None):
    """Run the requested methods on one shared channel set.

    Per-method faults are recorded and the run continues. Returns the
    normalized results plus per-method reports/traces.
    """
    ch = cfg.channel_set()
    pa_cfg = cfg.pa_config()
    sa_cfg = cfg.sa_config()
    results, faults = [], {}
    for method in cfg.methods:
        try:
            if method == "EA-FA":
                results.append(baselines.ea_fa(ch, cfg.power))
            elif method == "PA-FA":
                results.append(baselines.pa_fa(ch, pa_cfg, cfg.power))
            elif method == "PA-SA":
                results.append(baselines.pa_sa(ch, pa_cfg, cfg.power, sa_cfg))
            elif method == "PA-ES":
                results.append(baselines.pa_es(ch, pa_cfg, cfg.power,
                                               subarray_cap=cfg.es_cap))
        except Exception as exc:  # noqa: BLE001 - per-method fault isolation
            faults[method] = str(exc)
    if any(r.method == "EA-FA" for r in results):
        baselines.normalize(results)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        n_vr = len({u.vr_label for u in cfg.users()})
        if "results" in cfg.artifacts:
            baselines.results_to_csv(results, os.path.join(outdir, "results.csv"),
                                     n_sub=cfg.n_sub, n_vr=n_vr)
        for r in results:
            if "traces" in cfg.artifacts and "pa_trace" in r.extra:
                export_pa_trace_csv(r.extra["pa_trace"],
                                    os.path.join(outdir, "trace_%s.csv" % r.method))
            if r.method == "PA-SA" and "report" in r.extra:
                if "traces" in cfg.artifacts:
                    emit_convergence(r.extra["report"],
                                     os.path.join(outdir, "convergence_PA-SA.csv"))
                if "allocation" in cfg.artifacts:
                    export_report_json(r.extra["report"], r.allocation,
                                       os.path.join(outdir, "allocation_PA-SA.json"))
        if faults:
            with open(os.path.join(outdir, "faults.json"), "w") as fh:
                json.dump(faults, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return results, faults


def _sweep_cell(cfg, spec, value, rep):
    if spec.variable == "S":
        cell = replace(cfg, n_sub=int(value), seed=cfg.seed + rep)
    else:
        cell = replace(cfg, clusters=replace(cfg.clusters, n_vr=int(value)),
                       seed=cfg.seed + rep)
    results, faults = run_methods(cell)
    rows = []
    for r in results:
        rows.append({
            "variable": spec.variable,
            "value": int(value),
            "repetition": rep,
            "method": r.method,
            "hpe": r.hpe,
            "eta": r.eta,
            "active_count": r.active_count,
            "active_ratio": r.active_count / cell.n_sub,
            "seconds": r.wall_clock,
        })
    for method, msg in faults.items():
        rows.append({"variable": spec.variable, "value": int(value),
                     "repetition": rep, "method": method, "hpe": None,
                     "eta": None, "active_count": None, "active_ratio": None,
                     "seconds": None, "fault": msg})
    return rows


def sweep(cfg, spec, outdir):
    """Run every value x repetition cell; emit long-form and per-axis CSVs."""
    os.makedirs(outdir, exist_ok=True)
    cells = [(v, rep) for v in spec.values for rep in range(spec.repetitions)]
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(lambda c: _sweep_cell(cfg, spec, *c), cells))
    else:
        blocks = [_sweep_cell(cfg, spec, v, rep) for v, rep in cells]
    rows = [row for block in blocks for row in block]

    def fmt(v, spec_="%.17g"):
        return "" if v is None else (spec_ % v if isinstance(v, float) else str(v))

    lines = ["variable,value,repetition,method,hpe,eta,active_count,"
             "active_ratio,seconds,fault"]
    for row in rows:
        lines.append(",".join([
            row["variable"], str(row["value"]), str(row["repetition"]),
            row["method"], fmt(row["hpe"]), fmt(row["eta"]),
            fmt(row["active_count"]), fmt(row["active_ratio"]),
            fmt(row["seconds"], "%.6g"), row.get("fault", "")]))
    with open(os.path.join(outdir, "sweep_raw.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    _emit_aggregate(rows, spec, outdir, "eta", "eta_vs_%s.csv" % spec.variable)
    _emit_aggregate(rows, spec, outdir, "active_ratio",
                    "active_ratio_vs_%s.csv" % spec.variable)
    _emit_aggregate(rows, spec, outdir, "seconds",
                    "time_vs_%s.csv" % spec.variable, "%.6g")
    return rows


def _emit_aggregate(rows, spec, outdir, column, filename, number_fmt="%.17g"):
    methods = sorted({row["method"] for row in rows})
    lines = ["value,method,mean_%s" % column]
    for value in spec.values:
        for method in methods:
            vals = [row[column] for row in rows
                    if row["value"] == int(value) and row["method"] == method
                    and row.get(column) is not None]
            if vals:
                lines.append("%d,%s,%s" % (int(value), method,
                                           number_fmt % float(np.mean(vals))))
    with open(os.path.join(outdir, filename), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_powermap(cfg, alloc, plane="xz", extent=None, resolution=40,
                  path="powermap.csv", fixed_coord=0.0):
    """Raster of harvested power seen by a probe over one coordinate plane."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if plane not in ("xz", "yz", "xy"):
        raise ValueError("plane must be one of xz, yz, xy")
    geom = cfg.geometry()
    ch = cfg.channel_set()
    if extent is None:
        half = geom.n_sub * geom.nx * geom.d / 2.0
        extent = (-half, half, 0.05, max(2.0 * cfg.clusters.range_m, 1.0))
    u = np.linspace(extent[0], extent[1], resolution)
    v = np.linspace(extent[2], extent[3], resolution)
    probes = []
    for b in v:
        for a in u:
            if plane == "xz":
                probes.append((a, fixed_coord, b))
            elif plane == "yz":
                probes.append((fixed_coord, a, b))
            else:
                probes.append((a, b, fixed_coord))
    values = power_map(geom, alloc, ch, probes,
                       amplitude_model=cfg.amplitude_model)
    axis_names = {"xz": ("x_m", "z_m"), "yz": ("y_m", "z_m"), "xy": ("x_m", "y_m")}
    na, nb = axis_names[plane]
    lines = ["%s,%s,watts" % (na, nb)]
    idx = 0
    for b in v:
        for a in u:
            lines.append("%.17g,%.17g,%.17g" % (a, b, values[idx]))
            idx += 1
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return np.asarray(values).reshape(len(v), len(u))


def emit_convergence(report, path):
    """Outer-iteration HPE trace with the fraction-of-final column."""
    if not report.hpe_trace:
        raise ValueError("report holds no HPE trace")
    final = report.final_hpe if report.final_hpe > 0 else report.hpe_trace[-1]
    lines = ["iteration,hpe,fraction_of_final"]
    trace = list(report.hpe_trace)
    if final > trace[-1]:
        trace.append(final)
    for i, v in enumerate(trace, start=1):
        lines.append("%d,%.17g,%.17g" % (i, v, v / final if final > 0 else 0.0))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def bench_timing(cfg, s_values=(6, 7, 8, 9, 10), outdir=None):
    """Measured solver wall clock vs S for PA-SA and PA-ES plus fitted growth.

    The fitted exponent is the geometric per-sub-array growth factor from a
    least-squares line through log(time) vs S.
    """
    records = {"PA-SA": [], "PA-ES": []}
    for s in s_values:
        cell = replace(cfg, n_sub=int(s), methods=("PA-SA", "PA-ES"))
        ch = cell.channel_set()
        pa_cfg = cell.pa_config()
        r_sa = baselines.pa_sa(ch, pa_cfg, cell.power, cell.sa_config())
        r_es = baselines.pa_es(ch, pa_cfg, cell.power, subarray_cap=cell.es_cap)
        records["PA-SA"].append((int(s), r_sa.wall_clock))
        records["PA-ES"].append((int(s), r_es.wall_clock))

    growth = {}
    for method, pts in records.items():
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log(np.array([max(p[1], 1e-9) for p in pts]))
        slope = np.polyfit(xs, ys, 1)[0]
        growth[method] = math.exp(slope)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        lines = ["method,n_subarrays,seconds"]
        for method, pts in records.items():
            for s, t in pts:
                lines.append("%s,%d,%.6g" % (method, s, t))
        with open(os.path.join(outdir, "bench_times.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(os.path.join(outdir, "bench_growth.json"), "w") as fh:
            json.dump({"per_subarray_growth_factor": growth}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    return records, growth
