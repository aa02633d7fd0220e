"""Experiment orchestration: method runs, sweeps, power maps, timing bench."""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import baselines
from .power import power_map


def _timing(seconds):
    """A wall-clock cell: six significant digits, empty when missing."""
    return None if seconds is None else "%.6g" % seconds


def _write_csv(path, header, rows):
    """Write one CSV artifact with the one cell rule.

    A float is written as %.17g, so it reads back exactly; the csv module
    writes None as an empty cell and anything else as str(). Timing cells
    arrive formatted by ``_timing``.
    """
    # built in memory and written at once: row-by-row writes left the heap
    # top free for glibc to trim, and the next raster's NumPy temporaries
    # then faulted it back in (~39k minor faults per 81x81 power map)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["%.17g" % v if isinstance(v, float) else v for v in row]
                     for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write(text.getvalue())


def _write_json(path, payload):
    """Write one JSON artifact: indent 2, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_payload(report, alloc):
    """A PA-SA solve report plus its final allocation, as plain JSON types."""
    return {
        "hpe_trace": [float(v) for v in report.hpe_trace],
        "active_trace": [[int(v) for v in a] for a in report.active_trace],
        "lambda_trace": [[float(v) for v in block] for block in report.lambda_trace],
        "dr_residuals": [[float(v) for v in block] for block in report.dr_residuals],
        "outer_iterations": report.outer_iterations,
        "pa_iterations": report.pa_iterations,
        "converged": report.converged,
        "wall_clock_seconds": report.wall_clock,
        "final_hpe": float(report.final_hpe),
        "allocation": {
            "omega_watts": [[float(v) for v in row] for row in alloc.omega],
            "a": [int(v) for v in alloc.a],
            "a_tilde": [float(v) for v in alloc.a_tilde],
        },
    }


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: variable name, values, repetitions.

    Repetition r of a cell runs with seed ``cfg.seed + r``.
    """

    variable: str                  # "S" or "V"
    values: tuple
    repetitions: int = 1

    def __post_init__(self):
        if self.variable not in ("S", "V"):
            raise ValueError("sweep variable must be 'S' or 'V'")
        if not self.values:
            raise ValueError("sweep needs a non-empty value list")
        if len({int(v) for v in self.values}) != len(self.values):
            raise ValueError("sweep values must be distinct, got %s"
                             % ",".join(str(v) for v in self.values))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def cell(self, cfg, value, rep):
        """The config of one cell: ``cfg`` with this axis at ``value``."""
        if self.variable == "S":
            return replace(cfg, n_sub=int(value), seed=cfg.seed + rep)
        if cfg.positions is not None:
            # V counts generated clusters, so placed users would not change
            raise ValueError("a V sweep needs cluster-generated users, but "
                             "the scenario sets users.positions")
        return replace(cfg, clusters=replace(cfg.clusters, n_vr=int(value)),
                       seed=cfg.seed + rep)


def run_methods(cfg, outdir=None):
    """Run the requested methods on one shared channel set.

    When both PA-FA and PA-SA run, PA-FA's solve and PA-SA's first outer
    solve are made as one lane stack (``baselines.opening_lanes``), whose
    wall time counts in both methods' ``wall_clock``. Per-method faults
    are recorded and the run continues. Returns the normalized results
    plus per-method reports/traces.
    """
    ch = cfg.channel_set()
    pa_cfg = cfg.pa_config()
    sa_cfg = cfg.sa_config()
    results, faults = [], {}
    opening = {}
    if "PA-FA" in cfg.methods and "PA-SA" in cfg.methods:
        try:
            opening = baselines.opening_lanes(ch, pa_cfg, cfg.power)
        except Exception:  # noqa: BLE001 - each method then solves alone
            # a fault in one lane aborts the stack; the solo runs below
            # give each method its own result or fault
            pass
    for method in cfg.methods:
        try:
            if method == "EA-FA":
                results.append(baselines.ea_fa(ch, cfg.power))
            elif method == "PA-FA":
                results.append(baselines.pa_fa(ch, pa_cfg, cfg.power,
                                               opening.get("PA-FA")))
            elif method == "PA-SA":
                results.append(baselines.pa_sa(ch, pa_cfg, cfg.power, sa_cfg,
                                               opening.get("PA-SA")))
            elif method == "PA-ES":
                results.append(baselines.pa_es(ch, pa_cfg, cfg.power,
                                               subarray_cap=cfg.es_cap))
        except Exception as exc:  # noqa: BLE001 - per-method fault isolation
            faults[method] = "%s: %s" % (type(exc).__name__, exc)
    if any(r.method == "EA-FA" for r in results):
        baselines.normalize(results)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        # every cluster holds at least one user, since count >= V
        n_vr = (cfg.clusters.n_vr if cfg.positions is None
                 else len({int(p[3]) for p in cfg.positions}))
        if "results" in cfg.artifacts:
            _write_csv(os.path.join(outdir, "results.csv"),
                       ["method", "n_subarrays", "n_vr", "hpe", "eta",
                        "active_count", "seconds"],
                       [[r.method, cfg.n_sub, n_vr, r.hpe, r.eta, r.active_count,
                         _timing(r.wall_clock)] for r in results])
        for r in results:
            if "traces" in cfg.artifacts and "pa_trace" in r.extra:
                _write_csv(os.path.join(outdir, "trace_%s.csv" % r.method),
                           ["t", "lambda", "phi_watts", "harvested_watts",
                            "consumed_watts", "dinkelbach_residual_watts",
                            "dr_residual", "wall_ns"],
                           [[s.t, s.lambda_t, s.phi, s.harvested, s.consumed,
                             s.residual, s.dr_residual, s.wall_ns]
                            for s in r.extra["pa_trace"].states])
            if r.method == "PA-SA" and "report" in r.extra:
                if "traces" in cfg.artifacts:
                    emit_convergence(r.extra["report"],
                                     os.path.join(outdir, "convergence_PA-SA.csv"))
                if "allocation" in cfg.artifacts:
                    _write_json(os.path.join(outdir, "allocation_PA-SA.json"),
                                _report_payload(r.extra["report"], r.allocation))
        if faults:
            _write_json(os.path.join(outdir, "faults.json"), faults)
    return results, faults


def _sweep_cell(cell, spec, value, rep):
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
    """Validate every value x repetition cell, then run them; emit the sweep CSVs."""
    cells = [(v, rep, spec.cell(cfg, v, rep))
             for v in spec.values for rep in range(spec.repetitions)]
    os.makedirs(outdir, exist_ok=True)
    rows = [row for v, rep, cell in cells for row in _sweep_cell(cell, spec, v, rep)]

    _write_csv(os.path.join(outdir, "sweep_raw.csv"),
               ["variable", "value", "repetition", "method", "hpe", "eta",
                "active_count", "active_ratio", "seconds", "fault"],
               [[row["variable"], row["value"], row["repetition"], row["method"],
                 row["hpe"], row["eta"], row["active_count"], row["active_ratio"],
                 _timing(row["seconds"]), row.get("fault")] for row in rows])

    _emit_aggregate(rows, spec, outdir, "eta", "eta_vs_%s.csv" % spec.variable)
    _emit_aggregate(rows, spec, outdir, "active_ratio",
                    "active_ratio_vs_%s.csv" % spec.variable)
    _emit_aggregate(rows, spec, outdir, "seconds",
                    "time_vs_%s.csv" % spec.variable, _timing)
    return rows


def _emit_aggregate(rows, spec, outdir, column, filename, cell=float):
    methods = sorted({row["method"] for row in rows})
    means = []
    for value in spec.values:
        for method in methods:
            vals = [row[column] for row in rows
                    if row["value"] == int(value) and row["method"] == method
                    and row.get(column) is not None]
            if vals:
                means.append([int(value), method, cell(float(np.mean(vals)))])
    _write_csv(os.path.join(outdir, filename),
               ["value", "method", "mean_%s" % column], means)


def emit_powermap(cfg, alloc, plane="xz", extent=None, resolution=40,
                  path="powermap.csv", fixed_coord=None, ch=None):
    """Raster of harvested power seen by a probe over one coordinate plane.

    ``fixed_coord`` places the plane on its third axis: by default y = 0
    for xz, x = 0 for yz, and the users' mean depth z for xy, which must
    lie in front of the array (z > 0). Each default extent holds the
    array's width and every user: a square about boresight for xy, and for
    xz/yz a depth of twice the cluster range or farthest user, at least 1 m.
    ``ch`` is the scenario's channel set, built from ``cfg`` when not given.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if plane not in ("xz", "yz", "xy"):
        raise ValueError("plane must be one of xz, yz, xy")
    if plane == "xy" and fixed_coord is not None and not fixed_coord > 0:
        raise ValueError("an xy power map lies in front of the array, so it "
                         "needs fixed_coord > 0, got %g" % fixed_coord)
    geom = cfg.geometry()
    if ch is None:
        ch = cfg.channel_set()
    half = geom.n_sub * geom.nx * geom.d / 2.0
    users = cfg.users()
    if plane == "xy":
        if fixed_coord is None:
            fixed_coord = np.mean([p.z for p in users])
        if extent is None:
            half = max([half] + [max(abs(p.x), abs(p.y)) for p in users])
            extent = (-half, half, -half, half)
    elif extent is None:
        half = max([half] + [abs(p.x if plane == "xz" else p.y) for p in users])
        depth = max([2.0 * cfg.clusters.range_m, 1.0] + [2.0 * p.z for p in users])
        extent = (-half, half, 0.05, depth)
    u = np.linspace(extent[0], extent[1], resolution)
    v = np.linspace(extent[2], extent[3], resolution)
    # rows run over v, and over u within each row
    uu, vv = np.meshgrid(u, v)
    fixed = np.full(uu.shape, float(fixed_coord or 0.0))
    probes = np.stack({"xz": (uu, fixed, vv), "yz": (fixed, uu, vv),
                       "xy": (uu, vv, fixed)}[plane], axis=-1).reshape(-1, 3)
    values = power_map(geom, alloc, ch, probes,
                       amplitude_model=cfg.amplitude_model)
    _write_csv(path, ["%s_m" % axis for axis in plane] + ["watts"],
               zip(uu.ravel().tolist(), vv.ravel().tolist(), values.tolist()))
    return values.reshape(uu.shape)


def emit_convergence(report, path):
    """Outer-iteration HPE trace with the fraction-of-final column."""
    if not report.hpe_trace:
        raise ValueError("report holds no HPE trace")
    final = report.final_hpe if report.final_hpe > 0 else report.hpe_trace[-1]
    trace = list(report.hpe_trace)
    if final > trace[-1]:
        trace.append(final)
    _write_csv(path, ["iteration", "hpe", "fraction_of_final"],
               [[i, v, v / final if final > 0 else 0.0]
                for i, v in enumerate(trace, start=1)])


def bench_timing(cfg, s_values=(6, 7, 8, 9, 10), outdir=None):
    """Measured solver wall clock vs S for PA-SA and PA-ES plus fitted growth.

    The fitted exponent is the geometric per-sub-array growth factor from a
    least-squares line through log(time) vs S, so it needs at least two
    distinct S values, none repeated. Every S is checked before any is timed.
    """
    if len({int(s) for s in s_values}) < 2:
        raise ValueError("bench needs at least two distinct S values to fit "
                         "a growth factor")
    spec = SweepSpec("S", tuple(s_values))
    cells = [spec.cell(cfg, s, 0) for s in spec.values]
    if max(cell.n_sub for cell in cells) > cfg.es_cap:
        raise ValueError("bench times PA-ES, whose sub-array cap es_cap=%d is "
                         "below the largest S" % cfg.es_cap)
    records = {"PA-SA": [], "PA-ES": []}
    for cell in cells:
        ch = cell.channel_set()
        pa_cfg = cell.pa_config()
        r_sa = baselines.pa_sa(ch, pa_cfg, cell.power, cell.sa_config())
        r_es = baselines.pa_es(ch, pa_cfg, cell.power, subarray_cap=cell.es_cap)
        records["PA-SA"].append((cell.n_sub, r_sa.wall_clock))
        records["PA-ES"].append((cell.n_sub, r_es.wall_clock))

    growth = {}
    for method, pts in records.items():
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log(np.array([max(p[1], 1e-9) for p in pts]))
        slope = np.polyfit(xs, ys, 1)[0]
        growth[method] = math.exp(slope)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        _write_csv(os.path.join(outdir, "bench_times.csv"),
                   ["method", "n_subarrays", "seconds"],
                   [[method, s, _timing(t)] for method, pts in records.items()
                    for s, t in pts])
        _write_json(os.path.join(outdir, "bench_growth.json"),
                    {"per_subarray_growth_factor": growth})
    return records, growth
