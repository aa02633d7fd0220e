"""Entry point of the xlwpt benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload es_s8 --seed 0 --seconds 36 --trace 0

It imports xlwpt from ``src/`` in this process, pins BLAS to one thread,
unsets XLWPT_WORKERS, times set-up, then runs whole passes over the
workload's scenarios for about ``--seconds``: at least one pass, and a
further pass only if it should end within that time.
Times are in seconds at a nominal machine speed (``speed.py``). Every
pass goes through the correctness gate (``gate.py``). The last line
of standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` the
per-layer metrics, taken from traced passes that alternate with untraced
ones.
Lines before it are the same figures for people, plus context. The exit
code is 0 only when every answer passed the gate.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_REPS = 7
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def pin_threads():
    """One caller, no worker threads: unset XLWPT_WORKERS, one BLAS thread."""
    os.environ.pop("XLWPT_WORKERS", None)
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)


def import_program():
    """Import xlwpt from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import xlwpt

    if not os.path.abspath(xlwpt.__file__).startswith(SRC + os.sep):
        raise SystemExit("xlwpt was imported from %s, not from %s"
                         % (xlwpt.__file__, SRC))


def is_xlwpt(name):
    return name == "xlwpt" or name.startswith("xlwpt.")


def import_afresh():
    """Import xlwpt's modules anew, then put the loaded ones back, so the
    rest of the run keeps using one set of modules."""
    loaded = {k: m for k, m in sys.modules.items() if is_xlwpt(k)}
    for name in loaded:
        del sys.modules[name]
    try:
        importlib.import_module("xlwpt")
    finally:
        for name in [k for k in sys.modules if is_xlwpt(k)]:
            del sys.modules[name]
        sys.modules.update(loaded)


def measure_setup(workload, seed, base, sampler):
    """Median over SETUP_REPS of: importing xlwpt (NumPy is loaded already),
    the scenario list with its channel sets, and the output directory."""

    def once():
        import_afresh()
        scenarios = workload.scenarios(seed)
        for cfg in scenarios:
            cfg.channel_set()
        return scenarios, tempfile.mkdtemp(dir=base)

    times = []
    with sampler:
        for _ in range(SETUP_REPS):
            sampler.sample()  # a set-up can be shorter than PERIOD_S
            (scenarios, outdir), _, scaled = sampler.timed(once)
            times.append(scaled)
    return statistics.median(times), scenarios, outdir


def run_pass(workload, scenarios, outdir, sampler):
    """One closed-loop pass under an active ``speed.Sampler``.

    Returns the outcomes, per-scenario seconds without the kernel runs and
    the same at nominal speed, and the pass's wall time with everything.
    """
    shutil.rmtree(outdir)
    dirs = [os.path.join(outdir, str(i)) for i in range(len(scenarios))]
    for d in dirs:
        os.makedirs(d)
    outcomes, raw, scaled = [], [], []
    start = time.perf_counter()
    for cfg, d in zip(scenarios, dirs):
        out, r, s = sampler.timed(workload.run, cfg, d)
        outcomes.append(out)
        raw.append(r)
        scaled.append(s)
    return outcomes, raw, scaled, time.perf_counter() - start


def check_pass(scenarios, outcomes, reference, first):
    """Gate every scenario; returns the records and the failed method runs."""
    import gate

    records, failed = [], set()
    for i, (cfg, (results, faults, raster)) in enumerate(zip(scenarios, outcomes)):
        rec = gate.record(cfg, results, raster)
        misses = [(m, "fault: %s" % msg) for m, msg in faults.items()]
        misses += gate.invariant_misses(results, raster, cfg.power,
                                        cfg.geometry().n_elements)
        if reference is not None:
            misses += gate.reference_misses(rec, reference[i])
        if first is not None:
            misses += gate.repeat_misses(rec, first[i])
        for unit, msg in misses:
            print("MISS scenario %d (seed %d, S=%d, V=%d) %s: %s"
                  % (i, cfg.seed, cfg.n_sub, cfg.clusters.n_vr, unit, msg),
                  file=sys.stderr)
            failed.add((i, unit))
        records.append(rec)
    return records, len(failed)


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def percentile(values, q):
    """Linear-interpolated percentile, exact for a single sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quality(scenarios, outcomes):
    """Per-scenario PA-SA/EA-FA and PA-SA/PA-ES HPE ratios."""
    from xlwpt import baselines

    eta, sa_over_es = [], []
    for cfg, (results, _, _) in zip(scenarios, outcomes):
        by = {r.method: r for r in results}
        if "PA-SA" not in by:
            continue
        ea = by.get("EA-FA") or baselines.ea_fa(cfg.channel_set(), cfg.power)
        eta.append(by["PA-SA"].hpe / ea.hpe)
        if "PA-ES" in by:
            sa_over_es.append(by["PA-SA"].hpe / by["PA-ES"].hpe)
    return eta, sa_over_es


def main(argv=None):
    spec = load_json(BENCHMARK)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    import_program()
    import spans
    import speed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = load_json(REFERENCE)[workload.name]

    base = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        sampler = speed.Sampler()
        setup_s, scenarios, outdir = measure_setup(workload, args.seed, base,
                                                   sampler)
        walls, raw_walls, latencies = [], [], []
        first_records = first_outcomes = None
        attempted = failed = work = 0
        traced = spans.TracedPasses()
        start = time.perf_counter()
        # with --trace 1 passes alternate untraced and traced, starting
        # untraced; a further pass starts only if one more like the last
        # ends in time
        while (not raw_walls or (args.trace and not traced.walls)
               or time.perf_counter() - start + raw_walls[-1] <= args.seconds):
            trace_this = args.trace and len(walls) > len(traced.walls)
            tracer = spans.Tracer() if trace_this else None
            with sampler, tracer or nullcontext():
                outcomes, raw, lat, wall = run_pass(workload, scenarios, outdir,
                                                    sampler)
            if tracer is None:
                walls.append(sum(lat))
                latencies += lat
            else:
                # spans also hold the kernel runs that interrupted them;
                # scaling the pass's whole wall time to its nominal-speed
                # time removes their share on average
                traced.add(tracer, wall, dir_bytes(outdir),
                           scale=sum(lat) / wall)
            raw_walls.append(wall)
            records, n_failed = check_pass(scenarios, outcomes, reference,
                                           first_records)
            if first_records is None:
                first_records, first_outcomes = records, outcomes
            attempted += len(scenarios) * len(workload.methods)
            failed += n_failed
            work += sum(workload.work(r, raster) for r, _, raster in outcomes)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    eta, sa_over_es = quality(scenarios, first_outcomes)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = traced.metrics(list(units),
                                untraced_wall=statistics.median(walls))
        passes = "%d untraced + %d traced" % (len(walls), len(traced.walls))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "work_per_s": work / sum(walls),
            "scenario_p50_s": percentile(latencies, 50),
            "scenario_p75_s": percentile(latencies, 75),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eta_pa_sa_p50": statistics.median(eta),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        passes = "%d" % len(walls)

    print("workload %s  seed %d  seconds %g  trace %d  passes %s  "
          "scenarios/pass %d  BLAS threads %d  XLWPT_WORKERS unset"
          % (workload.name, args.seed, args.seconds, args.trace, passes,
             len(scenarios), BLAS_THREADS))
    print("work unit: %s; scenario latency n=%d; reference check: %s"
          % (workload.work_unit, len(latencies),
             "on" if reference is not None else "off (seed %d)" % args.seed))
    kernel_ms = [1e3 * s[1] for s in sampler.samples]
    print("speed: %d kernel runs, median %.2f ms (p10 %.2f, p90 %.2f), "
          "nominal %g ms; times are scaled to nominal speed; raw pass wall "
          "median %.4g s" % (len(kernel_ms), percentile(kernel_ms, 50),
                             percentile(kernel_ms, 10), percentile(kernel_ms, 90),
                             1e3 * speed.NOMINAL_S, statistics.median(raw_walls)))
    for name, unit in units.items():
        print("  %-36s %14.6g %s" % (name, values[name], unit))
    print("  %-36s %14.6g (%d of %d method runs)"
          % ("fail_frac", failed / attempted, failed, attempted))
    if sa_over_es:
        print("  %-36s %14.6g (n=%d)" % ("sa_over_es", statistics.median(sa_over_es),
                                        len(sa_over_es)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
