"""Record the reference answers the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs one pass of every workload on the reference seed and writes
``perfbench/reference.json``. Re-record only when a change is meant to
alter the answers; a speed-up must reproduce them to 1e-12 relative.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main():
    run.pin_threads()
    run.import_program()
    import gate
    import speed
    from workloads import WORKLOADS

    out = {}
    base = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name, workload in WORKLOADS.items():
            scenarios = workload.scenarios(run.REFERENCE_SEED)
            with speed.Sampler() as sampler:
                outcomes = run.run_pass(workload, scenarios, base, sampler)[0]
            for cfg, (_, faults, _) in zip(scenarios, outcomes):
                if faults:
                    raise SystemExit("seed %d faulted: %s" % (cfg.seed, faults))
            out[name] = [gate.record(cfg, results, raster)
                         for cfg, (results, _, raster) in zip(scenarios, outcomes)]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
