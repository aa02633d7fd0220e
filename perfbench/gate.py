"""Correctness gate: reference answers, invariants and repeatability.

A scenario's answers are kept as a plain record so they can be compared
with the reference file and between passes:
``{"seed", "S", "V", "methods": {name: {"hpe", "active"}}, "raster"}``.
Each check returns a list of ``(unit, message)`` misses, where ``unit``
is the method run (or ``"powermap"`` for the raster) the miss counts
against.
"""

import math

import numpy as np

REFERENCE_RTOL = 1e-12
# PA-ES stops each subset solve at the Dinkelbach tolerance (1e-7 W on
# |I - lambda P_c|, about 3e-8 relative in HPE at S=8), so PA-SA may
# exceed it by that much on the same subset without a real violation
SA_OVER_ES_SLACK = 1e-6
# PA-FA starts from the EA-FA split and never lowers the ratio
FA_OVER_EA_SLACK = 1e-12


def record(cfg, results, raster=None):
    """Answers of one scenario run, with every float kept exactly."""
    return {
        "seed": cfg.seed,
        "S": cfg.n_sub,
        "V": cfg.clusters.n_vr,
        "methods": {r.method: {"hpe": float(r.hpe),
                               "active": [int(v) for v in r.allocation.a]}
                    for r in results},
        "raster": None if raster is None else [float(v) for v in np.ravel(raster)],
    }


def _rel_miss(value, ref, rtol):
    return not abs(value - ref) <= rtol * abs(ref)


def reference_misses(rec, ref, rtol=REFERENCE_RTOL):
    """Active subset must match exactly; HPE and raster within ``rtol`` relative."""
    misses = []
    for method, want in ref["methods"].items():
        got = rec["methods"].get(method)
        if got is None:
            misses.append((method, "no result to compare with the reference"))
            continue
        if got["active"] != want["active"]:
            misses.append((method, "active subset %s, reference %s"
                           % (got["active"], want["active"])))
        if _rel_miss(got["hpe"], want["hpe"], rtol):
            misses.append((method, "HPE %.17g, reference %.17g"
                           % (got["hpe"], want["hpe"])))
    if ref.get("raster") is not None:
        got = rec["raster"]
        if got is None or len(got) != len(ref["raster"]):
            misses.append(("powermap", "raster size differs from the reference"))
        else:
            bad = [i for i, (g, w) in enumerate(zip(got, ref["raster"]))
                   if _rel_miss(g, w, rtol)]
            if bad:
                misses.append(("powermap", "%d raster values differ from the "
                               "reference, first at index %d" % (len(bad), bad[0])))
    return misses


def invariant_misses(results, raster, power_cfg, n_elements):
    """Checks that hold on every seed: finite answers, feasibility, ordering."""
    misses = []
    by_method = {r.method: r for r in results}
    for r in results:
        if not math.isfinite(r.hpe):
            misses.append((r.method, "HPE is not finite"))
        try:
            r.allocation.validate(power_cfg, n_elements)
        except ValueError as exc:
            misses.append((r.method, "allocation invalid: %s" % exc))
    if raster is not None and not np.all(np.isfinite(raster)):
        misses.append(("powermap", "raster holds non-finite values"))
    fa, ea = by_method.get("PA-FA"), by_method.get("EA-FA")
    if fa and ea and fa.hpe < ea.hpe * (1.0 - FA_OVER_EA_SLACK):
        misses.append(("PA-FA", "PA-FA HPE %.17g below EA-FA %.17g"
                       % (fa.hpe, ea.hpe)))
    sa, es = by_method.get("PA-SA"), by_method.get("PA-ES")
    if sa and es and sa.hpe > es.hpe * (1.0 + SA_OVER_ES_SLACK):
        misses.append(("PA-SA", "PA-SA HPE %.17g above PA-ES %.17g"
                       % (sa.hpe, es.hpe)))
    return misses


def repeat_misses(rec, first):
    """A repeated (or traced) pass must reproduce the first pass bit for bit."""
    misses = []
    for method, want in first["methods"].items():
        if rec["methods"].get(method) != want:
            misses.append((method, "answer differs from the first pass"))
    if rec["raster"] != first["raster"]:
        misses.append(("powermap", "raster differs from the first pass"))
    return misses
