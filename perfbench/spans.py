"""Span tracing of xlwpt's public functions, applied from outside the package.

``Tracer`` replaces each traced function at every module attribute that
binds it (``pa.project_feasible`` and ``sa.project_feasible`` are two
binding sites of one function), records one span per call and restores
every original binding on exit. Counters are derived from the traced
functions' return values, never from edits to the program.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict

# (defining module, function) pairs traced at every binding site; the span
# name is "<module>.<function>" whichever binding the caller used
TRACED_FUNCTIONS = (
    ("geometry", "channel"),
    ("geometry", "build_channel_set"),
    ("power", "harvested_power"),
    ("power", "hpe"),
    ("power", "power_map"),
    ("pa", "pa_solve"),
    ("pa", "dr_solve"),
    ("pa", "prox_consumption"),
    ("pa", "project_feasible"),
    ("pa", "build_quadratic"),
    ("pa", "quadratic_sup"),
    ("sa", "joint_solve"),
    ("sa", "activation_update"),
    ("baselines", "pa_es"),
    ("baselines", "pa_fa"),
    ("baselines", "pa_sa"),
    ("bench", "run_methods"),
    ("bench", "emit_powermap"),
)
# methods are bound once, on their class
TRACED_METHODS = (("scenario", "ScenarioConfig", "channel_set"),)


def _count_pa_solve(counters, out):
    trace = out[1]
    counters["pa.dinkelbach_iters"] += trace.n_iterations
    counters["pa.dr_iters"] += sum(s.dr_iterations for s in trace.states)


def _count_joint_solve(counters, out):
    counters["sa.outer_iters"] += out[1].outer_iterations


def _count_pa_es(counters, out):
    counters["baselines.pa_es.subsets"] += out.extra["subsets_evaluated"]


def _count_power_map(counters, out):
    counters["power.power_map.probes"] += len(out)


COUNTERS_FROM_RETURN = {
    "pa.pa_solve": _count_pa_solve,
    "sa.joint_solve": _count_joint_solve,
    "baselines.pa_es": _count_pa_es,
    "power.power_map": _count_power_map,
}
COUNTER_NAMES = ("pa.dinkelbach_iters", "pa.dr_iters", "sa.outer_iters",
                 "baselines.pa_es.subsets", "power.power_map.probes")


def _xlwpt_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "xlwpt" or name.startswith("xlwpt."))]


def binding_sites():
    """Every (owner, attribute, span name, original) that binds a traced callable.

    Functions are found by identity in every loaded xlwpt module, so a
    re-export or ``from .x import f`` is traced like the definition.
    """
    import xlwpt  # noqa: F401 - loads every submodule

    modules = _xlwpt_modules()
    sites = []
    for mod_name, func_name in TRACED_FUNCTIONS:
        original = getattr(sys.modules["xlwpt." + mod_name], func_name)
        span = "%s.%s" % (mod_name, func_name)
        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    sites.append((module, attr, span, original))
    for mod_name, cls_name, meth_name in TRACED_METHODS:
        cls = getattr(sys.modules["xlwpt." + mod_name], cls_name)
        sites.append((cls, meth_name, "%s.%s" % (mod_name, meth_name),
                      vars(cls)[meth_name]))
    return sites


class Tracer:
    """Context manager that traces xlwpt calls while active.

    Spans are kept in memory as ``(name, start, end, parent)`` tuples,
    ``parent`` being the index of the enclosing span or -1. Calls run on
    one thread, so a plain stack gives each span its parent.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._installed = []

    def _wrap(self, span, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS_FROM_RETURN.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (span, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counters, out)
            return out

        return traced

    def __enter__(self):
        wrappers = {}
        try:
            for owner, attr, span, original in binding_sites():
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(span, original)
                setattr(owner, attr, wrappers[id(original)])
                self._installed.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters.clear()
        self._stack.clear()
        return spans, counters


def summarize(spans):
    """Per-name call count, inclusive and self seconds, and top-level seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    top_s = 0.0
    parent_names = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["incl_s"] += end - start
        s["self_s"] += end - start - child[i]
        if parent < 0:
            top_s += end - start
        else:
            parent_names[(name, spans[parent][0])] += 1
    return dict(stats), top_s, dict(parent_names)


class TracedPasses:
    """Span statistics summed over traced passes, reported per pass."""

    def __init__(self):
        self.stats = {}
        self.counters = defaultdict(int)
        self.parents = defaultdict(int)
        self.walls = []
        self.top_s = 0.0
        self.artifact_bytes = 0

    def add(self, tracer, wall, artifact_bytes, scale=1.0):
        """Fold one traced pass: its tracer, wall time and bytes written.

        Every time, the pass's wall time too, is multiplied by ``scale``.
        """
        span_list, counters = tracer.take()
        stats, top_s, parents = summarize(span_list)
        for name, s in stats.items():
            acc = self.stats.setdefault(name, dict.fromkeys(s, 0))
            acc["calls"] += s["calls"]
            acc["incl_s"] += s["incl_s"] * scale
            acc["self_s"] += s["self_s"] * scale
        for k, v in counters.items():
            self.counters[k] += v
        for k, v in parents.items():
            self.parents[k] += v
        self.walls.append(wall * scale)
        self.top_s += top_s * scale
        self.artifact_bytes += artifact_bytes

    def metrics(self, names, untraced_wall):
        """Per-pass value of each named per-layer metric.

        A name is a return-value counter, one of the derived figures below,
        or ``<span>.calls``, ``<span>.self_s`` or ``<span>.incl_s``. A span
        that never ran reads 0.
        """
        n = len(self.walls)
        dr_calls = self.stats.get("pa.dr_solve", {}).get("calls", 0)
        derived = {key: self.counters[key] / n for key in COUNTER_NAMES}
        derived.update({
            "pa.dr_iters_per_solve": (self.counters["pa.dr_iters"] / dr_calls
                                      if dr_calls else 0.0),
            # dr_solve projects its start and its DR candidate itself; its
            # other direct project_feasible calls come from the PGA polishes
            "pa.project_feasible.polish_calls": (
                self.parents[("pa.project_feasible", "pa.dr_solve")]
                - 2 * dr_calls) / n,
            "bench.artifact_bytes": self.artifact_bytes / n,
            "trace.overhead_s": statistics.median(self.walls) - untraced_wall,
            "trace.coverage": self.top_s / sum(self.walls),
        })
        out = {}
        for name in names:
            if name in derived:
                out[name] = derived[name]
            else:
                span, kind = name.rsplit(".", 1)
                if kind not in ("calls", "self_s", "incl_s"):
                    raise KeyError("unknown per-layer metric %r" % name)
                out[name] = self.stats.get(span, {}).get(kind, 0) / n
        return out
