"""The program API that the benchmark harness in ``perfbench/`` calls.

The harness runs outside this suite, so a rename or deletion in ``xlwpt``
could break traced or timed benchmark runs without any failure here.
These tests load the harness's own modules, unedited, and check that
every name they reach for still exists.
"""

import dataclasses
import importlib
import importlib.util
import json
import os

import pytest

from xlwpt.scenario import ScenarioConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name):
    """A ``perfbench`` module, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads").WORKLOADS


def test_traced_functions_resolve():
    spans = load("spans")
    for module, name in spans.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module("xlwpt." + module), name)), \
            (module, name)
    for module, cls_name, name in spans.TRACED_METHODS:
        cls = getattr(importlib.import_module("xlwpt." + module), cls_name)
        assert callable(vars(cls)[name]), (module, cls_name, name)


def test_n_sub_is_a_scenario_field():
    assert "n_sub" in {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert dataclasses.replace(ScenarioConfig(), n_sub=5).n_sub == 5


def test_declared_workloads_build(workloads):
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as f:
        declared = [w["name"] for w in json.load(f)["workloads"]]
    assert sorted(declared) == sorted(workloads)
    for name in declared:
        cfgs = workloads[name].scenarios(0)
        assert cfgs, name
        cfg = cfgs[0]
        assert cfg.pa_config() is not None and cfg.sa_config() is not None
        ch = cfg.channel_set()
        assert (ch.n_sub, ch.n_elements) == (cfg.n_sub, cfg.geometry().n_elements)
