"""The narrative demos run end to end.

``05_scaling_bench.py`` is left out: it takes ~17 s, and
``TestBenchTiming`` covers the ``bench_timing`` call it makes.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")
# a line each demo prints once it has done its work
EXPECTED = {
    "01_near_field_channel.py": "Fraunhofer distance",
    "02_power_allocation.py": "converged: True",
    "03_method_comparison.py": "of the exhaustive-search HPE",
    "04_beamfocusing_map.py": "active modules",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys, monkeypatch, tmp_path):
    # demos write their files to the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out
