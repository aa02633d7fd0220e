"""Edge-case probes run through ``run_methods`` with all four methods.

Each probe is one extreme of the default scenario: a single sub-array, a
single user, no circuit power, a user 1 mm in front of the array centre,
one 1,000 km out on boresight, and one grazing the array plane 100 m to
the side. Every method must solve each probe without a fault and return a
feasible allocation with a finite HPE.
"""

from dataclasses import replace

import numpy as np
import pytest

from xlwpt.bench import run_methods
from xlwpt.power import PowerConfig
from xlwpt.scenario import ClusterSpec, ScenarioConfig

METHODS = ("EA-FA", "PA-FA", "PA-SA", "PA-ES")
BASE = ScenarioConfig(methods=METHODS)
PROBES = {
    "one_subarray": replace(BASE, n_sub=1),
    "one_user": replace(BASE, clusters=ClusterSpec(n_vr=1, count=1)),
    # PA-SA reads 0.0521777 here against PA-ES's 0.052125
    "zero_circuit_power": replace(BASE, power=PowerConfig(p_syn=0.0, p_ct=0.0,
                                                          p_cr=0.0)),
    "user_at_1mm": replace(BASE, positions=((0.0, 0.0, 1e-3, 1),)),
    "user_at_1000km": replace(BASE, positions=((0.0, 0.0, 1e6, 1),)),
    "grazing_user": replace(BASE, positions=((100.0, 0.0, 1e-6, 1),)),
}


# the grazing user sees the same value whichever method allocates the power
EVERY_METHOD_READS = {"grazing_user": 1.53073e-21}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_every_method_solves_the_probe(name):
    cfg = PROBES[name]
    results, faults = run_methods(cfg)
    assert faults == {}
    hpe = {r.method: r.hpe for r in results}
    assert sorted(hpe) == sorted(METHODS)
    n_elements = cfg.geometry().n_elements
    for r in results:
        assert np.isfinite(r.hpe) and r.hpe >= 0.0
        r.allocation.validate(cfg.power, n_elements)
    assert hpe["PA-FA"] >= hpe["EA-FA"]
    if name in EVERY_METHOD_READS:
        assert list(hpe.values()) == pytest.approx(
            [EVERY_METHOD_READS[name]] * len(METHODS), rel=1e-5)
