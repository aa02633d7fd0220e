"""Fuzz of the scenario keys through the command line.

Hypothesis draws scenario files over ``scenario.SCHEMA`` keys, with values
of every JSON type, extreme finite numbers and out-of-range bounds. Each
draw must end by contract: ``xlwpt solve`` returns 0, 1 (a method fault,
recorded), 2 (invalid input) or 3 (a solver fault) and never raises. The
keys that size the work (S, Nx, Ny, the user count, the iteration caps,
the ES cap and the lists of rows) draw only small values.
"""

import json
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from xlwpt import cli  # noqa: E402
from xlwpt.scenario import SCHEMA, ConfigError, scenario_from_dict  # noqa: E402

# a fast scenario under every draw: 2 modules of 8 elements, 2 users
BASE = {
    "geometry": {"S": 2, "Nx": 4, "Ny": 2},
    "users": {"clusters": {"V": 1, "count": 2, "range": 0.5, "radius": 0.1}},
    "solver": {"max_outer": 4, "max_dr": 40, "max_sa_iters": 3},
}

EXTREME = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12,
                           1e300, -1e300, 1.7976931348623157e308])
FINITE = EXTREME | st.floats(0.0, 1e3) | st.floats(allow_nan=False, allow_infinity=False)
ANY = (st.none() | st.booleans() | st.integers(-3, 3) | FINITE | st.text(max_size=4)
       | st.lists(st.integers(0, 2), max_size=2))
ROW = st.lists(FINITE | st.integers(-1, 3), min_size=2, max_size=5)
ORIGIN = st.tuples(FINITE, FINITE, st.just(0.0)).map(list) | ROW
POSITION = st.tuples(FINITE, FINITE, FINITE, st.integers(1, 3)).map(list) | ROW
# values of each key's type, small for the keys that size the work
TYPED = {
    "geometry.S": st.integers(-1, 3),
    "geometry.Nx": st.integers(-1, 4),
    "geometry.Ny": st.integers(-1, 3),
    "geometry.origins": st.lists(ORIGIN, max_size=3),
    "geometry.amplitude_model": st.sampled_from(["center", "per_element", "x"]),
    "users.positions": st.lists(POSITION, max_size=3),
    "users.clusters.V": st.integers(-1, 3),
    "users.clusters.count": st.integers(-1, 3),
    "solver.max_outer": st.integers(-1, 4),
    "solver.max_dr": st.integers(-1, 40),
    "solver.max_sa_iters": st.integers(-1, 3),
    "solver.warm_start": st.booleans(),
    "solver.seed": st.integers(-1, 2**32),
    "solver.es_cap": st.integers(-1, 3),
    "solver.lambda0": st.none() | FINITE,
    "methods": st.lists(st.sampled_from(["PA-SA", "PA-FA", "PA-ES", "EA-FA", "x"]),
                        max_size=4),
    "outputs.dir": st.text(max_size=4),
    "outputs.artifacts": st.lists(st.sampled_from(["results", "traces", "allocation",
                                                   "x"]), max_size=3),
}
# one draw in eight is of any type
SETTINGS = st.sampled_from(sorted(SCHEMA)).flatmap(lambda key: st.tuples(
    st.just(key), st.integers(0, 7).flatmap(
        lambda i: TYPED.get(key, FINITE) if i else ANY)))


def nested(settings_):
    """The scenario JSON object holding ``settings_``, over BASE."""
    raw = json.loads(json.dumps(BASE))
    for key, value in settings_.items():
        *sections, name = key.split(".")
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    return raw


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(SETTINGS, max_size=4).map(dict))
@example(drawn={"geometry.b": 1e6})
@example(drawn={"solver.lambda0": 1e300})
@example(drawn={"geometry.d": 1e300})
@example(drawn={"power.P_ct": 1.7976931348623157e308})
def test_solve_ends_by_contract(tmp_path, drawn):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(nested(drawn)))
    with warnings.catch_warnings():
        # the command line prints warnings; the exit code is the contract
        warnings.simplefilter("ignore")
        code = cli.main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2, 3)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(SETTINGS, max_size=4).map(dict))
def test_set_flags_build_the_file_config(tmp_path, drawn):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(BASE))
    overrides = ["%s=%s" % (key, json.dumps(value)) for key, value in drawn.items()]
    try:
        want = scenario_from_dict(nested(drawn))
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            cli._apply_overrides(str(path), overrides)
        assert str(got.value) == str(exc)
    else:
        assert cli._apply_overrides(str(path), overrides) == want
