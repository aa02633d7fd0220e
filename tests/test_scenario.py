"""Scenario file parsing, validation and the seeded user generator."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from xlwpt.scenario import (
    ClusterSpec,
    ConfigError,
    ScenarioConfig,
    cluster_sizes,
    generate_cluster_users,
    load_scenario,
    scenario_from_dict,
)


def write_config(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestDefaults:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = load_scenario(str(path))
        assert cfg == ScenarioConfig()

    def test_default_values(self):
        cfg = ScenarioConfig()
        assert (cfg.n_sub, cfg.nx, cfg.ny) == (6, 32, 8)
        assert cfg.wavelength == 0.1
        assert cfg.d == pytest.approx(0.05)
        assert cfg.element_size == pytest.approx(0.025)
        assert cfg.boresight_exp == 2.0
        assert cfg.power.varsigma == 0.35
        assert cfg.power.p_et == 0.05
        assert cfg.power.p_syn == 0.05
        assert cfg.power.p_ct == 0.0482
        assert cfg.power.p_cr == 0.0625
        assert cfg.pa.epsilon == 1e-7
        assert cfg.sa.delta == 1e-3
        assert cfg.clusters.count == 3

    def test_derived_budgets(self):
        cfg = ScenarioConfig()
        assert cfg.power.p_sub(cfg.nx * cfg.ny) == pytest.approx(12.8)
        assert cfg.power.p_total(cfg.n_sub, cfg.nx * cfg.ny) == pytest.approx(76.8)


class TestParsing:
    def test_sections_applied(self, tmp_path):
        path = write_config(tmp_path, {
            "geometry": {"S": 4, "Nx": 16, "Ny": 4, "lambda": 0.2},
            "users": {"clusters": {"V": 1, "count": 2}},
            "power": {"varsigma": 0.5},
            "solver": {"epsilon": 1e-6, "seed": 9},
            "methods": ["EA-FA", "PA-SA"],
            "outputs": {"dir": "elsewhere"},
        })
        cfg = load_scenario(path)
        assert cfg.n_sub == 4 and cfg.nx == 16 and cfg.ny == 4
        assert cfg.wavelength == 0.2
        # d and D track lambda when not given explicitly
        assert cfg.d == pytest.approx(0.1)
        assert cfg.element_size == pytest.approx(0.05)
        assert cfg.clusters.n_vr == 1 and cfg.clusters.count == 2
        assert cfg.power.varsigma == 0.5
        assert cfg.pa.epsilon == 1e-6 and cfg.seed == 9
        assert cfg.methods == ("EA-FA", "PA-SA")
        assert cfg.output_dir == "elsewhere"

    def test_explicit_positions(self, tmp_path):
        path = write_config(tmp_path, {
            "users": {"positions": [[0.1, 0.0, 1.0, 1], [-0.2, 0.05, 1.1, 2]]}})
        cfg = load_scenario(path)
        users = cfg.users()
        assert len(users) == 2
        assert users[1].vr_label == 2
        assert users[1].x == pytest.approx(-0.2)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            scenario_from_dict({"geometry": {"S": 4, "twist": 1}})
        with pytest.raises(ConfigError, match="unknown"):
            scenario_from_dict({"typo_section": {}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"geometry": {"S": -1}})
        with pytest.raises(ConfigError):
            scenario_from_dict({"power": {"varsigma": 0}})
        with pytest.raises(ConfigError):
            scenario_from_dict({"solver": {"epsilon": -1e-7}})
        with pytest.raises(ConfigError):
            scenario_from_dict({"users": {"positions": [[0, 0, -1, 1]]}})
        with pytest.raises(ConfigError):
            scenario_from_dict({"users": {"clusters": {"V": 3, "count": 2}}})
        with pytest.raises(ConfigError):
            scenario_from_dict({"methods": ["PA-XX"]})

    @pytest.mark.parametrize("raw", [
        {"solver": {"lambda0": "abc"}},
        {"geometry": {"S": "4"}},
        {"power": {"P_syn": "a"}},
        {"geometry": []},
        {"solver": {"es_cap": -1}},
        {"solver": {"warm_start": "no"}},
        {"geometry": {"S": 2.9}},
        {"users": {"clusters": {"V": 2.5}}},
        {"solver": {"gamma": math.inf}},
        {"users": {"positions": [[0.1, 0.0, math.nan, 1]]}},
        {"solver": {"max_outer": 0}},
        {"solver": {"seed": "x"}},
        {"solver": {"seed": 1.7}},
        {"geometry": {"S": True}},
        {"geometry": {"amplitude_model": "foo"}},
        {"geometry": {"S": 2, "origins": [[-1.0, 0.0, 0.0]]}},
        {"power": {"varsigma": 2}},
        {"users": {"positions": [[math.inf, 0.0, 1.0, 1]]}},
        {"users": {"positions": [[0.1, 0.0, 1.0, 0]]}},
        {"outputs": {"artifacts": "results"}},
        {"outputs": {"dir": 3}},
        {"methods": []},
        {"solver": {"epsilon": math.nan}},
    ])
    def test_invalid_input_table(self, raw):
        with pytest.raises(ConfigError):
            scenario_from_dict(raw)

    def test_error_names_the_key(self):
        with pytest.raises(ConfigError, match=r"^solver\.max_sa_iters: "):
            scenario_from_dict({"solver": {"max_sa_iters": 0}})
        with pytest.raises(ConfigError, match=r"^users\.clusters\.V, users\.clusters\.count: "):
            scenario_from_dict({"users": {"clusters": {"V": 3, "count": 2}}})

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_scenario(str(path))


class TestClusterGenerator:
    def test_sizes_largest_first(self):
        assert cluster_sizes(3, 2) == [2, 1]
        assert cluster_sizes(7, 3) == [3, 2, 2]
        assert cluster_sizes(4, 4) == [1, 1, 1, 1]

    def test_counts_and_labels(self):
        rng = np.random.default_rng(0)
        users = generate_cluster_users(ClusterSpec(n_vr=2, count=5), rng)
        assert len(users) == 5
        assert [u.vr_label for u in users] == [1, 1, 1, 2, 2]

    def test_users_inside_disc(self):
        spec = ClusterSpec(n_vr=2, count=10, range_m=1.0, radius_m=0.15)
        rng = np.random.default_rng(1)
        users = generate_cluster_users(spec, rng)
        half = math.radians(spec.arc_deg) / 2
        centers = {1: (math.sin(-half), math.cos(-half)),
                   2: (math.sin(half), math.cos(half))}
        for u in users:
            cx, cz = centers[u.vr_label]
            dist = math.hypot(u.x - cx, u.z - cz)
            planar = math.hypot(dist, u.y)
            assert planar <= spec.radius_m + 1e-12

    def test_single_cluster_sits_off_boresight(self):
        spec = ClusterSpec(n_vr=1, count=6, radius_m=1e-9)
        rng = np.random.default_rng(2)
        users = generate_cluster_users(spec, rng)
        angle = 0.3 * math.radians(spec.arc_deg) / 2
        for u in users:
            assert u.x == pytest.approx(spec.range_m * math.sin(angle), abs=1e-6)
            assert u.z == pytest.approx(spec.range_m * math.cos(angle), abs=1e-6)

    def test_seeded_and_repeatable(self):
        spec = ClusterSpec()
        u1 = generate_cluster_users(spec, np.random.default_rng(5))
        u2 = generate_cluster_users(spec, np.random.default_rng(5))
        assert u1 == u2

    def test_layout_independent_of_subarray_count(self):
        # the array is centered at x=0, so sweeping S must not move the users
        cfg4 = replace(ScenarioConfig(), n_sub=4)
        cfg8 = replace(ScenarioConfig(), n_sub=8)
        assert cfg4.users() == cfg8.users()

    def test_invalid_spec(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            generate_cluster_users(ClusterSpec(n_vr=0, count=3), rng)
        with pytest.raises(ConfigError):
            generate_cluster_users(ClusterSpec(n_vr=4, count=3), rng)


class TestBuilders:
    def test_geometry_and_solver_configs(self):
        cfg = ScenarioConfig()
        geom = cfg.geometry()
        assert geom.n_sub == 6 and geom.n_elements == 256
        pa_cfg = cfg.pa_config()
        assert pa_cfg.epsilon == 1e-7
        sa_cfg = cfg.sa_config()
        assert sa_cfg.delta == 1e-3
        assert pa_cfg is cfg.pa and sa_cfg is cfg.sa

    def test_channel_set_shape(self):
        cfg = replace(ScenarioConfig(), n_sub=3, nx=8, ny=2)
        ch = cfg.channel_set()
        assert ch.g.shape == (3, 3, 16)
