"""Orchestration and command-line harness tests."""

import csv
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from oracles import csv_writer_text, trace_record
from xlwpt import baselines, bench, cli, power
from xlwpt.bench import (
    SweepSpec,
    bench_timing,
    emit_convergence,
    emit_powermap,
    run_methods,
    sweep,
)
from xlwpt.cli import main
from xlwpt.pa import SolverFault
from xlwpt.power import AllocationState, uniform_split
from xlwpt.sa import SAConfig, SolveReport
from xlwpt.scenario import ScenarioConfig, ClusterSpec, scenario_from_dict


def small_cfg(**kw):
    """A fast scenario: 3 modules of 16 elements, 2 users in one cluster."""
    base = ScenarioConfig(n_sub=3, nx=8, ny=2,
                          clusters=ClusterSpec(n_vr=1, count=2, range_m=0.5,
                                               radius_m=0.1))
    return replace(base, **kw)


SMALL_JSON = {
    "geometry": {"S": 3, "Nx": 8, "Ny": 2},
    "users": {"clusters": {"V": 1, "count": 2, "range": 0.5, "radius": 0.1}},
}


def float_table(n_rows):
    """An (n_rows, 3) float table: signs, magnitudes 1e-300 to 1e300, -0.0 and inf."""
    rng = np.random.default_rng(n_rows)
    rows = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    rows[::7, 0] = -0.0
    rows[::11, 2] = np.inf
    return rows


def mask_timings(text):
    """Blank out wall-clock fields so runs can be compared byte-for-byte."""
    lines = text.splitlines()
    header = lines[0].split(",")
    out = [lines[0]]
    drop = {i for i, name in enumerate(header)
            if name in ("seconds", "wall_ns")}
    for line in lines[1:]:
        cells = line.split(",")
        out.append(",".join("X" if i in drop else c
                            for i, c in enumerate(cells)))
    return "\n".join(out)


class TestWriters:
    def test_csv_cells_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        bench._write_csv(path, ["none", "float", "int", "timing", "text"],
                         [[None, 0.1, 3, bench._timing(1.23456789), "a, b"],
                          [None, 1.0, -2, bench._timing(None), "c"]])
        assert path.read_bytes() == (b"none,float,int,timing,text\n"
                                     b',0.10000000000000001,3,1.23457,"a, b"\n'
                                     b",1,-2,,c\n")

    @pytest.mark.parametrize("rows", [
        [[float("inf"), float("-inf"), float("nan")], [-0.0, 5e-324, 1.7976931348623157e308],
         [0.1, np.float64(-2.5e-17), 1e22], [1.0], []],
        [[None, 1, "a, b"], [2.5, -3, 'say "hi"'], [True, "", None],
         ["x", '"', ",,"], [None]],
        [[0.5, 1.5], [0.5, None], ['q"1', 7.0], [float("nan"), -0.0], [3, 4.0]],
        np.array([[float("inf"), float("-inf"), float("nan")],
                  [-0.0, 5e-324, 1.7976931348623157e308], [1e22, 0.1, 1.0]]),
        # a float table goes out in blocks of _CSV_BLOCK_ROWS rows
        float_table(0),
        float_table(1),
        float_table(bench._CSV_BLOCK_ROWS),
        float_table(bench._CSV_BLOCK_ROWS + 1),
        float_table(3 * bench._CSV_BLOCK_ROWS + bench._CSV_BLOCK_ROWS // 2),
    ], ids=["all_float", "mixed", "interleaved", "float_table", "no_rows",
            "one_row", "one_block", "one_block_and_a_row", "partial_last_block"])
    def test_csv_bytes_equal_csv_writer_oracle(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        header = ["a", "b, c", 'd"']
        bench._write_csv(path, header, rows if isinstance(rows, np.ndarray)
                         else [tuple(row) for row in rows])
        assert path.read_bytes() == csv_writer_text(header, rows).encode()

    def test_float_table_memory_does_not_grow_with_its_rows(self, tmp_path):
        # the whole text of these 200,000 rows is ~13 MB
        rows = float_table(200_000)
        tracemalloc.start()
        try:
            bench._write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_json_exact_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        bench._write_json(path, {"b": [1, 0.5], "a": "x"})
        assert path.read_text() == ('{\n  "a": "x",\n  "b": [\n    1,\n'
                                    '    0.5\n  ]\n}\n')


class TestRunMethods:
    def test_artifacts_written(self, tmp_path):
        cfg = small_cfg(methods=("EA-FA", "PA-FA", "PA-SA"))
        results, faults = run_methods(cfg, outdir=str(tmp_path))
        assert not faults
        assert {r.method for r in results} == {"EA-FA", "PA-FA", "PA-SA"}
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "trace_PA-FA.csv").exists()
        assert (tmp_path / "convergence_PA-SA.csv").exists()
        assert (tmp_path / "allocation_PA-SA.json").exists()
        assert not (tmp_path / "faults.json").exists()

    @pytest.mark.parametrize("users", [
        {"clusters": ClusterSpec(n_vr=2, count=3, range_m=0.5, radius_m=0.1)},
        {"positions": ((0.0, 0.0, 0.5, 1), (0.1, 0.0, 0.6, 3), (-0.1, 0.0, 0.6, 3))},
    ], ids=["clusters", "positions"])
    def test_n_vr_column_counts_user_labels(self, tmp_path, users):
        cfg = small_cfg(methods=("EA-FA",), **users)
        run_methods(cfg, outdir=str(tmp_path))
        row = (tmp_path / "results.csv").read_text().splitlines()[1].split(",")
        assert int(row[2]) == len({u.vr_label for u in cfg.users()}) == 2

    def test_results_csv_header(self, tmp_path):
        cfg = small_cfg(methods=("EA-FA",))
        run_methods(cfg, outdir=str(tmp_path))
        first = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert first == "method,n_subarrays,n_vr,hpe,eta,active_count,seconds"

    def test_fault_isolation(self, tmp_path):
        # PA-ES over 3 modules with cap 2 must fault without killing the run
        cfg = small_cfg(methods=("EA-FA", "PA-ES"), es_cap=2)
        results, faults = run_methods(cfg, outdir=str(tmp_path))
        assert [r.method for r in results] == ["EA-FA"]
        assert "PA-ES" in faults
        recorded = json.loads((tmp_path / "faults.json").read_text())
        assert "PA-ES" in recorded

    def test_deterministic_given_seed(self, tmp_path):
        cfg = small_cfg(methods=("EA-FA", "PA-FA", "PA-SA"))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_methods(cfg, outdir=str(d1))
        run_methods(cfg, outdir=str(d2))
        for name in ("results.csv", "trace_PA-FA.csv", "convergence_PA-SA.csv"):
            t1 = mask_timings((d1 / name).read_text())
            t2 = mask_timings((d2 / name).read_text())
            assert t1 == t2, name
        a1 = json.loads((d1 / "allocation_PA-SA.json").read_text())
        a2 = json.loads((d2 / "allocation_PA-SA.json").read_text())
        a1.pop("wall_clock_seconds")
        a2.pop("wall_clock_seconds")
        assert a1 == a2

    def test_seed_changes_results(self):
        r1, _ = run_methods(small_cfg(methods=("EA-FA",), seed=0))
        r2, _ = run_methods(small_cfg(methods=("EA-FA",), seed=1))
        assert r1[0].hpe != r2[0].hpe


def report_record(report):
    """Every field of a SolveReport but its wall clock, floats as exact reprs."""
    fields = dict(vars(report))
    fields.pop("wall_clock")
    fields["active_trace"] = [a.tolist() for a in fields["active_trace"]]
    return repr(sorted(fields.items()))


def opening_cfg(n_sub=3, n_vr=1, count=3, warm_start=True,
                methods=("EA-FA", "PA-FA", "PA-SA")):
    return small_cfg(n_sub=n_sub, methods=methods, sa=SAConfig(warm_start=warm_start),
                     clusters=ClusterSpec(n_vr=n_vr, count=count, range_m=0.5,
                                          radius_m=0.1))


def blocked_channels(cfg):
    """``cfg``'s channels with user 1 reached by sub-array 0 only."""
    ch = ScenarioConfig.channel_set(cfg)
    g = ch.g.copy()
    g[1:, 1, :] = 0.0
    return replace(ch, g=g)


class TestOpeningStack:
    """run_methods solves PA-FA and PA-SA's first iterate as one lane stack."""

    def run_and_compare(self, cfg, monkeypatch, ch=None):
        if ch is not None:
            monkeypatch.setattr(ScenarioConfig, "channel_set", lambda self: ch)
        ch = cfg.channel_set()
        stacks = []
        solve_lanes = baselines.solve_lanes

        def recording(ch_, a_tilde, *args):
            stacks.append(len(a_tilde))
            return solve_lanes(ch_, a_tilde, *args)

        monkeypatch.setattr(baselines, "solve_lanes", recording)
        results, faults = run_methods(cfg)
        assert not faults
        both = "PA-FA" in cfg.methods and "PA-SA" in cfg.methods
        assert stacks == ([2] if both else [])
        got = {r.method: r for r in results}
        pa_cfg, sa_cfg = cfg.pa_config(), cfg.sa_config()
        if "PA-FA" in cfg.methods:
            want = baselines.pa_fa(ch, pa_cfg, cfg.power)
            assert got["PA-FA"].allocation.omega.tobytes() == want.allocation.omega.tobytes()
            assert repr(got["PA-FA"].hpe) == repr(want.hpe)
            assert (trace_record(got["PA-FA"].extra["pa_trace"])
                    == trace_record(want.extra["pa_trace"]))
        if "PA-SA" in cfg.methods:
            want = baselines.pa_sa(ch, pa_cfg, cfg.power, sa_cfg)
            assert got["PA-SA"].allocation.omega.tobytes() == want.allocation.omega.tobytes()
            assert repr(got["PA-SA"].hpe) == repr(want.hpe)
            assert (report_record(got["PA-SA"].extra["report"])
                    == report_record(want.extra["report"]))
        return got

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("n_vr", [1, 2])
    @pytest.mark.parametrize("n_sub", [1, 3, 10])
    def test_lanes_match_solo_solves(self, monkeypatch, n_sub, n_vr, warm_start):
        self.run_and_compare(opening_cfg(n_sub, n_vr, warm_start=warm_start),
                             monkeypatch)

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    def test_one_user(self, monkeypatch, warm_start):
        self.run_and_compare(opening_cfg(4, count=1, warm_start=warm_start),
                             monkeypatch)

    def test_blocked_user(self, monkeypatch):
        cfg = opening_cfg(4, count=2)
        ch = blocked_channels(cfg)
        got = self.run_and_compare(cfg, monkeypatch, ch)
        assert np.all(got["PA-FA"].allocation.omega[1:, 1] == 0.0)

    @pytest.mark.parametrize("method", ["PA-FA", "PA-SA"])
    def test_one_method_solves_alone(self, monkeypatch, method):
        self.run_and_compare(opening_cfg(4, methods=("EA-FA", method)), monkeypatch)

    def test_stack_time_counts_for_both_methods(self, monkeypatch):
        opening_lanes = baselines.opening_lanes

        def slow(*args):
            lanes = opening_lanes(*args)
            return {m: replace(lane, seconds=lane.seconds + 100.0)
                    for m, lane in lanes.items()}

        monkeypatch.setattr(baselines, "opening_lanes", slow)
        results, _ = run_methods(opening_cfg())
        seconds = {r.method: r.wall_clock for r in results}
        assert seconds["PA-FA"] > 100.0 and seconds["PA-SA"] > 100.0
        assert seconds["EA-FA"] < 100.0

    @pytest.mark.parametrize("fa_faults", [False, True], ids=["both-solve", "fa-faults"])
    def test_stack_fault_falls_back_to_solo_solves(self, monkeypatch, fa_faults):
        cfg = opening_cfg()
        ch = cfg.channel_set()
        want = {"PA-FA": baselines.pa_fa(ch, cfg.pa_config(), cfg.power),
                "PA-SA": baselines.pa_sa(ch, cfg.pa_config(), cfg.power, cfg.sa_config())}
        solve_lanes = baselines.solve_lanes

        def stack_fails(ch_, a_tilde, *args):
            if len(a_tilde) == 2:
                raise SolverFault("shared stack fault")
            return solve_lanes(ch_, a_tilde, *args)

        def fa_fails(*args, **kwargs):
            raise SolverFault("PA-FA fault")

        monkeypatch.setattr(baselines, "solve_lanes", stack_fails)
        if fa_faults:
            # pa_fa's own solve; joint_solve calls sa.pa_solve
            monkeypatch.setattr(baselines, "pa_solve", fa_fails)
        results, faults = run_methods(cfg)
        assert faults == ({"PA-FA": "SolverFault: PA-FA fault"} if fa_faults else {})
        got = {r.method: r for r in results}
        assert sorted(got) == (["EA-FA", "PA-SA"] if fa_faults
                               else ["EA-FA", "PA-FA", "PA-SA"])
        for method, r in got.items():
            if method != "EA-FA":
                assert r.allocation.omega.tobytes() == want[method].allocation.omega.tobytes()
                assert repr(r.hpe) == repr(want[method].hpe)
        assert (report_record(got["PA-SA"].extra["report"])
                == report_record(want["PA-SA"].extra["report"]))


class TestSweep:
    def test_sweep_over_s(self, tmp_path):
        cfg = small_cfg(methods=("EA-FA", "PA-SA"))
        spec = SweepSpec(variable="S", values=(2, 3), repetitions=2)
        rows = sweep(cfg, spec, str(tmp_path))
        assert len(rows) == 2 * 2 * 2
        raw = (tmp_path / "sweep_raw.csv").read_text().splitlines()
        assert raw[0] == ("variable,value,repetition,method,hpe,eta,"
                          "active_count,active_ratio,seconds,fault")
        assert len(raw) == 1 + len(rows)
        assert (tmp_path / "eta_vs_S.csv").exists()
        assert (tmp_path / "active_ratio_vs_S.csv").exists()
        assert (tmp_path / "time_vs_S.csv").exists()

    def test_sweep_over_v(self, tmp_path):
        cfg = small_cfg(methods=("EA-FA",),
                        clusters=ClusterSpec(n_vr=1, count=2, range_m=0.5,
                                             radius_m=0.1))
        spec = SweepSpec(variable="V", values=(1, 2), repetitions=1)
        rows = sweep(cfg, spec, str(tmp_path))
        assert {row["value"] for row in rows} == {1, 2}

    def test_aggregate_means(self, tmp_path):
        cfg = small_cfg(methods=("EA-FA", "PA-SA"))
        spec = SweepSpec(variable="S", values=(3,), repetitions=2)
        rows = sweep(cfg, spec, str(tmp_path))
        wanted = np.mean([row["eta"] for row in rows
                          if row["method"] == "PA-SA"])
        text = (tmp_path / "eta_vs_S.csv").read_text().splitlines()
        got = dict()
        for line in text[1:]:
            value, method, mean = line.split(",")
            got[(value, method)] = float(mean)
        assert got[("3", "PA-SA")] == pytest.approx(wanted)

    def test_fault_with_comma_stays_one_cell(self, tmp_path, monkeypatch):
        msg = "shape (2, 3), not (3, 2)"

        def failing(*args, **kwargs):
            raise ValueError(msg)

        monkeypatch.setattr(baselines, "pa_es", failing)
        cfg = small_cfg(methods=("EA-FA", "PA-ES"))
        sweep(cfg, SweepSpec(variable="S", values=(2,)), str(tmp_path))
        with open(tmp_path / "sweep_raw.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 10 for row in rows)
        assert rows[-1][3] == "PA-ES" and rows[-1][-1] == "ValueError: " + msg

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="Q", values=(1,))
        with pytest.raises(ValueError):
            SweepSpec(variable="S", values=())
        with pytest.raises(ValueError):
            SweepSpec(variable="S", values=(2,), repetitions=0)
        with pytest.raises(ValueError, match="distinct"):
            SweepSpec(variable="S", values=(2, 2, 3))


class TestPowerMap:
    def test_raster_shape_and_csv(self, tmp_path):
        cfg = small_cfg(methods=("PA-SA",))
        results, _ = run_methods(cfg)
        path = tmp_path / "map.csv"
        grid = emit_powermap(cfg, results[0].allocation, plane="xz",
                             resolution=6, path=str(path))
        assert grid.shape == (6, 6)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,z_m,watts"
        assert len(lines) == 1 + 36
        assert np.all(grid >= 0)

    def test_hotspot_near_users(self, tmp_path):
        # the raster should align with the served cluster in angle; the
        # small test aperture barely focuses in range, so compare the
        # user's cell against its mirror image across boresight instead
        # of asserting a peak in depth
        cfg = small_cfg(methods=("PA-SA",))
        results, _ = run_methods(cfg)
        users = cfg.users()
        grid = emit_powermap(cfg, results[0].allocation, plane="xz",
                             extent=(-1.0, 1.0, 0.1, 1.0), resolution=21,
                             path=str(tmp_path / "m.csv"))
        xs = np.linspace(-1.0, 1.0, 21)
        zs = np.linspace(0.1, 1.0, 21)
        iz, ix = np.unravel_index(np.argmax(grid), grid.shape)
        ux = np.mean([u.x for u in users])
        uz = np.mean([u.z for u in users])
        assert abs(xs[ix] - ux) < 0.35
        iux = int(np.argmin(np.abs(xs - ux)))
        imx = int(np.argmin(np.abs(xs + ux)))
        iuz = int(np.argmin(np.abs(zs - uz)))
        assert grid[iuz, iux] > 2.0 * grid[iuz, imx]

    def test_probe_at_user_uses_scenario_amplitude_model(self, tmp_path):
        # a one-cell raster placed on a user reads that user's received
        # power only if the probe channels follow the scenario's model; the
        # user sits at y = 0, on the xz plane
        cfg = small_cfg(methods=("PA-SA",), amplitude_model="per_element",
                        positions=((0.2, 0.0, 0.45, 1), (0.3, 0.06, 0.5, 1)))
        results, _ = run_methods(cfg)
        alloc = results[0].allocation
        u = cfg.users()[0]
        grid = emit_powermap(cfg, alloc, plane="xz",
                             extent=(u.x, u.x, u.z, u.z), resolution=1,
                             path=str(tmp_path / "m.csv"))
        ch = cfg.channel_set()
        coef = power._coefficients(ch, alloc.omega, alloc.a.astype(float))
        assert grid[0, 0] == power._received(coef, ch.gram)[0]

    @pytest.mark.parametrize("plane", ["xz", "yz"])
    def test_default_extent_holds_placed_users(self, tmp_path, plane):
        # users far beyond twice the cluster range and off the array's width
        cfg = small_cfg(positions=((2.5, 1.0, 4.0, 1), (-0.2, -1.5, 5.0, 1)))
        ch = cfg.channel_set()
        alloc = AllocationState(uniform_split(ch, cfg.power), a=np.ones(3),
                                a_tilde=np.ones(3))
        path = tmp_path / "m.csv"
        grid = emit_powermap(cfg, alloc, plane=plane, resolution=5, path=str(path),
                             ch=ch)
        assert grid.shape == (5, 5)
        with open(path) as f:
            rows = np.array([[float(c) for c in r] for r in list(csv.reader(f))[1:]])
        users = cfg.users()
        lateral = [u.x if plane == "xz" else u.y for u in users]
        assert rows[:, 0].min() <= min(lateral) and rows[:, 0].max() >= max(lateral)
        assert rows[:, 1].max() >= 2.0 * max(u.z for u in users)

    @pytest.mark.parametrize("plane", ["xz", "yz", "xy"])
    def test_probe_grid_spans_its_plane(self, plane):
        cfg = small_cfg()
        probes = bench.probe_grid(cfg, plane, resolution=4)
        assert probes.shape == (4, 4, 3)
        fixed = {"xz": (1, 0.0), "yz": (0, 0.0),
                 "xy": (2, np.mean([u.z for u in cfg.users()]))}[plane]
        assert np.all(probes[..., fixed[0]] == fixed[1])
        # rows run over the plane's second axis, and over its first within a row
        first, second = ["xyz".index(axis) for axis in plane]
        assert np.all(np.diff(probes[..., first], axis=1) > 0)
        assert np.all(np.diff(probes[..., second], axis=0) > 0)

    def test_default_extent_holds_placed_modules(self):
        # elements span x in [-3.0, 3.55] m; the users lie within 1.6 m
        cfg = scenario_from_dict({"geometry": {"S": 2, "origins": [[-3, 0, 0], [2, 0, 0]]}})
        spans = {plane: np.ptp(bench.probe_grid(cfg, plane, resolution=3)[..., :2], axis=(0, 1))
                 for plane in ("xz", "yz", "xy")}
        assert spans["xz"][0] == spans["xy"][0] == spans["xy"][1] == pytest.approx(7.1)
        # the modules' y extent, (Ny - 1) d = 0.35 m, lies inside S Nx d / 2
        assert spans["yz"][1] == 2 * 1.6

    @pytest.mark.parametrize("plane", ["xz", "yz", "xy"])
    def test_default_layout_extent_is_the_array_width(self, plane):
        # the farthest element, (S Nx d - d) / 2, lies inside S Nx d / 2
        cfg = scenario_from_dict({})
        half = cfg.n_sub * cfg.nx * cfg.d / 2.0
        axes = ["xyz".index(axis) for axis in plane]
        first = bench.probe_grid(cfg, plane, resolution=3)[..., axes[0]]
        assert first.min() == -half and first.max() == half

    @pytest.mark.parametrize("plane", ["xz", "yz", "xy"])
    def test_csv_columns_are_the_probe_coordinates(self, tmp_path, plane):
        cfg = small_cfg()
        ch = cfg.channel_set()
        alloc = AllocationState(uniform_split(ch, cfg.power), a=np.ones(3))
        probes = bench.probe_grid(cfg, plane, resolution=4)
        path = tmp_path / "m.csv"
        raster = bench.write_powermap(probes, plane, alloc, ch, str(path))
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["%s_m" % axis for axis in plane] + ["watts"]
        table = np.array(rows[1:], dtype=float)
        axes = ["xyz".index(axis) for axis in plane]
        assert table[:, :2].tobytes() == probes.reshape(-1, 3)[:, axes].tobytes()
        assert table[:, 2].tobytes() == raster.ravel().tobytes()

    def test_bad_plane(self, tmp_path):
        cfg = small_cfg(methods=("PA-SA",))
        results, _ = run_methods(cfg)
        with pytest.raises(ValueError, match="plane must be one of"):
            emit_powermap(cfg, results[0].allocation, plane="zz",
                          path=str(tmp_path / "m.csv"))
        assert not (tmp_path / "m.csv").exists()


class TestConvergenceExport:
    def test_fraction_column(self, tmp_path):
        report = SolveReport(hpe_trace=[0.5, 0.9, 1.0], final_hpe=1.0)
        path = tmp_path / "conv.csv"
        emit_convergence(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,hpe,fraction_of_final"
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][2]) == pytest.approx(0.5)
        assert float(rows[-1][2]) == pytest.approx(1.0)

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_convergence(SolveReport(), str(tmp_path / "x.csv"))


class TestBenchTiming:
    def test_records_and_growth(self, tmp_path):
        cfg = small_cfg(methods=("PA-SA", "PA-ES"))
        records, growth = bench_timing(cfg, s_values=(2, 3), outdir=str(tmp_path))
        assert [s for s, _ in records["PA-SA"]] == [2, 3]
        assert growth["PA-ES"] > 0
        assert (tmp_path / "bench_times.csv").exists()
        data = json.loads((tmp_path / "bench_growth.json").read_text())
        assert set(data["per_subarray_growth_factor"]) == {"PA-SA", "PA-ES"}

    def test_needs_two_distinct_s_values(self, monkeypatch):
        calls = []
        monkeypatch.setattr(baselines, "pa_sa", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="two distinct"):
            bench_timing(small_cfg(), s_values=(4, 4))
        assert calls == []

    def test_s_above_es_cap_rejected_before_timing(self, monkeypatch):
        calls = []
        for name in ("pa_sa", "pa_es"):
            monkeypatch.setattr(baselines, name, lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="es_cap=12"):
            bench_timing(small_cfg(), s_values=(4, 13))
        assert calls == []

    def test_repeated_s_value_rejected_before_timing(self, monkeypatch):
        # a repeat would be timed twice and weigh double in the growth fit
        calls = []
        for name in ("pa_sa", "pa_es"):
            monkeypatch.setattr(baselines, name, lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="distinct, got 2,2,3"):
            bench_timing(small_cfg(), s_values=(2, 2, 3))
        assert calls == []


class TestCLI:
    def write_cfg(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL_JSON))
        return str(path)

    def test_solve(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main(["solve", cfg, "--set", "methods=[\"EA-FA\",\"PA-SA\"]",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PA-SA" in printed and "EA-FA" in printed
        assert (out / "results.csv").exists()

    def test_solve_defaults_without_config(self, tmp_path, capsys):
        # no config file at all: defaults plus --set overrides
        out = tmp_path / "out"
        code = main(["solve",
                     "--set", "geometry.S=2", "--set", "geometry.Nx=8",
                     "--set", "geometry.Ny=2",
                     "--set", "users.clusters.V=1",
                     "--set", "users.clusters.count=2",
                     "--set", "methods=[\"EA-FA\"]",
                     "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()

    def test_sweep(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "sw"
        code = main(["sweep", cfg, "--var", "S", "--values", "2,3",
                     "--reps", "2", "--set", "methods=[\"EA-FA\",\"PA-SA\"]",
                     "--out", str(out)])
        assert code == 0
        assert "8 rows" in capsys.readouterr().out
        assert (out / "sweep_raw.csv").exists()
        assert (out / "eta_vs_S.csv").exists()

    def test_powermap(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        path = tmp_path / "pm.csv"
        code = main(["powermap", cfg, "--plane", "xz", "--res", "5",
                     "--out", str(path)])
        assert code == 0
        assert path.read_text().splitlines()[0] == "x_m,z_m,watts"

    def test_powermap_xy_faces_the_users(self, tmp_path):
        # the default xy plane lies at the users' depth, in front of the
        # array, over a square about boresight that holds every user
        path = tmp_path / "pm.csv"
        code = main(["powermap", self.write_cfg(tmp_path), "--plane", "xy",
                     "--res", "9", "--out", str(path)])
        assert code == 0
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert path.read_text().splitlines()[0] == "x_m,y_m,watts"
        assert rows[:, 2].max() > 0
        x, y = rows[:, 0], rows[:, 1]
        assert y.min() == -y.max()
        for u in scenario_from_dict(SMALL_JSON).users():
            assert x.min() <= u.x <= x.max() and y.min() <= u.y <= y.max()

    def test_powermap_builds_channel_set_once(self, tmp_path, monkeypatch):
        import xlwpt.scenario as scenario

        calls = []
        build = scenario.build_channel_set

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(scenario, "build_channel_set", counting)
        code = main(["powermap", self.write_cfg(tmp_path), "--res", "3",
                     "--out", str(tmp_path / "pm.csv")])
        assert code == 0
        assert len(calls) == 1

    def test_powermap_bad_res_rejected_before_solving(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "pa_sa", lambda *a, **k: calls.append(a))
        code = main(["powermap", self.write_cfg(tmp_path), "--res", "0",
                     "--out", str(tmp_path / "pm.csv")])
        assert code == 2
        assert calls == []
        assert not (tmp_path / "pm.csv").exists()

    def test_powermap_raster_too_large_rejected_before_solving(self, tmp_path,
                                                             monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB")

        calls = []
        monkeypatch.setattr(cli, "pa_sa", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(bench.np, "meshgrid", no_memory)
        code = main(["powermap", self.write_cfg(tmp_path), "--res", "200000",
                     "--out", str(tmp_path / "pm.csv")])
        assert code == 2
        assert "error: --res 200000" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "pm.csv").exists()

    def test_powermap_bad_out_rejected_before_solving(self, tmp_path, monkeypatch,
                                                      capsys):
        calls = []
        monkeypatch.setattr(cli, "pa_sa", lambda *a, **k: calls.append(a))
        for out in (tmp_path / "nodir" / "pm.csv", tmp_path):
            code = main(["powermap", self.write_cfg(tmp_path), "--res", "3",
                         "--out", str(out)])
            assert code == 2
            assert "error:" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", [
        ["solve"], ["sweep", "--values", "2,3"], ["bench", "--values", "2,3"]])
    def test_out_naming_a_file_rejected_before_solving(self, tmp_path, monkeypatch,
                                                       capsys, command):
        calls = []
        for module, name in ((cli, "run_methods"), (bench, "run_methods"),
                             (baselines, "pa_sa"), (baselines, "pa_es")):
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
        out = tmp_path / "taken"
        out.write_text("keep")
        for path in (out, out / "sub"):
            code = main([command[0], self.write_cfg(tmp_path), *command[1:],
                         "--out", str(path)])
            assert code == 2
            assert "error:" in capsys.readouterr().err
        assert calls == []
        assert out.read_text() == "keep"

    def test_sweep_bad_value_rejected_before_solving(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_methods", lambda *a, **k: calls.append(a))
        out = tmp_path / "sw"
        code = main(["sweep", self.write_cfg(tmp_path), "--values", "2,0",
                     "--out", str(out)])
        assert code == 2
        assert calls == []
        assert not out.exists()

    def test_sweep_repeated_value_rejected_before_solving(self, tmp_path,
                                                          monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(bench, "run_methods", lambda *a, **k: calls.append(a))
        out = tmp_path / "sw"
        code = main(["sweep", self.write_cfg(tmp_path), "--values", "2,2,3",
                     "--out", str(out)])
        assert code == 2
        assert "distinct" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command, values",
                             [("sweep", "4,x"), ("sweep", ""), ("bench", "6,x")])
    def test_unparseable_values_name_the_flag(self, tmp_path, capsys, command, values):
        out = tmp_path / "o"
        code = main([command, self.write_cfg(tmp_path), "--values", values,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --values expects comma-separated integers, got %r\n" % values)
        assert not out.exists()

    def test_es_cap_fault_names_the_scenario_key(self, tmp_path, capsys):
        # the cap is a scenario setting, so the fault names its key and value
        code = main(["solve", self.write_cfg(tmp_path), "--set", "solver.es_cap=2",
                     "--set", 'methods=["PA-ES"]', "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "2^3 subsets, past the cap of 2 sub-arrays" in err
        assert "raise solver.es_cap" in err

    def test_solver_fault_exit_code(self, tmp_path, capsys):
        out = tmp_path / "pm.csv"
        with warnings.catch_warnings():
            # the overflow that leads to the fault warns first
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["powermap", "--res", "3", "--set", "power.P_et=1e300",
                         "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "solver fault: DR splitting produced a non-finite residual "
            "at sub-iteration 1\n")
        assert not out.exists()

    def test_short_origin_names_its_length(self, tmp_path, capsys):
        code = main(["solve", "--set", "geometry.S=1", "--set", "geometry.origins=[[0,0]]",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: geometry.origins: each sub-array origin needs three numbers "
            "[x, y, z], got 2\n")
        assert not (tmp_path / "o").exists()

    def test_unreadable_scenario_exit_code(self, tmp_path, capsys):
        for path in (tmp_path / "missing.json", tmp_path):
            assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read scenario file")
            assert err.count("\n") == 1

    def test_bench(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "bench"
        code = main(["bench", cfg, "--values", "2,3", "--out", str(out)])
        assert code == 0
        assert "growth per added sub-array" in capsys.readouterr().out
        assert (out / "bench_growth.json").exists()

    def test_bench_single_value_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", self.write_cfg(tmp_path), "--values", "4",
                     "--out", str(out)])
        assert code == 2
        assert "two distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_repeated_value_exit_code(self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("pa_sa", "pa_es"):
            monkeypatch.setattr(baselines, name, lambda *a, **k: calls.append(a))
        out = tmp_path / "bench"
        code = main(["bench", self.write_cfg(tmp_path), "--values", "2,2,3",
                     "--out", str(out)])
        assert code == 2
        assert "distinct" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_v_sweep_over_placed_users_rejected_before_solving(self, tmp_path,
                                                               monkeypatch, capsys):
        # V sets the generated cluster count: placed users would run unchanged
        # in every cell under different V labels
        calls = []
        monkeypatch.setattr(bench, "run_methods", lambda *a, **k: calls.append(a))
        path = tmp_path / "placed.json"
        path.write_text(json.dumps({
            "geometry": {"S": 2, "Nx": 8, "Ny": 2},
            "users": {"positions": [[0.1, 0.0, 0.6, 1], [-0.1, 0.0, 0.7, 2]]},
            "methods": ["EA-FA"]}))
        out = tmp_path / "sw"
        code = main(["sweep", str(path), "--var", "V", "--values", "1,2",
                     "--out", str(out)])
        assert code == 2
        assert "users.positions" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()
        # an S sweep over the same users stays valid
        spec = SweepSpec(variable="S", values=(2, 3))
        assert spec.cell(scenario_from_dict(json.loads(path.read_text())), 3, 0).n_sub == 3

    @pytest.mark.parametrize("var, values, names", [
        ("V", "1,4", ["--values 4 for V", "users.clusters.count=3"]),
        ("S", "0,2", ["--values 0 for S"])])
    def test_sweep_value_error_names_the_flag(self, tmp_path, capsys, var, values,
                                              names):
        out = tmp_path / "sw"
        code = main(["sweep", "--var", var, "--values", values,
                     "--set", "users.clusters.count=3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for name in names:
            assert name in err
        assert not out.exists()

    def test_sweep_reps_error_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(["sweep", "--reps", "0", "--values", "2,3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --reps 0: repetitions must be >= 1\n"
        assert not out.exists()

    def test_warnings_print_one_line_each(self, tmp_path):
        # every user of a one-module array lies beyond the near-field
        # boundary; the command line says so once per user, without the
        # library's file name or source line
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "xlwpt.cli", "powermap", "--res", "2",
             "--set", "geometry.S=1", "--out", str(tmp_path / "pm.csv")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == ScenarioConfig().clusters.count
        for m, line in enumerate(lines):
            assert line.startswith("warning: user %d at range " % m)
            assert "near-field service boundary" in line

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"geometry": {"S": -2}}))
        assert main(["solve", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repeated_method_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["solve", "--set", 'methods=["PA-SA","PA-SA","EA-FA"]',
                     "--out", str(out)])
        assert code == 2
        assert "methods: " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_set_exit_code(self, tmp_path, capsys):
        assert main(["solve", "--set", "nonsense"]) == 2

    def test_method_fault_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        code = main(["solve", cfg, "--set", "solver.es_cap=2",
                     "--set", "methods=[\"EA-FA\",\"PA-ES\"]",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "FAULT" in capsys.readouterr().err

    def test_zero_reference_hpe_leaves_eta_empty(self, tmp_path, capsys):
        # a huge boresight exponent underflows every channel norm to 0, so
        # EA-FA's HPE is 0 and no method has an eta
        out = tmp_path / "o"
        code = main(["solve", "--set", "geometry.b=1000000", "--set", "geometry.S=3",
                     "--out", str(out)])
        assert code == 0
        assert "eta=" not in capsys.readouterr().out
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"EA-FA", "PA-FA", "PA-SA", "PA-ES"}
        assert all(r["hpe"] == "0" and r["eta"] == "" for r in rows)

    @pytest.mark.parametrize("flag", ["geometry.d=1e300",
                                      "power.P_ct=1.7976931348623157e308"])
    def test_non_finite_scenario_is_invalid_input(self, tmp_path, capsys, flag):
        # the spacing overflows the channels; the P_ct makes P_c infinite
        out = tmp_path / "o"
        small = ["geometry.S=2", "geometry.Nx=4", "geometry.Ny=2", 'methods=["EA-FA"]']
        flags = [arg for item in [*small, flag] for arg in ("--set", item)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["solve", *flags, "--out", str(out)]) == 2
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        ['solver.lambda0="abc"'], ['geometry.S="4"'], ["geometry=[]"],
        ["geometry=[]", "geometry.S=4"]])
    def test_invalid_override_exit_code(self, tmp_path, capsys, overrides):
        out = tmp_path / "o"
        flags = [arg for item in overrides for arg in ("--set", item)]
        assert main(["solve", *flags, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and "error:" in printed.err
        assert not out.exists()


class TestBenchmarkScenarios:
    """The scenario dicts the benchmark builds keep every setting's value."""

    @pytest.mark.parametrize("n_sub, n_vr, methods", [
        (8, 2, ["EA-FA", "PA-SA", "PA-ES"]),
        (10, 1, ["EA-FA", "PA-FA", "PA-SA"]),
        (16, 2, ["EA-FA", "PA-FA", "PA-SA"]),
        (None, None, None),
    ])
    def test_fields(self, n_sub, n_vr, methods):
        raw = {"solver": {"seed": 5}}
        if n_sub is not None:
            raw.update(geometry={"S": n_sub}, users={"clusters": {"V": n_vr}},
                       methods=methods)
        cfg = scenario_from_dict(raw)
        assert asdict(cfg) == {
            "n_sub": n_sub or 6, "nx": 32, "ny": 8, "d": 0.05,
            "wavelength": 0.1, "element_size": 0.025, "boresight_exp": 2.0,
            "origins": None, "amplitude_model": "center", "positions": None,
            "clusters": {"n_vr": n_vr or 2, "count": 3, "range_m": 1.1,
                         "radius_m": 0.15, "arc_deg": 80.0},
            "power": {"varsigma": 0.35, "p_et": 0.05, "p_syn": 0.05,
                      "p_ct": 0.0482, "p_cr": 0.0625},
            "pa": {"epsilon": 1e-7, "max_outer": 200, "max_dr": 600,
                   "dr_residual_tol": 1e-6, "gamma": 0.08, "lambda0": None},
            "sa": {"delta": 1e-3, "max_iters": 30, "warm_start": True},
            "seed": 5, "es_cap": 12,
            "methods": tuple(methods or ("PA-SA", "PA-FA", "PA-ES", "EA-FA")),
            "output_dir": "out",
            "artifacts": ("results", "traces", "allocation"),
        }
        assert cfg.pa_config() is cfg.pa and cfg.sa_config() is cfg.sa
