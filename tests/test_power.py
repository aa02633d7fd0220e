"""Harvested power, consumed power and HPE tests.

The harvested-power implementation uses the coherent inner-sum form; the
oracle here expands the full quadruple sum over (user, sub-array pair,
target-user pair) with explicit element-level inner products.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from oracles import element_positions, exp_channels, scalar_channel
from xlwpt import power
from xlwpt.geometry import (
    MIN_USER_DISTANCE,
    ArrayGeometry,
    UserPosition,
    build_channel_set,
)
from xlwpt.power import (
    AllocationState,
    PowerConfig,
    consumed_lanes,
    consumed_power,
    harvested_lanes,
    harvested_power,
    hpe,
    power_map,
)
from xlwpt.scenario import ScenarioConfig


def small_users(n_users=2, seed=0):
    rng = np.random.default_rng(seed)
    return [UserPosition(x=rng.uniform(-0.3, 0.3), y=rng.uniform(-0.1, 0.1),
                         z=rng.uniform(0.5, 1.2), vr_label=1 + m % 2)
            for m in range(n_users)]


def small_channel_set(n_sub=3, n_users=2, seed=0, amplitude_model="center"):
    geom = ArrayGeometry(n_sub=n_sub, nx=4, ny=2, d=0.05, wavelength=0.1,
                         element_size=0.025, boresight_exp=2,
                         amplitude_model=amplitude_model)
    return geom, build_channel_set(geom, small_users(n_users, seed))


def harvested_power_oracle(ch, omega, weights):
    """Expanded sub-array pair sum of the harvested power.

    For every (receiving user k, beam target m) the contributions of the
    sub-arrays add coherently; different beams add by power. Everything is
    computed from raw element-level inner products, independent of the
    cached Gram/einsum path used by the implementation.
    """
    total = 0.0
    S, M = ch.n_sub, ch.n_users
    for k in range(M):
        for m in range(M):
            acc = 0.0 + 0.0j
            for s in range(S):
                for sp in range(S):
                    ws = weights[s] * ch.kappa[s, m] * np.sqrt(omega[s, m])
                    wp = weights[sp] * ch.kappa[sp, m] * np.sqrt(omega[sp, m])
                    inner1 = np.sum(ch.g[s, k] * np.conj(ch.g[s, m]))
                    inner2 = np.sum(ch.g[sp, k] * np.conj(ch.g[sp, m]))
                    acc += ws * wp * inner1 * np.conj(inner2)
            total += acc.real
    return total


def random_allocation(ch, power_cfg, rng, binary=True):
    p_sub = power_cfg.p_sub(ch.n_elements)
    omega = rng.uniform(0, 1, size=(ch.n_sub, ch.n_users))
    omega *= p_sub / omega.sum(axis=1, keepdims=True) * rng.uniform(0.3, 1.0)
    a = rng.integers(0, 2, size=ch.n_sub)
    if a.sum() == 0:
        a[0] = 1
    a_tilde = a.astype(float) if binary else a * rng.uniform(0.2, 1.0, ch.n_sub)
    return AllocationState(omega=omega, a=a, a_tilde=a_tilde)


class TestHarvestedPower:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quadruple_sum_oracle(self, seed):
        _, ch = small_channel_set(seed=seed)
        rng = np.random.default_rng(100 + seed)
        cfg = PowerConfig()
        alloc = random_allocation(ch, cfg, rng, binary=False)
        got = harvested_lanes(ch, alloc.omega, alloc.a_tilde)
        want = harvested_power_oracle(ch, alloc.omega, alloc.a_tilde)
        assert got == pytest.approx(want, rel=1e-10)

    def test_binary_weights_oracle(self):
        _, ch = small_channel_set(seed=7)
        rng = np.random.default_rng(7)
        cfg = PowerConfig()
        alloc = random_allocation(ch, cfg, rng, binary=True)
        got = harvested_power(ch, alloc)
        want = harvested_power_oracle(ch, alloc.omega, alloc.a.astype(float))
        assert got == pytest.approx(want, rel=1e-10)

    def test_zero_allocation(self):
        _, ch = small_channel_set()
        alloc = AllocationState(omega=np.zeros((3, 2)), a=np.ones(3, int),
                                a_tilde=np.ones(3))
        assert harvested_power(ch, alloc) == 0.0

    def test_single_pair_closed_form(self):
        # one sub-array, one user: I = omega * ||g||^2
        geom = ArrayGeometry(n_sub=1, nx=2, ny=2, d=0.05, wavelength=0.1,
                             element_size=0.025, boresight_exp=2)
        ch = build_channel_set(geom, [UserPosition(0.0, 0.0, 0.8)])
        alloc = AllocationState(omega=[[0.17]], a=[1], a_tilde=[1.0])
        want = 0.17 * ch.norms[0, 0] ** 2
        assert harvested_power(ch, alloc) == pytest.approx(want, rel=1e-12)

    def test_scales_linearly_in_power_single_user(self):
        # with one user there are no cross-user terms, so I is linear in omega
        geom = ArrayGeometry(n_sub=2, nx=2, ny=2, d=0.05, wavelength=0.1,
                             element_size=0.025, boresight_exp=2)
        ch = build_channel_set(geom, [UserPosition(0.05, 0.0, 0.7)])
        a = np.ones(2, int)
        i1 = harvested_power(ch, AllocationState([[0.1], [0.2]], a, a.astype(float)))
        i2 = harvested_power(ch, AllocationState([[0.4], [0.8]], a, a.astype(float)))
        assert i2 == pytest.approx(4 * i1, rel=1e-12)

    def test_inactive_subarray_contributes_nothing(self):
        _, ch = small_channel_set()
        omega = np.full((3, 2), 0.05)
        full = AllocationState(omega=omega.copy(), a=[1, 1, 1], a_tilde=[1, 1, 1])
        dropped = AllocationState(omega=omega.copy(), a=[1, 0, 1], a_tilde=[1, 0, 1])
        manual = omega.copy()
        manual[1] = 0.0
        explicit = AllocationState(omega=manual, a=[1, 1, 1], a_tilde=[1, 1, 1])
        assert harvested_power(ch, dropped) == pytest.approx(
            harvested_power(ch, explicit), rel=1e-12)
        assert harvested_power(ch, dropped) != pytest.approx(
            harvested_power(ch, full), rel=1e-6)

    def test_dimension_mismatch(self):
        _, ch = small_channel_set()
        alloc = AllocationState(omega=np.zeros((2, 2)), a=[1, 1], a_tilde=[1, 1])
        with pytest.raises(ValueError):
            harvested_power(ch, alloc)

    def test_activations_default_to_the_binary_ones(self):
        a = np.array([1, 0, 1])
        alloc = AllocationState(omega=np.full((3, 2), 0.05), a=a)
        assert alloc.a_tilde.dtype == float and alloc.a_tilde.tolist() == [1.0, 0.0, 1.0]
        assert alloc.omega[1].tolist() == [0.0, 0.0]
        fractional = AllocationState(omega=np.full((3, 2), 0.05), a=a,
                                     a_tilde=[0.5, 0.7, 0.25])
        assert fractional.a_tilde.tolist() == [0.5, 0.0, 0.25]


class TestConsumedPower:
    def test_all_on_full_power_paper_values(self):
        # S=6 modules of 256 elements at full 12.8 W each, 3 users
        cfg = PowerConfig()
        omega = np.full((6, 3), 256 * 0.05 / 3)
        alloc = AllocationState(omega=omega, a=np.ones(6, int), a_tilde=np.ones(6))
        got = consumed_power(alloc, cfg, n_users=3, n_elements=256)
        want = 6 * (12.8 / 0.35 + 2 * 0.05 + 256 * 0.0482) + 3 * 0.0625
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(294.2512714285714, rel=1e-10)

    def test_all_off_floor(self):
        cfg = PowerConfig()
        alloc = AllocationState(omega=np.zeros((6, 3)), a=np.zeros(6, int),
                                a_tilde=np.zeros(6))
        got = consumed_power(alloc, cfg, n_users=3, n_elements=256)
        assert got == pytest.approx(3 * 0.0625, rel=1e-12)

    def test_idle_active_module_still_burns_circuit_power(self):
        cfg = PowerConfig()
        alloc = AllocationState(omega=np.zeros((1, 1)), a=[1], a_tilde=[1.0])
        got = consumed_power(alloc, cfg, n_users=1, n_elements=4)
        assert got == pytest.approx(2 * 0.05 + 4 * 0.0482 + 0.0625, rel=1e-12)

    def test_parameterized_weights_scale_bracket(self):
        cfg = PowerConfig()
        alloc = AllocationState(omega=np.full((2, 1), 0.3), a=[1, 1],
                                a_tilde=[0.5, 0.25])
        bracket = 0.3 / 0.35 + 2 * 0.05 + 8 * 0.0482
        want = (0.5 + 0.25) * bracket + 0.0625
        got = consumed_lanes(alloc.omega, alloc.a_tilde, cfg, n_users=1,
                             n_elements=8)
        assert got == pytest.approx(want, rel=1e-12)

    def test_affine_in_row_power(self):
        # P_c is affine in the per-module power with slope a~_s / varsigma
        cfg = PowerConfig(varsigma=0.5)
        a = np.array([1, 1])
        base = AllocationState(np.zeros((2, 1)), a, a.astype(float))
        c0 = consumed_power(base, cfg, 1, 4)
        bumped = AllocationState([[0.2], [0.0]], a, a.astype(float))
        assert consumed_power(bumped, cfg, 1, 4) == pytest.approx(
            c0 + 0.2 / 0.5, rel=1e-12)


class TestHPE:
    def test_ratio_definition(self):
        _, ch = small_channel_set()
        rng = np.random.default_rng(11)
        cfg = PowerConfig()
        alloc = random_allocation(ch, cfg, rng)
        num = harvested_power(ch, alloc)
        den = consumed_power(alloc, cfg, ch.n_users, ch.n_elements)
        assert hpe(ch, alloc, cfg) == pytest.approx(num / den, rel=1e-12)

    def test_zero_consumption_rejected(self):
        _, ch = small_channel_set()
        cfg = PowerConfig(p_cr=0.0)
        alloc = AllocationState(omega=np.zeros((3, 2)), a=np.zeros(3, int),
                                a_tilde=np.zeros(3))
        with pytest.raises(ValueError):
            hpe(ch, alloc, cfg)


class TestAllocationState:
    def test_inactive_rows_zeroed(self):
        alloc = AllocationState(omega=np.full((2, 2), 0.1), a=[1, 0],
                                a_tilde=[1.0, 0.7])
        assert np.all(alloc.omega[1] == 0.0)
        assert alloc.a_tilde[1] == 0.0

    def test_caller_arrays_unchanged(self):
        omega, a_tilde = np.full((2, 2), 0.1), np.array([1.0, 0.7])
        AllocationState(omega=omega, a=[1, 0], a_tilde=a_tilde)
        assert np.all(omega == 0.1)
        assert a_tilde.tolist() == [1.0, 0.7]

    def test_validate_catches_row_violation(self):
        cfg = PowerConfig()
        alloc = AllocationState(omega=[[0.3, 0.3]], a=[1], a_tilde=[1.0])
        with pytest.raises(ValueError, match="per-sub-array"):
            alloc.validate(cfg, n_elements=4)  # cap = 0.2 W

    def test_validate_catches_negative(self):
        alloc = AllocationState(omega=[[-0.1]], a=[1], a_tilde=[1.0])
        with pytest.raises(ValueError, match="non-negative"):
            alloc.validate(PowerConfig(), n_elements=4)

    def test_validate_accepts_feasible(self):
        alloc = AllocationState(omega=[[0.1, 0.05]], a=[1], a_tilde=[1.0])
        alloc.validate(PowerConfig(), n_elements=4)


class TestPowerMap:
    def test_probe_at_user_matches_received_power(self):
        # a probe placed exactly at each user reproduces its received power
        for model in ("center", "per_element"):
            _, ch = small_channel_set(n_users=3, amplitude_model=model)
            alloc = random_allocation(ch, PowerConfig(), np.random.default_rng(5))
            vals = power_map(alloc, ch, [u.coords for u in small_users(3)])
            coef = power._coefficients(ch, alloc.omega, alloc.a.astype(float))
            assert vals.tobytes() == power._received(coef, ch.gram).tobytes(), model

    def test_allocation_shape_mismatch_rejected(self):
        # the default scenario's set has 3 users; this allocation serves 1
        ch = ScenarioConfig().channel_set()
        alloc = AllocationState(omega=np.full((ch.n_sub, 1), 0.1),
                                a=np.ones(ch.n_sub, int), a_tilde=np.ones(ch.n_sub))
        with pytest.raises(ValueError, match="allocation dimensions"):
            power_map(alloc, ch, [(0.0, 0.0, 1.0)])

    def test_behind_plane_is_zero(self):
        _, ch = small_channel_set()
        rng = np.random.default_rng(5)
        alloc = random_allocation(ch, PowerConfig(), rng)
        vals = power_map(alloc, ch, [(0.0, 0.0, -1.0), (0.0, 0.0, 0.0)])
        assert np.all(vals == 0.0)

    @pytest.mark.parametrize("probe", [(np.nan, 0.0, 1.0), (0.0, 0.0, np.nan),
                                       (0.0, np.inf, 1.0)])
    def test_non_finite_probe_rejected(self, probe):
        _, ch = small_channel_set()
        alloc = random_allocation(ch, PowerConfig(), np.random.default_rng(5))
        with pytest.raises(ValueError, match="finite"):
            power_map(alloc, ch, [(0.0, 0.0, 1.0), probe])

    def test_nonnegative_everywhere(self):
        _, ch = small_channel_set()
        rng = np.random.default_rng(6)
        alloc = random_allocation(ch, PowerConfig(), rng)
        probes = [(x, 0.0, z) for x in np.linspace(-1, 1, 5)
                  for z in np.linspace(0.2, 1.5, 4)]
        vals = power_map(alloc, ch, probes)
        assert np.all(vals >= 0.0)

    def test_probes_without_three_coordinates_rejected(self):
        # three (x, z) probes must not be read as two (x, y, z) probes
        _, ch = small_channel_set()
        alloc = random_allocation(ch, PowerConfig(), np.random.default_rng(6))
        xz = [(0.0, 1.0), (0.2, 0.8), (-0.3, 1.2)]
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 3\)"):
            power_map(alloc, ch, xz)

    def test_probe_grid_flattened(self):
        _, ch = small_channel_set()
        alloc = random_allocation(ch, PowerConfig(), np.random.default_rng(6))
        grid = np.array([[(x, 0.0, z) for x in (-0.5, 0.0, 0.5)]
                         for z in (-0.2, 0.4, 1.1)])
        got = power_map(alloc, ch, grid)
        assert got.shape == (9,)
        assert got.tobytes() == power_map(alloc, ch, grid.reshape(-1, 3)).tobytes()


def power_map_oracle(geom, alloc, ch, probes, amplitude_model):
    """Per-probe loop over scalar_channel() calls and element inner products."""
    coef = alloc.a[:, None] * ch.kappa * np.sqrt(alloc.omega)
    values = []
    for p in probes:
        if p[2] <= 0:
            values.append(0.0)
            continue
        t = np.zeros(ch.n_users, dtype=complex)
        for s in range(geom.n_sub):
            gq = scalar_channel(geom, s, p, amplitude_model)
            for m in range(ch.n_users):
                t[m] += coef[s, m] * np.vdot(ch.g[s, m], gq)
        values.append(np.sum(np.abs(t) ** 2))
    return np.array(values)


class TestPowerMapChunks:
    """power_map synthesizes probe channels in chunks of whole probes."""

    def setup_method(self):
        self.geom, self.ch = small_channel_set()
        self.alloc = random_allocation(self.ch, PowerConfig(),
                                       np.random.default_rng(8))
        self.step = max(1, power._MAP_CHUNK_ENTRIES
                        // (self.geom.n_sub * self.geom.n_elements))

    def channel_set(self, model):
        """The same users' channel set under ``model``."""
        return small_channel_set(amplitude_model=model)[1]

    def probes(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return np.column_stack([rng.uniform(-1.5, 1.5, n),
                                rng.uniform(-0.3, 0.3, n),
                                rng.uniform(0.05, 2.0, n)])

    @pytest.mark.parametrize("model", ["center", "per_element"])
    @pytest.mark.parametrize("full_chunks, extra", [(0, 0), (0, 1), (2, 7)])
    def test_matches_loop_oracle(self, model, full_chunks, extra):
        # no probes, one probe, and a count that is not a multiple of the
        # chunk with behind-plane probes inside chunks
        probes = self.probes(full_chunks * self.step + extra)
        for i in (3, self.step - 1, self.step, 2 * self.step + 2):
            if i < len(probes):
                probes[i, 2] = -0.5 if i % 2 else 0.0
        ch = self.channel_set(model)
        got = power_map(self.alloc, ch, probes)
        want = power_map_oracle(self.geom, self.alloc, ch, probes, model)
        assert got.shape == (len(probes),)
        assert np.all(got[probes[:, 2] <= 0] == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_probe_near_element_rejected(self):
        elem = element_positions(self.geom, 1)[5]
        probes = self.probes(self.step + 3)
        probes[self.step + 1] = (elem[0], elem[1], MIN_USER_DISTANCE / 2)
        with pytest.raises(ValueError, match="degenerate"):
            power_map(self.alloc, self.ch, probes)

    def report_cpus(self, monkeypatch, n):
        """Make power_map see n CPUs, so it shares its chunks among n workers."""
        monkeypatch.setattr(power.os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)

    def one_chunk_maps(self, ch, probes):
        """The raster as one power_map call per chunk, each on its caller alone."""
        return np.concatenate([power_map(self.alloc, ch, probes[i:i + self.step])
                               for i in range(0, len(probes), self.step)])

    @pytest.mark.parametrize("model", ["center", "per_element"])
    def test_shared_chunks_equal_one_chunk_calls(self, monkeypatch, model):
        # 5 chunks over 3 workers, drawn from one queue in any order
        self.report_cpus(monkeypatch, 3)
        ch = self.channel_set(model)
        probes = self.probes(4 * self.step + 5, seed=1)
        got = power_map(self.alloc, ch, probes)
        assert got.tobytes() == self.one_chunk_maps(ch, probes).tobytes()

    @pytest.mark.parametrize("model", ["center", "per_element"])
    def test_shared_chunks_equal_exp_oracle_raster(self, monkeypatch, model):
        # 5 chunks over 3 workers against a raster made on the caller alone
        # from the complex-temporary channels
        ch = self.channel_set(model)
        exp_ch = replace(ch, kernel=lambda pts: exp_channels(self.geom, pts, model))
        probes = self.probes(4 * self.step + 5, seed=4)
        probes[[3, self.step + 1], 2] = -0.5
        with monkeypatch.context() as patch:
            self.report_cpus(patch, 1)
            want = power_map(self.alloc, exp_ch, probes)
        self.report_cpus(monkeypatch, 3)
        got = power_map(self.alloc, ch, probes)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [0, 2], ids=["caller", "helper"])
    def test_degenerate_probe_raises_after_helpers_finish(self, monkeypatch, chunk):
        # 3 chunks over 3 workers, drawn from one queue: any thread may
        # draw the faulty chunk (see the helper fault test below)
        self.report_cpus(monkeypatch, 3)
        probes = self.probes(3 * self.step, seed=2)
        elem = element_positions(self.geom, 1)[5]
        probes[chunk * self.step + 4] = (elem[0], elem[1], MIN_USER_DISTANCE / 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="degenerate"):
            power_map(self.alloc, self.ch, probes)
        assert threading.active_count() == before

    def test_helper_fault_raises_after_helpers_finish(self, monkeypatch):
        # the caller's first kernel call waits until a helper's call has
        # failed, so the fault is a helper's on every run
        self.report_cpus(monkeypatch, 3)
        caller = threading.current_thread()
        helper_failed = threading.Event()
        kernel = self.ch.kernel

        def kernel_failing_in_helpers(pts):
            if threading.current_thread() is not caller:
                helper_failed.set()
                raise ValueError("helper fault")
            if not helper_failed.wait(timeout=60):
                raise RuntimeError("no helper drew a chunk")
            return kernel(pts)

        ch = replace(self.ch, kernel=kernel_failing_in_helpers)
        probes = self.probes(4 * self.step, seed=2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="helper fault"):
            power_map(self.alloc, ch, probes)
        assert threading.active_count() == before

    @pytest.mark.parametrize("model", ["center", "per_element"])
    def test_raster_bytes_do_not_depend_on_chunk_size(self, monkeypatch, model):
        # chunks of one probe, of the default size and larger than the map,
        # each on one and on three workers
        ch = self.channel_set(model)
        per_probe = self.geom.n_sub * self.geom.n_elements
        probes = self.probes(self.step + 37, seed=5)
        probes[[2, self.step + 3], 2] = -0.5
        rasters = {}
        for entries in (per_probe, power._MAP_CHUNK_ENTRIES,
                        per_probe * (len(probes) + 1)):
            for cpus in (1, 3):
                with monkeypatch.context() as patch:
                    patch.setattr(power, "_MAP_CHUNK_ENTRIES", entries)
                    self.report_cpus(patch, cpus)
                    rasters[entries, cpus] = power_map(self.alloc, ch, probes).tobytes()
        assert len(rasters) == 6 and len(set(rasters.values())) == 1

    def test_more_workers_than_cores_on_a_short_switch_interval(self, monkeypatch):
        # 9 chunks over 8 workers, switching threads as often as possible
        self.report_cpus(monkeypatch, 8)
        probes = self.probes(8 * self.step + 3, seed=3)
        want = self.one_chunk_maps(self.ch, probes)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=lambda: got.append(
                power_map(self.alloc, self.ch, probes)))
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(got) == 1 and got[0].tobytes() == want.tobytes()


class TestPowerConfig:
    def test_budgets(self):
        cfg = PowerConfig()
        assert cfg.p_sub(256) == pytest.approx(12.8)
        assert cfg.p_total(6, 256) == pytest.approx(76.8)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            PowerConfig(varsigma=0.0)
        with pytest.raises(ValueError):
            PowerConfig(varsigma=1.2)

    def test_negative_constant(self):
        with pytest.raises(ValueError):
            PowerConfig(p_ct=-1.0)
