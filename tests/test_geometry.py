"""Array layout, radiation pattern and near-field channel tests."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import element_positions, exp_channels, scalar_channel
from xlwpt.geometry import (
    ArrayGeometry,
    ChannelKernel,
    ChannelSet,
    UserPosition,
    MIN_USER_DISTANCE,
    build_channel_set,
    channel,
    channels,
    fraunhofer_distance,
    near_field_boundary,
    radiation_pattern,
    sub_array_center,
)
from xlwpt.scenario import ClusterSpec, ScenarioConfig


def single_element_geometry(**kw):
    defaults = dict(n_sub=1, nx=1, ny=1, d=0.05, wavelength=0.1,
                    element_size=0.025, boresight_exp=2,
                    sub_array_origins=((0.0, 0.0, 0.0),))
    defaults.update(kw)
    return ArrayGeometry(**defaults)


def paper_geometry(n_sub=6):
    return ArrayGeometry(n_sub=n_sub, nx=32, ny=8, d=0.05, wavelength=0.1,
                         element_size=0.025, boresight_exp=2)


class TestElementPositions:
    def test_single_element_at_origin(self):
        geom = single_element_geometry()
        np.testing.assert_array_equal(element_positions(geom, 0),
                                      [[0.0, 0.0, 0.0]])

    def test_two_elements_spacing(self):
        geom = ArrayGeometry(n_sub=1, nx=2, ny=1, d=0.05, wavelength=0.1,
                             element_size=0.025, boresight_exp=2,
                             sub_array_origins=((0.0, 0.0, 0.0),))
        np.testing.assert_allclose(element_positions(geom, 0),
                                   [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])

    def test_full_module_has_256_distinct_points_on_plane(self):
        geom = paper_geometry()
        pos = element_positions(geom, 3)
        assert pos.shape == (256, 3)
        assert np.all(pos[:, 2] == 0.0)
        assert len({tuple(p) for p in pos}) == 256

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            element_positions(paper_geometry(), 6)

    def test_unknown_amplitude_model_rejected(self):
        with pytest.raises(ValueError, match="unknown amplitude model 'flat'"):
            single_element_geometry(amplitude_model="flat")

    def test_overlapping_modules_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ArrayGeometry(n_sub=2, nx=4, ny=4, d=0.05, wavelength=0.1,
                          element_size=0.025, boresight_exp=2,
                          sub_array_origins=((0, 0, 0), (0.05, 0, 0)))


class TestFraunhofer:
    def test_paper_parameters(self):
        geom = paper_geometry()
        assert fraunhofer_distance(geom) == pytest.approx(19.2)
        assert near_field_boundary(geom) == pytest.approx(1.92)

    def test_linear_in_subarray_count(self):
        assert fraunhofer_distance(paper_geometry(8)) == pytest.approx(
            2 * fraunhofer_distance(paper_geometry(4)))


class TestRadiationPattern:
    def test_boresight(self):
        assert radiation_pattern(0.0, 2) == pytest.approx(6.0)

    def test_sixty_degrees(self):
        assert radiation_pattern(np.pi / 3, 2) == pytest.approx(1.5)

    def test_outside_support(self):
        assert radiation_pattern(0.6 * np.pi, 2) == 0.0
        assert radiation_pattern(-0.1, 2) == 0.0

    def test_edge_is_zero_for_positive_exponent(self):
        assert radiation_pattern(np.pi / 2, 2) == pytest.approx(0.0)

    def test_edge_jump_for_zero_exponent(self):
        # the pattern branch gives 2(b+1) cos^0 = 2 just inside pi/2 but the
        # gain at exactly pi/2 follows the in-support branch
        assert radiation_pattern(np.pi / 2 - 1e-9, 0) == pytest.approx(2.0)
        assert radiation_pattern(np.pi / 2 + 1e-9, 0) == 0.0

    def test_vectorized(self):
        out = radiation_pattern(np.array([0.0, np.pi / 3, 2.0]), 2)
        np.testing.assert_allclose(out, [6.0, 1.5, 0.0])


class TestChannel:
    def test_single_element_magnitude_and_phase(self):
        geom = single_element_geometry()
        g = channel(geom, 0, UserPosition(0, 0, 10))
        expected_mag = 0.1 / (4 * np.pi * 10) * np.sqrt(6.0)
        assert abs(g[0]) == pytest.approx(expected_mag, rel=1e-12)
        k = 2 * np.pi / 0.1
        expected_phase = np.exp(-1j * k * 10.0)
        assert np.angle(g[0] / expected_phase) == pytest.approx(0.0, abs=1e-9)

    def test_boresight_mirror_symmetry(self):
        geom = ArrayGeometry(n_sub=1, nx=4, ny=1, d=0.05, wavelength=0.1,
                             element_size=0.025, boresight_exp=2,
                             sub_array_origins=((-0.075, 0.0, 0.0),))
        g = channel(geom, 0, UserPosition(0, 0, 2.0))
        np.testing.assert_allclose(g, g[::-1], rtol=1e-12)

    def test_grazing_incidence_vanishes(self):
        geom = single_element_geometry()
        # nearly edge-on: the cosine pattern drives the gain to ~0
        g = channel(geom, 0, UserPosition(1e6, 0, 1e-3))
        assert np.all(np.abs(g) < 1e-12)

    def test_degenerate_position_rejected(self):
        geom = single_element_geometry()
        with pytest.raises(ValueError, match="degenerate"):
            channel(geom, 0, (0.0, 0.0, 1e-9))

    def test_monotone_decay_along_boresight(self):
        geom = paper_geometry(1)
        center = sub_array_center(geom, 0)
        norms = []
        for r in (0.5, 1.0, 2.0, 4.0, 8.0):
            g = channel(geom, 0, (center[0], center[1], r))
            norms.append(np.linalg.norm(g))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_unit_magnitude_phase_factor(self):
        geom = paper_geometry(2)
        g = channel(geom, 1, UserPosition(0.3, 0.1, 1.5))
        mags = np.abs(g)
        # per-pair common amplitude: every element shares one magnitude
        assert np.ptp(mags) < 1e-12 * mags.max()

    def test_amplitude_scale_invariance(self):
        # scaling wavelength and all distances together leaves lambda/(4 pi r)
        # fixed; the pattern angle is also scale-free
        geom1 = single_element_geometry()
        geom2 = single_element_geometry(wavelength=0.2, d=0.1,
                                        element_size=0.05)
        g1 = channel(geom1, 0, UserPosition(1.0, 0, 3.0))
        g2 = channel(geom2, 0, UserPosition(2.0, 0, 6.0))
        assert abs(g1[0]) == pytest.approx(abs(g2[0]), rel=1e-12)

    def test_per_element_amplitude_variant(self):
        geom = paper_geometry(1)
        u = UserPosition(0.5, 0.0, 1.0)
        g_center = channel(geom, 0, u)
        g_elem = channel(replace(geom, amplitude_model="per_element"), 0, u)
        assert g_center.shape == g_elem.shape
        # same phases, slightly different amplitudes
        assert np.ptp(np.abs(g_elem)) > 0
        np.testing.assert_allclose(np.angle(g_elem), np.angle(g_center))


def outcome(f, *args):
    """The exception type that f(*args) raises, or None when it returns."""
    try:
        f(*args)
    except (IndexError, ValueError) as exc:
        return type(exc)
    return None


class TestChannelIsTheKernelRow:
    """channel() is the one-point view of the kernel that build_channel_set runs."""

    @pytest.mark.parametrize("model", ["center", "per_element"])
    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize("n_sub, n_vr", [(6, 2), (10, 1), (16, 2)])
    def test_bytes_equal_channel_set_rows(self, n_sub, n_vr, seed, model):
        # seed 1 at (6, 2) holds a center pair where the scalar formula
        # differs from the kernel by 4e-16 relative
        cfg = ScenarioConfig(n_sub=n_sub, clusters=ClusterSpec(n_vr=n_vr),
                             seed=seed, amplitude_model=model)
        ch, geom = cfg.channel_set(), cfg.geometry()
        for m, user in enumerate(cfg.users()):
            for s in range(n_sub):
                assert channel(geom, s, user).tobytes() == ch.g[s, m].tobytes(), (s, m)

    @pytest.mark.parametrize("s", [-1, 2], ids=["minus_one", "n_sub"])
    def test_sub_array_index_out_of_range(self, s):
        with pytest.raises(IndexError, match="out of range"):
            channel(paper_geometry(2), s, UserPosition(0.3, 0.1, 1.5))

    @pytest.mark.parametrize("s", [-1, 0, 1, 2])
    @pytest.mark.parametrize("point", [(0.3, 0.1, 1.5), (0.3, 0.1, 0.0), (np.nan, 0.0, 1.0),
                                       [(0.0, 0.0, 1.0), (0.1, 0.0, 1.0)], "near_module_1"])
    @pytest.mark.parametrize("model", ["center", "flat"])
    def test_raises_what_the_scalar_formula_raises(self, s, point, model):
        # every check, alone and in pairs, in the scalar formula's order;
        # only sub-array s's elements count as too near. An unknown model
        # fails when the geometry is built, before any point or index check
        geom = paper_geometry(2)
        if point == "near_module_1":
            elem = element_positions(geom, 1)[37]
            point = (elem[0], elem[1], MIN_USER_DISTANCE / 2)

        def view(s, point, model):
            return channel(replace(geom, amplitude_model=model), s, point)

        assert outcome(view, s, point, model) == outcome(
            scalar_channel, geom, s, point, model)


def stacked_channels(geom, points, amplitude_model):
    """Scalar oracle of the broadcast kernel: one scalar_channel() call per pair."""
    return np.array([[scalar_channel(geom, s, p, amplitude_model)
                      for s in range(geom.n_sub)] for p in points])


def custom_origins_case():
    geom = ArrayGeometry(n_sub=3, nx=3, ny=2, d=0.05, wavelength=0.1,
                         element_size=0.025, boresight_exp=2,
                         sub_array_origins=((-1.0, 0.2, 0.0), (0.0, -0.3, 0.0),
                                            (0.7, 0.5, 0.0)))
    rng = np.random.default_rng(3)
    points = np.column_stack([rng.uniform(-2, 2, 40), rng.uniform(-1, 1, 40),
                              rng.uniform(0.01, 3, 40)])
    return geom, points


def boresight_case():
    geom = paper_geometry(4)
    c = sub_array_center(geom, 2)
    return geom, [(c[0], c[1], 1.3), (0.3, 0.1, 0.8), (-2.5, 0.0, 0.05)]


def single_element_case():
    return single_element_geometry(), [(0.0, 0.0, 10.0), (0.4, -0.2, 0.3)]


def zero_gain_case():
    # at b = 2000 the pattern gain underflows to 0 beyond ~46 degrees off
    # boresight; a zero amplitude times a phase gives zeros whose signs
    # follow the signs of both phase parts
    rng = np.random.default_rng(12)
    points = np.column_stack([rng.uniform(-3, 3, 30), rng.uniform(-1, 1, 30),
                              rng.uniform(0.05, 1.0, 30)])
    return replace(paper_geometry(2), boresight_exp=2000.0), points


def grazing_single_element_case():
    rng = np.random.default_rng(13)
    points = np.column_stack([rng.uniform(-3, 3, 200), rng.uniform(-3, 3, 200),
                              rng.uniform(1e-3, 3, 200)])
    return single_element_geometry(), points


class TestChannelsKernel:
    @pytest.mark.parametrize("model", ["center", "per_element"])
    @pytest.mark.parametrize("case", [custom_origins_case, boresight_case,
                                      single_element_case],
                             ids=["custom_origins", "boresight", "single_element"])
    def test_matches_stacked_channel_calls(self, case, model):
        geom, points = case()
        got = channels(ChannelKernel(replace(geom, amplitude_model=model)), points)
        assert got.shape == (len(points), geom.n_sub, geom.n_elements)
        np.testing.assert_allclose(got, stacked_channels(geom, points, model),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("model", ["center", "per_element"])
    @pytest.mark.parametrize("case", [custom_origins_case, boresight_case,
                                      single_element_case, zero_gain_case,
                                      grazing_single_element_case],
                             ids=["custom_origins", "boresight", "single_element",
                                  "zero_gain", "grazing_single_element"])
    def test_bytes_equal_exp_oracle(self, case, model):
        # the kernel follows the model its geometry carries
        geom, points = case()
        kernel = ChannelKernel(replace(geom, amplitude_model=model))
        assert (channels(kernel, points).tobytes()
                == exp_channels(geom, points, model).tobytes())

    @pytest.mark.parametrize("model", ["center", "per_element"])
    def test_zero_gain_case_has_zeros_of_both_signs(self, model):
        geom, points = zero_gain_case()
        got = channels(ChannelKernel(replace(geom, amplitude_model=model)), points)
        zero = np.concatenate([got.real[got.real == 0], got.imag[got.imag == 0]])
        assert np.signbit(zero).any() and not np.signbit(zero).all()

    def test_point_behind_plane_rejected(self):
        with pytest.raises(ValueError, match="front"):
            channels(ChannelKernel(paper_geometry(2)), [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0)])

    def test_point_near_element_rejected(self):
        geom = paper_geometry(2)
        elem = element_positions(geom, 1)[37]
        near = (elem[0], elem[1], MIN_USER_DISTANCE / 2)
        with pytest.raises(ValueError, match="degenerate"):
            channels(ChannelKernel(geom), [(0.0, 0.0, 1.0), near])

    def test_points_without_three_coordinates_rejected(self):
        # three (x, z) pairs must not be read as two (x, y, z) points
        xz = [(0.0, 1.0), (0.2, 0.8), (-0.3, 1.2)]
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 3\)"):
            channels(ChannelKernel(paper_geometry(2)), xz)

    def test_point_stack_flattened(self):
        geom, points = custom_origins_case()
        stack = np.array([points, points])
        kernel = ChannelKernel(geom)
        got = channels(kernel, stack)
        assert got.shape == (2 * len(points), geom.n_sub, geom.n_elements)
        assert got.tobytes() == channels(kernel, stack.reshape(-1, 3)).tobytes()


class TestChannelSet:
    def test_single_pair_kappa(self):
        geom = single_element_geometry()
        ch = build_channel_set(geom, [UserPosition(0, 0, 1.0)])
        assert ch.kappa[0, 0] == pytest.approx(1.0 / ch.norms[0, 0])
        assert ch.kappa[0, 0] * ch.norms[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_paper_layout_all_norms_positive(self):
        geom = paper_geometry()
        users = [UserPosition(0.9, 0, 1.0, 1), UserPosition(1.0, 0.1, 1.1, 1),
                 UserPosition(-0.9, 0, 1.0, 2)]
        ch = build_channel_set(geom, users)
        assert ch.g.shape == (6, 3, 256)
        assert np.all(ch.norms > 0)

    def test_blocked_pairs_flagged_with_zero_kappa(self, monkeypatch):
        # blocked pairs (zero pattern gain) get kappa = 0, not 1/0
        import xlwpt.geometry as geo
        monkeypatch.setattr(geo, "radiation_pattern", lambda theta, b: 0.0)
        with pytest.warns(UserWarning):
            ch = build_channel_set(single_element_geometry(),
                                   [UserPosition(0, 0, 0.005)])
        assert np.all(ch.norms == 0.0)
        assert np.all(ch.kappa == 0.0)
        assert np.all(ch.g == 0.0)

    def test_empty_user_list_rejected(self):
        with pytest.raises(ValueError):
            build_channel_set(single_element_geometry(), [])

    def test_out_of_region_warns(self):
        geom = single_element_geometry()
        with pytest.warns(UserWarning, match="boundary"):
            build_channel_set(geom, [UserPosition(0, 0, 5.0)])

    def test_overflowing_channels_rejected(self):
        # a spacing of 1e300 m overflows the squared element distances, and
        # the channels come out NaN
        geom = ArrayGeometry(n_sub=2, nx=4, ny=2, d=1e300, wavelength=0.1,
                             element_size=0.025, boresight_exp=2)
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(ValueError, match="overflowed"):
                build_channel_set(geom, [UserPosition(0.1, 0.0, 1.0)])
        assert any("overflow" in str(w.message) for w in caught)

    @pytest.mark.parametrize("model", ["center", "per_element"])
    def test_set_keeps_the_kernel_that_made_it(self, model):
        users = [UserPosition(0.4, 0, 1.0, 1), UserPosition(-0.3, 0.1, 1.2, 2)]
        ch = build_channel_set(replace(paper_geometry(2), amplitude_model=model), users)
        again = channels(ch.kernel, [u.coords for u in users]).transpose(1, 0, 2)
        assert again.tobytes() == ch.g.tobytes()

    def test_products_derive_from_g(self):
        users = [UserPosition(0.4, 0, 1.0, 1), UserPosition(-0.3, 0.1, 1.2, 2)]
        ch = build_channel_set(paper_geometry(2), users)
        g = ch.g.copy()
        g[1, 0] = 0.0
        blocked = replace(ch, g=g)
        assert blocked.kernel is ch.kernel
        assert blocked.norms[1, 0] == 0.0 and blocked.kappa[1, 0] == 0.0
        assert np.all(blocked.gram[1, 0] == 0.0) and np.all(blocked.gram[1, :, 0] == 0.0)
        assert blocked.kappa[0].tobytes() == ch.kappa[0].tobytes()
        assert blocked.gram[0].tobytes() == ch.gram[0].tobytes()
        with pytest.raises(TypeError):
            ChannelSet(g=g, kernel=ch.kernel, norms=ch.norms)

    def test_gram_matches_direct_products(self):
        geom = paper_geometry(2)
        users = [UserPosition(0.4, 0, 1.0, 1), UserPosition(-0.3, 0.1, 1.2, 2)]
        ch = build_channel_set(geom, users)
        for s in range(2):
            for k in range(2):
                for m in range(2):
                    direct = np.sum(ch.g[s, k] * np.conj(ch.g[s, m]))
                    assert ch.gram[s, k, m] == pytest.approx(direct)


class TestValidation:
    def test_user_behind_plane_rejected(self):
        with pytest.raises(ValueError):
            UserPosition(0, 0, -1.0)

    @pytest.mark.parametrize("coords", [(np.nan, 0.0, 1.0), (0.1, 0.0, np.inf),
                                        (0.1, -np.inf, 1.0), (0.1, 0.0, np.nan)])
    def test_non_finite_user_rejected(self, coords):
        with pytest.raises(ValueError, match="finite"):
            UserPosition(*coords)

    @pytest.mark.parametrize("label", [0, 1.5, np.nan, np.inf])
    def test_vr_label_must_be_a_positive_integer(self, label):
        with pytest.raises(ValueError, match="vr_label"):
            UserPosition(0.1, 0.0, 1.0, label)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            channels(ChannelKernel(paper_geometry(2)), [(0.0, 0.0, 1.0), (np.nan, 0.0, 1.0)])

    @pytest.mark.parametrize("point", [(np.nan, 0.0, 1.0), (0.1, np.inf, 1.0),
                                       (0.1, 0.0, -np.inf)])
    def test_non_finite_raw_point_rejected_by_channel(self, point):
        with pytest.raises(ValueError, match="finite"):
            channel(paper_geometry(2), 0, np.array(point))

    @pytest.mark.parametrize("point", [(0.1, 1.0), [(0.0, 0.0, 1.0), (0.1, 0.0, 1.0)]],
                             ids=["two_numbers", "two_points"])
    def test_channel_takes_exactly_one_point(self, point):
        with pytest.raises(ValueError, match="shape|one point"):
            channel(paper_geometry(2), 0, point)

    @pytest.mark.parametrize("name, value", [("d", np.inf), ("d", np.nan),
                                             ("wavelength", np.inf),
                                             ("element_size", np.inf),
                                             ("boresight_exp", np.inf)])
    def test_non_finite_size_rejected(self, name, value):
        kwargs = dict(n_sub=1, nx=2, ny=2, d=0.05, wavelength=0.1,
                      element_size=0.025, boresight_exp=2)
        kwargs[name] = value
        with pytest.raises(ValueError, match="must be finite"):
            ArrayGeometry(**kwargs)

    @pytest.mark.parametrize("origins, message", [
        (((np.nan, 0.0, 0.0),), "must be finite"),
        (((0.0, np.inf, 0.0),), "must be finite"),
        (((0.0, 0.0, np.nan),), "must be finite"),
        (((0.0, 0.0),), r"needs three numbers \[x, y, z\], got 2"),
        (((0.0, 0.0, 0.0, 0.0),), r"needs three numbers \[x, y, z\], got 4"),
        (((0.0, 0.0, 0.1),), "z=0 plane"),
        ((1.0,), r"needs three numbers \[x, y, z\], got \(1\.0,\)"),
        (1.0, r"needs three numbers \[x, y, z\], got 1\.0"),
    ], ids=["nan_x", "inf_y", "nan_z", "two_numbers", "four_numbers", "off_plane",
            "flat_origin", "bare_number"])
    def test_bad_origin_rejected(self, origins, message):
        # a non-finite origin would reach channel synthesis as NaN channels;
        # a bare number is no origin at all
        with pytest.raises(ValueError, match=message):
            ArrayGeometry(n_sub=1, nx=2, ny=2, d=0.05, wavelength=0.1,
                          element_size=0.025, boresight_exp=2,
                          sub_array_origins=origins)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            ArrayGeometry(n_sub=0, nx=2, ny=2, d=0.05, wavelength=0.1,
                          element_size=0.025, boresight_exp=2)
        with pytest.raises(ValueError):
            ArrayGeometry(n_sub=1, nx=2, ny=2, d=-0.05, wavelength=0.1,
                          element_size=0.025, boresight_exp=2)
