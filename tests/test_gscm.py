import math
from dataclasses import fields

import numpy as np
import pytest

import gusim.gscm as gscm
from gusim.errors import ConfigurationError, GeometryError
from gusim.gscm import (ScenarioConfig, channel_covariances, channel_matrix,
                        cluster_attenuation, generate_scenario, load_scenario,
                        mpc_amplitudes, path_loss_nlos, save_scenario,
                        scenario_from_dict, scenario_to_dict, steering_vector,
                        vr_gain)
from gusim.rx import channel_covariance

from conftest import make_scenario

WAVELENGTH_2GHZ = 0.1499


class TestGenerateScenario:
    def test_users_respect_exclusion_and_cell_bounds(self):
        cfg = ScenarioConfig(num_users=10, cell_half_side=1000.0, rng_seed=7)
        scen = generate_scenario(cfg)
        assert scen.num_users == 10
        d = np.hypot(scen.users[:, 0], scen.users[:, 1])
        assert np.all(d >= 100.0)
        assert np.all(d <= math.sqrt(2) * 1000.0)
        assert np.all(np.abs(scen.users[:, :2]) <= 1000.0)

    def test_same_seed_identical(self):
        cfg = ScenarioConfig(num_users=6, rng_seed=11)
        a = generate_scenario(cfg)
        b = generate_scenario(cfg)
        np.testing.assert_array_equal(a.users, b.users)
        for ca, cb in zip(a.clusters, b.clusters):
            np.testing.assert_array_equal(ca.position, cb.position)
            np.testing.assert_array_equal(ca.vr_center, cb.vr_center)
            assert ca.delay == cb.delay
            assert ca.shadow_gain == cb.shadow_gain

    def test_invalid_exclusion_fraction(self):
        with pytest.raises(ConfigurationError):
            generate_scenario(ScenarioConfig(bs_exclusion_fraction=1.5))

    def test_cluster_count_and_delay_bound(self):
        scen = generate_scenario(ScenarioConfig(num_clusters=4, rng_seed=2))
        assert scen.num_clusters == 4
        for cl in scen.clusters:
            los = np.linalg.norm(cl.position - scen.bs_position)
            assert cl.delay >= los / gscm.SPEED_OF_LIGHT
            assert cl.shadow_gain > 0


class TestVrGain:
    def test_half_at_inner_edge(self):
        assert vr_gain(30.0, 50.0, 20.0, WAVELENGTH_2GHZ) == pytest.approx(0.5, abs=1e-15)

    def test_limits(self):
        assert vr_gain(1e9, 50.0, 20.0, WAVELENGTH_2GHZ) < 1e-8
        assert vr_gain(0.0, 5000.0, 20.0, WAVELENGTH_2GHZ) > 0.999

    def test_frozen_value_at_boundary(self):
        # high-precision evaluation of the transition formula at d = R_C
        assert vr_gain(50.0, 50.0, 20.0, 0.1499) == pytest.approx(
            0.009739919800868958, rel=1e-12)

    def test_strictly_decreasing(self):
        d = np.linspace(0.0, 200.0, 400)
        vals = [vr_gain(x, 50.0, 20.0, WAVELENGTH_2GHZ) for x in d]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            vr_gain(10.0, 20.0, 50.0, WAVELENGTH_2GHZ)


class TestClusterAttenuation:
    def test_unity_at_reference(self):
        assert cluster_attenuation(1e-6, 1e-6, 5e-6, 1e6) == 1.0

    def test_zero_decay(self):
        assert cluster_attenuation(9e-6, 1e-6, 5e-6, 0.0) == 1.0

    def test_floor_beyond_cutoff(self):
        k, t0, tb = 1e6, 1e-6, 5e-6
        floor = math.exp(-k * (tb - t0))
        assert cluster_attenuation(9e-6, t0, tb, k) == pytest.approx(floor, rel=1e-15)

    def test_nonincreasing_then_constant(self):
        k, t0, tb = 1e6, 0.0, 4e-6
        taus = np.linspace(0.0, 8e-6, 50)
        vals = [cluster_attenuation(t, t0, tb, k) for t in taus]
        assert all(a >= b - 1e-18 for a, b in zip(vals, vals[1:]))
        late = [v for t, v in zip(taus, vals) if t >= tb]
        assert max(late) == pytest.approx(min(late), rel=1e-15)


class TestPathLoss:
    def test_one_meter(self):
        loss, gain = path_loss_nlos(1.0, 0.1499)
        assert loss == pytest.approx(38.468164623476335, rel=1e-12)
        assert gain == pytest.approx(10 ** (-loss / 10.0), rel=1e-15)

    def test_hundred_meters(self):
        loss, _ = path_loss_nlos(100.0, 0.1499)
        assert loss == pytest.approx(90.468164623476335, rel=1e-12)

    def test_decade_adds_26_db(self):
        l1, _ = path_loss_nlos(37.0, 0.1499)
        l2, _ = path_loss_nlos(370.0, 0.1499)
        assert l2 - l1 == pytest.approx(26.0, abs=1e-10)

    def test_nonpositive_distance(self):
        with pytest.raises(GeometryError):
            path_loss_nlos(0.0, 0.1499)


class TestSteeringVector:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(steering_vector(0.0, 8, 0.5), np.ones(8))

    def test_unit_modulus(self):
        v = steering_vector(0.7, 16, 0.5)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)

    def test_endfire_half_wavelength(self):
        v = steering_vector(math.pi / 2, 2, 0.5)
        assert v[1] == pytest.approx(-1.0 + 0j, abs=1e-14)


class TestMpcAmplitudes:
    def test_far_user_amplitudes_vanish(self):
        # same user distance from the BS, VR centre moved far away: the
        # transition gain collapses the amplitudes by orders of magnitude
        inside = make_scenario(
            users_xy=[(900.0, 900.0)],
            cluster_specs=[(np.array([100.0, 0.0, 20.0]), np.array([900.0, 900.0]))],
        )
        outside = make_scenario(
            users_xy=[(900.0, 900.0)],
            cluster_specs=[(np.array([100.0, 0.0, 20.0]), np.array([-900.0, -900.0]))],
        )
        near = gscm.user_cluster_geometry_factor(inside, 0, 0)
        far = gscm.user_cluster_geometry_factor(outside, 0, 0)
        assert far < 1e-4 * near
        assert np.max(np.abs(mpc_amplitudes(outside, 0, 0).gains)) < 1e-3 * near

    def test_expected_total_power(self, small_scenario):
        # sample-mean oracle over 1e5 redraws against the closed-form
        # large-scale factor
        factor = gscm.user_cluster_geometry_factor(small_scenario, 0, 0)
        rng = np.random.default_rng(42)
        n = 100_000
        acc = 0.0
        for _ in range(n):
            draw = mpc_amplitudes(small_scenario, 0, 0, rng=rng)
            acc += float(np.sum(np.abs(draw.gains) ** 2))
        assert acc / n == pytest.approx(factor ** 2, rel=0.01)

    def test_deterministic_without_rng(self, small_scenario):
        a = mpc_amplitudes(small_scenario, 0, 0)
        b = mpc_amplitudes(small_scenario, 0, 0)
        np.testing.assert_array_equal(a.gains, b.gains)
        np.testing.assert_array_equal(a.azimuths, b.azimuths)

    def test_draw_length(self, small_scenario):
        draw = mpc_amplitudes(small_scenario, 0, 0)
        assert draw.gains.shape == (small_scenario.config.mpcs_per_cluster,)
        assert np.all(np.isfinite(draw.gains))


class TestChannelMatrix:
    def test_single_path_broadside_column(self):
        # one user, one cluster on the array broadside, one MPC with no
        # angular spread: column is the gain times the all-ones vector
        scen = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([150.0, 0.0, 5.0]), np.array([210.0, 0.0]))],
            mpcs_per_cluster=1, angular_spread_deg=0.0, antenna_count=4,
        )
        draw = mpc_amplitudes(scen, 0, 0)
        assert draw.azimuths[0] == pytest.approx(0.0, abs=1e-12)
        h = channel_matrix(scen, [0]).entries
        np.testing.assert_allclose(h[:, 0], np.full(4, draw.gains[0]), rtol=1e-12)

    def test_shared_cluster_parallel_columns(self):
        scen = make_scenario(
            users_xy=[(200.0, 10.0), (220.0, -10.0)],
            cluster_specs=[(np.array([150.0, 50.0, 20.0]), np.array([210.0, 0.0]))],
        )
        h = channel_matrix(scen, [0, 1], shared_fading=True).entries
        c0, c1 = h[:, 0], h[:, 1]
        inner = abs(np.vdot(c0, c1)) / (np.linalg.norm(c0) * np.linalg.norm(c1))
        assert inner == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_double_sum(self):
        scen = make_scenario(
            users_xy=[(200.0, 0.0), (-150.0, 180.0)],
            cluster_specs=[
                (np.array([150.0, 50.0, 20.0]), np.array([210.0, 0.0])),
                (np.array([-100.0, 120.0, 15.0]), np.array([-140.0, 170.0])),
            ],
            mpcs_per_cluster=2, antenna_count=4,
        )
        cfg = scen.config
        h = channel_matrix(scen, [0, 1]).entries
        alpha = -2.0 * math.pi * cfg.antenna_spacing_fraction
        expected = np.zeros((4, 2), dtype=complex)
        for col, user in enumerate([0, 1]):
            for j in gscm.visible_clusters(scen, user):
                draw = mpc_amplitudes(scen, user, j)
                for i in range(cfg.mpcs_per_cluster):
                    for m in range(4):
                        expected[m, col] += draw.gains[i] * np.exp(
                            1j * alpha * m * math.sin(draw.azimuths[i]))
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    def test_linearity_via_shared_scaling(self, small_scenario):
        # doubling every MPC gain of a user doubles that column: verified
        # through the scale factor in the geometry term
        h1 = channel_matrix(small_scenario, [0]).entries
        draw = mpc_amplitudes(small_scenario, 0, 0)
        rebuilt = np.zeros_like(h1[:, 0])
        for g, phi in zip(draw.gains, draw.azimuths):
            rebuilt += g * steering_vector(
                phi, small_scenario.config.antenna_count,
                small_scenario.config.antenna_spacing_fraction)
        np.testing.assert_allclose(2.0 * h1[:, 0], 2.0 * rebuilt, rtol=1e-12)

    def test_empty_selection_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            channel_matrix(small_scenario, [])

    def test_duplicate_selection_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            channel_matrix(small_scenario, [0, 0])

    def test_deterministic(self):
        cfg = ScenarioConfig(num_users=5, rng_seed=9)
        a = channel_matrix(generate_scenario(cfg), [0, 2, 4]).entries
        b = channel_matrix(generate_scenario(cfg), [0, 2, 4]).entries
        np.testing.assert_array_equal(a, b)


class TestChannelCovariances:
    def test_sample_covariance_of_redraws_converges(self):
        # Oracle: the sample covariance of vec(H) over independent fading
        # re-draws, cross-user blocks included (those are exactly zero).
        scen = generate_scenario(ScenarioConfig(
            num_users=2, num_clusters=1, antenna_count=4, mpcs_per_cluster=3,
            rng_seed=0))
        r = channel_covariances(scen, [0, 1])
        m = r.shape[1]
        exact = np.zeros((2 * m, 2 * m), dtype=complex)
        exact[:m, :m], exact[m:, m:] = r
        rng = np.random.default_rng(0)
        samples = [channel_matrix(scen, [0, 1], gain_rng=rng).entries
                   .reshape(-1, order="F") for _ in range(30_000)]

        def rel_err(n):
            sample = channel_covariance(samples[:n])
            return np.linalg.norm(sample - exact) / np.linalg.norm(exact)

        assert rel_err(30_000) < 1e-2
        assert rel_err(30_000) < rel_err(3_000)

    def test_single_path_broadside(self):
        # one MPC at azimuth 0: R = f^2 * ones, f^2 the expected column power
        scen = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([150.0, 0.0, 5.0]), np.array([210.0, 0.0]))],
            mpcs_per_cluster=1, angular_spread_deg=0.0, antenna_count=3)
        f2 = gscm.user_cluster_geometry_factor(scen, 0, 0) ** 2
        np.testing.assert_allclose(channel_covariances(scen, [0]),
                                   f2 * np.ones((1, 3, 3)), rtol=1e-12)

    def test_hermitian_psd_and_ordered_like_selection(self):
        scen = generate_scenario(ScenarioConfig(num_users=5, num_clusters=3,
                                                antenna_count=6, rng_seed=2))
        r = channel_covariances(scen, [3, 1])
        np.testing.assert_allclose(r, r.conj().transpose(0, 2, 1),
                                   atol=1e-15 * np.abs(r).max())
        assert np.all(np.linalg.eigvalsh(r) > -1e-12 * np.abs(r).max())
        np.testing.assert_array_equal(r[0], channel_covariances(scen, [3])[0])

    def test_invisible_cluster_contributes_nothing(self):
        # the second cluster's VR centre is ~300 km from the user, so its
        # VR gain falls below the default visibility floor of 1e-6
        far_vr = np.array([-3.0e5, 0.0])
        assert vr_gain(float(np.linalg.norm(far_vr - [200.0, 0.0])), 50.0, 20.0,
                       WAVELENGTH_2GHZ) < gscm.DEFAULT_VISIBILITY_FLOOR
        scen = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([150.0, 50.0, 20.0]), np.array([210.0, 0.0])),
                           (np.array([-400.0, 0.0, 20.0]), far_vr)],
            antenna_count=4)
        alone = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([150.0, 50.0, 20.0]), np.array([210.0, 0.0]))],
            antenna_count=4)
        np.testing.assert_allclose(channel_covariances(scen, [0]),
                                   channel_covariances(alone, [0]), rtol=1e-12)

    def test_no_visible_cluster_gives_zero(self):
        scen = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([-400.0, 0.0, 20.0]), np.array([-3.0e5, 0.0]))],
            antenna_count=4)
        np.testing.assert_array_equal(channel_covariances(scen, [0]),
                                      np.zeros((1, 4, 4)))
        np.testing.assert_array_equal(channel_matrix(scen, [0]).entries,
                                      np.zeros((4, 1)))

    def test_selection_checked(self, small_scenario):
        with pytest.raises(ConfigurationError):
            channel_covariances(small_scenario, [])
        with pytest.raises(IndexError):
            channel_covariances(small_scenario, [1])


class TestScenarioSerialization:
    def test_round_trip(self, tmp_path):
        scen = generate_scenario(ScenarioConfig(num_users=4, rng_seed=5))
        path = tmp_path / "scenario.yaml"
        save_scenario(scen, path)
        loaded = load_scenario(path)
        np.testing.assert_array_equal(loaded.users, scen.users)
        np.testing.assert_array_equal(loaded.bs_position, scen.bs_position)
        assert loaded.config == scen.config
        for a, b in zip(loaded.clusters, scen.clusters):
            np.testing.assert_array_equal(a.position, b.position)
            assert a.delay == b.delay

    def test_rejects_unknown_schema(self, tmp_path):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"schema_version": 99})

    def test_dict_round_trip_keeps_every_field(self):
        scen = generate_scenario(ScenarioConfig(num_users=3, num_clusters=2,
                                                reference_delay=1e-7, rng_seed=2))
        data = scenario_to_dict(scen)
        assert set(data["config"]) == {f.name for f in fields(ScenarioConfig)}
        loaded = scenario_from_dict(data)
        assert loaded.config == scen.config
        assert scenario_to_dict(loaded) == data
        assert not loaded.users.flags.writeable

    def test_unknown_config_key_rejected(self):
        data = scenario_to_dict(generate_scenario(ScenarioConfig(num_users=3)))
        data["config"]["colour"] = "blue"
        with pytest.raises(ConfigurationError, match="scenario.config.*colour"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("path,value", [
        (("config", "num_users"), "3"),
        (("config", "cluster_height_range"), [5.0]),
        (("users",), "everywhere"),
        (("clusters", 0, "delay"), None),
        (("clusters", 0, "position"), [1.0, "2", 3.0]),
    ])
    def test_wrongly_typed_value_rejected(self, path, value):
        data = scenario_to_dict(generate_scenario(ScenarioConfig(num_users=3)))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigurationError):
            scenario_from_dict(data)

    def test_missing_key_rejected(self):
        data = scenario_to_dict(generate_scenario(ScenarioConfig(num_users=3)))
        del data["users"]
        with pytest.raises(ConfigurationError, match="missing key.*users"):
            scenario_from_dict(data)
