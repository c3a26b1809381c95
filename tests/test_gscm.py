import itertools
import math
import os
import re
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import gusim.gscm as gscm
from gusim.errors import ConfigurationError, GeometryError
from gusim.gscm import (ScenarioConfig, channel_covariances, channel_matrix,
                        cluster_attenuation, generate_scenario, load_scenario,
                        path_loss_nlos, save_scenario, scenario_from_dict,
                        scenario_to_dict, vr_gain)
from gusim.localization import CrlbParams, perturb_and_rebuild_omegas
from conftest import (channel_covariance, cluster_azimuths, einsum_channel,
                      einsum_covariances, generate_scenario_loop, generate_scenario_uniform,
                      laplace_offsets, make_scenario, norm_delays, norm_large_scale_gains,
                      pathloss_amplitude, reference_delay, scalar_gain, set_next_word,
                      steering_vector, stream)

WAVELENGTH_2GHZ = 0.1499


def fading_normals(scen, user, cluster):
    """Oracle for one row of ``gscm._fading_normals_batch``: the 2 N_p
    normals of the pair's own SeedSequence-seeded stream."""
    rng = stream(scen.config.rng_seed, 202, cluster, user)
    return rng.standard_normal(2 * scen.config.mpcs_per_cluster)


def per_pair_batch(scen, users, clusters):
    """``gscm._fading_normals_batch`` computed one stream per pair."""
    return np.array([fading_normals(scen, k, j) for k, j in zip(users, clusters)]
                    ).reshape(-1, 2 * scen.config.mpcs_per_cluster)


def assert_same_bits(got, want):
    """``got`` and ``want`` hold the same float64 bit patterns:
    ``assert_array_equal`` takes -0.0 for 0.0."""
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def field_bytes(scen):
    """The config and every drawn array of a scenario, the BS position
    included, as shapes and bytes."""
    arrays = [scen.bs_position, scen.users, scen.cluster_positions, scen.vr_centers,
              scen.shadow_gains]
    return scen.config, [(a.shape, a.dtype, a.tobytes()) for a in arrays]


def assert_matches_the_loop(scen, oracle):
    """``scen`` holds the draws of ``oracle`` (``generate_scenario_loop``) bit
    for bit; its delays, two array norms over all clusters, are within 2 ulp
    of the oracle's per-cluster norms."""
    assert field_bytes(scen) == field_bytes(oracle)
    np.testing.assert_array_max_ulp(scen.delays, oracle.delays, maxulp=2)


def mpc_gains(scen, user, cluster):
    """Oracle for one user-cluster pair's complex MPC gains: the pair's
    fading normals as circular Gaussians of power 1/N_p, scaled by the
    scalar large-scale gain."""
    normals = fading_normals(scen, user, cluster)
    n_p = scen.config.mpcs_per_cluster
    unit = (normals[:n_p] + 1j * normals[n_p:]) / math.sqrt(2.0 * n_p)
    return scalar_gain(scen, user, cluster) * unit


def brute_force_channel(scen, users):
    """Oracle for ``channel_matrix``: each column the double sum, over every
    cluster and its MPCs, of the MPC gain times the array response."""
    cfg = scen.config
    m = cfg.antenna_count
    alpha = -2.0 * math.pi * cfg.antenna_spacing_fraction
    h = np.zeros((m, len(users)), dtype=complex)
    for col, user in enumerate(users):
        for j in range(scen.num_clusters):
            for gain, phi in zip(mpc_gains(scen, user, j), cluster_azimuths(scen, j)):
                for i in range(m):
                    h[i, col] += gain * np.exp(1j * alpha * i * math.sin(phi))
    return h


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
        np.testing.assert_array_equal(a.cluster_positions, b.cluster_positions)
        np.testing.assert_array_equal(a.vr_centers, b.vr_centers)
        np.testing.assert_array_equal(a.delays, b.delays)
        np.testing.assert_array_equal(a.shadow_gains, b.shadow_gains)

    def test_independent_equal_draws_compare_equal(self):
        cfg = ScenarioConfig(num_users=6, rng_seed=11)
        a, b = generate_scenario(cfg), generate_scenario(cfg)
        assert a.users is not b.users
        assert a == b and not a != b
        assert a.cluster_positions is not b.cluster_positions

    def test_one_user_coordinate_makes_scenarios_differ(self):
        a = generate_scenario(ScenarioConfig(num_users=6, rng_seed=11))
        users = a.users.copy()
        users[3, 1] += 1e-6
        assert replace(a, users=users) != a
        vr_centers = a.vr_centers.copy()
        vr_centers[2] += 1e-6
        assert replace(a, vr_centers=vr_centers) != a

    def test_invalid_exclusion_fraction(self):
        with pytest.raises(ConfigurationError):
            generate_scenario(ScenarioConfig(bs_exclusion_fraction=1.5))

    def test_cluster_count_and_delay_bound(self):
        scen = generate_scenario(ScenarioConfig(num_clusters=4, rng_seed=2))
        assert scen.num_clusters == 4
        for position, delay in zip(scen.cluster_positions, scen.delays):
            assert delay >= np.linalg.norm(position - scen.bs_position) / gscm.SPEED_OF_LIGHT
        assert np.all(scen.shadow_gains > 0)

    @pytest.mark.parametrize("fraction", [0.1, 0.9])
    def test_matches_the_per_draw_loop(self, fraction):
        # 0.9 rejects about two draws in three
        for seed in [*range(1, 301), 2**32 - 1, 2**32, 2**40 + 3]:
            cfg = ScenarioConfig(rng_seed=seed, bs_exclusion_fraction=fraction)
            assert_matches_the_loop(generate_scenario(cfg), generate_scenario_loop(cfg))


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

    def test_smallest_gain_over_default_scenarios(self):
        # every user sees every cluster through the transition tail: over 200
        # default scenarios no VR gain falls below 7.3e-5 (README, "Visibility")
        smallest = math.inf
        for seed in range(200):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            cfg = scen.config
            d = np.linalg.norm(scen.users[:, None, :2] - scen.vr_centers[None], axis=-1)
            smallest = min(smallest, vr_gain(d, cfg.vr_radius, cfg.transition_size,
                                             cfg.wavelength).min())
        assert 7.3e-5 < smallest < 7.4e-5


def test_gscm_owns_every_stream_salt():
    # one table of distinct salts; no other module keys a stream or names a salt
    assert len(set(gscm._STREAMS.values())) == len(gscm._STREAMS) == 5
    salts = "|".join(map(str, gscm._STREAMS.values()))
    key = re.compile(rf"SeedSequence|_stream\(|_STREAM|\b(?:{salts})\b")
    found = {path.name: key.findall(path.read_text(encoding="utf-8"))
             for path in Path(gscm.__file__).parent.glob("*.py") if path.name != "gscm.py"}
    assert not any(found.values()), found


@pytest.mark.parametrize("seed", [1, 2**32 + 5])
@pytest.mark.parametrize("purpose,salt,index", [
    ("angles", 101, (3,)), ("gains", 202, (2, 5)), ("perturb", 303, ()),
    ("select", 404, (10,)), ("pilot_noise", 505, (5,))])
def test_scenario_stream_keys(seed, purpose, salt, index):
    scen = make_scenario([(200.0, 0.0)], [((150.0, 50.0, 20.0), (210.0, 0.0))], rng_seed=seed)
    np.testing.assert_array_equal(scen.stream(purpose, *index).random(4),
                                  stream(seed, salt, *index).random(4))


class TestScenarioConfigBounds:
    """Every config that ``validate`` accepts generates and loads."""

    @pytest.mark.parametrize("half,ok", [(2119.8, True), (2119.9, False)])
    def test_cutoff_delay_covers_the_cell(self, half, ok):
        # at the default 1e-5 s cutoff the corner user's line-of-sight delay
        # reaches the cutoff at cell_half_side ~ 2119.85 m
        if ok:
            cfg = ScenarioConfig(cell_half_side=half, num_users=400)
            cfg.validate()
            gscm.large_scale_gains(generate_scenario(cfg))
        else:
            with pytest.raises(ConfigurationError, match="cutoff_delay.*cell_half_side"):
                ScenarioConfig(cell_half_side=half, num_users=400)
        ScenarioConfig(cell_half_side=half, reference_delay=1e-6).validate()

    @pytest.mark.parametrize("reference_delay", [None, 1e-5])
    def test_power_decay_at_the_bound_gives_finite_gains(self, reference_delay):
        # A_C <= exp(power_decay * tau_0) for any cluster delay > 0, with
        # tau_0 the reference delay, or else the cell corner's line-of-sight
        # delay: about 1.5e8 /s for the default cell
        cfg = ScenarioConfig(reference_delay=reference_delay, rng_seed=1)
        corner = math.hypot(math.sqrt(2.0) * 1000.0, 5.0 - 1.5) / gscm.SPEED_OF_LIGHT
        bound = math.log(sys.float_info.max) / (reference_delay or corner)
        assert 1.50e8 < bound < 1.51e8 if reference_delay is None else bound < 1e8
        message = re.escape(f"power_decay must be <= {bound:.6g},")
        for decay in (bound * (1 + 1e-12), 1e9):
            with pytest.raises(ConfigurationError, match=message):
                replace(cfg, power_decay=decay).validate()
        scen = generate_scenario(replace(cfg, power_decay=bound * (1 - 1e-12)))
        with np.errstate(over="raise", invalid="raise"):
            h = channel_matrix(scen, range(scen.num_users)).entries
        assert np.all(np.isfinite(h))

    def test_shadowing_sigma_at_the_bound_generates_and_loads(self, tmp_path):
        # the bound takes r = 3.6541528853610088 for the start of the
        # ziggurat's tail, the edge of its widest layer in numpy's table
        assert gscm._ziggurat()[0][255] * 2.0**52 == pytest.approx(3.6541528853610088,
                                                                   rel=1e-15)
        bound = gscm._MAX_SHADOWING_SIGMA_DB
        assert 252.1 < bound < 252.2
        for seed in range(1, 8):
            scen = generate_scenario(ScenarioConfig(shadowing_sigma_db=bound, rng_seed=seed))
            save_scenario(scen, tmp_path / "scenario.yaml")
            assert load_scenario(tmp_path / "scenario.yaml") == scen
        for sigma in (bound * (1 + 1e-12), 3000.0):
            with pytest.raises(ConfigurationError, match="shadowing_sigma_db must be <="):
                ScenarioConfig(shadowing_sigma_db=sigma).validate()

    @pytest.mark.parametrize("geometry", [
        dict(cell_half_side=9e307), dict(cell_half_side=1e155),
        dict(cluster_height_range=(0.0, 1e200)), dict(bs_height=1e160), dict(ms_height=-1e160)],
        ids=["uniform-range", "cell", "cluster-heights", "bs-height", "ms-height"])
    def test_overflowing_squared_distance_rejected(self, geometry):
        # the first overflows numpy's uniform range 2 h, the others a squared
        # user-VR-centre, cluster-VR-centre or BS-user distance
        with pytest.raises(ConfigurationError, match="overflow a squared distance"):
            ScenarioConfig(reference_delay=1e-6, **geometry).validate()

    @pytest.mark.parametrize("half_side,accepted", [(1.25e15, True), (1.27e15, False)])
    def test_vr_gain_at_the_farthest_user_must_not_round_to_zero(self, half_side, accepted):
        # 0.5 - arctan(arg) / pi is exactly 0 once arctan(arg) rounds to fl(pi / 2),
        # at arg ~ 5.8e15: a user 2 sqrt(2) h from a VR centre at h ~ 1.26e15 m
        config = ScenarioConfig(reference_delay=1e-6)
        far = 2.0 * math.sqrt(2.0) * half_side
        assert (vr_gain(far, config.vr_radius, config.transition_size,
                        config.wavelength) > 0) == accepted
        if accepted:
            replace(config, cell_half_side=half_side).validate()
        else:
            with pytest.raises(ConfigurationError, match="vr_gain .* rounds to 0"):
                replace(config, cell_half_side=half_side)

    def test_largest_accepted_cell_gives_finite_geometry(self):
        # the largest cell_half_side validate accepts, by bisection on the float's
        # bits. The vr_gain rule binds: at the farthest user-VR-centre distance
        # 2 sqrt(2) h, arg = 2 sqrt(2) (t + d - r) / sqrt(lambda t) must stay below
        # 1 / ((pi - fl(pi)) / 2 + ulp(pi / 2) / 2), where arctan rounds to fl(pi / 2).
        # The squared-distance rule, sqrt(max / 392) ~ 6.77e152 m, no longer does:
        # there every V entry was 0, and every cell read nan
        def half(bits):
            return float(np.array(bits, np.int64).view(np.float64))

        def accepted(bits):
            try:
                ScenarioConfig(cell_half_side=half(bits), reference_delay=1e-6).validate()
            except ConfigurationError:
                return False
            return True

        lo, hi = (int(np.array(x).view(np.int64)) for x in (1.0, 1e300))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        config = ScenarioConfig()
        arg = 1.0 / (math.sin(math.pi) / 2.0 + math.ulp(math.pi / 2.0) / 2.0)
        expected = (arg * math.sqrt(config.wavelength * config.transition_size)
                    / (2.0 * math.sqrt(2.0)) + config.vr_radius - config.transition_size) \
            / (2.0 * math.sqrt(2.0))
        assert half(lo) == pytest.approx(expected, rel=1e-12)
        assert half(lo) < math.sqrt(sys.float_info.max / 392.0)
        for seed in range(1, 6):
            scen = generate_scenario(ScenarioConfig(cell_half_side=half(lo),
                                                    reference_delay=1e-6, rng_seed=seed))
            with np.errstate(over="raise", invalid="raise"):
                rebuilt = perturb_and_rebuild_omegas(scen, range(6), CrlbParams())
                arrays = [scen.delays, scen.observables, gscm.large_scale_gains(scen),
                          channel_matrix(scen, range(scen.num_users)).entries,
                          rebuilt.v_tilde, rebuilt.cluster_positions]
            assert all(np.all(np.isfinite(a)) for a in arrays)
            assert np.all(arrays[2] > 0)
            assert np.abs(scen.cluster_positions[:, :2]).max() > 0.9 * half(lo)


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

    def test_clusters_below_the_line_of_sight_delay_amplify(self):
        # a cluster's delay runs BS -> cluster -> VR centre, not to the user,
        # so it can fall below the user's own line-of-sight delay, and A_C > 1
        # exactly there (README, "cluster attenuations stay finite")
        cfg, gains, below = ScenarioConfig(), [], []
        for seed in range(1, 201):
            scen = generate_scenario(replace(cfg, rng_seed=seed))
            tau_0 = np.linalg.norm(scen.users - scen.bs_position, axis=1)[:, None] \
                / gscm.SPEED_OF_LIGHT
            gains.append(cluster_attenuation(scen.delays, tau_0, cfg.cutoff_delay,
                                             cfg.power_decay))
            below.append(scen.delays < tau_0)
        gains = np.array(gains)
        assert gains.size == 200 * 40 * 12 == 96_000
        assert np.array_equal(gains > 1.0, np.array(below))
        assert np.count_nonzero(gains > 1.0) == 5_830
        assert round(gains.max(), 2) == 58.41


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


class TestBroadcasting:
    def test_arrays_match_scalar_calls(self):
        # elementwise equal to the scalar calls up to the last bits, which
        # vectorized transcendental functions may round differently
        rng = np.random.default_rng(4)
        d = rng.uniform(0.0, 400.0, size=(3, 5))
        np.testing.assert_allclose(
            vr_gain(d, 50.0, 20.0, WAVELENGTH_2GHZ),
            [[vr_gain(x, 50.0, 20.0, WAVELENGTH_2GHZ) for x in row] for row in d],
            rtol=1e-13)
        taus = rng.uniform(0.0, 9e-6, size=(3, 5))
        t0 = rng.uniform(0.0, 4e-6, size=(3, 1))
        np.testing.assert_allclose(
            cluster_attenuation(taus, t0, 5e-6, 1e6),
            [[cluster_attenuation(t, r[0], 5e-6, 1e6) for t in row]
             for row, r in zip(taus, t0)], rtol=1e-13)
        loss, gain = path_loss_nlos(d + 1.0, WAVELENGTH_2GHZ)
        scalar = [path_loss_nlos(x, WAVELENGTH_2GHZ) for x in (d + 1.0).ravel()]
        np.testing.assert_allclose(loss.ravel(), [lo for lo, _ in scalar], rtol=1e-13)
        np.testing.assert_allclose(gain.ravel(), [g for _, g in scalar], rtol=1e-13)

    @pytest.mark.parametrize("call,match", [
        (lambda: vr_gain(10.0, 20.0, 20.0, WAVELENGTH_2GHZ), "vr_radius > transition_size > 0"),
        (lambda: vr_gain(10.0, 50.0, 0.0, WAVELENGTH_2GHZ), "vr_radius > transition_size > 0"),
        (lambda: vr_gain(10.0, 50.0, 20.0, 0.0), "wavelength must be positive"),
        (lambda: cluster_attenuation(1e-6, 1e-6, 5e-6, -1.0), "power_decay must be nonnegative"),
        (lambda: path_loss_nlos(10.0, -WAVELENGTH_2GHZ), "wavelength must be positive"),
    ], ids=["vr-radius-at-transition", "zero-transition", "vr-wavelength", "negative-decay",
            "loss-wavelength"])
    def test_argument_checks(self, call, match):
        # the distance and delay checks are in test_input_checks_see_every_element
        with pytest.raises(ConfigurationError, match=match):
            call()

    def test_input_checks_see_every_element(self):
        with pytest.raises(ConfigurationError):
            vr_gain(np.array([10.0, -1.0]), 50.0, 20.0, WAVELENGTH_2GHZ)
        with pytest.raises(ConfigurationError):
            cluster_attenuation(1e-6, np.array([1e-6, 6e-6]), 5e-6, 1e6)
        with pytest.raises(GeometryError):
            path_loss_nlos(np.array([5.0, 0.0]), WAVELENGTH_2GHZ)


class TestLargeScaleGains:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("reference_delay", [None, 2e-6])
    @pytest.mark.parametrize("shadowing", [True, False])
    def test_matches_scalar_composition(self, seed, reference_delay, shadowing):
        # the kernel is V, with no shadowing; the channel's gains add it
        scen = generate_scenario(ScenarioConfig(
            num_users=7, num_clusters=5, reference_delay=reference_delay,
            rng_seed=seed))
        gains = scen.channel_gains if shadowing else gscm.large_scale_gains(scen)
        assert gains.shape == (7, 5)
        for k in range(7):
            for j in range(5):
                assert gains[k, j] == pytest.approx(
                    scalar_gain(scen, k, j, include_shadowing=shadowing), rel=1e-12)

    @pytest.mark.parametrize("reference_delay", [None, 2e-6])
    def test_overrides_match_scalar_composition(self, reference_delay):
        scen = generate_scenario(ScenarioConfig(
            num_users=6, num_clusters=4, reference_delay=reference_delay,
            rng_seed=5))
        rng = np.random.default_rng(5)
        vr = scen.vr_centers + rng.normal(0.0, 40.0, size=(4, 2))
        delays = scen.delays * rng.uniform(0.95, 1.05, size=4)
        gains = gscm.large_scale_gains(scen, vr, delays)
        for k in range(6):
            for j in range(4):
                assert gains[k, j] == pytest.approx(
                    scalar_gain(scen, k, j, vr[j], delays[j], False), rel=1e-12)
        # a single overridden column, as a cluster rebuild scores it
        column = gscm.large_scale_gains(scen, vr[2:3], delays[2:3])
        assert column.shape == (6, 1)
        np.testing.assert_allclose(
            column[:, 0],
            [scalar_gain(scen, k, 2, vr[2], delays[2], False) for k in range(6)],
            rtol=1e-12)

    def test_overrides_tiled_over_omegas(self):
        # the rebuild tiles every omega's clusters into one call
        scen = generate_scenario(ScenarioConfig(rng_seed=5))
        vr, delays = np.tile(scen.vr_centers, (2, 1)), np.tile(scen.delays, 2)
        assert gscm.large_scale_gains(scen, vr, delays).shape == (40, 24)

    @pytest.mark.parametrize("vr_rows,delay_shape,vr_columns", [
        (4, (3,), 2), (3, (3, 1), 2), (3, (3,), 3), (1, (), 2)],
        ids=["row-counts-differ", "delays-2d", "vr-centers-3d", "scalar-delay"])
    def test_mismatched_override_shapes_rejected(self, vr_rows, delay_shape, vr_columns):
        scen = generate_scenario(ScenarioConfig(num_users=6, num_clusters=4, rng_seed=5))
        with pytest.raises(ConfigurationError, match="vr_centers and delays must have shapes"):
            gscm.large_scale_gains(scen, np.zeros((vr_rows, vr_columns)),
                                   np.full(delay_shape, 1e-6))

    def test_inner_edge_entry(self):
        # user exactly at the inner VR edge with no delay decay: entry is
        # half the path-loss amplitude
        scen = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([150.0, 50.0, 20.0]), np.array([230.0, 0.0]))],
            power_decay=0.0,
        )
        v = gscm.large_scale_gains(scen)
        lp = pathloss_amplitude(scen, 0)
        assert v[0, 0] == pytest.approx(0.5 * lp, rel=1e-12)

    def test_far_user_row_vanishes(self):
        scen = make_scenario(
            users_xy=[(950.0, 950.0)],
            cluster_specs=[(np.array([100.0, 0.0, 20.0]), np.array([-950.0, -950.0]))],
        )
        v = gscm.large_scale_gains(scen)
        lp = pathloss_amplitude(scen, 0)
        assert v[0, 0] < 1e-4 * lp

    def test_matches_factor_composition(self):
        scen = make_scenario(
            users_xy=[(300.0, 100.0), (-250.0, 400.0)],
            cluster_specs=[
                (np.array([200.0, 150.0, 25.0]), np.array([310.0, 90.0])),
                (np.array([-200.0, 350.0, 10.0]), np.array([-260.0, 420.0])),
            ],
        )
        cfg = scen.config
        v = gscm.large_scale_gains(scen)
        for i in range(2):
            for j in range(2):
                _, gain = gscm.path_loss_nlos(
                    float(np.linalg.norm(scen.users[i] - scen.bs_position)),
                    cfg.wavelength)
                d_vr = float(np.linalg.norm(
                    scen.users[i, :2] - scen.vr_centers[j]))
                a_vr = gscm.vr_gain(d_vr, cfg.vr_radius, cfg.transition_size,
                                    cfg.wavelength)
                a_c = gscm.cluster_attenuation(
                    scen.delays[j],
                    reference_delay(scen, i),
                    cfg.cutoff_delay, cfg.power_decay)
                assert v[i, j] == pytest.approx(
                    math.sqrt(gain) * a_vr * math.sqrt(a_c), rel=1e-12)

    def test_no_shadowing_in_v(self):
        scen_a = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([150.0, 50.0, 20.0]), np.array([210.0, 0.0]))],
        )
        # same geometry, different shadow gain
        scen_b = replace(scen_a, shadow_gains=np.array([7.5]))
        np.testing.assert_array_equal(gscm.large_scale_gains(scen_a),
                                      gscm.large_scale_gains(scen_b))


class TestNumpyForms:
    """The cluster draw and the distances are elementwise forms of numpy's
    broadcasting ``uniform`` and of ``np.linalg.norm`` along a 2- or 3-long
    axis, so a numpy release that changes either's arithmetic or order fails here."""

    GEOMETRIES = {"default": {}, "moved": dict(
        cell_half_side=250.0, cluster_height_range=(0.0, 80.0), bs_height=12.3,
        ms_height=1.7, reference_delay=1e-6)}

    @pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
    def test_bytes_match_the_uniform_and_norm_forms(self, geometry, monkeypatch):
        # every large_scale_gains call: the scenario's V, then the rebuild's
        # overridden VR centres and delays for omega = 1 and 4
        kernel, calls = gscm.large_scale_gains, []

        def checked(scen, vr_centers=None, delays=None):
            got = kernel(scen, vr_centers, delays)
            assert got.tobytes() == norm_large_scale_gains(scen, vr_centers, delays).tobytes()
            calls.append(vr_centers is None)
            return got

        monkeypatch.setattr(gscm, "large_scale_gains", checked)
        for seed in range(1, 301):
            cfg = ScenarioConfig(rng_seed=seed, **geometry)
            scen = generate_scenario(cfg)
            assert field_bytes(scen) == field_bytes(generate_scenario_uniform(cfg))
            assert scen.delays.tobytes() == norm_delays(scen).tobytes()
            perturb_and_rebuild_omegas(scen, (0, 1, 4), CrlbParams())
        assert calls == [True, False] * 300


class TestSteeringVector:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(steering_vector(0.0, 8, 0.5), np.ones(8))

    def test_unit_modulus(self):
        v = steering_vector(0.7, 16, 0.5)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)

    def test_endfire_half_wavelength(self):
        v = steering_vector(math.pi / 2, 2, 0.5)
        assert v[1] == pytest.approx(-1.0 + 0j, abs=1e-14)

    def test_tensor_is_the_per_mpc_steering_vectors(self):
        # bitwise, so that channel_matrix does not move
        for seed in [*range(300), 2**32 - 1, 2**32, 2**40 + 3]:
            m, spacing = ((64, 0.5), (7, 0.3), (1, 0.5))[seed % 3]
            scen = generate_scenario(ScenarioConfig(
                num_users=2, antenna_count=m, antenna_spacing_fraction=spacing,
                mpcs_per_cluster=1 + seed % 7, rng_seed=seed))
            loop = np.array([[steering_vector(phi, m, spacing)
                              for phi in cluster_azimuths(scen, j)]
                             for j in range(scen.num_clusters)])
            np.testing.assert_array_equal(gscm._steering_tensor(scen), loop)

    def test_mpc_azimuths_centre_on_the_observed_azimuth(self):
        # the steering and the localization rebuild read one azimuth per
        # cluster: each cluster's MPC azimuths are observables[2] plus its
        # Laplace offsets, bit for bit
        for seed in range(1, 21):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            cfg = scen.config
            for j in range(scen.num_clusters):
                azimuths = scen.observables[2, j] + laplace_offsets(scen, j)
                np.testing.assert_array_equal(
                    scen.steering[j], [steering_vector(phi, cfg.antenna_count,
                                                       cfg.antenna_spacing_fraction)
                                       for phi in azimuths])


class TestMpcAmplitudes:
    def test_far_user_amplitudes_vanish(self):
        # same user distance from the BS, VR centre moved far away: the
        # transition gain collapses the amplitudes by orders of magnitude,
        # and the fading draw of the pair is the same
        inside = make_scenario(
            users_xy=[(900.0, 900.0)],
            cluster_specs=[(np.array([100.0, 0.0, 20.0]), np.array([900.0, 900.0]))],
        )
        outside = make_scenario(
            users_xy=[(900.0, 900.0)],
            cluster_specs=[(np.array([100.0, 0.0, 20.0]), np.array([-900.0, -900.0]))],
        )
        near = gscm.large_scale_gains(inside)[0, 0]
        far = gscm.large_scale_gains(outside)[0, 0]
        assert far < 1e-4 * near
        np.testing.assert_allclose(channel_matrix(outside, [0]).entries,
                                   far / near * channel_matrix(inside, [0]).entries,
                                   rtol=1e-12)


class TestChannelMatrix:
    def test_single_path_broadside_column(self):
        # one user, one cluster on the array broadside, one MPC with no
        # angular spread: column is the gain times the all-ones vector
        scen = make_scenario(
            users_xy=[(200.0, 0.0)],
            cluster_specs=[(np.array([150.0, 0.0, 5.0]), np.array([210.0, 0.0]))],
            mpcs_per_cluster=1, angular_spread_deg=0.0, antenna_count=4,
        )
        assert cluster_azimuths(scen, 0)[0] == pytest.approx(0.0, abs=1e-12)
        h = channel_matrix(scen, [0]).entries
        np.testing.assert_allclose(h[:, 0], np.full(4, mpc_gains(scen, 0, 0)[0]),
                                   rtol=1e-12)

    def test_matches_brute_force_double_sum(self):
        scen = make_scenario(
            users_xy=[(200.0, 0.0), (-150.0, 180.0)],
            cluster_specs=[
                (np.array([150.0, 50.0, 20.0]), np.array([210.0, 0.0])),
                (np.array([-100.0, 120.0, 15.0]), np.array([-140.0, 170.0])),
            ],
            mpcs_per_cluster=2, antenna_count=4,
        )
        np.testing.assert_allclose(channel_matrix(scen, [0, 1]).entries,
                                   brute_force_channel(scen, [0, 1]), rtol=1e-12)

    def test_linearity_via_shared_scaling(self, small_scenario):
        # doubling every MPC gain of a user doubles that column: verified
        # through the scale factor in the geometry term
        h1 = channel_matrix(small_scenario, [0]).entries
        rebuilt = np.zeros_like(h1[:, 0])
        for g, phi in zip(mpc_gains(small_scenario, 0, 0),
                          cluster_azimuths(small_scenario, 0)):
            rebuilt += g * steering_vector(
                phi, small_scenario.config.antenna_count,
                small_scenario.config.antenna_spacing_fraction)
        np.testing.assert_allclose(2.0 * h1[:, 0], 2.0 * rebuilt, rtol=1e-12)

    def test_column_independent_of_the_other_selected_users(self):
        scen = generate_scenario(ScenarioConfig(num_users=12, rng_seed=4))
        h = channel_matrix(scen, range(12)).entries
        for k in range(12):
            np.testing.assert_array_equal(h[:, [k]], channel_matrix(scen, [k]).entries)
        # desk scale, multi-user subsets in any order: the harness synthesizes
        # only the users a trial rates and must get the full matrix's bits
        for seed in (1, 7, 1001):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            h = channel_matrix(scen, range(scen.num_users)).entries
            rng = np.random.default_rng(seed)
            for size in (2, 5, 10, 23, 39, 40):
                subset = rng.permutation(scen.num_users)[:size]
                np.testing.assert_array_equal(channel_matrix(scen, subset).entries,
                                              h[:, subset])

    @pytest.mark.parametrize("seed", [1, 7, 1001])
    def test_matches_the_einsum_form(self, seed):
        # the one-einsum synthesis that the per-user products replaced
        scen = generate_scenario(ScenarioConfig(rng_seed=seed))
        rng = np.random.default_rng(seed)
        for size in range(1, scen.num_users + 1):
            users = rng.permutation(scen.num_users)[:size]
            np.testing.assert_allclose(channel_matrix(scen, users).entries,
                                       einsum_channel(scen, users), rtol=1e-12, atol=0)

    def test_non_finite_channel_rejected(self):
        # no valid config gives a non-finite gain (an overflowing power_decay
        # fails when its config is built), so an inf is preset in the cache
        scen = generate_scenario(ScenarioConfig(rng_seed=1))
        gains = scen.channel_gains.copy()
        gains[3, 5] = math.inf
        scen.__dict__["channel_gains"] = gains
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigurationError, match="non-finite entries"):
                channel_matrix(scen, range(scen.num_users))

    def test_empty_selection_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            channel_matrix(small_scenario, [])

    def test_duplicate_selection_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            channel_matrix(small_scenario, [0, 0])

    @pytest.mark.parametrize("selected", [[1.7], [True], np.array([1.0]), ["1"], [0, 2.9]],
                             ids=["float", "bool", "float-array", "string", "mixed"])
    def test_non_integer_selection_rejected(self, selected):
        # each used to pass through int() and give user 1's column (or 2's)
        scen = generate_scenario(ScenarioConfig(num_users=4, rng_seed=9))
        with pytest.raises(ConfigurationError, match="must be integers"):
            channel_matrix(scen, selected)
        with pytest.raises(ConfigurationError, match="must be integers"):
            channel_covariances(scen, selected)

    def test_numpy_integer_selection_accepted(self):
        scen = generate_scenario(ScenarioConfig(num_users=4, rng_seed=9))
        for selected in (np.array([3, 1], dtype=np.int64), [np.int32(3), np.uint8(1)]):
            np.testing.assert_array_equal(channel_matrix(scen, selected).entries,
                                          channel_matrix(scen, [3, 1]).entries)
            np.testing.assert_array_equal(channel_covariances(scen, selected),
                                          channel_covariances(scen, [3, 1]))

    def test_deterministic(self):
        cfg = ScenarioConfig(num_users=5, rng_seed=9)
        a = channel_matrix(generate_scenario(cfg), [0, 2, 4]).entries
        b = channel_matrix(generate_scenario(cfg), [0, 2, 4]).entries
        np.testing.assert_array_equal(a, b)


class TestFadingNormalsBatch:
    """The batch seeder re-implements numpy's SeedSequence mixing and PCG64
    seeding, so a numpy release that changes either fails here."""

    SEEDS = (0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3, 2**64)
    USERS = np.array([0, 1, 39, 7, 2**16, 2**31, 2**32 - 1, 2**32 - 1, 2**32, 5])
    CLUSTERS = np.array([0, 11, 3, 2**32 - 1, 4, 2**31 + 5, 0, 2**32 - 1, 2, 2**33])

    @staticmethod
    def _scenario(seed, mpcs=6):
        scen = generate_scenario(ScenarioConfig(num_users=2, num_clusters=1))
        return replace(scen, config=replace(scen.config, rng_seed=seed,
                                            mpcs_per_cluster=mpcs))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_per_pair_streams(self, seed):
        scen = self._scenario(seed)
        for users, clusters in ((self.USERS, self.CLUSTERS),
                                (self.USERS[:8], self.CLUSTERS[:8])):
            got = gscm._fading_normals_batch(scen, users, clusters)
            assert_same_bits(got, per_pair_batch(scen, users, clusters))

    def test_no_pairs(self):
        got = gscm._fading_normals_batch(self._scenario(3, mpcs=4),
                                         np.array([], int), np.array([], int))
        assert got.shape == (0, 8)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**70),
           mpcs=st.integers(1, 8),
           pairs=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                    st.integers(0, 2**32 - 1)), max_size=12))
    def test_random_keys_match_per_pair_streams(self, seed, mpcs, pairs):
        scen = self._scenario(seed, mpcs)
        users = np.array([k for k, _ in pairs], dtype=np.int64)
        clusters = np.array([j for _, j in pairs], dtype=np.int64)
        assert_same_bits(gscm._fading_normals_batch(scen, users, clusters),
                         per_pair_batch(scen, users, clusters))

    def test_channel_matrix_matches_per_pair_loop(self, monkeypatch):
        # every user of seeds 1-40, and two seeds that take the fallback
        batch = {}
        for seed in [*range(1, 41), 2**32, 2**40 + 3]:
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            batch[seed] = (scen, channel_matrix(scen, range(40)).entries)
        monkeypatch.setattr(gscm, "_fading_normals_batch", per_pair_batch)
        for seed, (scen, h) in batch.items():
            np.testing.assert_array_equal(h, channel_matrix(scen, range(40)).entries)


class TestZigguratKernel:
    """``_fading_normals_batch`` steps PCG64 and applies numpy's ziggurat fast
    path itself, so a numpy release that changes either fails here."""

    def test_tables_are_numpys(self):
        # the crafted state's next raw words are the chosen word, then 0 or 1.
        # wi[i] is the draw of the word with layer i and rabs = 1 (layer 1 then
        # takes its wedge test with the uniform 0, which accepts); ki[i] is the
        # least rabs whose draw consumes more than one word
        gen = np.random.Generator(np.random.PCG64(0))
        for word in (0, 1 << 9 | 1, 0x0123_4567_89AB_CDEF, 2**64 - 1):
            raw = set_next_word(gen, word).bit_generator.random_raw(2).tolist()
            assert raw in ([word, 0], [word, 1])
        wi, ki = np.empty(256), np.empty(256, np.uint64)
        for layer in range(256):
            wi[layer] = set_next_word(gen, 1 << 9 | layer).standard_normal()
            lo, hi = 0, 2**52
            while lo < hi:
                mid = (lo + hi) // 2
                set_next_word(gen, mid << 9 | layer).standard_normal()
                if gen.bit_generator.state["state"]["state"] == mid << 9 | layer:
                    lo = mid + 1   # one word consumed: the fast path accepted
                else:
                    hi = mid
            ki[layer] = lo
        kernel_wi, thresholds = gscm._ziggurat()
        np.testing.assert_array_equal(kernel_wi, wi)
        assert np.all(thresholds <= ki)   # never accepts a draw numpy rejects
        assert np.all(ki - thresholds <= 1) and thresholds[0] == ki[0]

    def test_every_pair_through_the_fallback(self, monkeypatch):
        wi, _ = gscm._ziggurat()
        monkeypatch.setattr(gscm, "_ziggurat", lambda: (wi, np.zeros(256, np.uint64)))
        set_pcg64, fallback_rows = gscm._set_pcg64, []
        monkeypatch.setattr(gscm, "_set_pcg64",
                            lambda *state: fallback_rows.append(state) or set_pcg64(*state))
        rng = np.random.default_rng(3)
        for seed in (1, 2**31, 2**32 - 1):
            scen = TestFadingNormalsBatch._scenario(seed)
            users, clusters = rng.integers(0, 40, 100), rng.integers(0, 2**32, 100)
            assert_same_bits(gscm._fading_normals_batch(scen, users, clusters),
                             per_pair_batch(scen, users, clusters))
            assert len(fallback_rows) == 100
            fallback_rows.clear()

    def test_the_shared_fallback_generator_carries_nothing_over(self, monkeypatch):
        # scenario A, then B with another seed, N_p and pairs, then A again: A's
        # rows are the same bytes both times, first with every row through the
        # call's one fallback generator, then with numpy's tables, where a few
        # rows of each call take it
        set_pcg64, fallback_rows = gscm._set_pcg64, []
        monkeypatch.setattr(gscm, "_set_pcg64",
                            lambda *state: fallback_rows.append(state) or set_pcg64(*state))
        wi, thresholds = gscm._ziggurat()
        rng = np.random.default_rng(8)
        scen_a, pairs_a = TestFadingNormalsBatch._scenario(7), rng.integers(0, 2**32, (2, 60))
        scen_b = TestFadingNormalsBatch._scenario(2**31, mpcs=3)
        pairs_b = rng.integers(0, 2**32, (2, 90))
        taken = []   # fallback rows of A's and B's first calls
        for table in (np.zeros(256, np.uint64), thresholds):
            monkeypatch.setattr(gscm, "_ziggurat", lambda table=table: (wi, table))
            fallback_rows.clear()
            first = gscm._fading_normals_batch(scen_a, *pairs_a)
            a_rows = len(fallback_rows)
            gscm._fading_normals_batch(scen_b, *pairs_b)
            taken.append((a_rows, len(fallback_rows) - a_rows))
            assert_same_bits(gscm._fading_normals_batch(scen_a, *pairs_a), first)
            assert_same_bits(first, per_pair_batch(scen_a, *pairs_a))
        assert taken[0] == (60, 90) and 0 < min(taken[1]) and max(taken[1]) < 60, taken

    def test_threads_draw_the_channels_of_a_single_thread(self):
        # calls in threads, switched every microsecond: each H is bitwise its
        # single-threaded call, so no fallback row reads another call's state.
        # N_p = 60 sends 216 of the 256 rows off the fast path
        scens = [generate_scenario(ScenarioConfig(num_users=8, num_clusters=4,
                                                  mpcs_per_cluster=60, antenna_count=2,
                                                  rng_seed=seed)) for seed in range(1, 9)]
        want = [channel_matrix(scen, range(8)).entries.tobytes() for scen in scens]
        got = {}

        def calls(t):
            for i in range(10):
                got[t, i] = channel_matrix(scens[(t + i) % 8], range(8)).entries.tobytes()

        threads = [threading.Thread(target=calls, args=(t,), daemon=True)
                   for t in range(min((os.cpu_count() or 1) + 2, 16))]   # more than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 10 * len(threads)
        assert [key for key, h in got.items() if h != want[sum(key) % 8]] == []


class TestChannelCovariances:
    def test_sample_covariance_of_redraws_converges(self, monkeypatch):
        # Oracle: the sample covariance of vec(H) over independent fading
        # re-draws, cross-user blocks included (those are exactly zero).
        # The re-draws come from channel_matrix itself, its per-pair
        # fading normals drawn from one seeded test generator instead.
        scen = generate_scenario(ScenarioConfig(
            num_users=2, num_clusters=1, antenna_count=4, mpcs_per_cluster=3,
            rng_seed=0))
        r = channel_covariances(scen, [0, 1])
        m = r.shape[1]
        exact = np.zeros((2 * m, 2 * m), dtype=complex)
        exact[:m, :m], exact[m:, m:] = r
        rng = np.random.default_rng(0)
        monkeypatch.setattr(gscm, "_fading_normals_batch", lambda s, users, clusters:
                            rng.standard_normal((len(users),
                                                 2 * s.config.mpcs_per_cluster)))
        samples = [channel_matrix(scen, [0, 1]).entries
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
        f2 = scalar_gain(scen, 0, 0) ** 2
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

    def test_exactly_hermitian_toeplitz(self):
        # R_k[m, n] = r_k[m - n] at a uniform linear array: every diagonal
        # holds one value bit for bit, R_k == R_k^H and the diagonal is real
        for seed in range(1, 21):
            r = channel_covariances(generate_scenario(ScenarioConfig(rng_seed=seed)), range(40))
            m = r.shape[1]
            for d in range(1 - m, m):
                diagonal = np.diagonal(r, offset=d, axis1=1, axis2=2)
                assert np.all(diagonal == diagonal[:, :1])
            assert np.all(r == r.conj().transpose(0, 2, 1))
            assert np.all(np.diagonal(r, axis1=1, axis2=2).imag == 0)

    @pytest.mark.parametrize("antennas", [1, 2])
    def test_matches_einsum_oracle_on_small_arrays(self, antennas):
        # M = 1 has no lag but r_k[0], so the conjugate half is empty; the
        # default M = 64 is TestScenarioCache::test_covariances_match_einsum_oracle
        scen = generate_scenario(ScenarioConfig(rng_seed=3, antenna_count=antennas))
        got, want = channel_covariances(scen, range(40)), einsum_covariances(scen, range(40))
        assert got.shape == (40, antennas, antennas)
        err = np.abs(got - want).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=(1, 2)))

    @pytest.mark.parametrize("m", [1, 2, 64])
    def test_c_contiguous_and_equal_to_the_lag_gather(self, m):
        # a sliding window over the lag row gives entry M - 1 + a - b of
        # [conj(r_k[M-1..1]), r_k[0..M-1]] in a C-contiguous, writable stack
        scen = generate_scenario(ScenarioConfig(rng_seed=5, antenna_count=m))
        lags = (scen.channel_gains[[7, 0, 31], None] ** 2
                @ scen.cluster_lags.view(float))[:, 0].view(complex)
        both = np.concatenate([lags[:, :0:-1].conj(), lags], axis=1)
        r = channel_covariances(scen, [7, 0, 31])
        assert r.flags.owndata and r.strides == (16 * m * m, 16 * m, 16)
        np.testing.assert_array_equal(r, both[:, m - 1 + np.arange(m)[:, None] - np.arange(m)])

    def test_far_cluster_adds_its_tail_term(self):
        # the user stands 10 km from the first VR centre and 300 km from the
        # second, whose VR gain (~6.5e-7) is small but not zero: every
        # cluster counts, so R_k gains f^2 G_j and H the cluster's MPC sum
        near = (np.array([150.0, 50.0, 20.0]), np.array([1.02e4, 0.0]))
        far = (np.array([-400.0, 0.0, 20.0]), np.array([-3.0e5, 0.0]))
        scen = make_scenario(users_xy=[(200.0, 0.0)], cluster_specs=[near, far],
                             antenna_count=4)
        alone = make_scenario(users_xy=[(200.0, 0.0)], cluster_specs=[near],
                              antenna_count=4)
        steer = np.array([steering_vector(phi, 4, 0.5) for phi in cluster_azimuths(scen, 1)])
        tail = scalar_gain(scen, 0, 1) ** 2 * steer.T @ steer.conj() / len(steer)
        r = channel_covariances(scen, [0])[0]
        assert np.abs(tail).max() > 1e-6 * np.abs(r).max()   # far above the tolerance
        np.testing.assert_allclose(r, channel_covariances(alone, [0])[0] + tail, rtol=1e-12)
        np.testing.assert_allclose(channel_matrix(scen, [0]).entries,
                                   brute_force_channel(scen, [0]), rtol=1e-12)

    def test_selection_checked(self, small_scenario):
        with pytest.raises(ConfigurationError):
            channel_covariances(small_scenario, [])
        with pytest.raises(IndexError):
            channel_covariances(small_scenario, [1])


class TestScenarioCache:
    CACHED = {"bs_position", "delays", "observables", "steering", "cluster_lags",
              "channel_gains"}

    def test_covariances_match_einsum_oracle(self):
        for seed in range(1, 21):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            for sel in ([0], [5, 1, 17, 33, 2], range(40)):
                got, want = channel_covariances(scen, sel), einsum_covariances(scen, sel)
                err = np.abs(got - want).max(axis=(1, 2))
                assert np.all(err <= 1e-12 * np.abs(want).max(axis=(1, 2)))

    def test_every_array_read_only(self, tmp_path):
        scen = generate_scenario(ScenarioConfig(num_users=6, rng_seed=4))
        save_scenario(scen, tmp_path / "scenario.yaml")
        for s in (scen, load_scenario(tmp_path / "scenario.yaml")):
            arrays = [s.users, s.cluster_positions, s.vr_centers, s.shadow_gains,
                      *(getattr(s, n) for n in self.CACHED)]
            assert not any(a.flags.writeable for a in arrays)

    def test_equality_and_serialization_ignore_the_cache(self, tmp_path):
        scen = generate_scenario(ScenarioConfig(num_users=6, rng_seed=4))
        cold = scenario_to_dict(scen)
        twin = replace(scen)
        h = channel_matrix(scen, range(6)).entries
        channel_covariances(scen, [0, 1])
        assert set(vars(scen)) >= self.CACHED and not set(vars(twin)) & self.CACHED
        assert scen == twin
        assert scenario_to_dict(scen) == cold
        save_scenario(scen, tmp_path / "scenario.yaml")
        loaded = load_scenario(tmp_path / "scenario.yaml")
        assert scenario_to_dict(loaded) == cold
        np.testing.assert_array_equal(channel_matrix(loaded, range(6)).entries, h)

    def test_replaced_scenario_rebuilds_its_geometry(self):
        scen = generate_scenario(ScenarioConfig(num_users=6, rng_seed=4))
        warm = scen.steering
        moved = replace(scen, config=replace(scen.config, rng_seed=5))
        np.testing.assert_array_equal(moved.steering, gscm._steering_tensor(moved))
        assert not np.array_equal(moved.steering, warm)

    def test_replaced_heights_move_the_bs_and_the_delays(self):
        # both follow the config, so a new height moves them on a fresh object
        cfg = ScenarioConfig(num_users=6, rng_seed=4)
        scen = generate_scenario(cfg)
        delays = scen.delays
        moved = replace(scen, config=replace(cfg, bs_height=20.0, ms_height=2.0))
        oracle = generate_scenario_loop(moved.config)
        np.testing.assert_array_equal(moved.bs_position, [0.0, 0.0, 20.0])
        assert moved.delays.tobytes() == oracle.delays.tobytes()
        assert np.all(moved.delays != delays)

    def test_only_the_draws_are_fields(self):
        scen = generate_scenario(ScenarioConfig(num_users=6, rng_seed=4))
        assert [f.name for f in fields(scen)] == [
            "config", "users", "cluster_positions", "vr_centers", "shadow_gains"]
        for name in ("bs_position", "delays"):
            with pytest.raises(AttributeError):
                setattr(scen, name, np.zeros(3))
            with pytest.raises(TypeError):
                replace(scen, **{name: np.zeros(3)})


CLUSTER_KEYS = ("cluster_positions", "vr_centers", "shadow_gains")


class TestScenarioSerialization:
    def test_round_trip(self, tmp_path):
        scen = generate_scenario(ScenarioConfig(num_users=4, rng_seed=5))
        path = tmp_path / "scenario.yaml"
        save_scenario(scen, path)
        loaded = load_scenario(path)
        np.testing.assert_array_equal(loaded.users, scen.users)
        np.testing.assert_array_equal(loaded.bs_position, scen.bs_position)
        assert loaded.config == scen.config
        np.testing.assert_array_equal(loaded.cluster_positions, scen.cluster_positions)
        np.testing.assert_array_equal(loaded.delays, scen.delays)
        assert loaded == scen

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
        (("shadow_gains", 0), None),
        (("cluster_positions", 0), [1.0, "2", 3.0]),
        (("users", 0), [1.0, 2.0]),   # ragged: one user without a height
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

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.update(users=[u[:2] for u in d["users"]]), "users must have shape"),
        (lambda d: d.update(vr_centers=[[*v, 3.0] for v in d["vr_centers"]]),
         "vr_centers must have shape"),
        (lambda d: d.update(cluster_positions=[p[:2] for p in d["cluster_positions"]]),
         "cluster_positions must have shape"),
        (lambda d: d["config"].update(vr_radius=-5.0), "vr_radius must be positive"),
        (lambda d: d["config"].update(num_users=2), r"users must have shape \(2, 3\)"),
        (lambda d: d["config"].update(num_clusters=3),
         r"cluster_positions must have shape \(3, 3\)"),
        (lambda d: d.update({k: d[k][:1] for k in CLUSTER_KEYS}),
         r"cluster_positions must have shape \(2, 3\)"),
    ], ids=["user-xy", "vr-center-3d", "position-2d", "negative-vr-radius",
            "fewer-users-in-config", "more-clusters-in-config", "missing-cluster"])
    def test_inconsistent_scenario_file_rejected(self, tmp_path, edit, message):
        # each of these used to load and then fail, if at all, deep in the
        # channel synthesis
        data = scenario_to_dict(generate_scenario(ScenarioConfig(num_users=6,
                                                                 num_clusters=2)))
        edit(data)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=message):
            load_scenario(path)

    @pytest.mark.parametrize("path,value,message", [
        (("shadow_gains", 0), -3.0, "shadow_gains must lie in ScenarioConfig.box"),
        (("shadow_gains", 1), math.inf, "shadow_gains must lie in ScenarioConfig.box"),
        (("users", 2, 0), math.inf, "users must lie in ScenarioConfig.box"),
        (("cluster_positions", 1, 2), -math.inf,
         "cluster_positions must lie in ScenarioConfig.box"),
        (("vr_centers", 0, 1), math.nan, "vr_centers must lie in ScenarioConfig.box"),
        (("cluster_positions", 0, 0), 1e200, "cluster_positions must lie in ScenarioConfig.box"),
        (("vr_centers", 1, 0), 5000.0, "vr_centers must lie in ScenarioConfig.box"),
        (("cluster_positions", 1, 2), -40.0, "cluster_positions must lie in ScenarioConfig.box"),
    ], ids=["negative-shadow-gain", "infinite-shadow-gain", "infinite-user-coordinate",
            "infinite-cluster-coordinate", "nan-vr-centre-coordinate", "far-cluster-coordinate",
            "vr-centre-outside-the-cell", "cluster-below-the-height-range"])
    def test_nonfinite_or_nonpositive_value_rejected(self, tmp_path, path, value, message):
        # a negative shadow gain used to load, and then gave non-finite
        # covariances; an infinite user coordinate failed later with a
        # misleading attenuation error. The last three loaded too: a cluster
        # at x = 1e200 then overflowed Scenario.delays, and the others gave a
        # finite V from a geometry that generate_scenario never draws
        data = scenario_to_dict(generate_scenario(ScenarioConfig(num_users=6,
                                                                 num_clusters=2)))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        file = tmp_path / "scenario.yaml"
        file.write_text(yaml.safe_dump(data), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=message):
            load_scenario(file)

    @pytest.mark.parametrize("path,value", [
        (("users", 0, 0), 4000.0), (("users", 1, 1), -1000.5), (("users", 2, 2), 2.0)],
        ids=["x-outside", "y-outside", "z-off-ms-height"])
    def test_user_outside_the_cell_rejected(self, tmp_path, path, value):
        # such a user loaded, and then failed in the attenuation of V
        data = scenario_to_dict(generate_scenario(ScenarioConfig(num_users=4)))
        data["users"][path[1]][path[2]] = value
        file = tmp_path / "scenario.yaml"
        file.write_text(yaml.safe_dump(data), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="users must lie in ScenarioConfig.box"):
            load_scenario(file)
        data["users"][path[1]][path[2]] = 1000.0 if path[2] < 2 else 1.5   # on the edge
        scenario_from_dict(data)

    def test_user_inside_the_exclusion_disk_rejected(self):
        # at the BS, d_bs_ms is 0 and V and H would raise GeometryError
        cfg = ScenarioConfig(num_users=4, rng_seed=3, bs_height=1.5)
        data = scenario_to_dict(generate_scenario(cfg))
        data["users"][0] = [0.0, 0.0, 1.5]
        with pytest.raises(ConfigurationError, match="outside the BS exclusion disk"):
            scenario_from_dict(data)
        data["users"][0] = [0.0, -100.0, 1.5]   # on the disk's edge
        scenario_from_dict(data)

    def test_every_generated_scenario_loads(self):
        # 0.9 puts many users near the disk's edge; the second geometry moves
        # every bound of ScenarioConfig.box off its default
        small = dict(cell_half_side=250.0, cluster_height_range=(0.0, 80.0), bs_height=12.3,
                     ms_height=1.7)
        for geometry, seed in itertools.product([{}, small], range(1, 201)):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed, bs_exclusion_fraction=0.9,
                                                    **geometry))
            assert scenario_from_dict(scenario_to_dict(scen)) == scen

    @pytest.mark.parametrize("key", ["bs_position", "delays"])
    def test_derived_key_rejected_as_unknown(self, key):
        scen = generate_scenario(ScenarioConfig(num_users=4, rng_seed=3))
        data = {**scenario_to_dict(scen), key: getattr(scen, key).tolist()}
        with pytest.raises(ConfigurationError, match=f"unknown key.*scenario: {key}$"):
            scenario_from_dict(data)

    def test_version_2_file_rejected_naming_the_derived_keys(self):
        scen = generate_scenario(ScenarioConfig(num_users=3, num_clusters=2))
        data = {**scenario_to_dict(scen), "schema_version": 2,
                "bs_position": scen.bs_position.tolist(), "delays": scen.delays.tolist()}
        with pytest.raises(ConfigurationError,
                           match="schema_version 2, expected 3.*bs_position and delays"):
            scenario_from_dict(data)

    def test_version_1_file_rejected_naming_the_new_keys(self, tmp_path):
        scen = generate_scenario(ScenarioConfig(num_users=3, num_clusters=2))
        data = {k: v for k, v in scenario_to_dict(scen).items() if k not in CLUSTER_KEYS}
        data.update(schema_version=1, bs_position=scen.bs_position.tolist(), clusters=[
            {"position": p, "vr_center": v, "delay": d, "shadow_gain": g}
            for p, v, d, g in zip(scen.cluster_positions.tolist(), scen.vr_centers.tolist(),
                                  scen.delays.tolist(), scen.shadow_gains.tolist())])
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema_version 1.*"
                           + ".*".join(CLUSTER_KEYS) + ".*bs_position and delays"):
            load_scenario(path)

    def test_unreadable_scenario_file_rejected(self, tmp_path):
        missing = tmp_path / "missing.yaml"
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"cannot read scenario {missing}: ")):
            load_scenario(missing)
        broken = tmp_path / "broken.yaml"
        broken.write_text("users: [1, 2\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="cannot read scenario"):
            load_scenario(broken)
