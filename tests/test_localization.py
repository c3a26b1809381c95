import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from gusim import gscm, localization
from gusim.errors import ConfigurationError, GeometryError
from gusim.gscm import SPEED_OF_LIGHT, ScenarioConfig, generate_scenario, large_scale_gains
from gusim.localization import (CrlbParams, array_angle_factor, crlb, crlb_delay,
                                field_pattern, perturb_and_rebuild_omegas,
                                solve_cluster_distance)

from conftest import (make_scenario, observe_cluster, pathloss_amplitude, rebuild_cluster,
                      rebuild_cluster_column, reference_delay, stream)


class TestFieldPattern:
    def test_boresight(self):
        assert field_pattern(0.0) == pytest.approx(0.67)

    def test_one_radian(self):
        assert field_pattern(1.0) == pytest.approx(0.54, abs=1e-12)

    def test_continuity(self):
        for phi in np.linspace(-math.pi, math.pi, 101):
            assert abs(field_pattern(phi + 1e-9) - field_pattern(phi)) < 1e-6

    def test_ranging_spread_at_the_global_azimuth(self):
        # crlb evaluates the cubic over the whole (-pi, pi], across its zero
        # near -0.17 rad, so the ranging step of omega = 1 spans six decades
        assert field_pattern(-0.171) < 0.0 < field_pattern(-0.170)
        ranging = np.concatenate([
            SPEED_OF_LIGHT * np.sqrt(crlb(CrlbParams(), *scen.observables[[2, 1]])[0])
            for scen in (generate_scenario(ScenarioConfig(rng_seed=seed))
                         for seed in range(1, 201))])
        assert ranging.size == 2400
        assert ranging.min() == pytest.approx(0.0424, abs=5e-5)
        assert np.median(ranging) == pytest.approx(0.655, abs=5e-4)
        assert ranging.max() == pytest.approx(14193.0, abs=0.5)
        assert np.count_nonzero(ranging > 10.0) == 426


class TestCrlb:
    def test_delay_unit_case(self):
        assert crlb_delay(1.0, 1.0) == pytest.approx(1.0 / (8 * math.pi**2),
                                                     rel=1e-12)

    @pytest.mark.parametrize("gamma_o,bandwidth", [(0.0, 20e6), (np.array([1.0, -1.0]), 20e6),
                                                   (1.0, 0.0)])
    def test_delay_bound_needs_positive_snr_and_bandwidth(self, gamma_o, bandwidth):
        with pytest.raises(ConfigurationError, match="gamma_o and bandwidth must be positive"):
            crlb_delay(gamma_o, bandwidth)

    def test_elevation_equals_azimuth_at_zero(self):
        params = CrlbParams()
        tau, theta, phi = crlb(params, 0.3, 0.0)
        assert theta == phi
        assert tau > 0

    @pytest.mark.parametrize("theta", [
        0.0, np.array([-3.0, -math.pi / 2, 0.0, 0.4, math.pi / 2, 2.0])], ids=["scalar", "array"])
    def test_single_sensor_axis_infinite_angles(self, theta):
        # no angle resolution at any elevation, so no elevation check
        assert array_angle_factor(1, 0.5) == pytest.approx(0.0, abs=1e-12)
        tau, theta_bound, phi_bound = crlb(CrlbParams(sensors_per_axis=1), 0.3, theta)
        assert np.all(np.isposinf(theta_bound)) and np.all(np.isposinf(phi_bound))
        np.testing.assert_array_equal(tau, np.broadcast_to(crlb(CrlbParams(), 0.3, 0.0)[0],
                                                           np.shape(theta)))

    def test_inverse_snr_scaling(self):
        p1 = CrlbParams(input_snr=10.0)
        p2 = CrlbParams(input_snr=100.0)
        b1 = crlb(p1, 0.2, 0.1)
        b2 = crlb(p2, 0.2, 0.1)
        for x, y in zip(b1, b2):
            assert x / y == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("phi", [0.2, np.zeros((2, 1))], ids=["scalar", "column"])
    @pytest.mark.parametrize("bad,message", [
        (math.pi / 2, "singular"), (-math.pi / 2, "singular"),
        (2.0, "requires"), (-3.0, "requires"), (math.pi, "requires")])
    def test_singular_elevation(self, phi, bad, message):
        # any entry with |theta| >= pi/2, alone or among good elevations
        for theta in (bad, np.array([0.0, 0.4, bad, -0.2])):
            with pytest.raises(GeometryError, match=message):
                crlb(CrlbParams(), phi, theta)

    def test_output_snr_composition(self):
        # each bound through the output SNR
        # gamma_o = M * I * N_c * |f(phi)|^2 * input SNR
        p = CrlbParams(num_antennas=8, signal_periods=2, pn_length=31,
                       input_snr=5.0, bandwidth=1e6)
        f = field_pattern(0.4)
        gamma_o = 8 * 2 * 31 * f * f * 5.0
        delta = array_angle_factor(5, 0.5)
        expected = (1.0 / (gamma_o * 8 * math.pi**2 * 1e6),
                    8 / (gamma_o * 2 * delta * math.cos(0.3)), 8 / (gamma_o * 2 * delta))
        np.testing.assert_allclose(crlb(p, 0.4, 0.3), expected, rtol=1e-12, atol=0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            CrlbParams(input_snr=0.0).validate()


class TestArrayContract:
    """``crlb`` and ``Scenario.observables`` on arrays are their elementwise
    scalar calls, bit for bit."""

    @pytest.mark.parametrize("params", [CrlbParams(), CrlbParams(sensors_per_axis=1)],
                             ids=["planar", "single-sensor"])
    def test_crlb_grid_equals_scalar_calls(self, params):
        phi = np.linspace(-math.pi, math.pi, 37)
        theta = np.linspace(-1.5, 1.5, 31)
        bounds = crlb(params, phi, theta[:, None])
        for i, t in enumerate(theta):
            for j, p in enumerate(phi):
                for bound, scalar in zip(bounds, crlb(params, float(p), float(t))):
                    np.testing.assert_array_equal(bound[i, j], scalar)

    def test_observables_and_bounds_equal_scalar_calls(self):
        params = CrlbParams()
        for seed in range(1, 21):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            observed = scen.observables
            assert observed.shape == (3, scen.num_clusters)
            bounds = crlb(params, observed[2], observed[1])
            for j in range(scen.num_clusters):
                tau, el, az = observe_cluster(scen, j)
                np.testing.assert_array_equal(observed[:, j], [tau, el, az])
                np.testing.assert_array_equal([b[j] for b in bounds], crlb(params, az, el))

    @pytest.mark.parametrize("params", [CrlbParams(), CrlbParams(sensors_per_axis=1)],
                             ids=["planar", "single-sensor"])
    @pytest.mark.parametrize("phi_shape,theta_shape,shape", [
        ((), (), ()), ((5,), (), (5,)), ((), (5,), (5,)), ((4, 1), (3,), (4, 3)),
        ((2, 1, 3), (4, 1), (2, 4, 3))])
    def test_broadcast_shapes(self, params, phi_shape, theta_shape, shape):
        bounds = crlb(params, np.full(phi_shape, 0.3), np.full(theta_shape, 0.1))
        assert len(bounds) == 3
        assert all(np.shape(b) == shape for b in bounds)
        assert all(isinstance(b, float) == (shape == ()) for b in bounds)   # scalars stay scalars


class TestSolveClusterDistance:
    def test_collinear_far_side_bounce(self):
        tau = 300.0 / SPEED_OF_LIGHT
        d_bs_c, d_ms_c = solve_cluster_distance(tau, 0.0, 0.0, 5.0, 5.0, 100.0)
        assert d_bs_c == pytest.approx(200.0, rel=1e-12)
        assert d_ms_c == pytest.approx(100.0, rel=1e-12)

    def test_forward_round_trip(self):
        rng = np.random.default_rng(10)
        h_bs, h_ms = 5.0, 1.5
        for _ in range(1000):
            d = rng.uniform(20.0, 800.0)
            el = rng.uniform(-0.3, 0.6)
            az = rng.uniform(-1.2, 1.2)
            d_bs_ms = rng.uniform(50.0, 1200.0)
            dh = h_bs - h_ms
            d_ms_c = math.hypot(dh + d * math.sin(el),
                                d_bs_ms - d * math.cos(el) * math.cos(az))
            tau = (d + d_ms_c) / SPEED_OF_LIGHT
            try:
                roots = [solve_cluster_distance(tau, el, az, h_bs, h_ms, d_bs_ms),
                         solve_cluster_distance(tau, el, az, h_bs, h_ms, d_bs_ms,
                                                alternate_root=True)]
            except GeometryError:
                continue
            assert any(abs(r[0] - d) / d < 1e-6 for r in roots)

    def test_infeasible_short_delay(self):
        tau = 50.0 / SPEED_OF_LIGHT
        with pytest.raises(GeometryError):
            solve_cluster_distance(tau, 0.0, 0.0, 5.0, 5.0, 100.0)


class TestPerturbAndRebuild:
    def _scenario(self):
        return make_scenario(
            users_xy=[(300.0, 50.0), (-200.0, 400.0)],
            cluster_specs=[
                (np.array([200.0, 100.0, 20.0]), np.array([320.0, 60.0])),
                (np.array([-150.0, 300.0, 15.0]), np.array([-210.0, 380.0])),
            ],
        )

    def test_zero_omega_is_noop(self):
        scen = self._scenario()
        pg = perturb_and_rebuild_omegas(scen, (0,), CrlbParams())
        np.testing.assert_array_equal(pg.v_tilde[0], large_scale_gains(scen))
        np.testing.assert_array_equal(pg.cluster_positions[0], scen.cluster_positions)
        assert not pg.fallbacks.any()
        assert np.all(pg.perturbations == 0.0)

    @pytest.mark.parametrize("omega", [0, 3])
    def test_builds_the_true_v_once_per_scenario(self, monkeypatch, omega):
        # the rebuild's omega = 0 rows, the channel's gains and Scenario.v
        # share one unperturbed V; the kernel scores only the rebuilt geometry
        kernel, calls = gscm.large_scale_gains, []

        def counting(scenario, *overrides):
            calls.append(len(overrides[1]) if overrides else None)
            return kernel(scenario, *overrides)

        monkeypatch.setattr(gscm, "large_scale_gains", counting)
        scen = generate_scenario(ScenarioConfig(rng_seed=10))
        pg = perturb_and_rebuild_omegas(scen, (0, omega, 0), CrlbParams())
        gscm.channel_matrix(scen, [0, 1])
        perturb_and_rebuild_omegas(scen, (0,), CrlbParams())
        assert calls == [None] + [scen.num_clusters] * (omega > 0)
        np.testing.assert_array_equal(pg.v_tilde[[0, 2]], [scen.v, scen.v])
        np.testing.assert_array_equal(scen.channel_gains,
                                      scen.v * np.sqrt(scen.shadow_gains))

    def test_deterministic_per_seed(self):
        scen = self._scenario()
        a = perturb_and_rebuild_omegas(scen, (3,), CrlbParams())
        b = perturb_and_rebuild_omegas(scen, (3,), CrlbParams())
        np.testing.assert_array_equal(a.v_tilde, b.v_tilde)
        np.testing.assert_array_equal(a.perturbations, b.perturbations)

    def test_perturbation_magnitudes(self):
        scen = self._scenario()
        omega = 2
        params = CrlbParams()
        steps = perturb_and_rebuild_omegas(scen, (omega,), params).perturbations[0]
        _, el, az = scen.observables
        np.testing.assert_allclose(np.abs(steps), omega * np.sqrt(crlb(params, az, el)),
                                   rtol=1e-12)

    def test_hand_perturbed_entry_matches_factor_recomposition(self):
        scen = make_scenario(
            users_xy=[(300.0, 50.0)],
            cluster_specs=[(np.array([200.0, 100.0, 20.0]), np.array([320.0, 60.0]))],
        )
        tau, el, az = scen.observables[:, 0]
        column, pos = rebuild_cluster_column(scen, 0, tau * 1.01, el + 0.01,
                                             az - 0.02)
        import gusim.gscm as gscm
        cfg = scen.config
        vr_shift = pos[:2] - scen.cluster_positions[0, :2]
        vr_new = scen.vr_centers[0] + vr_shift
        lp = pathloss_amplitude(scen, 0)
        a_vr = gscm.vr_gain(float(np.linalg.norm(scen.users[0, :2] - vr_new)),
                            cfg.vr_radius, cfg.transition_size, cfg.wavelength)
        a_c = gscm.cluster_attenuation(tau * 1.01,
                                       reference_delay(scen, 0),
                                       cfg.cutoff_delay, cfg.power_decay)
        assert column[0] == pytest.approx(lp * a_vr * math.sqrt(a_c), rel=1e-12)

    def test_first_order_sensitivity_bound(self):
        # |E| dominated (within a factor 2) by the finite-difference
        # sensitivity of v to the measured parameters times the injected
        # magnitudes, away from the transition edge
        scen = self._scenario()
        params = CrlbParams(input_snr=1e4)  # small errors: smooth regime
        omega = 2
        pg = perturb_and_rebuild_omegas(scen, (omega,), params)
        assert not pg.fallbacks.any()
        observables = scen.observables
        for j in range(scen.num_clusters):
            tau, el, az = observables[:, j]
            base, _ = rebuild_cluster_column(scen, j, tau, el, az)
            steps = pg.perturbations[0, :, j]
            bound = np.zeros(scen.num_users)
            for axis, step in enumerate(steps):
                args = [tau, el, az]
                args[axis] += step
                shifted, _ = rebuild_cluster_column(scen, j, *args)
                bound += np.abs(shifted - base)
            observed = np.abs(pg.v_tilde[0, :, j] - base)
            assert np.all(observed <= 2.0 * bound + 1e-15)

    @pytest.mark.parametrize("seed,omega,has_fallback",
                             [(10, 1, True), (10, 5, True), (3, 5, True), (4, 2, False)])
    def test_matches_per_cluster_rebuild(self, seed, omega, has_fallback):
        # Oracle: each cluster rebuilt on its own from the injected
        # perturbations; a cluster whose rebuild fails keeps its true V
        # column and position.
        scen = generate_scenario(ScenarioConfig(rng_seed=seed))
        pg = perturb_and_rebuild_omegas(scen, (omega,), CrlbParams())
        delay, elevation, azimuth = pg.perturbations[0]
        v = large_scale_gains(scen)
        fallbacks = []
        observables = scen.observables
        for j in range(scen.num_clusters):
            tau, el, az = observables[:, j]
            try:
                if tau + delay[j] <= 0:
                    raise GeometryError("nonpositive delay")
                column, pos = rebuild_cluster_column(
                    scen, j, tau + delay[j], el + elevation[j], az + azimuth[j])
            except GeometryError:
                fallbacks.append(j)
                column, pos = v[:, j], scen.cluster_positions[j]
                np.testing.assert_array_equal(pg.v_tilde[0, :, j], column)
            np.testing.assert_allclose(pg.v_tilde[0, :, j], column, rtol=1e-12)
            np.testing.assert_allclose(pg.cluster_positions[0, j], pos, rtol=1e-12)
        assert np.flatnonzero(pg.fallbacks[0]).tolist() == fallbacks
        assert (len(fallbacks) > 0) == has_fallback

    def test_negative_omega_rejected(self):
        with pytest.raises(ConfigurationError):
            perturb_and_rebuild_omegas(self._scenario(), (-1,), CrlbParams())

    def test_signs_drawn_once_match_per_cluster_draws(self):
        # Oracle: one three-sign draw per cluster from the same stream, then
        # the same rebuild; the batched draw must agree bit for bit
        params = CrlbParams()
        fallbacks = 0
        for seed in range(1, 41):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            for omega in range(1, 6):
                expected = per_cluster_perturb_and_rebuild(scen, omega, params)
                pg = perturb_and_rebuild_omegas(scen, (omega,), params)
                assert_same(pg, 0, expected)
                fallbacks += pg.fallbacks.sum()
        assert fallbacks > 0


class TestPerturbAndRebuildOmegas:
    @pytest.mark.parametrize("params", [CrlbParams(), CrlbParams(sensors_per_axis=1)],
                             ids=["planar", "single-sensor"])
    def test_each_omega_matches_the_per_cluster_rebuild(self, params):
        # Oracle: each omega on its own, one cluster at a time from the scalar
        # ellipse solver; omegas in any order, zero among them
        omegas = (3, 0, 1, 5, 2, 4)
        fallbacks = 0
        for seed in range(1, 21):
            scen = generate_scenario(ScenarioConfig(rng_seed=seed))
            pg = perturb_and_rebuild_omegas(scen, omegas, params)
            for i, omega in enumerate(omegas):
                assert_same(pg, i, per_cluster_perturb_and_rebuild(scen, omega, params))
            fallbacks += pg.fallbacks.sum()
        assert fallbacks > 0

    def test_overflowing_ellipse_coefficients_fall_back(self):
        # at an input SNR of 1e-300 the delay step of cluster 9 at omega = 5
        # takes its path length c0 tau to about -3.6e154, whose square
        # overflows: the cluster falls back instead of raising a warning
        scen = generate_scenario(ScenarioConfig(rng_seed=15))
        with np.errstate(over="raise", invalid="raise"):
            pg = perturb_and_rebuild_omegas(scen, (0, 1, 5), CrlbParams(input_snr=1e-300))
        r = SPEED_OF_LIGHT * (scen.delays[9] + pg.perturbations[2, 0, 9])
        assert abs(r) > math.sqrt(sys.float_info.max) and pg.fallbacks[2, 9]
        np.testing.assert_array_equal(pg.cluster_positions[2, 9], scen.cluster_positions[9])
        np.testing.assert_array_equal(pg.v_tilde[2, :, 9], scen.v[:, 9])
        assert np.all(np.isfinite(pg.v_tilde))

    def test_cluster_above_the_bs_falls_back(self):
        # straight above the BS the elevation bound is singular, so crlb
        # raises for that cluster alone; the rebuild keeps its true geometry
        # unperturbed at every omega >= 1 and rebuilds the others as it does
        # in the scenario without it
        users = [(300.0, 50.0), (-200.0, 400.0)]
        specs = [(np.array([200.0, 100.0, 20.0]), np.array([320.0, 60.0])),
                 (np.array([-150.0, 300.0, 15.0]), np.array([-210.0, 380.0]))]
        scen = make_scenario(users, [*specs, (np.array([0.0, 0.0, 20.0]), np.array([250.0, 0.0]))])
        with pytest.raises(GeometryError, match="singular"):
            crlb(CrlbParams(), *scen.observables[[2, 1]])
        omegas = (0, 1, 2, 5)
        pg = perturb_and_rebuild_omegas(scen, omegas, CrlbParams())
        alone = perturb_and_rebuild_omegas(make_scenario(users, specs), omegas, CrlbParams())
        assert pg.fallbacks[:, 2].tolist() == [False, True, True, True]
        assert np.all(pg.perturbations[..., 2] == 0.0)
        np.testing.assert_array_equal(pg.cluster_positions[:, 2],
                                      np.broadcast_to(scen.cluster_positions[2], (4, 3)))
        np.testing.assert_array_equal(pg.v_tilde[..., 2], np.broadcast_to(scen.v[:, 2], (4, 2)))
        np.testing.assert_array_equal(pg.v_tilde[..., :2], alone.v_tilde)
        np.testing.assert_array_equal(pg.perturbations[..., :2], alone.perturbations)
        np.testing.assert_array_equal(pg.cluster_positions[:, :2], alone.cluster_positions)
        np.testing.assert_array_equal(pg.fallbacks[:, :2], alone.fallbacks)

    def test_v_tilde_is_c_contiguous(self):
        # GUS takes row norms of each V; every array leads with the omega axis
        scen = generate_scenario(ScenarioConfig(rng_seed=2))
        pg = perturb_and_rebuild_omegas(scen, (0, 2, 5), CrlbParams())
        assert pg.v_tilde.shape == (3, 40, 12) and pg.v_tilde.flags.c_contiguous
        assert pg.perturbations.shape == (3, 3, 12)
        assert pg.cluster_positions.shape == (3, 12, 3)
        assert pg.fallbacks.shape == (3, 12) and pg.fallbacks.dtype == bool

    @pytest.mark.parametrize("omegas", [
        (math.nan,), (1.5,), (True,), (math.inf,), (), ("2",), (2, 2.0)],
        ids=["nan", "fraction", "bool", "inf", "empty", "string", "float"])
    def test_bad_omegas_rejected(self, omegas):
        scen = generate_scenario(ScenarioConfig(rng_seed=4))
        with pytest.raises(ConfigurationError, match="omegas must be"):
            perturb_and_rebuild_omegas(scen, omegas, CrlbParams())

    def test_any_integer_sequence_accepted(self):
        scen = generate_scenario(ScenarioConfig(rng_seed=4))
        expected = perturb_and_rebuild_omegas(scen, (0, 1, 2), CrlbParams())
        for omegas in (range(3), [0, 1, 2], np.arange(3)):
            pg = perturb_and_rebuild_omegas(scen, omegas, CrlbParams())
            for field in fields(localization.PerturbedGeometry):
                np.testing.assert_array_equal(getattr(pg, field.name),
                                              getattr(expected, field.name))

    def test_invalid_params_rejected(self):
        scen = generate_scenario(ScenarioConfig(rng_seed=4))
        with pytest.raises(ConfigurationError, match="input_snr"):
            perturb_and_rebuild_omegas(scen, (0, 2), CrlbParams(input_snr=0.0))
        with pytest.raises(ConfigurationError, match="input_snr"):
            crlb(CrlbParams(input_snr=0.0), 0.2, 0.1)


def assert_same(pg, i, expected):
    """Entry i of every array of ``pg`` equals the one entry of ``expected``."""
    for field in fields(localization.PerturbedGeometry):
        np.testing.assert_array_equal(getattr(pg, field.name)[i],
                                      getattr(expected, field.name)[0])


def per_cluster_perturb_and_rebuild(scen, omega, params):
    """``perturb_and_rebuild_omegas`` at one omega, with one ``rng.choice``
    sign draw per cluster, the scalar observables and bounds of each cluster
    and one scalar rebuild per cluster, in ``math`` sines and cosines;
    omega = 0 rebuilds nothing."""
    rng = stream(scen.config.rng_seed, 303)
    positions = scen.cluster_positions.copy()
    vr_centers = scen.vr_centers.copy()
    delays = scen.delays.copy()
    d = np.zeros((3, scen.num_clusters))
    fallbacks = np.zeros(scen.num_clusters, dtype=bool)
    for j in range(scen.num_clusters if omega else 0):
        tau, el, az = observe_cluster(scen, j)
        signs = rng.choice([-1.0, 1.0], size=3)
        d[:, j] = [sign * omega * math.sqrt(b) if math.isfinite(b) else 0.0
                   for sign, b in zip(signs, crlb(params, az, el))]
        try:
            if tau + d[0, j] <= 0:
                raise GeometryError("nonpositive delay")
            positions[j], vr_centers[j] = rebuild_cluster(
                scen, j, tau + d[0, j], el + d[1, j], az + d[2, j])
            delays[j] = tau + d[0, j]
        except GeometryError:
            fallbacks[j] = True
    v_tilde = gscm.large_scale_gains(scen, vr_centers, delays)
    return localization.PerturbedGeometry(v_tilde[None], d[None], positions[None],
                                          fallbacks[None])
