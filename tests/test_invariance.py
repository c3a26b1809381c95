"""Metamorphic tests: properties the model has at every seed, checked against
the model's own symmetries rather than against a recorded realization or a
second copy of the code's equations."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gusim.gscm import ScenarioConfig, generate_scenario, large_scale_gains
from gusim.rx import PowerConfig, sum_rate, zf_weights

SEEDS = st.integers(1, 2**32 - 1)


def rotate(xy, theta):
    """(n, 2) points rotated by theta about the origin, the BS axis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.column_stack([c * xy[:, 0] - s * xy[:, 1], s * xy[:, 0] + c * xy[:, 1]])


def channel(seed, m, k_s):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, k_s)) + 1j * rng.standard_normal((m, k_s))) / math.sqrt(2)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, theta=st.floats(-math.pi, math.pi))
def test_rotation_about_the_bs_axis(seed, theta):
    # users, clusters and VR centres turned by theta: V depends on distances
    # alone and the delays and elevations on the geometry's shape, so none
    # changes; each cluster's azimuth at the BS turns by theta
    scen = generate_scenario(ScenarioConfig(rng_seed=seed))
    users, clusters = scen.users.copy(), scen.cluster_positions.copy()
    users[:, :2] = rotate(users[:, :2], theta)
    clusters[:, :2] = rotate(clusters[:, :2], theta)
    turned = replace(scen, users=users, cluster_positions=clusters,
                     vr_centers=rotate(scen.vr_centers, theta))
    np.testing.assert_allclose(large_scale_gains(turned), large_scale_gains(scen),
                               rtol=1e-9, atol=0)
    (delays, elevations, azimuths), before = turned.observables, scen.observables
    np.testing.assert_allclose(delays, before[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(elevations, before[1], rtol=1e-12, atol=0)
    shift = np.angle(np.exp(1j * (azimuths - before[2] - theta)))   # wrapped to (-pi, pi]
    np.testing.assert_allclose(shift, 0.0, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, shape=st.integers(1, 16).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(1, m))),
       power=st.floats(1e-3, 1e3), noise=st.floats(1e-3, 10.0),
       scale=st.floats(1e-6, 1e6), zero_forcing=st.booleans())
def test_physical_sum_rate_depends_on_power_over_noise(seed, shape, power, noise, scale,
                                                       zero_forcing):
    # P and P_n scaled together leave every SINR, so the physical rate; the
    # random receiver leaves interference, which scales with P
    h = channel(seed, *shape)
    w = zf_weights(h) if zero_forcing else channel(seed + 1, *shape[::-1])
    k_s = shape[1]
    rate = sum_rate(h, w, PowerConfig(power, k_s, noise))
    assert math.isclose(sum_rate(h, w, PowerConfig(scale * power, k_s, scale * noise)), rate,
                        rel_tol=1e-12, abs_tol=0)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, shape=st.integers(1, 16).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(1, m))),
       power=st.floats(1e-3, 1e3), data=st.data())
def test_sum_rate_ignores_the_order_of_the_users(seed, shape, power, data):
    # the receiver of H's columns in another order rates each user as before
    h, k_s = channel(seed, *shape), shape[1]
    order = data.draw(st.permutations(range(k_s)))
    rate = sum_rate(h, zf_weights(h), PowerConfig(power, k_s, 1e-2))
    permuted = h[:, order]
    assert math.isclose(sum_rate(permuted, zf_weights(permuted), PowerConfig(power, k_s, 1e-2)),
                        rate, rel_tol=1e-12, abs_tol=0)
