import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from gusim import gscm, harness, localization
from gusim.errors import ConfigurationError, RankDeficiencyError, SelectionError
from gusim.gscm import Scenario, ScenarioConfig, SPEED_OF_LIGHT
from gusim.rx import zf_refused
from gusim.scheduling import ScheduleResult

# the property tests draw the same examples in every run, here and in CI
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def stream(seed, salt, *index):
    """The generator of the stream keyed (seed, salt, *index), as ``Scenario.stream``
    keys it; the oracles give each purpose's salt as a literal: angles 101, fading
    gains 202, perturbation signs 303, random selection 404, pilot noise 505."""
    return np.random.default_rng(np.random.SeedSequence([seed, salt, *index]))


def make_scenario(users_xy, cluster_specs, **config_overrides):
    """Hand-built scenario: explicit user xy positions and cluster
    (position, vr_center) pairs, with unit shadow gains."""
    defaults = dict(
        cell_half_side=1000.0,
        num_users=len(users_xy),
        num_clusters=len(cluster_specs),
        mpcs_per_cluster=6,
        shadowing_sigma_db=0.0,
        rng_seed=0,
    )
    defaults.update(config_overrides)
    cfg = ScenarioConfig(**defaults)
    users = np.array([[x, y, cfg.ms_height] for x, y in users_xy])
    positions = np.array([pos for pos, _ in cluster_specs], dtype=float)
    vr_centers = np.array([vr for _, vr in cluster_specs], dtype=float)
    return Scenario(config=cfg, users=users, cluster_positions=positions,
                    vr_centers=vr_centers, shadow_gains=np.ones(len(positions)))


@pytest.fixture
def small_scenario():
    """One user inside the visibility region of a single cluster."""
    return make_scenario(
        users_xy=[(200.0, 0.0)],
        cluster_specs=[(np.array([150.0, 50.0, 20.0]), np.array([210.0, 0.0]))],
    )


def steering_vector(azimuth: float, num_antennas: int,
                    d_over_lambda: float) -> np.ndarray:
    """Uniform-linear-array response of one path, the oracle for
    ``Scenario.steering``: element m is exp(j*alpha*m*sin(az)) with
    alpha = -2*pi*d/lambda."""
    alpha = -2.0 * math.pi * d_over_lambda
    return np.exp(1j * alpha * np.arange(num_antennas) * math.sin(azimuth))


def laplace_offsets(scenario, cluster):
    """A cluster's Laplacian intra-cluster azimuth offsets of std
    angular_spread_deg, drawn from its own ``SeedSequence([seed, 101,
    cluster])`` stream."""
    cfg = scenario.config
    rng = stream(cfg.rng_seed, 101, cluster)
    sigma = math.radians(cfg.angular_spread_deg)
    # Laplace with std sigma has scale sigma/sqrt(2)
    return rng.laplace(0.0, sigma / math.sqrt(2.0), size=cfg.mpcs_per_cluster)


def cluster_azimuths(scenario, cluster):
    """Oracle for the azimuths inside ``Scenario.steering``: the BS-to-cluster
    azimuth, numpy's elementwise ``np.arctan2`` on scalars, plus the
    cluster's ``laplace_offsets``."""
    x, y, _ = scenario.cluster_positions[cluster] - scenario.bs_position
    return np.arctan2(y, x) + laplace_offsets(scenario, cluster)


def generate_scenario_loop(config):
    """Oracle for ``gscm.generate_scenario``: one draw per user attempt and
    one per cluster coordinate, from the scenario seed's generator. Returns
    every array of the scenario by name, with the BS at the cell centre and
    each cluster's single-bounce delay computed here, not by ``Scenario``."""
    rng = np.random.default_rng(config.rng_seed)
    half = config.cell_half_side
    bs = np.array([0.0, 0.0, config.bs_height])

    users = np.empty((config.num_users, 3))
    r_min = config.bs_exclusion_fraction * half
    for k in range(config.num_users):
        while True:
            xy = rng.uniform(-half, half, size=2)
            if math.hypot(xy[0], xy[1]) >= r_min:
                users[k, :2] = xy
                users[k, 2] = config.ms_height
                break

    z_lo, z_hi = config.cluster_height_range
    positions, vr_centers, delays, shadow_gains = [], [], [], []
    for _ in range(config.num_clusters):
        pos = np.array([
            rng.uniform(-half, half),
            rng.uniform(-half, half),
            rng.uniform(z_lo, z_hi),
        ])
        vr = rng.uniform(-half, half, size=2)
        vr3 = np.array([vr[0], vr[1], config.ms_height])
        delay = (np.linalg.norm(pos - bs) + np.linalg.norm(vr3 - pos)) / SPEED_OF_LIGHT
        shadow_db = rng.normal(0.0, config.shadowing_sigma_db)
        positions.append(pos)
        vr_centers.append(vr)
        delays.append(float(delay))
        shadow_gains.append(float(10.0 ** (shadow_db / 10.0)))
    return SimpleNamespace(config=config, bs_position=bs, users=users,
                           cluster_positions=np.array(positions).reshape(-1, 3),
                           vr_centers=np.array(vr_centers).reshape(-1, 2),
                           delays=np.array(delays), shadow_gains=np.array(shadow_gains))


def generate_scenario_uniform(config):
    """Oracle for ``gscm.generate_scenario``: the users' rounds of uniform
    draws, then per cluster one broadcasting ``rng.uniform(lows, highs)`` for
    its x, y, z and VR centre x, y, followed by its shadowing normal."""
    rng = np.random.default_rng(config.rng_seed)
    half = config.cell_half_side
    r_min, placed = config.bs_exclusion_fraction * half, []
    while len(placed) < config.num_users:
        draws = rng.uniform(-half, half, size=(config.num_users - len(placed), 2)).tolist()
        placed += [(x, y) for x, y in draws if math.hypot(x, y) >= r_min]
    z_lo, z_hi = config.cluster_height_range
    lows = np.array([-half, -half, z_lo, -half, -half])
    highs = np.array([half, half, z_hi, half, half])
    draws, shadow_gains = np.empty((config.num_clusters, 5)), []
    for draw in draws:
        draw[:] = rng.uniform(lows, highs)
        shadow_gains.append(10.0 ** (rng.normal(0.0, config.shadowing_sigma_db) / 10.0))
    users = np.column_stack([placed, np.full(config.num_users, config.ms_height)])
    return Scenario(config=config, users=users, cluster_positions=draws[:, :3].copy(),
                    vr_centers=draws[:, 3:].copy(), shadow_gains=np.array(shadow_gains))


def norm_delays(scen):
    """Oracle for ``Scenario.delays``: (|BS -> cluster| + |cluster -> VR
    centre|) / c, each length one ``np.linalg.norm`` along the coordinate axis."""
    pos = scen.cluster_positions
    vr = np.column_stack([scen.vr_centers, np.full(scen.num_clusters, scen.config.ms_height)])
    return (np.linalg.norm(pos - scen.bs_position, axis=1)
            + np.linalg.norm(vr - pos, axis=1)) / SPEED_OF_LIGHT


def norm_large_scale_gains(scen, vr_centers=None, delays=None):
    """Oracle for ``gscm.large_scale_gains``: the same factors, with the
    user-BS and user-VR-centre distances as ``np.linalg.norm`` along the
    coordinate axis and the delays from ``norm_delays``."""
    cfg = scen.config
    vr_centers = scen.vr_centers if vr_centers is None else vr_centers
    delays = norm_delays(scen) if delays is None else delays
    d_bs = np.linalg.norm(scen.users - scen.bs_position, axis=1)
    _, path_gain = gscm.path_loss_nlos(d_bs, cfg.wavelength)
    tau_0 = d_bs / SPEED_OF_LIGHT if cfg.reference_delay is None else cfg.reference_delay
    a_c = gscm.cluster_attenuation(delays, np.reshape(tau_0, (-1, 1)),
                                   cfg.cutoff_delay, cfg.power_decay)
    d_vr = np.linalg.norm(scen.users[:, None, :2] - vr_centers[None], axis=-1)
    a_vr = gscm.vr_gain(d_vr, cfg.vr_radius, cfg.transition_size, cfg.wavelength)
    return np.sqrt(path_gain)[:, None] * a_vr * np.sqrt(a_c)


def ergodic_capacity(h_samples, power):
    """Oracle upper bound on the ZF sum-rate: the sample mean of
    log2 det(I + (P/K_s) H H^H / P_n) over channel realizations, in
    bits/s/Hz."""
    mats = [np.asarray(h) for h in h_samples]
    if len(mats) == 0:
        raise ConfigurationError("need at least one channel realization")
    scale = power.per_user / power.noise_power
    total = 0.0
    for h in mats:
        k_s = h.shape[1]
        gram = np.eye(k_s) + scale * (h.conj().T @ h)
        sign, logdet = np.linalg.slogdet(gram)
        if sign.real <= 0:
            raise RankDeficiencyError("capacity Gram matrix not positive definite")
        total += logdet / math.log(2.0)
    return total / len(mats)


def mmse_estimate(received: np.ndarray, pilots: np.ndarray, noise_variance: float,
                  covariance: np.ndarray) -> np.ndarray:
    """Oracle for ``rx._mmse_filter`` on pilot projections: the dense Bayesian MMSE
    estimate of the vectorized channel from received pilots ``received``
    (M x tau_p), for any pilots (K_s x tau_p), receiver noise variance and
    joint covariance.

    Uses h_hat = R Phi~^H (Phi~ R Phi~^H + sigma_n^2 I)^{-1} y~ with
    Phi~ = Phi^T (x) I_M and y~ = vec(received).
    """
    received = np.asarray(received)
    m, tau_p = received.shape
    k_s = pilots.shape[0]
    if tau_p != pilots.shape[1]:
        raise ConfigurationError("received pilot block width must equal the pilot length")
    if covariance.shape != (m * k_s,) * 2:
        raise ConfigurationError(f"covariance must be {m * k_s} x {m * k_s}")
    phi_tilde = np.kron(pilots.T, np.eye(m))
    y = received.reshape(-1, order="F")
    inner = phi_tilde @ covariance @ phi_tilde.conj().T
    inner = inner + noise_variance * np.eye(inner.shape[0])
    try:
        sol = np.linalg.solve(inner, y)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"MMSE inner matrix is singular (sigma_n^2={noise_variance}): {exc}"
        ) from exc
    return covariance @ phi_tilde.conj().T @ sol


def pathloss_amplitude(scen, user):
    """sqrt of the linear NLoS path gain of one user, from the scalar
    ``path_loss_nlos``."""
    d = float(np.linalg.norm(scen.users[user] - scen.bs_position))
    return math.sqrt(gscm.path_loss_nlos(d, scen.config.wavelength)[1])


def reference_delay(scen, user):
    """Attenuation reference delay of one user: the configured value, or
    the user's line-of-sight delay."""
    if scen.config.reference_delay is not None:
        return scen.config.reference_delay
    return float(np.linalg.norm(scen.users[user] - scen.bs_position)) / SPEED_OF_LIGHT


def scalar_gain(scen, user, cluster, vr_center=None, delay=None,
                include_shadowing=True):
    """Oracle for ``gscm.large_scale_gains`` (without shadowing) and for
    ``Scenario.channel_gains`` (with it): L_p * A_VR * sqrt(A_C [* shadow])
    of one user-cluster pair composed from the scalar gain functions, with
    optional VR-centre and delay overrides."""
    cfg = scen.config
    vr_center = scen.vr_centers[cluster] if vr_center is None else vr_center
    delay = float(scen.delays[cluster]) if delay is None else delay
    d_vr = float(np.linalg.norm(scen.users[user, :2] - vr_center))
    a_vr = gscm.vr_gain(d_vr, cfg.vr_radius, cfg.transition_size, cfg.wavelength)
    a_c = gscm.cluster_attenuation(delay, reference_delay(scen, user),
                                   cfg.cutoff_delay, cfg.power_decay)
    if include_shadowing:
        a_c = a_c * float(scen.shadow_gains[cluster])
    return pathloss_amplitude(scen, user) * a_vr * math.sqrt(a_c)


def channel_covariance(samples) -> np.ndarray:
    """Oracle for ``gscm.channel_covariances``: the sample covariance
    E{h h^H} of vectorized channel realizations."""
    samples = [np.asarray(s).reshape(-1) for s in samples]
    if len(samples) == 0:
        raise ConfigurationError("need at least one channel sample")
    n = samples[0].size
    if any(s.size != n for s in samples):
        raise ConfigurationError("all channel samples must have equal length")
    r = np.zeros((n, n), dtype=complex)
    for s in samples:
        r += np.outer(s, s.conj())
    return r / len(samples)


def einsum_covariances(scen, selected) -> np.ndarray:
    """Oracle for ``gscm.channel_covariances``: R_k = sum_j f_kj^2 G_j for
    the whole set in one einsum, from the scenario's ``channel_gains`` and
    with the steering tensor and the Grams rebuilt from the scenario."""
    power = scen.channel_gains[list(selected)] ** 2
    steer = gscm._steering_tensor(scen)
    gram = np.einsum("jpm,jpn->jmn", steer, steer.conj(),
                     optimize=True) / scen.config.mpcs_per_cluster
    return np.einsum("kj,jmn->kmn", power, gram)


def einsum_channel(scen, users) -> np.ndarray:
    """Oracle for ``gscm.channel_matrix``: the MPC gains of the whole set
    against the steering tensor in one einsum, from the scenario's
    ``channel_gains``, with the steering rebuilt from the scenario and the
    fading taken from ``gscm._fading_normals_batch``."""
    users = list(users)
    gains = scen.channel_gains[users]
    (k_s, n_c), n_p = gains.shape, scen.config.mpcs_per_cluster
    normals = gscm._fading_normals_batch(scen, np.repeat(users, n_c),
                                         np.tile(np.arange(n_c), k_s)).reshape(k_s, n_c, -1)
    fading = (normals[..., :n_p] + 1j * normals[..., n_p:]) / math.sqrt(2.0 * n_p)
    return np.einsum("kjp,jpm->mk", gains[..., None] * fading, gscm._steering_tensor(scen))


def set_next_word(gen: np.random.Generator, word: int, then=None) -> np.random.Generator:
    """``gen`` (a PCG64 generator) set so that its next outputs are ``word``,
    then ``then`` of the other parity (0 or 1 by default): a state with a
    zero high half outputs its low half, and inc = then - word * MULT is odd.
    The layer-by-layer oracle of ``gscm._ziggurat``'s table."""
    mult, mask = gscm._PCG64_MULT, gscm._MASK128
    inc = (1 - (word & 1) if then is None else then) - word * mult & mask
    return gscm._set_pcg64(gen, (word - inc) * pow(mult, -1, 2**128) & mask, inc)


def sum_rate_loop(h, w, power, mode="physical") -> float:
    """Oracle for ``rx.sum_rate``: the SINR of each user in turn under the
    (K_s, M) weights ``w``."""
    p_k = power.per_user
    g = w @ h  # (K_s, K_s); entry [k, i] = w_k h_i
    total = 0.0
    for k in range(h.shape[1]):
        signal = p_k * abs(g[k, k]) ** 2
        interference = p_k * (np.sum(np.abs(g[k]) ** 2) - abs(g[k, k]) ** 2)
        if mode == "physical":
            denom = power.noise_power * float(np.sum(np.abs(w[k]) ** 2)) + interference
        else:
            denom = 1.0 + interference
        total += math.log2(1.0 + signal / denom)
    return total


def correlation_metric(v_k, v_j) -> float:
    """Oracle for one entry of ``gus_select``'s normalized |V V^T| matrix:
    |v_k . v_j*| / (||v_k|| ||v_j||) in [0, 1]."""
    v_k = np.asarray(v_k).reshape(-1)
    v_j = np.asarray(v_j).reshape(-1)
    nk = np.linalg.norm(v_k)
    nj = np.linalg.norm(v_j)
    if nk == 0 or nj == 0:
        raise ConfigurationError("correlation metric undefined for a zero row")
    return min(1.0, float(abs(np.vdot(v_j, v_k))) / (nk * nj))


def observe_cluster(scen, cluster):
    """Oracle for one column of ``Scenario.observables``: the
    (delay, elevation, global azimuth) of one cluster as seen by the BS, from
    numpy's elementwise ``np.arcsin`` and ``np.arctan2`` on scalars."""
    dx, dy, dz = scen.cluster_positions[cluster] - scen.bs_position
    elevation = np.arcsin(dz / math.sqrt(dx * dx + dy * dy + dz * dz))
    return scen.delays[cluster], elevation, np.arctan2(dy, dx)


def rebuild_cluster(scen, cluster, tau, elevation, azimuth):
    """Oracle for one cluster of ``perturb_and_rebuild_omegas``: the rebuilt
    3D position and VR centre of a cluster measured at (delay, elevation,
    azimuth), from the scalar ``solve_cluster_distance``.

    The bounce distance comes from the ellipse inversion anchored at the
    VR centre; the VR centre is translated together with the cluster. The
    VR centre's distance and azimuth from the BS are numpy's elementwise
    ``np.hypot`` and ``np.arctan2`` on scalars.
    """
    cfg = scen.config
    bs = scen.bs_position
    vr_center = scen.vr_centers[cluster]
    vr_x, vr_y = vr_center - bs[:2]
    d_bs_c, _ = localization.solve_cluster_distance(
        tau, elevation, azimuth - np.arctan2(vr_y, vr_x), cfg.bs_height, cfg.ms_height,
        np.hypot(vr_x, vr_y))
    position = bs + d_bs_c * np.array([
        math.cos(elevation) * math.cos(azimuth),
        math.cos(elevation) * math.sin(azimuth),
        math.sin(elevation),
    ])
    return position, vr_center + (position[:2] - scen.cluster_positions[cluster, :2])


def rebuild_cluster_column(scen, cluster, tau, elevation, azimuth):
    """Oracle for one column of a ``perturb_and_rebuild_omegas`` result:
    rebuild one cluster from measured (delay, elevation, azimuth) and return
    the per-user column of the rebuilt user-cluster matrix with the rebuilt
    3D cluster position."""
    position, vr_center = rebuild_cluster(scen, cluster, tau, elevation, azimuth)
    column = gscm.large_scale_gains(scen, vr_center[None], np.array([tau]))[:, 0]
    return column, position


def naive_trial_rows(config):
    """Oracle for ``run_experiment(config).trial_rows``: every row of every
    trial selects, zero-forces and rates from scratch, with no reuse across
    K_s, omega, algorithms or powers: H holds every user's column, GWC
    searches once per row with the independent one-power oracle
    ``gwc_select_single`` and GUS builds V once per row: the true V from
    ``gscm.large_scale_gains`` at omega = 0, else a one-omega
    ``localization.perturb_and_rebuild_omegas`` call; ``estimate_channel``
    builds each estimate. The other harness functions are looked up on
    ``gusim.harness``, so a test that patches one there patches both."""
    h = harness
    k_total = config.scenario.num_users
    m = config.scenario.antenna_count
    rows = []
    for trial in range(config.trials):
        seed = config.base_seed + trial
        scen = h.generate_scenario(replace(config.scenario, rng_seed=seed))
        h_all = h.channel_matrix(scen, range(k_total)).entries
        for ks in config.ks_values:
            for omega in config.omegas:
                for alg in config.algorithms:
                    load = h.estimation_load(m, k_total if alg == "GWC" else ks)
                    for p_dbm in config.powers_dbm:
                        power = h.PowerConfig(h.dbm_to_watts(p_dbm), ks,
                                              config.noise_power)
                        try:
                            if alg == "GUS":
                                v = gscm.large_scale_gains(scen) if omega == 0 else \
                                    localization.perturb_and_rebuild_omegas(
                                        scen, (omega,), config.crlb).v_tilde[0]
                                sel = h.gus_select(v, ks, config.gus_variant).selected
                            elif alg == "GWC":
                                sel = gwc_select_single(h_all, ks, power).selected
                            else:
                                rng = stream(seed, 404, ks)
                                sel = h.random_select(k_total, ks, rng).selected
                            h_s = h_all[:, list(sel)]
                            h_est = h_s
                            if config.use_estimation:
                                h_est = estimate_channel(scen, sel, h_s, power)
                            rate = h.sum_rate(h_s, h.zf_weights(h_est), power,
                                              mode=config.mode)
                            rows.append(h.TrialResult(trial, alg, ks, p_dbm, omega,
                                                      rate, load, tuple(sel)))
                        except SelectionError:   # a short search keeps no set
                            rows.append(h.TrialResult(trial, alg, ks, p_dbm, omega,
                                                      None, load, ()))
                        except RankDeficiencyError:   # a refused set keeps its set
                            rows.append(h.TrialResult(trial, alg, ks, p_dbm, omega,
                                                      None, load, tuple(sel)))
    return rows


def estimate_channel(scen, selected, h_true, power):
    """Oracle for the harness's receive stage with estimation: the MMSE
    estimate of the selected users' channel ``h_true`` from one block of
    their orthogonal pilots at ``power``, received under thermal noise from
    the stream ``SeedSequence([seed, 505, K_s])``, given the exact
    covariances, one user at a time: the projection z_k = Y phi_k^H / ||phi_k||^2
    and h_k = R_k (R_k + s_k I)^{-1} z_k with s_k = sigma^2 / ||phi_k||^2, from
    ``np.linalg.solve``. Raises ``RankDeficiencyError`` where an estimate is not
    finite. ``unitary_pilots`` and ``channel_covariances`` are looked up on
    ``gusim.harness``. The harness shares s = sigma^2 / P, which differs from
    s_k in the last bit, so the rates agree to about 1e-9 relative rather than
    bitwise."""
    h = harness
    k_s, m = len(selected), h_true.shape[0]
    rng = stream(scen.config.rng_seed, 505, k_s)
    pilots = math.sqrt(power.per_user) * h.unitary_pilots(k_s)
    noise = math.sqrt(power.noise_power / 2.0) * (
        rng.standard_normal((m, k_s)) + 1j * rng.standard_normal((m, k_s)))
    received = h_true @ pilots + noise
    estimate = np.empty((m, k_s), dtype=complex)
    for k, r_k in enumerate(h.channel_covariances(scen, selected)):
        energy = np.vdot(pilots[k], pilots[k]).real
        z_k = received @ pilots[k].conj() / energy
        try:
            estimate[:, k] = r_k @ np.linalg.solve(r_k + power.noise_power / energy * np.eye(m),
                                                   z_k)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"user {k}'s MMSE inner matrix is singular") from exc
    if not np.isfinite(estimate).all():
        raise RankDeficiencyError("an MMSE estimate is not finite")
    return estimate


def gwc_select_single(h_all, num_selected, power):
    """Oracle for ``scheduling.gwc_select_powers``: the greedy search for one
    power, every step computed from its own prefix with the same arithmetic
    in the same order. Raises ``SelectionError`` where no candidate is
    acceptable before ``num_selected`` picks."""
    h_all = np.asarray(h_all)
    m, k = h_all.shape
    if not 1 <= num_selected <= k:
        raise ConfigurationError(f"num_selected must be in [1, {k}]")
    if num_selected > m:
        raise SelectionError(f"zero-forcing needs num_selected <= M = {m}")

    norms = np.linalg.norm(h_all, axis=0)
    # QR factors of the selected columns, grown one column per step
    dtype = np.result_type(h_all, float)
    q_all = np.zeros((m, num_selected), dtype=dtype)
    r_inv_all = np.zeros((num_selected, num_selected), dtype=dtype)
    selected: list[int] = []
    scores: list[float] = []
    remaining = np.arange(k)
    while len(selected) < num_selected:
        s = len(selected)
        q, r_inv = q_all[:, :s], r_inv_all[:s, :s]
        h_rem = h_all[:, remaining]
        c = q.conj().T @ h_rem
        resid = h_rem - q @ c
        rho2 = np.sum(resid.real ** 2 + resid.imag ** 2, axis=0)
        scored = np.flatnonzero(rho2 > 0)
        rho2 = rho2[scored]
        x = r_inv @ c[:, scored]
        p = power.total_power / (s + 1)
        gain = np.sum(np.abs(r_inv) ** 2, axis=1)[:, None] + np.abs(x) ** 2 / rho2
        rates = (np.sum(np.log2(1.0 + p / (power.noise_power * gain)), axis=0)
                 + np.log2(1.0 + p * rho2 / power.noise_power))
        key = rates if s else norms[remaining[scored]]
        for j in np.argsort(-key, kind="stable"):
            rho = math.sqrt(rho2[j])   # R'^-1 = [[R^-1, -X_j/rho], [0, 1/rho]]
            r_inv_all[:s, s], r_inv_all[s, s] = -x[:, j] / rho, 1.0 / rho
            if not zf_refused(r_inv_all[:s + 1, :s + 1])[0]:
                break
        else:
            raise SelectionError(
                "zero-forcing is undefined for every remaining candidate"
            )
        w = scored[j]
        # append the winner's column, re-orthogonalized once against Q
        delta = q.conj().T @ resid[:, w]
        e = resid[:, w] - q @ delta
        rho = np.linalg.norm(e)
        q_all[:, s] = e / rho
        r_inv_all[:s, s] = -(r_inv @ (c[:, w] + delta)) / rho
        r_inv_all[s, s] = 1.0 / rho
        selected.append(int(remaining[w]))
        scores.append(float(rates[j]))
        remaining = np.delete(remaining, w)
    return ScheduleResult(tuple(selected), tuple(scores), "GWC")
