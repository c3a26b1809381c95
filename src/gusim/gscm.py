"""Geometry-based stochastic channel model.

Random scenario generation (users, scatterer clusters, circular visibility
regions) and synthesis of the uplink channel matrix at a uniform linear
array, with the constituent large-scale gain terms exposed as standalone
functions so they can be reused by the scheduler and the localization
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigurationError, GeometryError
from .plain import from_plain, to_plain

SPEED_OF_LIGHT = 299_792_458.0

# A_VR never reaches 0 exactly; cluster membership uses this floor.
DEFAULT_VISIBILITY_FLOOR = 1e-6

_SCENARIO_SCHEMA_VERSION = 1

# salts for the per-purpose random streams derived from the scenario seed
_STREAM_ANGLES = 101
_STREAM_GAINS = 202
_STREAM_PERTURB = 303
_STREAM_SELECT = 404


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable parameter set describing one simulated micro-cell.

    Distances are meters, delays seconds, frequencies Hz. ``reference_delay``
    may be ``None``, in which case the per-user line-of-sight delay is used
    as the attenuation reference for that user.
    """

    cell_half_side: float = 1000.0
    num_users: int = 40
    num_clusters: int = 12
    mpcs_per_cluster: int = 6
    carrier_freq: float = 2e9
    bs_exclusion_fraction: float = 0.1
    vr_radius: float = 50.0
    transition_size: float = 20.0
    bs_height: float = 5.0
    ms_height: float = 1.5
    power_decay: float = 1e6
    cutoff_delay: float = 1e-5
    reference_delay: float | None = None
    antenna_count: int = 64
    antenna_spacing_fraction: float = 0.5
    shadowing_sigma_db: float = 3.0
    angular_spread_deg: float = 5.0
    cluster_height_range: tuple[float, float] = (5.0, 30.0)
    rng_seed: int = 0

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    def validate(self) -> None:
        if self.cell_half_side <= 0:
            raise ConfigurationError("cell_half_side must be positive")
        if not 0 < self.bs_exclusion_fraction < 1:
            raise ConfigurationError(
                "bs_exclusion_fraction must lie strictly in (0, 1), got "
                f"{self.bs_exclusion_fraction}"
            )
        if self.num_users < 1 or self.num_clusters < 1:
            raise ConfigurationError("num_users and num_clusters must be positive")
        if self.mpcs_per_cluster < 1:
            raise ConfigurationError("mpcs_per_cluster must be >= 1")
        if not self.vr_radius > self.transition_size > 0:
            raise ConfigurationError(
                "need vr_radius > transition_size > 0, got "
                f"{self.vr_radius} and {self.transition_size}"
            )
        if self.reference_delay is not None and self.cutoff_delay < self.reference_delay:
            raise ConfigurationError("cutoff_delay must be >= reference_delay")
        if self.antenna_count < 1:
            raise ConfigurationError("antenna_count must be >= 1")
        if self.carrier_freq <= 0:
            raise ConfigurationError("carrier_freq must be positive")
        if self.power_decay < 0:
            raise ConfigurationError("power_decay must be nonnegative")
        lo, hi = self.cluster_height_range
        if not 0 <= lo <= hi:
            raise ConfigurationError("cluster_height_range must satisfy 0 <= lo <= hi")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be a nonnegative integer")


@dataclass(frozen=True)
class Cluster:
    """One scatterer cluster with its visibility region.

    ``delay`` is the single-bounce propagation delay BS -> cluster -> VR
    centre; ``shadow_gain`` is a linear power factor applied to the fading
    channel (not to the geometry matrix used by the scheduler).
    """

    position: np.ndarray       # (3,) meters
    vr_center: np.ndarray      # (2,) meters
    delay: float               # seconds
    shadow_gain: float         # linear power factor


@dataclass(frozen=True)
class Scenario:
    """Immutable world state: BS, user positions and clusters."""

    config: ScenarioConfig
    bs_position: np.ndarray    # (3,)
    users: np.ndarray          # (K, 3)
    clusters: tuple[Cluster, ...]

    @property
    def num_users(self) -> int:
        return self.users.shape[0]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class MpcDraw:
    """Per-multipath-component complex gains and departure azimuths."""

    gains: np.ndarray     # (N_p,) complex
    azimuths: np.ndarray  # (N_p,) radians


@dataclass(frozen=True)
class ChannelMatrix:
    """M x K_s uplink channel of the selected users."""

    entries: np.ndarray    # (M, K_s) complex
    user_ids: tuple[int, ...]


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, purpose, indices) key."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def generate_scenario(config: ScenarioConfig, max_attempts: int = 10_000) -> Scenario:
    """Draw a random scenario: users, clusters, VR centres and shadowing.

    Users are uniform over the square cell minus the BS exclusion disk
    (rejection sampling); clusters and VR centres are uniform over the
    cell. Deterministic for a fixed config (including its seed).
    """
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    half = config.cell_half_side
    bs = np.array([0.0, 0.0, config.bs_height])

    users = np.empty((config.num_users, 3))
    r_min = config.bs_exclusion_fraction * half
    for k in range(config.num_users):
        for _ in range(max_attempts):
            xy = rng.uniform(-half, half, size=2)
            if math.hypot(xy[0], xy[1]) >= r_min:
                users[k, :2] = xy
                users[k, 2] = config.ms_height
                break
        else:
            raise ConfigurationError(
                f"could not place user {k} outside the exclusion disk after "
                f"{max_attempts} attempts"
            )

    z_lo, z_hi = config.cluster_height_range
    clusters = []
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
        clusters.append(Cluster(
            position=pos,
            vr_center=vr,
            delay=float(delay),
            shadow_gain=float(10.0 ** (shadow_db / 10.0)),
        ))

    users.setflags(write=False)
    bs.setflags(write=False)
    return Scenario(config=config, bs_position=bs, users=users, clusters=tuple(clusters))


def vr_gain(d_ms_vr: float, vr_radius: float, transition_size: float,
            wavelength: float) -> float:
    """Visibility-region transition gain at distance ``d_ms_vr`` from the
    VR centre. Equals 0.5 at the inner edge ``vr_radius - transition_size``
    and decays smoothly to 0 far outside the region."""
    if not vr_radius > transition_size > 0:
        raise ConfigurationError("need vr_radius > transition_size > 0")
    if wavelength <= 0:
        raise ConfigurationError("wavelength must be positive")
    if d_ms_vr < 0:
        raise ConfigurationError("distance must be nonnegative")
    arg = 2.0 * math.sqrt(2.0) * (transition_size + d_ms_vr - vr_radius)
    arg /= math.sqrt(wavelength * transition_size)
    return 0.5 - math.atan(arg) / math.pi


def cluster_attenuation(tau_c: float, tau_0: float, tau_b: float,
                        power_decay: float) -> float:
    """Exponential cluster power attenuation with a floor at the cut-off
    delay ``tau_b``."""
    if power_decay < 0:
        raise ConfigurationError("power_decay must be nonnegative")
    if tau_b < tau_0:
        raise ConfigurationError("tau_b must be >= tau_0")
    return max(math.exp(-power_decay * (tau_c - tau_0)),
               math.exp(-power_decay * (tau_b - tau_0)))


def path_loss_nlos(d_bs_ms: float, wavelength: float) -> tuple[float, float]:
    """NLoS micro-cell path loss.

    Returns ``(loss_dB, gain_linear)`` with
    ``loss_dB = 26 log10(d) + 20 log10(4 pi / lambda)``.
    """
    if d_bs_ms <= 0:
        raise GeometryError("d_bs_ms must be positive")
    if wavelength <= 0:
        raise ConfigurationError("wavelength must be positive")
    loss_db = 26.0 * math.log10(d_bs_ms) + 20.0 * math.log10(4.0 * math.pi / wavelength)
    return loss_db, 10.0 ** (-loss_db / 10.0)


def steering_vector(azimuth: float, num_antennas: int,
                    d_over_lambda: float) -> np.ndarray:
    """Uniform-linear-array response; element m is exp(j*alpha*m*sin(az))
    with alpha = -2*pi*d/lambda."""
    if num_antennas < 1:
        raise ConfigurationError("num_antennas must be >= 1")
    alpha = -2.0 * math.pi * d_over_lambda
    m = np.arange(num_antennas)
    return np.exp(1j * alpha * m * math.sin(azimuth))


def _steering_stack(azimuths, num_antennas: int,
                    d_over_lambda: float) -> np.ndarray:
    """(N_p, M) array responses of a cluster's MPCs: row p is
    ``steering_vector(azimuths[p], ...)``."""
    return np.stack([steering_vector(phi, num_antennas, d_over_lambda)
                     for phi in azimuths])


def user_reference_delay(scenario: Scenario, user: int) -> float:
    """Attenuation reference delay for one user: the configured value, or
    the user's line-of-sight delay when the config leaves it unset."""
    cfg = scenario.config
    if cfg.reference_delay is not None:
        return cfg.reference_delay
    d = float(np.linalg.norm(scenario.users[user] - scenario.bs_position))
    return d / SPEED_OF_LIGHT


def user_pathloss_amplitude(scenario: Scenario, user: int) -> float:
    """sqrt of the linear NLoS path gain for one user."""
    d = float(np.linalg.norm(scenario.users[user] - scenario.bs_position))
    _, gain = path_loss_nlos(d, scenario.config.wavelength)
    return math.sqrt(gain)


def user_cluster_geometry_factor(scenario: Scenario, user: int, cluster: int,
                                 include_shadowing: bool = True) -> float:
    """Scalar large-scale amplitude L_p * A_VR * sqrt(A_C [* shadow]) tying
    one user to one cluster."""
    cfg = scenario.config
    cl = scenario.clusters[cluster]
    lp = user_pathloss_amplitude(scenario, user)
    d_vr = float(np.linalg.norm(scenario.users[user, :2] - cl.vr_center))
    a_vr = vr_gain(d_vr, cfg.vr_radius, cfg.transition_size, cfg.wavelength)
    a_c = cluster_attenuation(cl.delay, user_reference_delay(scenario, user),
                              cfg.cutoff_delay, cfg.power_decay)
    if include_shadowing:
        a_c = a_c * cl.shadow_gain
    return lp * a_vr * math.sqrt(a_c)


def cluster_azimuths(scenario: Scenario, cluster: int) -> np.ndarray:
    """Departure azimuths of the cluster's MPCs at the BS: the BS-to-cluster
    azimuth plus Laplacian intra-cluster offsets. Deterministic per
    (scenario seed, cluster)."""
    cfg = scenario.config
    cl = scenario.clusters[cluster]
    center = math.atan2(cl.position[1] - scenario.bs_position[1],
                        cl.position[0] - scenario.bs_position[0])
    rng = _stream(cfg.rng_seed, _STREAM_ANGLES, cluster)
    sigma = math.radians(cfg.angular_spread_deg)
    # Laplace with std sigma has scale sigma/sqrt(2)
    offsets = rng.laplace(0.0, sigma / math.sqrt(2.0), size=cfg.mpcs_per_cluster)
    return center + offsets


def mpc_amplitudes(scenario: Scenario, user: int, cluster: int,
                   rng: np.random.Generator | None = None,
                   shared_fading: bool = False) -> MpcDraw:
    """Complex MPC gains and azimuths for one user-cluster pair.

    Gains are circular Gaussian with per-MPC expected power 1/N_p, scaled
    by the user's large-scale geometry factor. With ``shared_fading`` the
    fading draw is keyed by the cluster only, so users seeing the same
    cluster share it. An explicit ``rng`` overrides the deterministic
    per-pair stream (used for Monte-Carlo re-draws).
    """
    if not 0 <= user < scenario.num_users:
        raise IndexError(f"user index {user} out of range")
    if not 0 <= cluster < scenario.num_clusters:
        raise IndexError(f"cluster index {cluster} out of range")
    cfg = scenario.config
    n_p = cfg.mpcs_per_cluster
    if rng is None:
        key = (_STREAM_GAINS, cluster) if shared_fading else (_STREAM_GAINS, cluster, user)
        rng = _stream(cfg.rng_seed, *key)
    raw = (rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p))
    raw /= math.sqrt(2.0 * n_p)
    factor = user_cluster_geometry_factor(scenario, user, cluster)
    return MpcDraw(gains=factor * raw, azimuths=cluster_azimuths(scenario, cluster))


def visible_clusters(scenario: Scenario, user: int,
                     floor: float = DEFAULT_VISIBILITY_FLOOR) -> list[int]:
    """Indices of clusters whose VR transition gain at the user exceeds
    ``floor``."""
    cfg = scenario.config
    out = []
    for j, cl in enumerate(scenario.clusters):
        d = float(np.linalg.norm(scenario.users[user, :2] - cl.vr_center))
        if vr_gain(d, cfg.vr_radius, cfg.transition_size, cfg.wavelength) > floor:
            out.append(j)
    return out


def _check_selected(scenario: Scenario, selected) -> list[int]:
    """The selected user indices as ints: nonempty, distinct, in range."""
    selected = [int(i) for i in selected]
    if len(selected) == 0:
        raise ConfigurationError("selected user list must be nonempty")
    if len(set(selected)) != len(selected):
        raise ConfigurationError("selected user indices must be distinct")
    for i in selected:
        if not 0 <= i < scenario.num_users:
            raise IndexError(f"user index {i} out of range")
    return selected


def channel_matrix(scenario: Scenario, selected,
                   visibility_floor: float = DEFAULT_VISIBILITY_FLOOR,
                   shared_fading: bool = False,
                   gain_rng: np.random.Generator | None = None) -> ChannelMatrix:
    """Synthesize the M x K_s channel of the selected users.

    Column k sums, over the clusters visible to user k, the per-MPC complex
    gains times the array steering vectors at the MPC azimuths. Passing
    ``gain_rng`` redraws the fast fading from that generator (angles stay
    fixed), which is how independent fading realizations of one scenario
    are produced.
    """
    selected = _check_selected(scenario, selected)
    cfg = scenario.config
    m = cfg.antenna_count
    h = np.zeros((m, len(selected)), dtype=complex)
    steer_cache: dict[int, np.ndarray] = {}
    for col, k in enumerate(selected):
        for j in visible_clusters(scenario, k, visibility_floor):
            draw = mpc_amplitudes(scenario, k, j, rng=gain_rng,
                                  shared_fading=shared_fading)
            if j not in steer_cache:
                steer_cache[j] = _steering_stack(draw.azimuths, m,
                                                 cfg.antenna_spacing_fraction)
            h[:, col] += draw.gains @ steer_cache[j]
    if not np.all(np.isfinite(h)):
        raise ConfigurationError("channel matrix contains non-finite entries")
    return ChannelMatrix(entries=h, user_ids=tuple(selected))


def channel_covariances(scenario: Scenario, selected) -> np.ndarray:
    """Exact fading covariances E{h_k h_k^H} of the selected users,
    shape (K_s, M, M), for the independent re-draws of ``channel_matrix``
    with a ``gain_rng`` (default visibility floor).

    Each MPC gain has variance f_kj^2 / N_p, so
    R_k = sum_j f_kj^2 G_j over the clusters visible to user k, with the
    cluster's steering Gram G_j = (1/N_p) sum_p a(phi_jp) a(phi_jp)^H.
    """
    selected = _check_selected(scenario, selected)
    cfg = scenario.config
    # steer[j, p, m] = a(phi_jp)[m]
    steer = np.stack([
        _steering_stack(cluster_azimuths(scenario, j), cfg.antenna_count,
                        cfg.antenna_spacing_fraction)
        for j in range(scenario.num_clusters)])
    gram = np.einsum("jpm,jpn->jmn", steer, steer.conj()) / cfg.mpcs_per_cluster
    power = np.zeros((len(selected), scenario.num_clusters))
    for row, k in enumerate(selected):
        for j in visible_clusters(scenario, k):
            power[row, j] = user_cluster_geometry_factor(scenario, k, j) ** 2
    return np.einsum("kj,jmn->kmn", power, gram)


# ---------------------------------------------------------------------------
# Scenario serialization (YAML: config block + user coordinates + clusters)
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    return {"schema_version": _SCENARIO_SCHEMA_VERSION, **to_plain(scenario)}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigurationError(f"scenario must be a mapping, got {data!r}")
    if data.get("schema_version") != _SCENARIO_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported scenario schema_version {data.get('schema_version')!r}"
        )
    rest = {k: v for k, v in data.items() if k != "schema_version"}
    return from_plain(Scenario, rest, "scenario")


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(yaml.safe_load(fh))
