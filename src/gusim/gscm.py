"""Geometry-based stochastic channel model.

Random scenario generation (users, scatterer clusters, circular visibility
regions) and synthesis of the uplink channel matrix at a uniform linear
array. The large-scale user-cluster gains come from one array function,
``large_scale_gains``, shared with the scheduler and the localization
module; the channel scales them by each cluster's shadowing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np
import yaml

from .errors import ConfigurationError, GeometryError
from .plain import (_is_finite, _is_integer, check_fields, checked, from_versioned,
                    read_yaml, to_plain)

SPEED_OF_LIGHT = 299_792_458.0

# numpy's normal draw returns |x| < r + sqrt(106 ln 2) ~ 12.23: its ziggurat
# tail (r = 3.6541528853610088) returns r + a only if a^2 < 2 b, and
# b = -log1p(-u) <= 53 ln 2. Above this sigma a shadow gain 10^(x/10) could overflow.
_MAX_SHADOWING_SIGMA_DB = 10.0 * math.log10(sys.float_info.max) / (
    3.6541528853610088 + math.sqrt(106.0 * math.log(2.0)))

_SCENARIO_SCHEMA_VERSION = 3

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

    cell_half_side: float = checked(1000.0, "positive")
    num_users: int = checked(40, "positive")
    num_clusters: int = checked(12, "positive")
    mpcs_per_cluster: int = checked(6, "positive")
    carrier_freq: float = checked(2e9, "positive")
    bs_exclusion_fraction: float = checked(0.1, "positive")
    vr_radius: float = checked(50.0, "positive")
    transition_size: float = checked(20.0, "positive")
    bs_height: float = checked(5.0)
    ms_height: float = checked(1.5)
    power_decay: float = checked(1e6, "nonnegative")
    cutoff_delay: float = checked(1e-5)
    reference_delay: float | None = checked(None)
    antenna_count: int = checked(64, "positive")
    antenna_spacing_fraction: float = checked(0.5, "positive")
    shadowing_sigma_db: float = checked(3.0, "nonnegative")
    angular_spread_deg: float = checked(5.0, "nonnegative")
    cluster_height_range: tuple[float, float] = (5.0, 30.0)
    rng_seed: int = checked(0, "nonnegative")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    def validate(self) -> None:
        check_fields(self)
        if self.bs_exclusion_fraction >= 1:
            raise ConfigurationError(
                f"bs_exclusion_fraction must be < 1, got {self.bs_exclusion_fraction}")
        if self.vr_radius <= self.transition_size:
            raise ConfigurationError(f"vr_radius {self.vr_radius} must exceed "
                                     f"transition_size {self.transition_size}")
        if self.shadowing_sigma_db > _MAX_SHADOWING_SIGMA_DB:
            raise ConfigurationError(
                f"shadowing_sigma_db must be <= {_MAX_SHADOWING_SIGMA_DB:.1f}, above which "
                f"a shadow gain can overflow, got {self.shadowing_sigma_db}")
        if self.reference_delay is not None and self.cutoff_delay < self.reference_delay:
            raise ConfigurationError("cutoff_delay must be >= reference_delay")
        # without a reference delay, a user's own line-of-sight delay is its reference
        corner_delay = math.hypot(math.sqrt(2.0) * self.cell_half_side,
                                  self.bs_height - self.ms_height) / SPEED_OF_LIGHT
        if self.reference_delay is None and self.cutoff_delay < corner_delay:
            raise ConfigurationError(
                f"cutoff_delay {self.cutoff_delay} is below the {corner_delay:.6g} s "
                f"line-of-sight delay to the corner of a cell of cell_half_side "
                f"{self.cell_half_side}; raise cutoff_delay or set reference_delay")
        heights = self.cluster_height_range
        if not (isinstance(heights, tuple) and len(heights) == 2
                and all(map(_is_finite, heights)) and 0 <= heights[0] <= heights[1]):
            raise ConfigurationError("cluster_height_range must be two finite numbers "
                                     f"with 0 <= lo <= hi, got {heights!r}")


@dataclass(frozen=True)
class Scenario:
    """Immutable world state: user positions and the scatterer clusters,
    one array per cluster quantity. A cluster's shadow gain is a linear
    power factor applied to the fading channel, not to the V the scheduler
    uses. The BS position, the cluster delays and observables and the
    channel geometry follow from these fields, each built on first use and
    cached, read-only; equality and serialization ignore them, and
    ``dataclasses.replace`` starts with an empty cache."""

    config: ScenarioConfig
    users: np.ndarray               # (K, 3)
    cluster_positions: np.ndarray   # (N_C, 3) meters
    vr_centers: np.ndarray          # (N_C, 2) meters
    shadow_gains: np.ndarray        # (N_C,) linear power factors

    def __eq__(self, other) -> bool:
        """Field-wise equality that compares the array fields by value."""
        if type(other) is not type(self):
            return NotImplemented
        values = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in values)

    @property
    def num_users(self) -> int:
        return self.users.shape[0]

    @property
    def num_clusters(self) -> int:
        return len(self.shadow_gains)

    @cached_property
    def bs_position(self) -> np.ndarray:
        """(3,) the BS at the cell centre, (0, 0, bs_height)."""
        return _read_only(np.array([0.0, 0.0, self.config.bs_height]))

    @cached_property
    def delays(self) -> np.ndarray:
        """(N_C,) single-bounce delays (|BS -> cluster| + |cluster -> VR
        centre|) / c, the VR centre at ms_height."""
        pos = self.cluster_positions
        vr = np.column_stack([self.vr_centers, np.full(self.num_clusters, self.config.ms_height)])
        return _read_only((np.linalg.norm(pos - self.bs_position, axis=1)
                           + np.linalg.norm(vr - pos, axis=1)) / SPEED_OF_LIGHT)

    @cached_property
    def observables(self) -> np.ndarray:
        """(3, N_C) delay, elevation and global azimuth of each cluster at the BS."""
        x, y, z = (self.cluster_positions - self.bs_position).T
        return _read_only(np.array([self.delays, np.arcsin(z / np.sqrt(x * x + y * y + z * z)),
                                    np.arctan2(y, x)]))

    @cached_property
    def steering(self) -> np.ndarray:
        """(N_C, N_p, M) array responses at the MPC azimuths."""
        return _read_only(_steering_tensor(self))

    @cached_property
    def cluster_lags(self) -> np.ndarray:
        """(N_C, M) lags g_j[d] = (1/N_p) sum_p exp(j*alpha*d*sin(phi_jp)) of
        the steering Grams: G_j[m, n] = g_j[m - n], g_j[-d] = conj(g_j[d])."""
        return _read_only(self.steering.mean(axis=1))

    @cached_property
    def channel_gains(self) -> np.ndarray:
        """(K, N_C) ``large_scale_gains`` times each cluster's shadow amplitude."""
        return _read_only(large_scale_gains(self) * np.sqrt(self.shadow_gains))


@dataclass(frozen=True)
class ChannelMatrix:
    """M x K_s uplink channel of the selected users."""

    entries: np.ndarray    # (M, K_s) complex


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, purpose, indices) key."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw a random scenario: users, clusters, VR centres and shadowing.

    Users are uniform over the square cell minus the BS exclusion disk
    (rejection sampling); clusters and VR centres are uniform over the
    cell. Deterministic for a fixed config (including its seed).
    """
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    half = config.cell_half_side

    # rounds of exactly the users still missing, so user k is the k-th
    # accepted draw and nothing is drawn past the last one
    r_min, placed = config.bs_exclusion_fraction * half, []
    while len(placed) < config.num_users:
        draws = rng.uniform(-half, half, size=(config.num_users - len(placed), 2)).tolist()
        placed += [(x, y) for x, y in draws if math.hypot(x, y) >= r_min]
    users = np.column_stack([placed, np.full(config.num_users, config.ms_height)])

    z_lo, z_hi = config.cluster_height_range
    lows = np.array([-half, -half, z_lo, -half, -half])   # cluster x, y, z, VR centre x, y
    highs = np.array([half, half, z_hi, half, half])
    # per cluster: five uniforms, then one normal; Python's power per gain,
    # as its array form differs in the last bit
    draws, shadow_gains = np.empty((config.num_clusters, 5)), []
    for draw in draws:
        draw[:] = rng.uniform(lows, highs)
        shadow_gains.append(10.0 ** (rng.normal(0.0, config.shadowing_sigma_db) / 10.0))

    return Scenario(config=config, users=_read_only(users),
                    cluster_positions=_read_only(draws[:, :3].copy()),
                    vr_centers=_read_only(draws[:, 3:].copy()),
                    shadow_gains=_read_only(np.array(shadow_gains)))


def vr_gain(d_ms_vr, vr_radius: float, transition_size: float,
            wavelength: float):
    """Visibility-region transition gain at distance(s) ``d_ms_vr`` from the
    VR centre. Equals 0.5 at the inner edge ``vr_radius - transition_size``
    and decays smoothly to 0 far outside the region."""
    if not vr_radius > transition_size > 0:
        raise ConfigurationError("need vr_radius > transition_size > 0")
    if wavelength <= 0:
        raise ConfigurationError("wavelength must be positive")
    d_ms_vr = np.asarray(d_ms_vr)
    if np.any(d_ms_vr < 0):
        raise ConfigurationError("distance must be nonnegative")
    arg = 2.0 * math.sqrt(2.0) * (transition_size + d_ms_vr - vr_radius)
    arg /= math.sqrt(wavelength * transition_size)
    return 0.5 - np.arctan(arg) / math.pi


def cluster_attenuation(tau_c, tau_0, tau_b: float, power_decay: float):
    """Exponential cluster power attenuation with a floor at the cut-off
    delay ``tau_b``; the delays broadcast against each other."""
    if power_decay < 0:
        raise ConfigurationError("power_decay must be nonnegative")
    tau_0 = np.asarray(tau_0)
    if np.any(tau_b < tau_0):
        raise ConfigurationError("tau_b must be >= tau_0")
    return np.maximum(np.exp(-power_decay * (tau_c - tau_0)),
                      np.exp(-power_decay * (tau_b - tau_0)))


def path_loss_nlos(d_bs_ms, wavelength: float):
    """NLoS micro-cell path loss at a scalar or array distance.

    Returns ``(loss_dB, gain_linear)`` with
    ``loss_dB = 26 log10(d) + 20 log10(4 pi / lambda)``.
    """
    if np.any(np.asarray(d_bs_ms) <= 0):
        raise GeometryError("d_bs_ms must be positive")
    if wavelength <= 0:
        raise ConfigurationError("wavelength must be positive")
    loss_db = 26.0 * np.log10(d_bs_ms) + 20.0 * math.log10(4.0 * math.pi / wavelength)
    return loss_db, 10.0 ** (-loss_db / 10.0)


def large_scale_gains(scenario: Scenario, vr_centers=None, delays=None) -> np.ndarray:
    """(K, n) amplitudes L_p * A_VR * sqrt(A_C) of every user at every
    cluster: the geometric V, which the BS computes without shadowing.

    ``vr_centers`` (n, 2) and ``delays`` (n,) replace the clusters' own
    VR centres and delays, which is how a rebuilt geometry is scored; one
    column comes out per row of the overrides.
    """
    cfg = scenario.config
    vr_centers = np.asarray(scenario.vr_centers if vr_centers is None else vr_centers)
    delays = np.asarray(scenario.delays if delays is None else delays)
    n = len(np.atleast_1d(delays))
    if vr_centers.shape != (n, 2) or delays.shape != (n,):
        raise ConfigurationError(f"vr_centers and delays must have shapes ({n}, 2) and ({n},), "
                                 f"got {vr_centers.shape} and {delays.shape}")
    d_bs = np.linalg.norm(scenario.users - scenario.bs_position, axis=1)
    _, path_gain = path_loss_nlos(d_bs, cfg.wavelength)
    tau_0 = d_bs / SPEED_OF_LIGHT if cfg.reference_delay is None else cfg.reference_delay
    a_c = cluster_attenuation(delays, np.reshape(tau_0, (-1, 1)),
                              cfg.cutoff_delay, cfg.power_decay)
    d_vr = np.linalg.norm(scenario.users[:, None, :2] - vr_centers[None], axis=-1)
    a_vr = vr_gain(d_vr, cfg.vr_radius, cfg.transition_size, cfg.wavelength)
    return np.sqrt(path_gain)[:, None] * a_vr * np.sqrt(a_c)


def _steering_tensor(scenario: Scenario) -> np.ndarray:
    """(N_C, N_p, M) uniform-linear-array responses: element [j, p, m] is
    exp(j*alpha*m*sin(phi_jp)) at cluster j's MPC azimuth phi_jp, with
    alpha = -2*pi*d/lambda. phi_jp is the cluster's observed azimuth plus
    Laplacian offsets, deterministic per (scenario seed, cluster)."""
    cfg = scenario.config
    # Laplace with std sigma has scale sigma/sqrt(2)
    scale = math.radians(cfg.angular_spread_deg) / math.sqrt(2.0)
    azimuths = scenario.observables[2][:, None] + np.array([
        _stream(cfg.rng_seed, _STREAM_ANGLES, j).laplace(0.0, scale, size=cfg.mpcs_per_cluster)
        for j in range(scenario.num_clusters)])
    alpha = -2.0 * math.pi * cfg.antenna_spacing_fraction
    return np.exp(1j * alpha * np.arange(cfg.antenna_count) * np.sin(azimuths)[..., None])


# numpy's SeedSequence mixer (O'Neill's seed_seq) and PCG64 seeding constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_PCG64_MULT, _MASK32, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**32 - 1, 2**128 - 1


def _seed_hash(words: np.ndarray, steps, init: int, mult: int) -> np.ndarray:
    """seed_seq's hash of uint32 words at step(s) ``steps`` of its constant
    chain, one step per row of words for a column of steps."""
    const = np.uint32(init) * np.uint32(mult) ** np.asarray(steps, np.uint32)
    words = (words ^ const) * (const * np.uint32(mult))
    return words ^ (words >> _XSHIFT)


def _seed_words(seed: int, clusters, users) -> np.ndarray:
    """(n, 4) uint64 PCG64 seed words (s_hi, s_lo, q_hi, q_lo) that
    ``_stream(seed, _STREAM_GAINS, clusters[i], users[i])`` gets from its
    SeedSequence, for key words below 2^32 (a larger word adds entropy words)."""
    with np.errstate(over="ignore"):   # uint32 products wrap, as in seed_seq
        key = np.array(np.broadcast_arrays(seed, _STREAM_GAINS, clusters, users), np.uint32)
        pool = list(_seed_hash(key, np.arange(4)[:, None], _INIT_A, _MULT_A))
        pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
        for step, (src, dst) in enumerate(pairs, 4):
            mixed = np.uint32(_MIX_MULT_L) * pool[dst] \
                - np.uint32(_MIX_MULT_R) * _seed_hash(pool[src], step, _INIT_A, _MULT_A)
            pool[dst] = mixed ^ (mixed >> _XSHIFT)
        # generate_state(4, uint64): eight words cycling the pool, paired low-high
        state = _seed_hash(np.array(pool)[np.arange(8) % 4], np.arange(8)[:, None],
                           _INIT_B, _MULT_B).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _set_pcg64(gen: np.random.Generator, state: int, inc: int) -> np.random.Generator:
    """``gen`` with its PCG64 state set to (state, inc)."""
    gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
    return gen


@cache
def _pcg64_jumps(n_draws: int) -> np.ndarray:
    """(4, n_draws) uint64 (hi, lo) halves of a = MULT^(t+1) and
    b = sum_{i<=t+1} MULT^i, t = 1..n_draws: PCG64 seeded with (s, inc)
    reads the state a s + b inc at draw t, the seeding's two steps included."""
    powers = [pow(_PCG64_MULT, k, 2**128) for k in range(n_draws + 2)]
    jumps = [(powers[k], sum(powers[:k + 1]) & _MASK128) for k in range(2, n_draws + 2)]
    return _read_only(np.array([(*divmod(a, 2**64), *divmod(b, 2**64)) for a, b in jumps],
                               np.uint64).T)


def _mul128(x_hi, x_lo, c_hi, c_lo) -> tuple[np.ndarray, np.ndarray]:
    """(x * c) mod 2^128 on uint64 (hi, lo) halves."""
    x1, x0, c1, c0 = x_lo >> 32, x_lo & _MASK32, c_lo >> 32, c_lo & _MASK32
    cross = (x0 * c0 >> 32) + (x1 * c0 & _MASK32) + x0 * c1   # < 2^64
    hi = x1 * c1 + (x1 * c0 >> 32) + (cross >> 32) + x_lo * c_hi + x_hi * c_lo
    return hi, x_lo * c_lo


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard-normal ziggurat (Marsaglia & Tsang): layer widths wi,
    read from numpy, and fast-path thresholds floor(2^52 wi[i-1] / wi[i]),
    at most numpy's ki (0 for layer 1, never accepted at once). Word w draws
    +-rabs wi[idx] (idx = w & 0xff, sign bit 8, rabs = bits 9-60), accepted
    at once if rabs < ki[idx]. So the word with rabs = 1 draws wi[idx]; at
    layer 1 the wedge test then takes the uniform 0, which accepts."""
    # MT19937 at pos 0 outputs its key words tempered, untwisted, and numpy's
    # uint64 is first << 32 | second: word 1 << 9 | i for layer i, and two
    # zero words (the uniform 0) after layer 1's; untempered, they are the key
    out = np.zeros(624, np.uint32)
    out[[1, 3]], out[7:514:2] = (1 << 9, 1 << 9 | 1), 1 << 9 | np.arange(2, 256)
    y = out ^ out >> 18   # each step below undoes one of MT19937's tempering steps
    y ^= y << 15 & 0xEFC60000
    key = y
    for _ in range(4):   # the << 7 step, seven more low bits per pass
        key = y ^ key << 7 & 0x9D2C5680
    gen = np.random.Generator(np.random.MT19937(0))
    gen.bit_generator.state = {"bit_generator": "MT19937",
                               "state": {"key": key ^ key >> 11 ^ key >> 22, "pos": 0}}
    wi = gen.standard_normal(256)
    thresholds = np.floor(2.0**52 * np.roll(wi, 1) / wi).astype(np.uint64)
    thresholds[1] = 0
    return _read_only(wi), _read_only(thresholds)


def _fading_normals_batch(scenario: Scenario, users, clusters) -> np.ndarray:
    """(n, 2 N_p) fading normals of the int-array pairs (users[i], clusters[i]);
    row i is bitwise ``_stream(seed, _STREAM_GAINS, clusters[i], users[i])
    .standard_normal(2 N_p)``. Every pair's PCG64 outputs are jumps from its
    seed words on uint64 halves, and numpy's ziggurat fast path makes them
    normals; a pair with a draw off it (more words consumed) is drawn by a
    generator set to its state, and a key word of 2^32 or more takes _stream."""
    seed, n_draws = scenario.config.rng_seed, 2 * scenario.config.mpcs_per_cluster
    if max(seed, users.max(initial=0), clusters.max(initial=0)) > _MASK32:
        return np.array([_stream(seed, _STREAM_GAINS, j, k).standard_normal(n_draws)
                         for k, j in zip(users, clusters)]).reshape(-1, n_draws)
    words = _seed_words(seed, clusters, users)
    s_hi, s_lo, q_hi, q_lo = words[:, :, None].transpose(1, 0, 2)
    a_hi, a_lo, b_hi, b_lo = _pcg64_jumps(n_draws)
    p_hi, p_lo = _mul128(s_hi, s_lo, a_hi, a_lo)
    r_hi, r_lo = _mul128(q_hi << 1 | q_lo >> 63, q_lo << 1 | 1, b_hi, b_lo)   # inc = 2 q + 1
    lo = p_lo + r_lo
    hi = p_hi + r_hi + (lo < p_lo)
    # PCG64's XSL-RR output: (hi ^ lo) rotated right by the top six bits
    xored, rot = hi ^ lo, hi >> 58
    w = xored >> rot | xored << (64 - rot & 63)
    wi, thresholds = _ziggurat()
    layer, rabs = w & 0xFF, w >> 9 & 2**52 - 1
    out = rabs * wi[layer]
    np.negative(out, out=out, where=(w & 0x100).astype(bool))
    slow = np.flatnonzero(~np.all(rabs < thresholds[layer], axis=1))
    gen = np.random.Generator(np.random.PCG64(0))
    for row, (s_hi, s_lo, q_hi, q_lo) in zip(slow, words[slow].tolist()):
        # PCG64 setseq_128_srandom: inc = 2 initseq + 1, two LCG steps from 0
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        _set_pcg64(gen, state, inc).standard_normal(out=out[row])
    return out


def _check_selected(scenario: Scenario, selected) -> list[int]:
    """The selected user indices as ints: integers (not bools), nonempty,
    distinct, in range."""
    selected = list(selected)
    if not all(map(_is_integer, selected)):
        raise ConfigurationError(f"selected user indices must be integers, got {selected!r}")
    selected = [int(i) for i in selected]
    if len(selected) == 0:
        raise ConfigurationError("selected user list must be nonempty")
    if len(set(selected)) != len(selected):
        raise ConfigurationError("selected user indices must be distinct")
    for i in selected:
        if not 0 <= i < scenario.num_users:
            raise IndexError(f"user index {i} out of range")
    return selected


def channel_matrix(scenario: Scenario, selected) -> ChannelMatrix:
    """Synthesize the M x K_s channel of the selected users.

    Column k sums, over every cluster, the per-MPC complex gains times the
    array steering vectors at the MPC azimuths. Each gain is circular
    Gaussian with variance f_kj^2 / N_p, f_kj the ``Scenario.channel_gains``
    entry, drawn from the (user, cluster) pair's own stream, so a column
    does not depend on which other users are selected.
    """
    selected = _check_selected(scenario, selected)
    gains = scenario.channel_gains[selected]
    # each (user, cluster) pair's fading comes from the pair's own stream
    (k_s, n_c), n_p = gains.shape, scenario.config.mpcs_per_cluster
    normals = _fading_normals_batch(scenario, np.repeat(selected, n_c),
                                    np.tile(np.arange(n_c), k_s)).reshape(k_s, n_c, 2 * n_p)
    fading = (normals[..., :n_p] + 1j * normals[..., n_p:]) / math.sqrt(2.0 * n_p)
    # one (1, N_C N_p) @ (N_C N_p, M) product per user: a single 2-D product
    # over the set would let BLAS blocking tie a column's last bits to K_s
    h = ((gains[..., None] * fading).reshape(k_s, 1, n_c * n_p)
         @ scenario.steering.reshape(n_c * n_p, -1))[:, 0].T
    if not np.all(np.isfinite(h)):
        raise ConfigurationError("channel matrix contains non-finite entries")
    return ChannelMatrix(entries=h)


def channel_covariances(scenario: Scenario, selected) -> np.ndarray:
    """Exact fading covariances E{h_k h_k^H} of the selected users' columns
    of ``channel_matrix``, shape (K_s, M, M), over the fading draw.

    Each MPC gain has variance f_kj^2 / N_p, so R_k = sum_j f_kj^2 G_j over
    every cluster j, G_j its steering Gram. At a uniform linear array G_j is
    Hermitian Toeplitz, so R_k[a, b] = r_k[a - b], r_k = sum_j f_kj^2 g_j
    with g_j the lags ``Scenario.cluster_lags``.
    """
    selected = _check_selected(scenario, selected)
    m = scenario.config.antenna_count
    # one (1, N_C) @ (N_C, 2M) product per user, so that R_k does not depend
    # on the rest of the set; the lags' real and imaginary parts side by side
    lags = (scenario.channel_gains[selected, None] ** 2
            @ scenario.cluster_lags.view(float))[:, 0].view(complex)
    # R_k[a, b] is entry M - 1 + a - b of [conj(r_k[M-1..1]), r_k[0..M-1]]
    both = np.concatenate([lags[:, :0:-1].conj(), lags], axis=1)
    return both[:, m - 1 + np.arange(m)[:, None] - np.arange(m)]


# ---------------------------------------------------------------------------
# Scenario serialization (YAML: config block, user coordinates, cluster arrays)
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    return {"schema_version": _SCENARIO_SCHEMA_VERSION, **to_plain(scenario)}


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario ``data`` holds, with a valid config, the shapes it sets,
    finite coordinates, positive shadow gains and users where
    ``generate_scenario`` places them."""
    derived = "bs_position and delays are gone: they follow from the config and the cluster arrays"
    scenario = from_versioned(Scenario, data, "scenario", _SCENARIO_SCHEMA_VERSION, {
        1: " (version 3 holds the clusters as the arrays cluster_positions, vr_centers"
           " and shadow_gains, row j being cluster j's position, vr_center and"
           f" shadow_gain; {derived})",
        2: f" ({derived})"})
    cfg = scenario.config
    cfg.validate()
    n_c = cfg.num_clusters
    for name, wanted in [("users", (cfg.num_users, 3)), ("cluster_positions", (n_c, 3)),
                         ("vr_centers", (n_c, 2)), ("shadow_gains", (n_c,))]:
        value, positive = getattr(scenario, name), name == "shadow_gains"
        if value.shape != wanted:
            raise ConfigurationError(
                f"scenario {name} must have shape {wanted}, got {value.shape}")
        if not np.all(np.isfinite(value) & (value > 0 if positive else True)):
            raise ConfigurationError(f"scenario {name} must be finite"
                                     + (" and positive" if positive else ""))
    users, r_min = scenario.users, cfg.bs_exclusion_fraction * cfg.cell_half_side
    if np.any(np.abs(users[:, :2]) > cfg.cell_half_side) or np.any(users[:, 2] != cfg.ms_height):
        raise ConfigurationError("scenario users must lie in the cell: |x|, |y| <= "
                                 "cell_half_side and z = ms_height")
    if not all(math.hypot(x, y) >= r_min for x, y, _ in users.tolist()):
        raise ConfigurationError("scenario users must lie outside the BS exclusion disk: "
                                 "hypot(x, y) >= bs_exclusion_fraction * cell_half_side")
    return scenario


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_yaml(path, "scenario"))
