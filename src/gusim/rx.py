"""Uplink reception: MMSE channel estimation, zero-forcing weights,
sum-rate and ergodic capacity, and thermal noise power."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RankDeficiencyError

BOLTZMANN = 1.381e-23

_ZF_RTOL = 1e-9


@dataclass(frozen=True)
class PilotConfig:
    """Uplink training configuration: pilot matrix (K_s x tau_p) and the
    receiver noise variance in watts."""

    matrix: np.ndarray
    noise_variance: float

    @property
    def pilot_length(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_users(self) -> int:
        return self.matrix.shape[0]


def unitary_pilots(num_users: int, pilot_length: int | None = None) -> np.ndarray:
    """Default pilot book: DFT rows of unit-modulus symbols, mutually
    orthogonal with squared norm tau_p."""
    tau_p = num_users if pilot_length is None else pilot_length
    if tau_p < num_users:
        raise ConfigurationError("pilot_length must be >= num_users for orthogonality")
    k = np.arange(num_users)[:, None]
    t = np.arange(tau_p)[None, :]
    return np.exp(-2j * math.pi * k * t / tau_p)


@dataclass(frozen=True)
class PowerConfig:
    """Equal-split uplink power: each of the K_s users transmits P/K_s."""

    total_power: float
    num_users: int
    noise_power: float

    def __post_init__(self):
        if self.total_power < 0:
            raise ConfigurationError("total_power must be nonnegative")
        if self.num_users < 1:
            raise ConfigurationError("num_users must be >= 1")
        if self.noise_power <= 0:
            raise ConfigurationError("noise_power must be positive")

    @property
    def per_user(self) -> float:
        return self.total_power / self.num_users


@dataclass(frozen=True)
class ZfReceiver:
    """Zero-forcing weights; rows are per-user combining vectors."""

    weights: np.ndarray  # (K_s, M)


def noise_power(bandwidth: float, temperature: float = 290.0,
                noise_figure_db: float = 9.0) -> float:
    """Thermal noise power BW * k_B * T0 * noise factor, in watts."""
    if bandwidth <= 0 or temperature <= 0:
        raise ConfigurationError("bandwidth and temperature must be positive")
    return bandwidth * BOLTZMANN * temperature * 10.0 ** (noise_figure_db / 10.0)


def channel_covariance(samples) -> np.ndarray:
    """Sample covariance E{h h^H} from vectorized channel realizations."""
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


def mmse_estimate(received: np.ndarray, pilot: PilotConfig,
                  covariance: np.ndarray) -> np.ndarray:
    """Bayesian MMSE estimate of the vectorized channel from received
    pilots ``received`` (M x tau_p).

    Uses h_hat = R Phi~^H (Phi~ R Phi~^H + sigma_n^2 I)^{-1} y~ with
    Phi~ = Phi^T (x) I_M and y~ = vec(received).
    """
    received = np.asarray(received)
    m, tau_p = received.shape
    if tau_p != pilot.pilot_length:
        raise ConfigurationError("received pilot block width must equal pilot_length")
    if covariance.shape != (m * pilot.num_users,) * 2:
        raise ConfigurationError(
            f"covariance must be {m * pilot.num_users} x {m * pilot.num_users}"
        )
    phi_tilde = np.kron(pilot.matrix.T, np.eye(m))
    y = received.reshape(-1, order="F")
    inner = phi_tilde @ covariance @ phi_tilde.conj().T
    inner = inner + pilot.noise_variance * np.eye(inner.shape[0])
    try:
        sol = np.linalg.solve(inner, y)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"MMSE inner matrix is singular (sigma_n^2={pilot.noise_variance}): {exc}"
        ) from exc
    return covariance @ phi_tilde.conj().T @ sol


def mmse_estimate_per_user(received: np.ndarray, pilot: PilotConfig,
                           covariances: np.ndarray) -> np.ndarray:
    """MMSE estimate (M x K_s) of the channel of users with mutually
    orthogonal pilots and independent channels of covariances R_k
    (K_s x M x M).

    Projecting the received block onto pilot phi_k gives
    z_k = Y phi_k^H / ||phi_k||^2 = h_k + n_k with n_k ~ CN(0, s_k I),
    s_k = sigma_n^2 / ||phi_k||^2, so h_hat_k = R_k (R_k + s_k I)^{-1} z_k.
    This equals ``mmse_estimate`` with the block-diagonal covariance.
    """
    received = np.asarray(received)
    m, tau_p = received.shape
    k_s = pilot.num_users
    if tau_p != pilot.pilot_length:
        raise ConfigurationError("received pilot block width must equal pilot_length")
    if covariances.shape != (k_s, m, m):
        raise ConfigurationError(f"covariances must be {k_s} x {m} x {m}")
    gram = pilot.matrix @ pilot.matrix.conj().T
    energy = gram.diagonal().real
    if not np.all(energy > 0):
        raise ConfigurationError("every pilot must have positive energy")
    if not np.allclose(gram, np.diag(energy), rtol=0.0, atol=1e-9 * energy.max()):
        raise ConfigurationError("per-user MMSE needs mutually orthogonal pilots")
    z = (received @ pilot.matrix.conj().T / energy).T[:, :, None]   # (K_s, M, 1)
    inner = covariances + (pilot.noise_variance / energy)[:, None, None] * np.eye(m)
    try:
        sol = np.linalg.solve(inner, z)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"MMSE inner matrix is singular (sigma_n^2={pilot.noise_variance}): {exc}"
        ) from exc
    return (covariances @ sol)[:, :, 0].T


def zf_weights(h: np.ndarray, cond_limit: float = 1e12) -> ZfReceiver:
    """Pseudo-inverse receiver W = (H^H H)^{-1} H^H with a conditioning
    guard; requires M >= K_s and full column rank."""
    h = np.asarray(h)
    m, k_s = h.shape
    if m < k_s:
        raise ConfigurationError(f"need at least as many antennas ({m}) as users ({k_s})")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    if s[-1] == 0 or s[0] / s[-1] > cond_limit:
        cond = math.inf if s[-1] == 0 else s[0] / s[-1]
        raise RankDeficiencyError(
            f"channel matrix is numerically rank deficient (condition number {cond:.3e})"
        )
    w = (vh.conj().T / s) @ u.conj().T
    return ZfReceiver(weights=w)


def sum_rate(h: np.ndarray, receiver: ZfReceiver, power: PowerConfig,
             mode: str = "physical") -> float:
    """Achievable uplink sum-rate in bits/s/Hz.

    ``physical`` puts amplified thermal noise P_n ||w_k||^2 plus residual
    interference in the SINR denominator; ``paper-literal`` uses
    1 + interference with no noise amplification term.
    """
    h = np.asarray(h)
    w = receiver.weights
    k_s = h.shape[1]
    if w.shape != (k_s, h.shape[0]):
        raise ConfigurationError("receiver shape does not match channel")
    if mode not in ("physical", "paper-literal"):
        raise ConfigurationError(f"unknown sum-rate mode {mode!r}")
    p_k = power.per_user
    g = w @ h  # (K_s, K_s); entry [k, i] = w_k h_i
    total = 0.0
    for k in range(k_s):
        signal = p_k * abs(g[k, k]) ** 2
        interference = p_k * (np.sum(np.abs(g[k]) ** 2) - abs(g[k, k]) ** 2)
        if mode == "physical":
            denom = power.noise_power * float(np.sum(np.abs(w[k]) ** 2)) + interference
        else:
            denom = 1.0 + interference
        total += math.log2(1.0 + signal / denom)
    return total


def ergodic_capacity(h_samples, power: PowerConfig) -> float:
    """Sample-mean of log2 det(I + (P/K_s) H H^H / P_n) over channel
    realizations, in bits/s/Hz."""
    mats = [np.asarray(getattr(h, "entries", h)) for h in h_samples]
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
