"""Uplink reception: MMSE channel estimation, zero-forcing weights,
sum-rate and thermal noise power."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RankDeficiencyError
from .plain import _is_finite, _is_integer

BOLTZMANN = 1.381e-23

# zero-forcing refuses a channel whose condition number exceeds this
ZF_COND_LIMIT = 1e12


def unitary_pilots(num_users: int, pilot_length: int | None = None) -> np.ndarray:
    """Default pilot book: DFT rows of unit-modulus symbols, mutually
    orthogonal with squared norm tau_p; both counts are integers, not bools."""
    tau_p = num_users if pilot_length is None else pilot_length
    if not (_is_integer(num_users) and _is_integer(tau_p) and 1 <= num_users <= tau_p):
        raise ConfigurationError(f"pilot counts must be integers with 1 <= num_users <= "
                                 f"pilot_length, got {num_users!r} and {pilot_length!r}")
    k = np.arange(num_users)[:, None]
    t = np.arange(tau_p)[None, :]
    return np.exp(-2j * math.pi * k * t / tau_p)


@dataclass(frozen=True)
class PowerConfig:
    """Equal-split uplink power: each of the K_s users transmits P/K_s. P is
    finite and nonnegative, K_s an integer (not a bool), P_n finite and positive."""

    total_power: float
    num_users: int
    noise_power: float

    def __post_init__(self):
        if not (_is_finite(self.total_power) and self.total_power >= 0):
            raise ConfigurationError(f"need a finite total_power >= 0, got {self.total_power!r}")
        if not (_is_integer(self.num_users) and self.num_users >= 1):
            raise ConfigurationError(f"need an integer num_users >= 1, got {self.num_users!r}")
        if not (_is_finite(self.noise_power) and self.noise_power > 0):
            raise ConfigurationError(f"need a finite noise_power > 0, got {self.noise_power!r}")

    @property
    def per_user(self) -> float:
        return self.total_power / self.num_users


def noise_power(bandwidth: float, temperature: float = 290.0,
                noise_figure_db: float = 9.0) -> float:
    """Thermal noise power BW * k_B * T0 * noise factor, in watts. Raises
    ``ConfigurationError`` unless the inputs give a finite positive power."""
    # a non-number raises TypeError, a huge noise figure OverflowError
    with suppress(OverflowError, TypeError):
        power = bandwidth * BOLTZMANN * temperature * 10.0 ** (noise_figure_db / 10.0)
        if bandwidth > 0 and temperature > 0 and 0 < power < math.inf:
            return power
    raise ConfigurationError(
        f"noise power must be finite and positive; bandwidth={bandwidth!r}, "
        f"temperature={temperature!r}, noise_figure_db={noise_figure_db!r}")


def mmse_estimate_per_user(received: np.ndarray, pilots: np.ndarray,
                           noise_variance: float, covariances: np.ndarray) -> np.ndarray:
    """MMSE estimate (M x K_s) of the channel of users with mutually
    orthogonal pilots (K_s x tau_p), receiver noise variance sigma_n^2 in
    watts and independent channels of covariances R_k (K_s x M x M).

    Projecting the received block onto pilot phi_k gives
    z_k = Y phi_k^H / ||phi_k||^2 = h_k + n_k with n_k ~ CN(0, s_k I),
    s_k = sigma_n^2 / ||phi_k||^2, so h_hat_k = R_k (R_k + s_k I)^{-1} z_k.
    This equals the dense Kronecker-form MMSE estimate with the
    block-diagonal covariance.
    """
    received = np.asarray(received)
    m, tau_p = received.shape
    k_s = pilots.shape[0]
    if tau_p != pilots.shape[1]:
        raise ConfigurationError("received pilot block width must equal the pilot length")
    if covariances.shape != (k_s, m, m):
        raise ConfigurationError(f"covariances must be {k_s} x {m} x {m}")
    gram = pilots @ pilots.conj().T
    energy = gram.diagonal().real
    if not np.all(energy > 0):
        raise ConfigurationError("every pilot must have positive energy")
    if not np.allclose(gram, np.diag(energy), rtol=0.0, atol=1e-9 * energy.max()):
        raise ConfigurationError("per-user MMSE needs mutually orthogonal pilots")
    z = (received @ pilots.conj().T / energy).T[:, :, None]   # (K_s, M, 1)
    inner = covariances.astype(np.result_type(covariances, float))   # R_k + s_k I
    inner.reshape(k_s, -1)[:, ::m + 1] += (noise_variance / energy)[:, None]
    try:
        sol = np.linalg.solve(inner, z)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"MMSE inner matrix is singular "
                                  f"(sigma_n^2={noise_variance}): {exc}") from exc
    return (covariances @ sol)[:, :, 0].T


def zf_weights(h: np.ndarray):
    """Pseudo-inverse weights W = (H^H H)^{-1} H^H, shape (K_s, M), a row
    per user; requires M >= K_s and a condition number of at most
    ``ZF_COND_LIMIT``. An (n, M, K_s) stack gives a tuple of weight arrays
    from one stacked SVD, None where the entry is rank deficient; one H
    raises ``RankDeficiencyError`` instead."""
    h = np.asarray(h)
    m, k_s = h.shape[-2:]
    if m < k_s:
        raise ConfigurationError(f"need at least as many antennas ({m}) as users ({k_s})")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    cond = np.divide(s[..., 0], s[..., -1], out=np.full(s.shape[:-1], math.inf),
                     where=s[..., -1] > 0)
    if h.ndim == 2 and cond > ZF_COND_LIMIT:
        raise RankDeficiencyError(f"channel matrix is numerically rank deficient "
                                  f"(condition number {cond:.3e})")
    s[cond > ZF_COND_LIMIT] = 1.0   # their weights are dropped; no division by zero
    w = (vh.conj().swapaxes(-1, -2) / s[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return w if h.ndim == 2 else tuple(
        None if c > ZF_COND_LIMIT else w_e for c, w_e in zip(cond, w))


def sum_rate(h: np.ndarray, w: np.ndarray, power, mode: str = "physical"):
    """Achievable uplink sum-rate in bits/s/Hz.

    ``physical`` puts amplified thermal noise P_n ||w_k||^2 plus residual
    interference in the SINR denominator; ``paper-literal`` uses
    1 + interference with no noise amplification term. ``w`` holds the
    (K_s, M) combining weights, a row per user. A sequence of P powers
    gives P rates from one |W H|^2 product, with one ``w`` for all or a
    (P, K_s, M) stack of weights, one per power; each rate is bitwise its
    one-power call. Every power's ``num_users`` must be K_s.
    """
    h, w = np.asarray(h), np.asarray(w)
    powers = [power] if isinstance(power, PowerConfig) else list(power)
    k_s = h.shape[1]
    if w.shape[-2:] != (k_s, h.shape[0]) or w.ndim == 3 and len(w) != len(powers):
        raise ConfigurationError("receiver shape does not match channel")
    if any(p.num_users != k_s for p in powers):
        raise ConfigurationError(f"every power must split over the channel's {k_s} users")
    if mode not in ("physical", "paper-literal"):
        raise ConfigurationError(f"unknown sum-rate mode {mode!r}")
    p_k = np.array([p.per_user for p in powers])[:, None]
    g2 = np.abs(w @ h) ** 2  # (..., K_s, K_s); entry [k, i] = |w_k h_i|^2
    own = g2.diagonal(axis1=-2, axis2=-1)
    interference = p_k * (g2.sum(axis=-1) - own)
    noise = np.array([[p.noise_power] for p in powers]) * np.sum(np.abs(w) ** 2, axis=-1) \
        if mode == "physical" else 1.0
    rates = np.sum(np.log2(1.0 + p_k * own / (noise + interference)), axis=-1)
    return float(rates[0]) if isinstance(power, PowerConfig) else rates
