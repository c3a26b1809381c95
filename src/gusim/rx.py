"""Uplink reception: MMSE channel estimation, zero-forcing weights,
sum-rate and thermal noise power."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RankDeficiencyError
from .plain import _is_finite, check_count

BOLTZMANN = 1.381e-23

# zero-forcing refuses a channel whose condition number exceeds this
ZF_COND_LIMIT = 1e12
SUM_RATE_MODES = ("physical", "paper-literal")   # the SINR conventions of sum_rate


def unitary_pilots(num_users: int, pilot_length: int | None = None) -> np.ndarray:
    """Default pilot book: DFT rows of unit-modulus symbols, mutually
    orthogonal with squared norm tau_p; both counts are integers, not bools."""
    if pilot_length is not None:
        check_count("pilot_length", pilot_length)
    tau_p = num_users if pilot_length is None else pilot_length
    check_count("num_users", num_users, tau_p)
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
        check_count("num_users", self.num_users)
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
    orthogonal pilots (K_s x tau_p), receiver noise variance sigma_n^2 >= 0
    in watts and independent channels of covariances R_k (K_s x M x M).

    Projecting the received block onto pilot phi_k gives
    z_k = Y phi_k^H / ||phi_k||^2 = h_k + n_k with n_k ~ CN(0, s_k I),
    s_k = sigma_n^2 / ||phi_k||^2, so h_hat_k = R_k (R_k + s_k I)^{-1} z_k.
    This equals the dense Kronecker-form MMSE estimate with the
    block-diagonal covariance.
    """
    received = np.asarray(received)
    if not (isinstance(pilots, np.ndarray) and isinstance(covariances, np.ndarray)
            and received.ndim == pilots.ndim == 2 and received.shape[1] == pilots.shape[1]
            and covariances.shape == (len(pilots), len(received), len(received))):
        raise ConfigurationError("need arrays: a received block M x tau_p, pilots "
                                 "K_s x tau_p and covariances K_s x M x M")
    if not (_is_finite(noise_variance) and noise_variance >= 0):
        raise ConfigurationError(f"need a finite noise_variance >= 0, got {noise_variance!r}")
    gram = pilots @ pilots.conj().T
    energy = gram.diagonal().real
    if not np.all(energy > 0):
        raise ConfigurationError("every pilot must have positive energy")
    if not np.allclose(gram, np.diag(energy), rtol=0.0, atol=1e-9 * energy.max()):
        raise ConfigurationError("per-user MMSE needs mutually orthogonal pilots")
    z = (received @ pilots.conj().T / energy).T[:, :, None]   # (K_s, M, 1)
    inner = covariances.astype(np.result_type(covariances, float))   # the caller's stay
    estimate = _mmse_filter(inner, noise_variance / energy, z)[:, :, 0].T
    if not np.isfinite(estimate).all():
        raise RankDeficiencyError(f"MMSE inner matrix is singular or an input is not finite "
                                  f"(sigma_n^2={noise_variance})")
    return estimate


def _mmse_filter(covariances: np.ndarray, noise, z: np.ndarray):
    """R_k (R_k + s_k I)^{-1} z_k for covariances R_k (K x M x M), noise terms s_k
    and right-hand sides z_k (K x M x r), from one stacked solve on R_k + s_k I built
    in place and then restored; NaN for each k whose R_k + s_k I is singular."""
    diagonal = np.einsum("kii->ki", covariances)   # a view
    saved = diagonal.copy()
    diagonal += np.reshape(noise, (-1, 1))
    try:
        sol = np.linalg.solve(covariances, z)
    except np.linalg.LinAlgError:   # one by one: a singular system's solution stays NaN
        sol = np.full(z.shape, np.nan, dtype=np.result_type(covariances, z))
        for k in range(len(z)):
            with suppress(np.linalg.LinAlgError):
                sol[k] = np.linalg.solve(covariances[k], z[k])
    finally:
        diagonal[...] = saved
    return covariances @ sol


def zf_refused(factor: np.ndarray, compute_uv: bool = False):
    """Zero-forcing's one acceptance test, for the receiver and for GWC: a
    factor (a matrix, or an (n, a, b) stack of them) is refused where it is
    not finite, where its smallest singular value is 0, or where its
    condition number s_max / s_min exceeds ``ZF_COND_LIMIT``. Returns the
    refused mask, the condition numbers (inf where refused for the first two
    reasons) and the SVD: the singular values, or (U, s, V^H) with
    ``compute_uv``, taken of zeros in place of a factor that is not finite."""
    factor = np.asarray(factor)
    finite = np.isfinite(factor).all(axis=(-2, -1))
    if not finite.all():   # LAPACK's SVD does not converge on it
        factor = np.where(finite[..., None, None], factor, 0.0)
    svd = np.linalg.svd(factor, full_matrices=False, compute_uv=compute_uv)
    s = svd[1] if compute_uv else svd
    cond = np.divide(s[..., 0], s[..., -1], out=np.full(s.shape[:-1], math.inf),
                     where=s[..., -1] > 0)
    return cond > ZF_COND_LIMIT, cond, svd


def zf_weights(h: np.ndarray):
    """Pseudo-inverse weights W = (H^H H)^{-1} H^H, shape (K_s, M), a row
    per user; requires M >= K_s and a channel that ``zf_refused`` accepts.
    An (n, M, K_s) stack gives a tuple of weight arrays from one stacked
    SVD, None where the entry is refused; one H raises
    ``RankDeficiencyError`` instead."""
    h = np.asarray(h)
    m, k_s = h.shape[-2:]
    if m < k_s:
        raise ConfigurationError(f"need at least as many antennas ({m}) as users ({k_s})")
    refused, cond, (u, s, vh) = zf_refused(h, compute_uv=True)
    if h.ndim == 2 and refused:
        raise RankDeficiencyError(f"channel matrix is numerically rank deficient "
                                  f"(condition number {cond:.3e})")
    s[refused] = 1.0   # their weights are dropped; no division by zero
    w = (vh.conj().swapaxes(-1, -2) / s[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return w if h.ndim == 2 else tuple(None if r else w_e for r, w_e in zip(refused, w))


def sum_rate(h: np.ndarray, w: np.ndarray, power, mode: str = "physical"):
    """Achievable uplink sum-rate in bits/s/Hz.

    ``physical`` puts amplified thermal noise P_n ||w_k||^2 plus residual
    interference in the SINR denominator; ``paper-literal`` uses
    1 + interference with no noise amplification term. ``w`` holds the
    (K_s, M) combining weights, a row per user. P powers give P rates from
    one |W H|^2 product, and an (n, M, K_s) channel stack with its (n, K_s, M)
    weights gives (n, P) rates; each is bitwise its one-set, one-power call.
    Every power's ``num_users`` must be K_s.
    """
    h, w = np.asarray(h), np.asarray(w)
    powers = [power] if isinstance(power, PowerConfig) else list(power)
    k_s = h.shape[-1]
    if w.shape != (*h.shape[:-2], k_s, h.shape[-2]):
        raise ConfigurationError("receiver shape does not match channel")
    if not powers or any(p.num_users != k_s for p in powers):
        raise ConfigurationError(f"need powers, each split over the channel's {k_s} users")
    if mode not in SUM_RATE_MODES:
        raise ConfigurationError(f"unknown sum-rate mode {mode!r}")
    p_k = np.array([p.per_user for p in powers])[:, None]
    g2 = np.abs(w @ h) ** 2  # (..., K_s, K_s); entry [k, i] = |w_k h_i|^2
    own = g2.diagonal(axis1=-2, axis2=-1)[..., None, :]   # (..., 1, K_s) against P powers
    interference = p_k * (g2.sum(axis=-1)[..., None, :] - own)
    noise = np.array([[p.noise_power] for p in powers]) * np.sum(
        np.abs(w) ** 2, axis=-1)[..., None, :] if mode == "physical" else 1.0
    rates = np.sum(np.log2(1.0 + p_k * own / (noise + interference)), axis=-1)
    return float(rates[0]) if isinstance(power, PowerConfig) and h.ndim == 2 else rates
