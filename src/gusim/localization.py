"""Cluster localization accuracy: closed-form estimation variance bounds
for delay/azimuth/elevation, the sounder antenna field pattern, inversion
of the single-bounce ellipse geometry, and injection of bound-scaled
localization errors to rebuild the user-cluster matrix the scheduler sees.

Angle conventions: the ellipse inversion takes the elevation of the
BS-to-cluster ray (its sine lifts the ray out of the horizontal plane) and
its azimuth from the horizontal direction to the path's far end, which lies
``d_bs_ms`` away: in ``perturb_and_rebuild_omegas`` the cluster's VR centre,
as in ``Scenario.delays``. The variance bounds label azimuth phi, elevation theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gscm
from .errors import ConfigurationError, GeometryError
from .gscm import SPEED_OF_LIGHT, Scenario
from .plain import _is_integer, check_fields, checked


@dataclass(frozen=True)
class CrlbParams:
    """Sounder parameters entering the estimation variance bounds."""

    num_antennas: int = checked(64, "positive")
    sensors_per_axis: int = checked(5, "positive")
    signal_periods: int = checked(1, "positive")
    pn_length: int = checked(127, "positive")
    input_snr: float = checked(100.0, "positive")   # linear
    bandwidth: float = checked(20e6, "positive")   # Hz
    d_over_lambda: float = checked(0.5, "positive")

    validate = __post_init__ = check_fields   # no rule spans two fields


@dataclass(frozen=True)
class PerturbedGeometry:
    """Rebuilt geometry after localization-error injection, with one entry
    per omega along each array's leading axis. The error matrix the
    scheduler suffers at entry i is ``scenario.v - v_tilde[i]``."""

    v_tilde: np.ndarray             # (n_omega, K, N_C) rebuilt V
    perturbations: np.ndarray       # (n_omega, 3, N_C) signed delay, elevation, azimuth steps
    cluster_positions: np.ndarray   # (n_omega, N_C, 3) rebuilt positions
    fallbacks: np.ndarray           # (n_omega, N_C) bool: kept unperturbed (infeasible geometry)


def field_pattern(phi):
    """Sounder antenna electric field pattern, a cubic in the azimuth.

    The published polynomial carries two cubic terms, 5.7 phi^3 and
    -1.71 phi^3; they are summed into the net coefficient 3.99. ``crlb``
    takes the global azimuth over (-pi, pi], where the cubic crosses zero
    near -0.17 rad: at the default ``CrlbParams`` omega = 1 moves a range by
    c sqrt(CRLB_tau), 0.66 m at the median, 0.042 m to 14.2 km (seeds 1-200).
    """
    return 0.67 + 2.67 * phi - 6.79 * phi**2 + 3.99 * phi**3


def array_angle_factor(sensors_per_axis: int, d_over_lambda: float) -> float:
    """Geometric factor 4 pi^2 (d/lambda)^2 (7/3 Mx^3 - 8 Mx^2 + 29/3 Mx - 4)
    entering both angle bounds; zero for a single sensor per axis."""
    mx = sensors_per_axis
    poly = (7.0 / 3.0) * mx**3 - 8.0 * mx**2 + (29.0 / 3.0) * mx - 4.0
    return 4.0 * math.pi**2 * d_over_lambda**2 * poly


def crlb_delay(gamma_o, bandwidth: float):
    """Delay estimation variance bound 1 / (gamma_o * 8 pi^2 * BW)."""
    if np.any(gamma_o <= 0) or bandwidth <= 0:
        raise ConfigurationError("gamma_o and bandwidth must be positive")
    return 1.0 / (gamma_o * 8.0 * math.pi**2 * bandwidth)


# crlb's elevation bound is singular where |cos theta| falls below this
_SINGULAR_COS = 1e-12


def _singular_elevation(params: CrlbParams, theta) -> np.ndarray:
    """Where ``crlb``'s elevation bound is singular: |cos theta| below
    ``_SINGULAR_COS`` with more than one sensor per axis (a single sensor
    gives infinite angle bounds at any elevation)."""
    delta = array_angle_factor(params.sensors_per_axis, params.d_over_lambda)
    return (np.abs(np.cos(theta)) < _SINGULAR_COS) & (delta != 0.0)


def crlb(params: CrlbParams, phi, theta) -> tuple:
    """(delay, elevation, azimuth) estimation variance bounds for paths
    arriving at azimuth ``phi`` and elevation ``theta``, which broadcast
    together; each bound has their broadcast shape.

    The output SNR is M * I * N_c * |f(phi)|^2 * input SNR. The angle
    bounds are infinite for a single sensor per axis, at any elevation;
    otherwise every elevation must have |theta| < pi/2.
    """
    phi, theta = np.broadcast_arrays(phi, theta)
    f = field_pattern(phi)
    gamma_o = params.num_antennas * params.signal_periods * params.pn_length \
        * f * f * params.input_snr
    bound_tau = crlb_delay(gamma_o, params.bandwidth)
    delta = array_angle_factor(params.sensors_per_axis, params.d_over_lambda)
    if delta == 0.0:
        return bound_tau, *np.full((2, *phi.shape), math.inf)
    if np.any(_singular_elevation(params, theta)):
        raise GeometryError("elevation bound is singular at theta = pi/2")
    cos_t = np.cos(theta)
    if np.any(cos_t < 0):
        raise GeometryError("elevation bound requires |theta| < pi/2")
    bound_phi = params.num_antennas / (gamma_o * 2.0 * delta)
    bound_theta = params.num_antennas / (gamma_o * 2.0 * delta * cos_t)
    return bound_tau, bound_theta, bound_phi


# why the ellipse inversion fails, in the order it checks; failure code i + 1
_ELLIPSE_FAILURES = (
    "total path length c0*tau must be positive",
    "total path length shorter than the direct BS-MS path: ellipse is empty",
    "degenerate geometry: no finite bounce distance",
    "no real bounce distance for these angles",
    "no admissible bounce distance in (0, c0*tau)",
)


def _ellipse_distance(r, se, ce, ca, dh, d_bs_ms, direct, alternate_root=False):
    """``solve_cluster_distance`` on broadcast arrays: the path length
    r = c0 tau, sin and cos of the elevation, cos of the azimuth and the
    direct BS-MS length ``direct``. Returns the BS-to-cluster distances (NaN
    where unsolved) and the failure codes, 0 where solved, else 1 + the index
    in ``_ELLIPSE_FAILURES`` of the first check that fails."""
    with np.errstate(all="ignore"):   # an overflow or a branch not taken fails below
        a = 1.0 - se * se - ce * ce * ca * ca
        b = -2.0 * r - 2.0 * dh * se + 2.0 * d_bs_ms * ce * ca
        c = r * r - dh * dh - d_bs_ms * d_bs_ms
        linear = np.abs(a) < 1e-12
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(disc)
        lo = np.where(linear, -c / b, (-b - sq) / (2.0 * a))
        hi = np.where(linear, lo, (-b + sq) / (2.0 * a))
    ok_lo, ok_hi = (0.0 < lo) & (lo < r), (0.0 < hi) & (hi < r)
    both = (np.maximum if alternate_root else np.minimum)(lo, hi)
    failure = np.select([r <= 0, r < direct, linear & (np.abs(b) < 1e-12),
                         ~linear & (disc < 0), ~(ok_lo | ok_hi)], [1, 2, 3, 4, 5], 0)
    d = np.where(ok_lo & ok_hi, both, np.where(ok_lo, lo, hi))
    return np.where(failure == 0, d, np.nan), failure


def solve_cluster_distance(tau: float, elevation: float, azimuth: float,
                           h_bs: float, h_ms: float, d_bs_ms: float,
                           alternate_root: bool = False) -> tuple[float, float]:
    """Invert the single-bounce ellipse for the BS-to-cluster distance.

    Solves (c0 tau - d)^2 = (h_bs - h_ms + d sin el)^2
                          + (d_bs_ms - d cos el cos az)^2
    for d, returning (d_bs_c, d_ms_c) with d_ms_c = c0 tau - d_bs_c.
    Of multiple admissible roots in (0, c0 tau) the smallest is taken;
    ``alternate_root`` selects the largest instead.
    """
    r, dh = SPEED_OF_LIGHT * tau, h_bs - h_ms
    d_bs_c, failure = _ellipse_distance(
        r, math.sin(elevation), math.cos(elevation), math.cos(azimuth), dh, d_bs_ms,
        math.hypot(dh, d_bs_ms), alternate_root)
    if failure:
        raise GeometryError(_ELLIPSE_FAILURES[failure - 1])
    return float(d_bs_c), r - float(d_bs_c)


def perturb_and_rebuild_omegas(scenario: Scenario, omegas,
                               params: CrlbParams) -> PerturbedGeometry:
    """Perturb each cluster's measured delay/elevation/azimuth by
    +- omega * sqrt(variance bound) with seeded equiprobable signs and
    rebuild the cluster geometry and the V the scheduler will use, for each
    omega in ``omegas``: entry i of every array is omegas[i]'s, bitwise as
    alone.

    ``omega == 0`` is an exact no-op: its ``v_tilde`` is ``scenario.v``. A
    cluster with no admissible bounce distance, or whose elevation bound is
    singular (no perturbation, ``crlb`` not asked), keeps its true geometry
    and V column and is marked in ``fallbacks``. The perturbations and the
    ellipse inversion run on (omega, cluster) arrays; the rest does not
    depend on omega.
    """
    omegas = tuple(omegas)
    if not omegas or not all(_is_integer(o) and o >= 0 for o in omegas):
        raise ConfigurationError(f"omegas must be nonempty nonnegative integers, got {omegas!r}")
    n_w, n_c = len(omegas), scenario.num_clusters
    positions, vr_centers = scenario.cluster_positions, scenario.vr_centers
    steps = np.zeros((n_w, 3, n_c))   # delay, elevation, azimuth perturbations
    new_positions, v_tilde = (np.repeat(a[None], n_w, axis=0) for a in (positions, scenario.v))
    fallbacks = np.zeros((n_w, n_c), dtype=bool)
    scale = np.array(omegas, dtype=float)
    live = scale > 0
    if live.any():
        cfg, bs = scenario.config, scenario.bs_position
        signs = scenario.stream("perturb").choice([-1.0, 1.0], size=(n_c, 3)).T
        _, el_true, az_true = scenario.observables
        singular = _singular_elevation(params, el_true)
        bounds = np.array(crlb(params, az_true, np.where(singular, 0.0, el_true)))
        # the angle bounds are infinite for a single sensor per axis
        steps[live] = np.where(np.isfinite(bounds) & ~singular,
                               signs * scale[live, None, None] * np.sqrt(bounds), 0.0)
        tau, el, az = scenario.observables[:, None] + steps[live].transpose(1, 0, 2)

        # the ellipse is anchored at the VR centre, which moves with the cluster
        x, y = (vr_centers - bs[:2]).T
        d_bs_vr, dh = np.hypot(x, y), cfg.bs_height - cfg.ms_height
        se, ce = np.sin(el), np.cos(el)
        d_bs_c, failure = _ellipse_distance(
            SPEED_OF_LIGHT * tau, se, ce, np.cos(az - np.arctan2(y, x)), dh,
            d_bs_vr, np.hypot(dh, d_bs_vr))
        rebuilt = bs + d_bs_c[..., None] * np.stack(
            [ce * np.cos(az), ce * np.sin(az), se], axis=-1)
        # a nonpositive perturbed delay fails the first check; a cluster with
        # no admissible bounce distance or a singular elevation bound keeps its
        # true geometry, and the study continues with the rest perturbed
        failed = (failure > 0) | singular
        fallbacks[live] = failed
        new_positions[live] = np.where(failed[..., None], positions, rebuilt)
        new_vr_centers = np.where(
            failed[..., None], vr_centers, vr_centers + (rebuilt[..., :2] - positions[:, :2]))
        # one gain-kernel call for every omega > 0; omega = 0 keeps the true V
        gains = gscm.large_scale_gains(scenario, new_vr_centers.reshape(-1, 2),
                                       np.where(failed, scenario.delays, tau).reshape(-1))
        v_tilde[live] = gains.reshape(-1, len(tau), n_c).transpose(1, 0, 2)
    return PerturbedGeometry(v_tilde, steps, new_positions, fallbacks)
