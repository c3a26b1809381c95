"""Cluster localization accuracy: closed-form estimation variance bounds
for delay/azimuth/elevation, the sounder antenna field pattern, inversion
of the single-bounce ellipse geometry, and injection of bound-scaled
localization errors to rebuild the user-cluster matrix the scheduler sees.

Angle conventions: the ellipse inversion takes the elevation of the
BS-to-cluster ray (the angle whose sine lifts the ray out of the
horizontal plane) and the azimuth of that ray measured from the BS-to-user
horizontal direction. The variance-bound formulas label azimuth phi and
elevation theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gscm
from .errors import ConfigurationError, GeometryError
from .gscm import SPEED_OF_LIGHT, Scenario


@dataclass(frozen=True)
class CrlbParams:
    """Sounder parameters entering the estimation variance bounds."""

    num_antennas: int = 64
    sensors_per_axis: int = 5
    signal_periods: int = 1
    pn_length: int = 127
    input_snr: float = 100.0     # linear
    bandwidth: float = 20e6      # Hz
    d_over_lambda: float = 0.5

    def validate(self) -> None:
        if min(self.num_antennas, self.sensors_per_axis, self.signal_periods,
               self.pn_length) < 1:
            raise ConfigurationError("all counts must be positive")
        if self.input_snr <= 0 or self.bandwidth <= 0 or self.d_over_lambda <= 0:
            raise ConfigurationError("input_snr, bandwidth, d_over_lambda must be positive")


@dataclass(frozen=True)
class LocalizationError:
    """Per-cluster signed perturbations, each of magnitude
    omega * sqrt(bound)."""

    omega: int
    delay: np.ndarray       # (N_C,) seconds
    elevation: np.ndarray   # (N_C,) radians
    azimuth: np.ndarray     # (N_C,) radians


@dataclass(frozen=True)
class PerturbedGeometry:
    """Rebuilt geometry after localization-error injection. The error
    matrix the scheduler suffers is ``build_v_matrix(scenario) - v_tilde``."""

    v_tilde: np.ndarray             # rebuilt K x N_C matrix
    perturbations: LocalizationError
    cluster_positions: np.ndarray   # (N_C, 3) rebuilt positions
    fallback_count: int             # clusters kept unperturbed (infeasible geometry)


def field_pattern(phi: float) -> float:
    """Sounder antenna electric field pattern, a cubic in the azimuth.

    The published polynomial carries two cubic terms, 5.7 phi^3 and
    -1.71 phi^3; they are summed into the net coefficient 3.99.
    """
    return 0.67 + 2.67 * phi - 6.79 * phi**2 + 3.99 * phi**3


def output_snr(params: CrlbParams, phi: float) -> float:
    """Post-processing SNR: M * I * N_c * |f(phi)|^2 * input SNR."""
    params.validate()
    f = field_pattern(phi)
    return params.num_antennas * params.signal_periods * params.pn_length \
        * f * f * params.input_snr


def array_angle_factor(sensors_per_axis: int, d_over_lambda: float) -> float:
    """Geometric factor 4 pi^2 (d/lambda)^2 (7/3 Mx^3 - 8 Mx^2 + 29/3 Mx - 4)
    entering both angle bounds; zero for a single sensor per axis."""
    mx = sensors_per_axis
    poly = (7.0 / 3.0) * mx**3 - 8.0 * mx**2 + (29.0 / 3.0) * mx - 4.0
    return 4.0 * math.pi**2 * d_over_lambda**2 * poly


def crlb_delay(gamma_o: float, bandwidth: float) -> float:
    """Delay estimation variance bound 1 / (gamma_o * 8 pi^2 * BW)."""
    if gamma_o <= 0 or bandwidth <= 0:
        raise ConfigurationError("gamma_o and bandwidth must be positive")
    return 1.0 / (gamma_o * 8.0 * math.pi**2 * bandwidth)


def crlb_angles(gamma_o: float, num_antennas: int, delta: float,
                theta: float) -> tuple[float, float]:
    """Elevation and azimuth variance bounds (in that order).

    Returns infinities when the array factor ``delta`` vanishes (single
    sensor per axis). Elevation at +-pi/2 is singular.
    """
    if gamma_o <= 0:
        raise ConfigurationError("gamma_o must be positive")
    if delta == 0.0:
        return math.inf, math.inf
    cos_t = math.cos(theta)
    if abs(cos_t) < 1e-12:
        raise GeometryError("elevation bound is singular at theta = pi/2")
    if cos_t < 0:
        raise GeometryError("elevation bound requires |theta| < pi/2")
    bound_phi = num_antennas / (gamma_o * 2.0 * delta)
    bound_theta = num_antennas / (gamma_o * 2.0 * delta * cos_t)
    return bound_theta, bound_phi


def crlb(params: CrlbParams, phi: float, theta: float) -> tuple[float, float, float]:
    """(delay, elevation, azimuth) estimation variance bounds for a path
    arriving at azimuth ``phi`` and elevation ``theta``."""
    params.validate()
    gamma_o = output_snr(params, phi)
    delta = array_angle_factor(params.sensors_per_axis, params.d_over_lambda)
    bound_tau = crlb_delay(gamma_o, params.bandwidth)
    bound_theta, bound_phi = crlb_angles(gamma_o, params.num_antennas, delta, theta)
    return bound_tau, bound_theta, bound_phi


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
    r = SPEED_OF_LIGHT * tau
    dh = h_bs - h_ms
    if r <= 0:
        raise GeometryError("total path length c0*tau must be positive")
    if r < math.hypot(dh, d_bs_ms):
        raise GeometryError(
            "total path length shorter than the direct BS-MS path: ellipse is empty"
        )
    se, ce = math.sin(elevation), math.cos(elevation)
    ca = math.cos(azimuth)
    a = 1.0 - se * se - ce * ce * ca * ca
    b = -2.0 * r - 2.0 * dh * se + 2.0 * d_bs_ms * ce * ca
    c = r * r - dh * dh - d_bs_ms * d_bs_ms

    roots: list[float]
    if abs(a) < 1e-12:
        if abs(b) < 1e-12:
            raise GeometryError("degenerate geometry: no finite bounce distance")
        roots = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0:
            raise GeometryError("no real bounce distance for these angles")
        sq = math.sqrt(disc)
        roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]

    admissible = sorted(d for d in roots if 0.0 < d < r)
    if not admissible:
        raise GeometryError("no admissible bounce distance in (0, c0*tau)")
    d_bs_c = admissible[-1] if alternate_root else admissible[0]
    return d_bs_c, r - d_bs_c


def cluster_observables(scenario: Scenario, cluster: int) -> tuple[float, float, float]:
    """(delay, elevation, global azimuth) of a cluster as seen by the BS."""
    cl = scenario.clusters[cluster]
    dvec = cl.position - scenario.bs_position
    d = float(np.linalg.norm(dvec))
    elevation = math.asin((cl.position[2] - scenario.bs_position[2]) / d)
    azimuth = math.atan2(dvec[1], dvec[0])
    return cl.delay, elevation, azimuth


def _rebuild_cluster(scenario: Scenario, cluster: int, tau: float,
                     elevation: float, azimuth: float) -> tuple[np.ndarray, np.ndarray]:
    """Rebuilt 3D position and VR centre of a cluster measured at (delay,
    elevation, azimuth).

    The bounce distance comes from the ellipse inversion anchored at the
    VR centre; the VR centre is translated together with the cluster.
    """
    cfg = scenario.config
    cl = scenario.clusters[cluster]
    bs = scenario.bs_position
    vr_vec = cl.vr_center - bs[:2]
    d_bs_vr = float(np.linalg.norm(vr_vec))
    az_vr = math.atan2(vr_vec[1], vr_vec[0])
    az_rel = azimuth - az_vr

    d_bs_c, _ = solve_cluster_distance(
        tau, elevation, az_rel, cfg.bs_height, cfg.ms_height, d_bs_vr)
    position = bs + d_bs_c * np.array([
        math.cos(elevation) * math.cos(azimuth),
        math.cos(elevation) * math.sin(azimuth),
        math.sin(elevation),
    ])
    return position, cl.vr_center + (position[:2] - cl.position[:2])


def perturb_and_rebuild(scenario: Scenario, omega: int,
                        params: CrlbParams) -> PerturbedGeometry:
    """Perturb each cluster's measured delay/elevation/azimuth by
    +- omega * sqrt(variance bound) with seeded equiprobable signs, rebuild
    the cluster geometry and the user-cluster matrix the scheduler will use.

    ``omega == 0`` is an exact no-op. Clusters whose perturbed geometry has
    no admissible bounce distance fall back to their true geometry, so
    their column of ``v_tilde`` is the true V column, and are counted in
    ``fallback_count``.
    """
    if omega < 0:
        raise ConfigurationError("omega must be a nonnegative integer")
    n_c = scenario.num_clusters
    positions = np.stack([cl.position for cl in scenario.clusters])
    vr_centers = np.stack([cl.vr_center for cl in scenario.clusters])
    delays = np.array([cl.delay for cl in scenario.clusters])
    fallback = np.zeros(n_c, dtype=bool)
    d_tau, d_theta, d_phi = np.zeros((3, n_c))
    if omega > 0:
        rng = gscm._stream(scenario.config.rng_seed, gscm._STREAM_PERTURB)
        signs = rng.choice([-1.0, 1.0], size=(n_c, 3))
        for j in range(n_c):
            tau, el, az = cluster_observables(scenario, j)
            bounds = crlb(params, az, el)
            # the angle bounds are infinite for a single sensor per axis
            d_tau[j], d_theta[j], d_phi[j] = (
                sign * omega * math.sqrt(b) if math.isfinite(b) else 0.0
                for sign, b in zip(signs[j], bounds))
            try:
                if tau + d_tau[j] <= 0:
                    raise GeometryError("perturbed delay is nonpositive")
                positions[j], vr_centers[j] = _rebuild_cluster(
                    scenario, j, tau + d_tau[j], el + d_theta[j], az + d_phi[j])
                delays[j] = tau + d_tau[j]
            except GeometryError:
                # keep the true geometry for this cluster; the robustness
                # study continues with the remaining clusters perturbed
                fallback[j] = True

    v_tilde = gscm.large_scale_gains(scenario, vr_centers, delays,
                                     include_shadowing=False)
    return PerturbedGeometry(
        v_tilde=v_tilde,
        perturbations=LocalizationError(omega, d_tau, d_theta, d_phi),
        cluster_positions=positions,
        fallback_count=int(fallback.sum()),
    )
