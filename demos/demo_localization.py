"""Show the localization error model: CRLB magnitudes, the ellipse
inversion that places a scatterer from (delay, angles), and the effect of
scaled estimation errors on the scheduler's geometry matrix.

Run:  python3 demos/demo_localization.py
"""

import math

import numpy as np

from gusim import (CrlbParams, ScenarioConfig, crlb, generate_scenario, gus_select,
                   large_scale_gains, perturb_and_rebuild_omegas, solve_cluster_distance)
from gusim.gscm import SPEED_OF_LIGHT

params = CrlbParams()  # M=64, 5x5 planar sensors, N_c=127, 20 dB input SNR

# Bound magnitudes at a representative geometry.
az, el = 0.3, 0.1
b_tau, b_theta, b_phi = crlb(params, az, el)
print("CRLB standard deviations at (az=0.3, el=0.1):")
print(f"  delay     {math.sqrt(b_tau) * 1e9:.3f} ns "
      f"({math.sqrt(b_tau) * SPEED_OF_LIGHT:.3f} m ranging)")
print(f"  elevation {math.degrees(math.sqrt(b_theta)):.4f} deg")
print(f"  azimuth   {math.degrees(math.sqrt(b_phi)):.4f} deg")

# Single-bounce inversion: delay + angles pin the scatterer on an ellipse.
d_true = 250.0
d_bs_ms = 400.0
h_bs, h_ms = 5.0, 1.5
dh = h_bs - h_ms
d_ms_c = math.hypot(dh + d_true * math.sin(el),
                    d_bs_ms - d_true * math.cos(el) * math.cos(az))
tau = (d_true + d_ms_c) / SPEED_OF_LIGHT
d_hat, d_ms_hat = solve_cluster_distance(tau, el, az, h_bs, h_ms, d_bs_ms)
print(f"\nellipse inversion: true BS-cluster distance {d_true:.1f} m, "
      f"recovered {d_hat:.6f} m")

# End to end: perturb the measured cluster parameters by Omega * sqrt(CRLB)
# and rebuild the scheduler's V matrix from the erroneous positions.
scenario = generate_scenario(ScenarioConfig(num_users=20, rng_seed=5))
v_true = large_scale_gains(scenario)
print("\nOmega sweep (relative error in V, and whether GUS picks change):")
baseline = gus_select(v_true, 5).selected
# one rebuild covers every error scale: entry i of each array is omegas[i]'s,
# equal to what a call with that omega alone gives
omegas = range(6)
rebuilt = perturb_and_rebuild_omegas(scenario, omegas, params)
for omega, v_tilde, fallbacks in zip(omegas, rebuilt.v_tilde, rebuilt.fallbacks.sum(axis=1)):
    rel = np.linalg.norm(v_true - v_tilde) / np.linalg.norm(v_true)
    picks = gus_select(v_tilde, 5).selected
    print(f"  Omega={omega}: |E|/|V| = {rel:.3e}, {fallbacks} fallback(s), picks "
          f"{'unchanged' if picks == baseline else f'changed -> {picks}'}")
