"""Walk through the stochastic channel model: draw a scenario, look at the
large-scale gain terms, and synthesize the array channel matrix.

Run:  python3 demos/demo_channel_model.py
"""

import numpy as np

from gusim import (ScenarioConfig, channel_matrix, cluster_attenuation,
                   generate_scenario, large_scale_gains, path_loss_nlos, vr_gain)

cfg = ScenarioConfig(num_users=10, num_clusters=4, antenna_count=16, rng_seed=42)
scenario = generate_scenario(cfg)

print(f"cell: {2 * cfg.cell_half_side:.0f} m square, BS at {scenario.bs_position}")
print(f"{scenario.num_users} users, {scenario.num_clusters} clusters\n")

# The visibility-region transition gain ramps from ~1 inside the region to
# ~0 outside; it is exactly 0.5 at the inner edge R_C - L_C.
for d in (0.0, 30.0, 50.0, 100.0, 500.0):
    g = vr_gain(d, cfg.vr_radius, cfg.transition_size, cfg.wavelength)
    print(f"A_VR at d = {d:6.1f} m : {g:.6f}")

# Path loss: 26 dB per decade plus the free-space constant.
for d in (10.0, 100.0, 1000.0):
    loss, _ = path_loss_nlos(d, cfg.wavelength)
    print(f"NLoS path loss at {d:6.0f} m : {loss:6.2f} dB")

# Cluster delay attenuation decays exponentially and floors at the cut-off.
delay = scenario.delays[0]
print(f"\ncluster 0 delay: {delay * 1e6:.3f} us, "
      f"attenuation vs tau_0=delay: "
      f"{cluster_attenuation(delay, delay, cfg.cutoff_delay, cfg.power_decay):.3f}")

# Large-scale user-cluster coupling factors (amplitude scale): the geometric
# V; the channel scales each cluster's column by its shadowing amplitude.
factors = large_scale_gains(scenario)
print("\nstrongest user-cluster couplings (log10 amplitude):")
for k in range(3):
    print(f"  user {k}: {np.log10(factors[k] + 1e-30).round(1)}")

# The channel matrix stacks, per user, the MPC gains on steering vectors.
h = channel_matrix(scenario, range(scenario.num_users))
print(f"\nchannel matrix: {h.entries.shape}, column norms:")
print(np.linalg.norm(h.entries, axis=0))

# Steering vectors have unit-modulus entries; the scenario caches one per MPC.
print("\ncluster 0, MPC 0 steering vector (first 4 of M=16):",
      scenario.steering[0, 0, :4].round(3))
