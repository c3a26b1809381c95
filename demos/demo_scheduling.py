"""Compare the geometry-based scheduler against the full-CSI greedy and a
random baseline on one scenario, and show the channel-estimation load gap.

Run:  python3 demos/demo_scheduling.py
"""

import numpy as np

from gusim import (PowerConfig, ScenarioConfig, channel_matrix, estimation_load,
                   generate_scenario, gus_select, gwc_select_powers, large_scale_gains,
                   noise_power, random_select, sum_rate, zf_weights)

cfg = ScenarioConfig(num_users=40, antenna_count=64, rng_seed=7)
scenario = generate_scenario(cfg)
k_s = 8

v = large_scale_gains(scenario)
print(f"user-cluster matrix V: {v.shape}, row norms in "
      f"[{np.linalg.norm(v, axis=1).min():.2e}, {np.linalg.norm(v, axis=1).max():.2e}]")

h_all = channel_matrix(scenario, range(cfg.num_users)).entries
p_n = noise_power(20e6)
power = PowerConfig(total_power=1.0, num_users=k_s, noise_power=p_n)

gus = gus_select(v, k_s)
gwc, = gwc_select_powers(h_all, k_s, [power])
rnd = random_select(cfg.num_users, k_s, rng=0)

print(f"\nGUS picks    {gus.selected}")
print(f"GWC picks    {gwc.selected}")
print(f"RANDOM picks {rnd.selected}")

for result in (gus, gwc, rnd):
    h_s = h_all[:, list(result.selected)]
    rate = sum_rate(h_s, zf_weights(h_s), power)
    print(f"{result.algorithm:>6}: sum-rate {rate:.4f} bits/s/Hz")

# GUS only needs the channels of the selected users; a full-CSI scheme
# estimates the whole pool.
print(f"\nestimation load: GUS {estimation_load(cfg.antenna_count, k_s)}, "
      f"full CSI {estimation_load(cfg.antenna_count, cfg.num_users)} "
      f"(ratio {k_s / cfg.num_users:.2f})")
