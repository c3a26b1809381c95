"""The operating point of the desk defaults, and how far it sits in the noise.

Prints, at the default ScenarioConfig over seeds 1-40, the share of users
inside a visibility region (VR) and the median matched-filter SNR
||h_k||^2 P_k / P_n at the top power, then a 5-trial Fig. 2 at the defaults
and the same sweep with a 250 m cell half-side. The second is a sensitivity
run, not the paper's parameters: PAPER.md gives no cell size.

Run:  python3 demos/demo_operating_point.py
"""

from dataclasses import replace

import numpy as np

from gusim import gscm
from gusim.harness import ExperimentConfig, dbm_to_watts, figure2_sweep
from gusim.scheduling import gus_select

cfg = ExperimentConfig()
ks, top = max(cfg.ks_values), max(cfg.powers_dbm)
per_user = dbm_to_watts(top) / ks   # the top power split over K_s users
inside, everyone, picked = 0, [], []
for seed in range(1, 41):
    scen = gscm.generate_scenario(replace(cfg.scenario, rng_seed=seed))
    offsets = np.linalg.norm(scen.users[:, None, :2] - scen.vr_centers, axis=-1)
    inside += int(np.any(offsets <= scen.config.vr_radius, axis=1).sum())
    h = gscm.channel_matrix(scen, range(scen.num_users)).entries
    snr_db = 10 * np.log10(np.sum(np.abs(h) ** 2, axis=0) * per_user / cfg.noise_power)
    everyone += snr_db.tolist()
    picked += snr_db[list(gus_select(scen.v, ks, cfg.gus_variant).selected)].tolist()

print(f"defaults, seeds 1-40: {inside} of {len(everyone)} users "
      f"({inside / len(everyone):.1%}) lie inside a VR")
print(f"median matched-filter SNR at {top:.0f} dBm over K_s={ks}: "
      f"{np.median(everyone):.1f} dB over all users, "
      f"{np.median(picked):.1f} dB over GUS's picks")


def show(title, config):
    stats = figure2_sweep(replace(config, trials=5))
    print(f"\n{title}: fig2 mean sum-rate (bits/s/Hz), 5 trials")
    for k_s in config.ks_values:
        for p in config.powers_dbm:
            print(f"  K_s={k_s:2d} P={p:4.0f} dBm  " + "  ".join(
                f"{alg} {stats.cell(alg, k_s, p).mean:7.2f}" for alg in config.algorithms))


show("defaults", cfg)
show("sensitivity run, cell_half_side 250 m (not the paper's parameters)",
     replace(cfg, scenario=replace(cfg.scenario, cell_half_side=250.0)))
