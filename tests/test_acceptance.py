"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible on the terminal even
under pytest capture) and enforces the stated tolerance. The figure-level
criteria (2 and 4) run the full desk-scale Monte-Carlo sweeps and are the
slow part of the suite; their ratio constants were frozen from the first
verified run and are checked to +/-5% thereafter.
"""

import dataclasses
import itertools
import math
import time

import numpy as np

from gusim import cli
from gusim.gscm import SPEED_OF_LIGHT, ScenarioConfig
from gusim.harness import (ExperimentConfig, figure2_sweep, figure3_load,
                           figure4_robustness, run_experiment, save_config)
from gusim.localization import (CrlbParams, array_angle_factor, crlb,
                                crlb_delay, solve_cluster_distance)
from gusim.rx import PowerConfig, sum_rate, unitary_pilots, zf_weights
from gusim.scheduling import gwc_select_powers

from conftest import ergodic_capacity, mmse_estimate


def _report(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _gaussian_channel(rng, m, k):
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) \
        / math.sqrt(2.0)


def test_criterion_01_zf_identity(capsys):
    """1000 random full-rank channels: ||W H - I|| relative < 1e-9, < 10 s."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(4, 65))
        ks = int(rng.integers(1, min(m, 10) + 1))
        h = _gaussian_channel(rng, m, ks)
        w = zf_weights(h)
        residual = np.linalg.norm(w @ h - np.eye(ks)) / np.linalg.norm(np.eye(ks))
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _report(capsys, 1, "ZF identity",
            ok, f"worst relative residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_mmse_oracle_equivalence(capsys):
    """MMSE matches an independent normal-equations solve; scalar case y/2."""
    rng = np.random.default_rng(3)
    m, k, tau_p = 2, 2, 2
    worst = 0.0
    for _ in range(100):
        a = _gaussian_channel(rng, m * k, m * k)
        cov = a @ a.conj().T + 0.1 * np.eye(m * k)
        sigma2 = float(rng.uniform(0.1, 2.0))
        pilots = math.sqrt(float(rng.uniform(0.5, 4.0))) * unitary_pilots(k, tau_p)
        received = _gaussian_channel(rng, m, tau_p)
        est = mmse_estimate(received, pilots, sigma2, cov)

        phi_tilde = np.kron(pilots.T, np.eye(m))
        lhs = np.linalg.inv(cov) + phi_tilde.conj().T @ phi_tilde / sigma2
        ref = np.linalg.solve(
            lhs, phi_tilde.conj().T @ received.reshape(-1, order="F") / sigma2)
        worst = max(worst, float(np.max(np.abs(est - ref))))

    y = np.array([[0.3 + 0.4j]])
    scalar = mmse_estimate(y, np.array([[1.0]]), 1.0, np.array([[1.0]]))
    scalar_exact = scalar[0] == y[0, 0] / 2.0
    ok = worst < 1e-8 and scalar_exact
    _report(capsys, 2, "MMSE oracle equivalence",
            ok, f"worst deviation {worst:.2e}, scalar y/2 exact: {scalar_exact}")


def test_criterion_03_crlb_analytic_checks(capsys):
    params = CrlbParams()
    _, theta, phi = crlb(params, 0.3, 0.0)
    equal_at_zero = theta == phi
    delta_zero = array_angle_factor(1, 0.5) == 0.0
    tau_ref = abs(crlb_delay(1.0, 1.0) - 1.0 / (8.0 * math.pi ** 2)) < 1e-12
    ok = equal_at_zero and delta_zero and tau_ref
    _report(capsys, 3, "CRLB analytic checks",
            ok, f"theta==phi at 0: {equal_at_zero}, Delta(Mx=1)==0: "
                f"{delta_zero}, tau reference to 1e-12: {tau_ref}")


def test_criterion_04_geometry_round_trip(capsys):
    """Forward-place 1000 feasible clusters and invert the delay ellipse."""
    rng = np.random.default_rng(10)
    h_bs, h_ms = 5.0, 1.5
    recovered = 0
    worst = 0.0
    while recovered < 1000:
        d = float(rng.uniform(20.0, 800.0))
        el = float(rng.uniform(-0.3, 0.6))
        az = float(rng.uniform(-1.2, 1.2))
        d_bs_ms = float(rng.uniform(50.0, 1200.0))
        dh = h_bs - h_ms
        d_ms_c = math.hypot(dh + d * math.sin(el),
                            d_bs_ms - d * math.cos(el) * math.cos(az))
        tau = (d + d_ms_c) / SPEED_OF_LIGHT
        try:
            roots = [
                solve_cluster_distance(tau, el, az, h_bs, h_ms, d_bs_ms)[0],
                solve_cluster_distance(tau, el, az, h_bs, h_ms, d_bs_ms,
                                       alternate_root=True)[0],
            ]
        except Exception:
            continue
        recovered += 1
        worst = max(worst, min(abs(r - d) / d for r in roots))

    tau = 300.0 / SPEED_OF_LIGHT
    collinear, _ = solve_cluster_distance(tau, 0.0, 0.0, 5.0, 5.0, 100.0)
    ok = worst < 1e-6 and collinear == 200.0
    _report(capsys, 4, "geometry round-trip",
            ok, f"worst relative error {worst:.2e} over 1000 clusters, "
                f"collinear case {collinear} m")


# GUS/GWC mean-ratio per power point, frozen from the first verified run of
# the desk-scale figure-2 sweep below (base_seed=1, 50 trials).
_FIG2_RATIOS = {
    5: (0.9574, 0.9603, 0.9627, 0.9583, 0.9569, 0.9469),
    10: (0.5269, 0.5513, 0.6613, 0.7905, 0.8424, 0.8681),
}


def test_criterion_05_figure2_qualitative(capsys):
    """RANDOM <= GUS <= GWC at every power, GUS closer to GWC than RANDOM,
    frozen ratio constants to +/-5%. Runtime < 5 min."""
    start = time.perf_counter()
    cfg = ExperimentConfig()
    stats = figure2_sweep(cfg)
    ordering_ok = True
    ratio_drift = 0.0
    for ks in cfg.ks_values:
        for i, p in enumerate(cfg.powers_dbm):
            gus = stats.cell("GUS", ks, p).mean
            gwc = stats.cell("GWC", ks, p).mean
            rnd = stats.cell("RANDOM", ks, p).mean
            ordering_ok &= rnd <= gus <= gwc and gus / gwc > rnd / gwc
            ratio_drift = max(ratio_drift,
                              abs(gus / gwc - _FIG2_RATIOS[ks][i])
                              / _FIG2_RATIOS[ks][i])
    elapsed = time.perf_counter() - start
    ok = ordering_ok and ratio_drift < 0.05 and elapsed < 300.0
    _report(capsys, 5, "figure-2 qualitative reproduction",
            ok, f"ordering holds: {ordering_ok}, max ratio drift "
                f"{100 * ratio_drift:.2f}%, {elapsed:.0f} s")


def test_criterion_06_figure3_exact(capsys):
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_users=50), ks_values=(10,))
    rows = figure3_load(cfg)
    ratios_ok = all(r["ratio"] == r["K_s"] / r["K"] == 0.2 for r in rows)
    m200 = next(r for r in rows if r["M"] == 200)
    load_ok = m200["load_selected"] == 4000
    ok = ratios_ok and load_ok
    _report(capsys, 6, "figure-3 exact load reproduction",
            ok, f"ratio 0.2 for all M: {ratios_ok}, "
                f"M=200 selected load {m200['load_selected']}")


def test_criterion_07_figure4_robustness(capsys):
    """Omega=0 matches unperturbed GUS bit-exactly; mean GUS >= mean RANDOM
    at every omega <= 5 in >= 90% of seeds. Runtime < 5 min."""
    start = time.perf_counter()
    base = ExperimentConfig(algorithms=("GUS", "RANDOM"), powers_dbm=(30.0,),
                            omegas=tuple(range(6)),
                            crlb=CrlbParams(num_antennas=64, input_snr=100.0))
    wins = 0
    seeds = [1 + 1000 * i for i in range(10)]
    for seed in seeds:
        stats = figure4_robustness(dataclasses.replace(base, base_seed=seed))
        wins += all(
            stats.cell("GUS", ks, 30.0, omega=o).mean
            >= stats.cell("RANDOM", ks, 30.0, omega=o).mean
            for ks in base.ks_values for o in base.omegas)

    plain = run_experiment(dataclasses.replace(base, omegas=(0,)))
    fig4 = figure4_robustness(base)
    exact = all(
        fig4.cell("GUS", ks, 30.0, omega=0).mean
        == plain.cell("GUS", ks, 30.0, omega=0).mean
        for ks in base.ks_values)

    fraction = wins / len(seeds)
    elapsed = time.perf_counter() - start
    ok = exact and fraction >= 0.9 and elapsed < 300.0
    _report(capsys, 7, "figure-4 robustness",
            ok, f"omega=0 bit-exact: {exact}, GUS>=RANDOM at all omega in "
                f"{100 * fraction:.0f}% of seeds, {elapsed:.0f} s")


def test_criterion_08_scheduling_oracle(capsys):
    """GWC greedy within 90% of the exhaustive-best ZF sum-rate."""
    rng = np.random.default_rng(2024)
    power = PowerConfig(total_power=2.0, num_users=2, noise_power=1e-1)
    worst = 1.0
    for _ in range(200):
        h = _gaussian_channel(rng, 4, 5)
        greedy = gwc_select_powers(h, 2, [power])[0].selected
        rates = {
            subset: sum_rate(h[:, list(subset)],
                             zf_weights(h[:, list(subset)]), power)
            for subset in itertools.combinations(range(5), 2)
        }
        worst = min(worst, rates[tuple(sorted(greedy))] / max(rates.values()))
    ok = worst >= 0.9
    _report(capsys, 8, "scheduling oracle",
            ok, f"worst greedy/exhaustive ratio {worst:.4f} over 200 instances")


def test_criterion_09_capacity_dominance(capsys):
    rng = np.random.default_rng(11)
    power = PowerConfig(total_power=1.0, num_users=4, noise_power=1e-2)
    violations = 0
    for _ in range(100):
        h = _gaussian_channel(rng, 8, 4)
        cap = ergodic_capacity([h], power)
        rate = sum_rate(h, zf_weights(h), power, mode="physical")
        violations += cap < rate
    ok = violations == 0
    _report(capsys, 9, "capacity dominance",
            ok, f"{violations} violations out of 100 paired realizations")


def test_criterion_10_determinism(capsys, tmp_path):
    """Two runs of a fig* subcommand with identical config are byte-identical."""
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_users=8, num_clusters=2, antenna_count=8,
                                mpcs_per_cluster=3),
        powers_dbm=(10.0, 30.0), ks_values=(2,), trials=3, base_seed=5)
    cfg_path = tmp_path / "config.yaml"
    save_config(cfg, cfg_path)
    identical = True
    for sub in ("fig2", "fig3", "fig4"):
        out1 = tmp_path / f"{sub}_a.csv"
        out2 = tmp_path / f"{sub}_b.csv"
        cli.main([sub, "--config", str(cfg_path), "--out", str(out1)])
        cli.main([sub, "--config", str(cfg_path), "--out", str(out2)])
        identical &= out1.read_bytes() == out2.read_bytes()
    _report(capsys, 10, "determinism",
            identical, f"fig2/fig3/fig4 byte-identical: {identical}")
