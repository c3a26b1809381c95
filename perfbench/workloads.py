"""Workload definitions and the output check.

Imports nothing from gusim at module level, so run.py and the tests
can use it without loading the package. Every config is built from
``ExperimentConfig`` with only the fields named in README.md; no YAML file
is read and ``covariance_draws`` is never set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Seed of acceptance criterion 5; the output is checked against the
# reference recorded at this seed, and only invariants at other seeds.
REFERENCE_SEED = 1

# Trials per sweep call. fig2 and fig4 are sized so that one sweep takes
# one to two seconds on one core, giving many sweeps per run; estimated_csi
# needs two trials so that its cells have a standard error.
TRIALS = {"fig2": 4, "fig4": 8, "estimated_csi": 2}

# Sweeps after the first in one run use base_seed = seed + i * SWEEP_STRIDE,
# so one run averages over many scenario drops.
SWEEP_STRIDE = 1000

# estimated_csi cell means may move by this many combined standard errors.
# The sample-covariance MMSE estimator is a Monte-Carlo approximation;
# a correct closed-form covariance changes the means by far less than the
# scenario-to-scenario spread that std_err measures.
ESTIMATED_Z = 3.0

EXACT_RTOL = 1e-9


def build_config(workload: str, seed: int):
    """The ExperimentConfig of ``workload`` with ``base_seed=seed``."""
    from gusim.harness import ExperimentConfig
    from gusim.localization import CrlbParams

    trials = TRIALS[workload]
    if workload == "fig2":
        return ExperimentConfig(trials=trials, base_seed=seed)
    if workload == "fig4":
        return ExperimentConfig(
            algorithms=("GUS", "RANDOM"), powers_dbm=(30.0,),
            omegas=tuple(range(6)),
            crlb=CrlbParams(num_antennas=64, input_snr=100.0),
            trials=trials, base_seed=seed)
    if workload == "estimated_csi":
        return ExperimentConfig(
            use_estimation=True, algorithms=("GUS", "RANDOM"),
            powers_dbm=(30.0,), ks_values=(10,), trials=trials,
            base_seed=seed)
    raise KeyError(workload)


def run_sweep(workload: str, config, out_path):
    """One whole sweep call through the public harness functions, including
    the CSV and manifest write."""
    from gusim import harness

    if workload == "fig2":
        return harness.figure2_sweep(config, out_path)
    if workload == "fig4":
        return harness.figure4_robustness(config, out_path)
    stats = harness.run_experiment(config, figure=workload)
    harness.write_results_csv(stats, out_path)
    harness.write_manifest(config, out_path)
    return stats


def summarize(stats) -> dict:
    """JSON-ready cells and per-trial rows of an AggregateStats."""
    return {
        "cells": [[c.algorithm, c.ks, c.p_dbm, c.omega, c.mean, c.std_err,
                   c.trials_used, c.excluded] for c in stats.cells],
        "rows": [[r.trial, r.algorithm, r.ks, r.p_dbm, r.omega,
                  list(r.selected), r.sum_rate] for r in stats.trial_rows],
    }


def expected_grid(workload: str) -> dict:
    """Cell keys, K and trial count of a workload, without importing gusim."""
    if workload == "fig2":
        algs, powers, ks, omegas = ("GUS", "GWC", "RANDOM"), \
            (0.0, 10.0, 20.0, 30.0, 40.0, 50.0), (5, 10), (0,)
    elif workload == "fig4":
        algs, powers, ks, omegas = ("GUS", "RANDOM"), (30.0,), (5, 10), \
            tuple(range(6))
    else:
        algs, powers, ks, omegas = ("GUS", "RANDOM"), (30.0,), (10,), (0,)
    cells = {(a, k, p, o) for a in algs for k in ks for p in powers for o in omegas}
    return {"cells": cells, "num_users": 40, "trials": TRIALS[workload]}


def evaluations(workload: str) -> int:
    """Trial evaluations one sweep attempts: trials x cells."""
    grid = expected_grid(workload)
    return grid["trials"] * len(grid["cells"])


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _same_float(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def check_invariants(workload: str, summary: dict) -> list[str]:
    """Problems that make a sweep's output wrong at any seed."""
    grid = expected_grid(workload)
    problems = []
    cells = {tuple(c[:4]): c for c in summary["cells"]}
    if set(cells) != grid["cells"] or len(cells) != len(summary["cells"]):
        problems.append("cell grid differs from the workload's grid")
    rows_by_cell: dict = {}
    for trial, alg, ks, p, omega, sel, rate in summary["rows"]:
        rows_by_cell.setdefault((alg, ks, p, omega), []).append(rate)
        if rate is None:
            continue
        if not math.isfinite(rate) or rate < 0:
            problems.append(f"trial {trial} {alg} K_s={ks}: rate {rate!r}")
        if len(sel) != ks or len(set(sel)) != ks \
                or not all(0 <= u < grid["num_users"] for u in sel):
            problems.append(f"trial {trial} {alg} K_s={ks}: bad selection {sel}")
    for key, (alg, ks, p, omega, mean, se, used, excluded) in cells.items():
        rates = [r for r in rows_by_cell.get(key, []) if r is not None]
        if used + excluded != grid["trials"] or used != len(rates):
            problems.append(f"cell {key}: trials_used={used} excluded={excluded}")
        if rates:
            if not (math.isfinite(mean) and math.isfinite(se) and se >= 0):
                problems.append(f"cell {key}: mean {mean!r} std_err {se!r}")
            elif not _same_float(mean, math.fsum(rates) / len(rates), 1e-12):
                problems.append(f"cell {key}: mean disagrees with its rows")
    return problems


def check_reference(workload: str, summary: dict, reference: dict) -> list[str]:
    """Problems against the reference recorded at REFERENCE_SEED.

    fig2 and fig4 must reproduce the reference means to EXACT_RTOL and the
    counts and selections exactly. estimated_csi must reproduce the
    selections exactly and the means within ESTIMATED_Z combined standard
    errors, so an estimator with different Monte-Carlo error still passes.
    """
    problems = []
    ref_cells = {tuple(c[:4]): c for c in reference["cells"]}
    for c in summary["cells"]:
        key = tuple(c[:4])
        ref = ref_cells.get(key)
        if ref is None:
            problems.append(f"cell {key} missing from the reference")
            continue
        mean, se, used, excluded = c[4:]
        r_mean, r_se, r_used, r_excluded = ref[4:]
        if (used, excluded) != (r_used, r_excluded):
            problems.append(f"cell {key}: trials_used/excluded {used}/{excluded}"
                            f" != reference {r_used}/{r_excluded}")
        if workload == "estimated_csi":
            tol = ESTIMATED_Z * math.hypot(se, r_se)
            if not (math.isfinite(mean) and abs(mean - r_mean) <= tol):
                problems.append(f"cell {key}: mean {mean!r} vs reference "
                                f"{r_mean!r}, tolerance {tol:.3g}")
        elif not _same_float(mean, r_mean, EXACT_RTOL):
            problems.append(f"cell {key}: mean {mean!r} != reference {r_mean!r}")
    ref_sel = {tuple(r[:5]): r[5] for r in reference["rows"]}
    sel = {tuple(r[:5]): r[5] for r in summary["rows"]}
    if sel != ref_sel:
        diff = sorted(k for k in set(sel) | set(ref_sel)
                      if sel.get(k) != ref_sel.get(k))
        problems.append(f"{len(diff)} selections differ from the reference, "
                        f"first {diff[0]}")
    return problems


def check_output(workload: str, base_seed: int, summary: dict,
                 reference: dict | None = None) -> list[str]:
    """All problems of one sweep's output: invariants at every seed, plus the
    reference comparison at REFERENCE_SEED."""
    problems = check_invariants(workload, summary)
    if base_seed == REFERENCE_SEED:
        if reference is None:
            reference = load_reference(workload)
        problems += check_reference(workload, summary, reference)
    return problems
