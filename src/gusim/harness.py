"""Seeded Monte-Carlo experiment driver.

Runs the scheduling algorithms over independent scenario realizations,
evaluates zero-forcing sum-rates on the true channels of the selected
users, and aggregates per (algorithm, K_s, power, error-scale) cell into a
CSV with a sidecar run manifest. Per-trial seeds are position-based, so
the output is a pure function of (config, base_seed).
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product

import numpy as np
import yaml

from . import __version__
from .errors import ConfigurationError, RankDeficiencyError
from .gscm import (ScenarioConfig, _stream, _STREAM_SELECT,
                   channel_covariances, channel_matrix, generate_scenario)
from .localization import CrlbParams, perturb_and_rebuild_omegas
from .plain import check_fields, checked, from_versioned, read_yaml, to_plain
from .rx import (PowerConfig, mmse_estimate_per_user, noise_power, sum_rate,
                 unitary_pilots, zf_weights)
from .scheduling import estimation_load, gus_select, gwc_select_powers, random_select

CONFIG_SCHEMA_VERSION = 2

ALGORITHMS = ("GUS", "GWC", "RANDOM")

RESULT_HEADER = ("figure", "algorithm", "K_s", "P_dbm", "P_watts", "omega",
                 "mean_sum_rate_bps_hz", "std_err", "trials_used", "excluded",
                 "load")
LOAD_HEADER = ("figure", "M", "K", "K_s", "load_selected", "load_full", "ratio")

_STREAM_FADING = 505


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; desk-scale defaults."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    algorithms: tuple[str, ...] = checked(ALGORITHMS, choices=ALGORITHMS)
    powers_dbm: tuple[float, ...] = checked((0.0, 10.0, 20.0, 30.0, 40.0, 50.0))
    ks_values: tuple[int, ...] = checked((5, 10), "positive")
    omegas: tuple[int, ...] = checked((0,), "nonnegative")
    trials: int = checked(50, "positive")
    base_seed: int = checked(1, "nonnegative")
    mode: str = checked("physical", choices=("physical", "paper-literal"))
    gus_variant: str = checked("last", choices=("last", "set"))
    bandwidth: float = 20e6
    temperature: float = 290.0
    noise_figure_db: float = 9.0
    crlb: CrlbParams = field(default_factory=CrlbParams)
    fig3_m_values: tuple[int, ...] = checked((50, 100, 150, 200, 250, 300, 350, 400),
                                             "positive")
    use_estimation: bool = checked(False)

    def validate(self) -> None:
        self.scenario.validate()
        self.crlb.validate()
        check_fields(self)
        if self.scenario.rng_seed != 0:   # trial t replaces it with base_seed + t
            raise ConfigurationError("scenario.rng_seed must be 0: set base_seed instead")
        with np.errstate(over="ignore"):   # 10**(p/10) is inf, not an OverflowError
            watts = dbm_to_watts(np.array(self.powers_dbm, dtype=float)).tolist()
        if not all(0.0 < w < math.inf for w in watts):
            raise ConfigurationError("powers_dbm must give finite, positive watts (about "
                                     f"-3,206 to 3,082 dBm), got {self.powers_dbm!r}")
        if self.mode == "paper-literal" and not self.use_estimation:
            raise ConfigurationError(
                "mode 'paper-literal' needs use_estimation: with perfect CSI, "
                "zero-forcing leaves no interference, so every algorithm "
                "reads K_s*log2(1 + P/K_s) whatever the channel")
        if self.mode == "paper-literal" and "GWC" in self.algorithms:
            raise ConfigurationError(
                "GWC needs mode 'physical': its paper-literal objective is flat, so "
                "it takes the strongest column and then the lowest indices")
        ks, k, m = max(self.ks_values), self.scenario.num_users, self.scenario.antenna_count
        if ks > min(k, m):
            raise ConfigurationError(f"K_s={ks} exceeds num_users={k} or antenna_count={m}; "
                                     "zero-forcing needs at least as many antennas as users")
        noise_power(self.bandwidth, self.temperature, self.noise_figure_db)   # checks itself

    @property
    def noise_power(self) -> float:
        return noise_power(self.bandwidth, self.temperature, self.noise_figure_db)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    algorithm: str
    ks: int
    p_dbm: float
    omega: int
    sum_rate: float | None   # None when the trial is flagged
    load: int
    selected: tuple[int, ...]


@dataclass(frozen=True)
class CellStats:
    figure: str
    algorithm: str
    ks: int
    p_dbm: float
    omega: int
    mean: float
    std_err: float
    trials_used: int
    excluded: int
    load: int


@dataclass(frozen=True)
class AggregateStats:
    cells: tuple[CellStats, ...]
    trial_rows: tuple[TrialResult, ...]

    def cell(self, algorithm: str, ks: int, p_dbm: float, omega: int = 0) -> CellStats:
        for c in self.cells:
            if (c.algorithm, c.ks, c.omega) == (algorithm, ks, omega) \
                    and math.isclose(c.p_dbm, p_dbm):
                return c
        raise KeyError((algorithm, ks, p_dbm, omega))


def _estimate_selected_channel(scenario, selected, h_true, power: PowerConfig,
                               covariances: np.ndarray) -> np.ndarray:
    """MMSE-estimate the selected users' channel from one block of
    orthogonal pilots, given their exact per-user covariances."""
    rng = _stream(scenario.config.rng_seed, _STREAM_FADING, len(selected))
    pilots = math.sqrt(power.per_user) * unitary_pilots(len(selected))
    m, tau_p = h_true.shape[0], pilots.shape[1]
    noise = math.sqrt(power.noise_power / 2.0) * (
        rng.standard_normal((m, tau_p)) + 1j * rng.standard_normal((m, tau_p)))
    received = h_true @ pilots + noise
    return mmse_estimate_per_user(received, pilots, power.noise_power, covariances)


def _run_trial(config: ExperimentConfig, trial: int) -> list[TrialResult]:
    """The rows of one trial in (K_s, omega, algorithm, power) order, a pure
    function of (config, base seed, trial). GUS (on the V of every omega,
    all from one rebuild) and GWC (for every power) run once at the largest
    K_s, and each K_s takes the first picks; H holds only the columns of
    users some row rates, unless GWC runs. Each set size is
    zero-forced in one stacked call, per ordered set, or per (set, power)
    with estimation, and each set is rated at all its powers at once."""
    seed = config.base_seed + trial
    scen = generate_scenario(replace(config.scenario, rng_seed=seed))
    k_total, m, p_n = (config.scenario.num_users, config.scenario.antenna_count,
                       config.noise_power)
    top = max(config.ks_values)

    def prefixes(result) -> dict:   # None past a short result
        return {ks: result.selected[:ks] if ks <= len(result.selected) else None
                for ks in config.ks_values}

    def power(p_dbm: float, ks: int) -> PowerConfig:
        return PowerConfig(dbm_to_watts(p_dbm), ks, p_n)

    random = {}
    if "RANDOM" in config.algorithms:
        random = {ks: random_select(k_total, ks, _stream(seed, _STREAM_SELECT, ks)).selected
                  for ks in config.ks_values}
    gus = {}
    if "GUS" in config.algorithms:
        v = perturb_and_rebuild_omegas(scen, config.omegas, config.crlb).v_tilde
        gus = {omega: prefixes(r) for omega, r in zip(config.omegas, gus_select(
            v, top, config.gus_variant))}

    # one channel synthesis per trial, of the users some row rates: a column
    # depends only on its own (scenario, user) streams. GWC reads all of H.
    if "GWC" in config.algorithms:
        needed = range(k_total)
    else:
        needed = sorted({u for picks in (*gus.values(), random) for sel in picks.values()
                         if sel is not None for u in sel})
    h_needed = channel_matrix(scen, needed).entries if needed else None
    column = {user: i for i, user in enumerate(needed)}

    @cache
    def h_of(sel: tuple[int, ...]) -> np.ndarray:
        return h_needed[:, [column[u] for u in sel]]

    gwc = {}
    if "GWC" in config.algorithms:
        gwc = {p_dbm: prefixes(r) for p_dbm, r in zip(config.powers_dbm, gwc_select_powers(
            h_needed, top, [power(p, top) for p in config.powers_dbm]))}

    grid = [(ks, omega, alg, p_dbm, (gus[omega] if alg == "GUS" else gwc[p_dbm]
                                      if alg == "GWC" else random)[ks])
            for ks, omega, alg, p_dbm in product(config.ks_values, config.omegas,
                                                 config.algorithms, config.powers_dbm)]
    rated = defaultdict(dict)   # set -> {power: its weights' power, None if shared}
    for *_, p_dbm, sel in grid:
        if sel is not None:
            rated[sel][p_dbm] = p_dbm if config.use_estimation else None
    weights, inputs = {}, defaultdict(dict)   # K_s -> {(set, power): ZF input}
    for sel, powers in rated.items():
        covariances = channel_covariances(scen, sel) if config.use_estimation else None
        for p_dbm in dict.fromkeys(powers.values()):
            try:
                inputs[len(sel)][sel, p_dbm] = h_of(sel) if p_dbm is None else \
                    _estimate_selected_channel(scen, sel, h_of(sel), power(p_dbm, len(sel)),
                                               covariances)
            except RankDeficiencyError:   # a singular MMSE system
                weights[sel, p_dbm] = None
    for same_size in inputs.values():
        weights.update(zip(same_size, zf_weights(np.stack(list(same_size.values())))))
    rates = {}
    for sel, powers in rated.items():
        usable = [p for p, w_p in powers.items() if weights[sel, w_p] is not None]
        if usable:
            w = [weights[sel, powers[p]] for p in usable]
            rates.update(zip(((sel, p) for p in usable), sum_rate(
                h_of(sel), np.stack(w) if config.use_estimation else w[0],
                [power(p, len(sel)) for p in usable], config.mode).tolist()))

    rows = []
    for ks, omega, alg, p_dbm, sel in grid:
        r = rates.get((sel, p_dbm))
        rows.append(TrialResult(trial, alg, ks, p_dbm, omega, r,
                                estimation_load(m, k_total if alg == "GWC" else ks),
                                () if r is None else sel))
    return rows


def _aggregate(config: ExperimentConfig, rows, figure: str) -> tuple[CellStats, ...]:
    """One cell per (K_s, omega, algorithm, power) of the grid, in that
    order, from one pass over the rows; a cell keeps its rows' order."""
    groups = defaultdict(list)
    for r in rows:
        groups[r.ks, r.omega, r.algorithm, r.p_dbm].append(r)
    cells = []
    for ks, omega, alg, p_dbm in product(config.ks_values, config.omegas,
                                         config.algorithms, config.powers_dbm):
        group = groups[ks, omega, alg, p_dbm]
        ok = [r.sum_rate for r in group if r.sum_rate is not None]
        mean = float(np.mean(ok)) if ok else math.nan
        se = float(np.std(ok, ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else 0.0
        cells.append(CellStats(figure, alg, ks, p_dbm, omega, mean, se, len(ok),
                               len(group) - len(ok), group[0].load))
    return tuple(cells)


def run_experiment(config: ExperimentConfig, figure: str = "run") -> AggregateStats:
    """Execute the configured Monte-Carlo sweep and aggregate per cell.

    Per-trial algorithm failures (rank collapse, infeasible selection) are
    flagged and excluded from the cell mean; exclusion counts are reported
    in the aggregate rows.
    """
    config.validate()
    rows = [row for trial in range(config.trials)
            for row in _run_trial(config, trial)]
    return AggregateStats(_aggregate(config, rows, figure), tuple(rows))


def _check_out_path(out_path) -> None:
    """Raise ``ConfigurationError`` unless ``out_path`` is None or names a
    file, existing or not, in a directory that exists and is writable."""
    if out_path is None:
        return
    folder = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigurationError(f"cannot write {out_path}: not a file in a writable directory")


def run_sweep(config: ExperimentConfig, out_path=None, figure: str = "run") -> AggregateStats:
    """``run_experiment``, writing the CSV and manifest if given a path,
    which is checked before any trial runs."""
    _check_out_path(out_path)
    stats = run_experiment(config, figure=figure)
    if out_path is not None:
        write_results_csv(stats, out_path)
        write_manifest(config, out_path)
    return stats


def figure2_sweep(config: ExperimentConfig, out_path=None) -> AggregateStats:
    """Mean sum-rate versus total transmit power per algorithm and K_s."""
    return run_sweep(replace(config, omegas=(0,)), out_path, "fig2")


def figure3_load(config: ExperimentConfig, out_path=None) -> list[dict]:
    """Channel-estimation load versus antenna count: selected-set load
    2*M*K_s against full-pool load 2*M*K. Pure arithmetic, no trials."""
    config.validate()
    _check_out_path(out_path)
    k = config.scenario.num_users
    rows = [{"figure": "fig3", "M": m, "K": k, "K_s": ks,
             "load_selected": estimation_load(m, ks), "load_full": estimation_load(m, k),
             "ratio": ks / k}
            for m in config.fig3_m_values for ks in config.ks_values]
    if out_path is not None:
        _write_csv(out_path, LOAD_HEADER,
                   [[r[h] for h in LOAD_HEADER] for r in rows])
        write_manifest(config, out_path)
    return rows


def figure4_robustness(config: ExperimentConfig, out_path=None) -> AggregateStats:
    """Mean sum-rate versus the localization-error scale omega, over
    omega = 0..5 unless the config sets other omegas. GWC is dropped:
    full-CSI scheduling is unaffected by localization error."""
    omegas = tuple(range(6)) if config.omegas == (0,) else config.omegas
    algorithms = tuple(a for a in config.algorithms if a != "GWC")
    if "GWC" in config.algorithms and not algorithms:
        raise ConfigurationError("fig4 drops GWC, which localization error does not reach, so it "
                                 f"needs GUS or RANDOM too, got {config.algorithms!r}")
    return run_sweep(replace(config, omegas=omegas, algorithms=algorithms), out_path, "fig4")


# ---------------------------------------------------------------------------
# CSV / manifest / config-file plumbing
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    lines = [",".join(map(str, row)) for row in [header, *rows]]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_results_csv(stats: AggregateStats, path) -> None:
    _write_csv(path, RESULT_HEADER, [
        [c.figure, c.algorithm, c.ks, c.p_dbm, dbm_to_watts(c.p_dbm), c.omega, c.mean,
         c.std_err, c.trials_used, c.excluded, c.load] for c in stats.cells])


def config_to_dict(config: ExperimentConfig) -> dict:
    return {"schema_version": CONFIG_SCHEMA_VERSION, **to_plain(config)}


def config_from_dict(data: dict) -> ExperimentConfig:
    return from_versioned(ExperimentConfig, data, "config", CONFIG_SCHEMA_VERSION, {
        1: " (version 2 removed covariance_draws: estimated CSI now uses the"
           " exact channel covariance)"})


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_yaml(path, "config"))


def config_hash(config: ExperimentConfig) -> str:
    config.validate()   # a string outside the fixed choices could emit differently
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)   # libyaml: same bytes, faster
    blob = yaml.dump(config_to_dict(config), Dumper=dumper, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(config: ExperimentConfig, csv_path) -> None:
    path = str(csv_path) + ".manifest.txt"
    lines = [
        f"schema_version: {CONFIG_SCHEMA_VERSION}",
        f"config_sha256: {config_hash(config)}",
        f"base_seed: {config.base_seed}",
        f"code_version: {__version__}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
