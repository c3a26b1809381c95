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
from itertools import product

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .gscm import ScenarioConfig, channel_covariances, channel_matrix, generate_scenario
from .localization import CrlbParams, perturb_and_rebuild_omegas
from .plain import check_fields, checked, from_plain, read_yaml, to_plain, write_yaml
from .rx import (SUM_RATE_MODES, PowerConfig, _mmse_filter, noise_power, sum_rate,
                 unitary_pilots, zf_weights)
from .scheduling import GUS_VARIANTS, estimation_load, gus_select, gwc_select_powers, random_select

CONFIG_SCHEMA_VERSION = 2

ALGORITHMS = ("GUS", "GWC", "RANDOM")

RESULT_HEADER = ("figure", "algorithm", "K_s", "P_dbm", "P_watts", "omega",
                 "mean_sum_rate_bps_hz", "std_err", "trials_used", "excluded",
                 "load")
LOAD_HEADER = ("figure", "M", "K", "K_s", "load_selected", "load_full", "ratio")


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
    mode: str = checked("physical", choices=SUM_RATE_MODES)
    gus_variant: str = checked("last", choices=GUS_VARIANTS)
    bandwidth: float = checked(20e6, "positive")
    temperature: float = checked(290.0, "positive")
    noise_figure_db: float = checked(9.0)
    crlb: CrlbParams = field(default_factory=CrlbParams)
    fig3_m_values: tuple[int, ...] = checked((50, 100, 150, 200, 250, 300, 350, 400),
                                             "positive")
    use_estimation: bool = checked(False)

    def validate(self) -> None:
        # scenario and crlb checked themselves; a non-finite input names the noise power
        noise_power(self.bandwidth, self.temperature, self.noise_figure_db)
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
        # zero-forcing needs as many users, antennas and MPCs as K_s: H and each
        # MMSE estimate lie in the span of the N_C * N_p MPC steering vectors
        scen, ks = self.scenario, max(self.ks_values)
        name, bound = min([("num_users", scen.num_users), ("antenna_count", scen.antenna_count),
                           ("num_clusters * mpcs_per_cluster",
                            scen.num_clusters * scen.mpcs_per_cluster)], key=lambda nb: nb[1])
        if ks > bound:
            raise ConfigurationError(f"K_s={ks} exceeds {name}={bound}; zero-forcing needs K_s "
                                     "<= num_users, antenna_count and the number of MPCs")

    __post_init__ = validate   # built, loaded or replaced: a config that exists is valid

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
    sum_rate: float | None   # None: selected is () (a short search), or zf_refused refused it
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


def _prefix(result, ks: int) -> tuple[int, ...] | None:
    """The first ``ks`` picks of a schedule result, None past a short one."""
    return result.selected[:ks] if ks <= len(result.selected) else None


def _select(config: ExperimentConfig, scen) -> list[tuple]:
    """Select: each row's (K_s, omega, algorithm, power, set) in grid order,
    GWC's set None until its stage; one GUS run at the largest K_s on one rebuild's V."""
    k_total = config.scenario.num_users
    random = {ks: random_select(k_total, ks, scen.stream("select", ks))
              for ks in config.ks_values} if "RANDOM" in config.algorithms else {}
    gus = {} if "GUS" not in config.algorithms else dict(zip(config.omegas, gus_select(
        perturb_and_rebuild_omegas(scen, config.omegas, config.crlb).v_tilde,
        max(config.ks_values), config.gus_variant)))
    return [(ks, omega, alg, p_dbm, None if alg == "GWC" else
             _prefix(gus[omega] if alg == "GUS" else random[ks], ks))
            for ks, omega, alg, p_dbm in product(config.ks_values, config.omegas,
                                                 config.algorithms, config.powers_dbm)]


def _synthesize(config: ExperimentConfig, scen, grid: list) -> tuple:
    """Synthesize: the users the grid rates, or all if GWC (which reads all
    of H) runs, and their columns of H from one ``channel_matrix`` call."""
    users = range(config.scenario.num_users) if "GWC" in config.algorithms else \
        sorted({u for *_, sel in grid if sel is not None for u in sel})
    return users, channel_matrix(scen, users).entries if users else None


def _gwc(config: ExperimentConfig, h, grid: list) -> list[tuple]:
    """GWC: the grid with GWC's sets, from one search at the largest K_s."""
    if "GWC" not in config.algorithms:
        return grid
    top = max(config.ks_values)
    gwc = dict(zip(config.powers_dbm, gwc_select_powers(h, top, [
        PowerConfig(dbm_to_watts(p), top, config.noise_power) for p in config.powers_dbm])))
    return [(ks, omega, alg, p_dbm, _prefix(gwc[p_dbm], ks) if alg == "GWC" else sel)
            for ks, omega, alg, p_dbm, sel in grid]


def _receive(config: ExperimentConfig, scen, users, h, grid: list) -> dict:
    """Receive: {K_s: [(set, its powers' columns, true channel, ZF input)]}: a set's
    true channel for all powers, or per power its MMSE estimate, NaN where singular.
    Unitary pilots carry energy P, so R_u + (sigma^2/P) I is the same in every set:
    one covariance stack of the rated users, and one solve per power."""
    receivers, m, p_n = defaultdict(list), config.scenario.antenna_count, config.noise_power
    rated = {sel: h[:, np.searchsorted(users, sel)]   # users is sorted
             for sel in dict.fromkeys(sel for *_, sel in grid if sel is not None)}
    if not (config.use_estimation and rated):   # true channels, or no set to estimate
        for sel, h_sel in rated.items():
            receivers[len(sel)].append((sel, slice(None), h_sel, h_sel))
        return receivers
    distinct = sorted({u for sel in rated for u in sel})
    rows = {sel: np.searchsorted(distinct, sel) for sel in rated}   # its users' stack rows
    covariances, noise = channel_covariances(scen, distinct), {}
    for ks in {len(sel) for sel in rated}:   # the same for each set of a K_s
        z = scen.stream("pilot_noise", ks).standard_normal((2, m, ks))
        noise[ks] = math.sqrt(p_n / 2.0) * (z[0] + 1j * z[1])
    for j, p_dbm in enumerate(config.powers_dbm):
        sets = list(dict.fromkeys(sel for *_, p, sel in grid if p == p_dbm and sel is not None))
        rhs, watts = np.zeros((len(distinct), m, len(sets)), dtype=complex), dbm_to_watts(p_dbm)
        for i, sel in enumerate(sets):   # column i: its users' z_k = Y phi_k^H / ||phi_k||^2
            pilots = math.sqrt(watts / len(sel)) * unitary_pilots(len(sel))
            energy = (pilots @ pilots.conj().T).diagonal().real
            rhs[rows[sel], :, i] = ((rated[sel] @ pilots + noise[len(sel)])
                                    @ pilots.conj().T / energy).T
        estimates = _mmse_filter(covariances, p_n / watts, rhs)
        for i, sel in enumerate(sets):   # zf_refused refuses a set holding a singular user
            receivers[len(sel)].append((sel, slice(j, j + 1), rated[sel],
                                        estimates[rows[sel], :, i].T))
    return receivers


def _zero_force_and_rate(config: ExperimentConfig, receivers: dict) -> dict:
    """Zero-force and rate: per K_s, one stacked ``zf_weights`` call and one
    ``sum_rate`` call on its usable receivers; {set: {power: rate}}."""
    rates = defaultdict(dict)
    for ks, stack in receivers.items():
        sets, columns, h_true, inputs = zip(*stack)
        weights = zf_weights(np.stack(inputs))
        if usable := [i for i, w in enumerate(weights) if w is not None]:
            table = sum_rate([h_true[i] for i in usable], [weights[i] for i in usable], [
                PowerConfig(dbm_to_watts(p), ks, config.noise_power) for p in config.powers_dbm],
                config.mode)
            for i, row in zip(usable, table.tolist()):
                rates[sets[i]].update(zip(config.powers_dbm[columns[i]], row[columns[i]]))
    return rates


def _rows(config: ExperimentConfig, trial: int, grid: list, rates: dict) -> list[TrialResult]:
    """Rows: one per grid cell with its set, () past a short search, and the
    set's rate, None where zero-forcing refused it."""
    k_total, m = config.scenario.num_users, config.scenario.antenna_count
    load = {ks: estimation_load(m, ks) for ks in {*config.ks_values, k_total}}
    return [TrialResult(trial, alg, ks, p_dbm, omega, rates.get(sel, {}).get(p_dbm),
                        load[k_total if alg == "GWC" else ks], sel or ())
            for ks, omega, alg, p_dbm, sel in grid]


def _run_trial(config: ExperimentConfig, trial: int) -> list[TrialResult]:
    """The rows of one trial in (K_s, omega, algorithm, power) order, a pure
    function of (config, base seed, trial), as one call per stage: select,
    synthesize, GWC, receive, zero-force and rate, rows."""
    scen = generate_scenario(replace(config.scenario, rng_seed=config.base_seed + trial))
    grid = _select(config, scen)
    users, h = _synthesize(config, scen, grid)
    grid = _gwc(config, h, grid)
    receivers = _receive(config, scen, users, h, grid)
    rates = _zero_force_and_rate(config, receivers)
    return _rows(config, trial, grid, rates)


def _aggregate(trials, figure: str) -> tuple[CellStats, ...]:
    """One cell per column of the trials' rows, each trial's rows in the
    grid order ``_run_trial`` emits; a cell keeps the trial order. Cells with
    one count of usable rates take their bitwise per-cell means and standard
    errors along the rows of one (cells, count) array."""
    groups = list(zip(*trials))
    ok = [[r.sum_rate for r in group if r.sum_rate is not None] for group in groups]
    stats = {}   # cell -> (mean, std_err), absent with no usable rate
    for count in set(map(len, ok)) - {0}:
        index = [i for i, rates in enumerate(ok) if len(rates) == count]
        table = np.array([ok[i] for i in index])
        se = table.std(axis=1, ddof=1) / math.sqrt(count) if count > 1 else np.zeros(len(index))
        stats.update(zip(index, zip(table.mean(axis=1).tolist(), se.tolist())))
    return tuple(CellStats(figure, g[0].algorithm, g[0].ks, g[0].p_dbm, g[0].omega,
                           *stats.get(i, (math.nan, 0.0)), len(r), len(g) - len(r), g[0].load)
                 for i, (g, r) in enumerate(zip(groups, ok)))


def run_experiment(config: ExperimentConfig, figure: str = "run") -> AggregateStats:
    """Execute the configured Monte-Carlo sweep and aggregate per cell: a
    cell's mean leaves out, and its ``excluded`` counts, the rows with no rate."""
    trials = [_run_trial(config, trial) for trial in range(config.trials)]
    return AggregateStats(_aggregate(trials, figure), tuple(r for rows in trials for r in rows))


def _manifest_path(csv_path) -> str:
    return f"{csv_path}.manifest.txt"


def _check_out_path(out_path) -> None:
    """Raise ``ConfigurationError`` unless ``out_path`` is None or it and its
    manifest each name a file, existing or not, in a writable directory."""
    for path in () if out_path is None else (out_path, _manifest_path(out_path)):
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigurationError(f"cannot write {path}: not a file in a writable directory")


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
    if not algorithms:   # config.algorithms is nonempty, so it was GWC alone
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
    if not isinstance(data, dict):
        raise ConfigurationError(f"config must be a mapping, got {data!r}")
    found = data.get("schema_version")
    if found != CONFIG_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported config schema_version {found!r}, expected {CONFIG_SCHEMA_VERSION}"
            + (" (version 2 removed covariance_draws: estimated CSI now uses the"
               " exact channel covariance)" if found == 1 else ""))
    return from_plain(ExperimentConfig,
                      {k: v for k, v in data.items() if k != "schema_version"}, "config")


def save_config(config: ExperimentConfig, path) -> None:
    write_yaml(config_to_dict(config), path)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_yaml(path, "config"))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(repr(config_to_dict(config)).encode()).hexdigest()


def write_manifest(config: ExperimentConfig, csv_path) -> None:
    path = _manifest_path(csv_path)
    lines = [
        f"schema_version: {CONFIG_SCHEMA_VERSION}",
        f"config_sha256: {config_hash(config)}",
        f"base_seed: {config.base_seed}",
        f"code_version: {__version__}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
