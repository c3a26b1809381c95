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
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import __version__
from .errors import ConfigurationError, RankDeficiencyError, SelectionError
from .gscm import (ScenarioConfig, _stream, _STREAM_SELECT, channel_covariances,
                   channel_matrix, generate_scenario)
from .localization import CrlbParams, perturb_and_rebuild
from .plain import from_plain, to_plain
from .rx import (PilotConfig, PowerConfig, mmse_estimate_per_user, noise_power,
                 sum_rate, unitary_pilots, zf_weights)
from .scheduling import (build_v_matrix, estimation_load, gus_select,
                         gwc_select, random_select)

CONFIG_SCHEMA_VERSION = 2

ALGORITHMS = ("GUS", "GWC", "RANDOM")

RESULT_HEADER = ("figure", "algorithm", "K_s", "P_dbm", "P_watts", "omega",
                 "mean_sum_rate_bps_hz", "std_err", "trials_used", "excluded",
                 "load")
LOAD_HEADER = ("figure", "M", "K", "K_s", "load_selected", "load_full", "ratio")

_STREAM_FADING = 505


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def watts_to_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts / 1e-3)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; desk-scale defaults."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    algorithms: tuple[str, ...] = ALGORITHMS
    powers_dbm: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    ks_values: tuple[int, ...] = (5, 10)
    omegas: tuple[int, ...] = (0,)
    trials: int = 50
    base_seed: int = 1
    mode: str = "physical"
    gus_variant: str = "last"
    bandwidth: float = 20e6
    temperature: float = 290.0
    noise_figure_db: float = 9.0
    crlb: CrlbParams = field(default_factory=CrlbParams)
    fig3_m_values: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400)
    use_estimation: bool = False

    def validate(self) -> None:
        self.scenario.validate()
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not self.powers_dbm or not self.ks_values or not self.omegas:
            raise ConfigurationError("power, K_s and omega grids must be nonempty")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm {alg!r}")
        if self.mode not in ("physical", "paper-literal"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.gus_variant not in ("last", "set"):
            raise ConfigurationError(f"unknown gus_variant {self.gus_variant!r}")
        for ks in self.ks_values:
            if not 1 <= ks <= self.scenario.num_users:
                raise ConfigurationError(f"K_s={ks} out of range")
            if ks > self.scenario.antenna_count:
                raise ConfigurationError(
                    f"K_s={ks} exceeds antenna_count={self.scenario.antenna_count};"
                    " zero-forcing needs at least as many antennas as users")
        if any(o < 0 for o in self.omegas):
            raise ConfigurationError("omega values must be nonnegative")
        self.crlb.validate()

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


def _estimate_selected_channel(scenario, selected, h_true,
                               power: PowerConfig) -> np.ndarray:
    """MMSE-estimate the selected users' channel from one block of
    orthogonal pilots, using the model's exact per-user covariances."""
    rng = _stream(scenario.config.rng_seed, _STREAM_FADING, len(selected))
    pilots = math.sqrt(power.per_user) * unitary_pilots(len(selected))
    pilot = PilotConfig(matrix=pilots, noise_variance=power.noise_power)
    m, tau_p = h_true.shape[0], pilots.shape[1]
    noise = math.sqrt(power.noise_power / 2.0) * (
        rng.standard_normal((m, tau_p)) + 1j * rng.standard_normal((m, tau_p)))
    received = h_true @ pilots + noise
    return mmse_estimate_per_user(received, pilot,
                                  channel_covariances(scenario, selected))


def run_experiment(config: ExperimentConfig, figure: str = "run") -> AggregateStats:
    """Execute the configured Monte-Carlo sweep and aggregate per cell.

    Per-trial algorithm failures (rank collapse, infeasible selection) are
    flagged and excluded from the cell mean; exclusion counts are reported
    in the aggregate rows.
    """
    config.validate()
    p_n = config.noise_power
    k_total = config.scenario.num_users
    m = config.scenario.antenna_count
    rows: list[TrialResult] = []

    for trial in range(config.trials):
        scen = generate_scenario(
            replace(config.scenario, rng_seed=config.base_seed + trial))
        v = build_v_matrix(scen)
        h_all = channel_matrix(scen, range(k_total)).entries

        for ks in config.ks_values:
            random_rng = _stream(config.base_seed + trial, _STREAM_SELECT, ks)
            random_sel = random_select(k_total, ks, random_rng)
            for omega in config.omegas:
                if omega == 0:
                    v_use = v
                else:
                    v_use = perturb_and_rebuild(scen, omega, config.crlb).v_tilde
                for alg in config.algorithms:
                    load = estimation_load(m, k_total if alg == "GWC" else ks)
                    # GUS and RANDOM do not depend on power: select once
                    fixed_sel = random_sel.selected
                    if alg == "GUS":
                        try:
                            fixed_sel = gus_select(v_use, ks, config.gus_variant).selected
                        except SelectionError:
                            fixed_sel = None
                    for p_dbm in config.powers_dbm:
                        power = PowerConfig(dbm_to_watts(p_dbm), ks, p_n)
                        try:
                            if alg == "GWC":
                                sel = gwc_select(h_all, ks, power, config.mode).selected
                            elif fixed_sel is None:
                                raise SelectionError("no feasible GUS selection")
                            else:
                                sel = fixed_sel
                            h_s = h_all[:, list(sel)]
                            if config.use_estimation:
                                h_est = _estimate_selected_channel(
                                    scen, list(sel), h_s, power)
                            else:
                                h_est = h_s
                            rate = sum_rate(h_s, zf_weights(h_est), power,
                                            mode=config.mode)
                            rows.append(TrialResult(trial, alg, ks, p_dbm, omega,
                                                    rate, load, tuple(sel)))
                        except (RankDeficiencyError, SelectionError):
                            rows.append(TrialResult(trial, alg, ks, p_dbm, omega,
                                                    None, load, ()))

    cells = []
    for ks in config.ks_values:
        for omega in config.omegas:
            for alg in config.algorithms:
                for p_dbm in config.powers_dbm:
                    group = [r for r in rows
                             if (r.algorithm, r.ks, r.omega) == (alg, ks, omega)
                             and r.p_dbm == p_dbm]
                    ok = [r.sum_rate for r in group if r.sum_rate is not None]
                    excluded = len(group) - len(ok)
                    mean = float(np.mean(ok)) if ok else math.nan
                    se = float(np.std(ok, ddof=1) / math.sqrt(len(ok))) \
                        if len(ok) > 1 else 0.0
                    cells.append(CellStats(
                        figure, alg, ks, p_dbm, omega, mean, se, len(ok),
                        excluded, estimation_load(m, k_total if alg == "GWC" else ks)))
    return AggregateStats(tuple(cells), tuple(rows))


def figure2_sweep(config: ExperimentConfig, out_path=None) -> AggregateStats:
    """Mean sum-rate versus total transmit power per algorithm and K_s."""
    cfg = replace(config, omegas=(0,))
    stats = run_experiment(cfg, figure="fig2")
    if out_path is not None:
        write_results_csv(stats, out_path)
        write_manifest(cfg, out_path)
    return stats


def figure3_load(config: ExperimentConfig, out_path=None) -> list[dict]:
    """Channel-estimation load versus antenna count: selected-set load
    2*M*K_s against full-pool load 2*M*K. Pure arithmetic, no trials."""
    config.validate()
    k = config.scenario.num_users
    rows = []
    for m in config.fig3_m_values:
        for ks in config.ks_values:
            sel_load = estimation_load(m, ks)
            full_load = estimation_load(m, k)
            rows.append({
                "figure": "fig3", "M": m, "K": k, "K_s": ks,
                "load_selected": sel_load, "load_full": full_load,
                "ratio": ks / k,
            })
    if out_path is not None:
        _write_csv(out_path, LOAD_HEADER,
                   [[r[h] for h in LOAD_HEADER] for r in rows])
        write_manifest(config, out_path)
    return rows


def figure4_robustness(config: ExperimentConfig, out_path=None) -> AggregateStats:
    """Mean sum-rate versus the localization-error scale omega."""
    cfg = config
    if cfg.omegas == (0,):
        cfg = replace(cfg, omegas=tuple(range(6)))
    if "GWC" in cfg.algorithms:
        # full-CSI scheduling is unaffected by localization error; drop it
        cfg = replace(cfg, algorithms=tuple(a for a in cfg.algorithms if a != "GWC"))
    stats = run_experiment(cfg, figure="fig4")
    if out_path is not None:
        write_results_csv(stats, out_path)
        write_manifest(cfg, out_path)
    return stats


# ---------------------------------------------------------------------------
# CSV / manifest / config-file plumbing
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_results_csv(stats: AggregateStats, path) -> None:
    rows = []
    for c in stats.cells:
        rows.append([c.figure, c.algorithm, c.ks, c.p_dbm,
                     dbm_to_watts(c.p_dbm), c.omega, c.mean, c.std_err,
                     c.trials_used, c.excluded, c.load])
    _write_csv(path, RESULT_HEADER, rows)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {"schema_version": CONFIG_SCHEMA_VERSION, **to_plain(config)}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError(f"config must be a mapping, got {data!r}")
    version = data.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        why = (" (version 2 removed covariance_draws: estimated CSI now uses the"
               " exact channel covariance)") if version == 1 else ""
        raise ConfigurationError(
            f"unsupported config schema_version {version!r}, expected "
            f"{CONFIG_SCHEMA_VERSION}{why}"
        )
    rest = {k: v for k, v in data.items() if k != "schema_version"}
    return from_plain(ExperimentConfig, rest, "config")


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(yaml.safe_load(fh))


def config_hash(config: ExperimentConfig) -> str:
    blob = yaml.safe_dump(config_to_dict(config), sort_keys=True).encode()
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
