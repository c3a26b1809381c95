import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gusim import cli, gscm, harness, rx, scheduling
from gusim.errors import ConfigurationError
from gusim.gscm import ScenarioConfig, channel_covariances
from gusim.rx import PowerConfig, sum_rate, zf_weights
from gusim.localization import CrlbParams, crlb, perturb_and_rebuild_omegas
from gusim.plain import dump_yaml
from gusim.harness import (ALGORITHMS, ExperimentConfig, LOAD_HEADER, RESULT_HEADER,
                           config_from_dict, config_hash, config_to_dict,
                           dbm_to_watts, figure2_sweep, figure3_load,
                           figure4_robustness, load_config, run_experiment,
                           run_sweep, save_config, write_manifest,
                           write_results_csv)
from gusim.scheduling import gus_select, gwc_select_powers

from conftest import estimate_channel, naive_trial_rows


def plain_config_strategy(cls, **overrides):
    """Plain mappings, as ``to_plain`` gives them, of the fields of config class
    ``cls``, every numeric, bool and pair field drawn from its annotation (any
    float, integers up to 2^70), valid or not; ``overrides`` gives the
    strategies of the other fields."""
    kinds = {"float": st.floats(), "int": st.integers(0, 2**70), "bool": st.booleans(),
             "float | None": st.none() | st.floats(),
             "tuple[float, float]": st.lists(st.floats(), min_size=2, max_size=2),
             "tuple[float, ...]": st.lists(st.floats(), min_size=1, max_size=6),
             "tuple[int, ...]": st.lists(st.integers(0, 2**70), min_size=1, max_size=6)}
    return st.fixed_dictionaries({**{f.name: kinds[f.type] for f in fields(cls)
                                     if f.type in kinds}, **overrides})


def tiny_config(**overrides):
    defaults = dict(
        scenario=ScenarioConfig(num_users=8, num_clusters=2, antenna_count=8,
                                mpcs_per_cluster=3, rng_seed=0),
        algorithms=("GUS", "GWC", "RANDOM"),
        powers_dbm=(0.0, 20.0),
        ks_values=(2,),
        omegas=(0,),
        trials=2,
        base_seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if any trial starts (every trial draws a scenario)."""
    def refuse(config):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "generate_scenario", refuse)


class TestUnitConversions:
    def test_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


class TestRunExperiment:
    def test_row_accounting_single_trial(self):
        stats = run_experiment(tiny_config(trials=1, algorithms=("GUS",),
                                           powers_dbm=(10.0,)))
        assert len(stats.cells) == 1
        cell = stats.cells[0]
        assert cell.trials_used + cell.excluded == 1
        assert len(stats.trial_rows) == 1

    def test_deterministic(self):
        cfg = tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(tiny_config(trials=0))

    def test_load_column_follows_contract(self):
        stats = run_experiment(tiny_config())
        for cell in stats.cells:
            expected_users = 8 if cell.algorithm == "GWC" else cell.ks
            assert cell.load == 2 * 8 * expected_users

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(tiny_config(algorithms=("FOO",)))

    def test_estimation_flag_path(self):
        cfg = tiny_config(trials=1, algorithms=("GUS",), powers_dbm=(30.0,),
                          use_estimation=True)
        stats = run_experiment(cfg)
        assert stats.cells[0].trials_used == 1
        assert math.isfinite(stats.cells[0].mean)

    def test_estimation_changes_rates_not_selections(self):
        kwargs = dict(algorithms=("GUS", "RANDOM"), powers_dbm=(10.0, 40.0))
        perfect = run_experiment(tiny_config(**kwargs)).trial_rows
        estimated = run_experiment(tiny_config(use_estimation=True, **kwargs)).trial_rows
        assert [r.selected for r in perfect] == [r.selected for r in estimated]
        assert all(math.isfinite(r.sum_rate) for r in estimated)
        assert [r.sum_rate for r in perfect] != [r.sum_rate for r in estimated]

    def test_gus_selects_once_per_trial_and_omega(self, monkeypatch):
        # one call per trial on the stacked V of every omega, at the largest
        # K_s; a smaller K_s takes the first picks
        calls = []

        def counting(v, ks, variant):
            calls.append((v.shape[0], ks))
            return gus_select(v, ks, variant)

        monkeypatch.setattr(harness, "gus_select", counting)
        cfg = tiny_config(algorithms=("GUS",), powers_dbm=(0.0, 20.0, 40.0),
                          ks_values=(2, 3), omegas=(0, 1))
        stats = run_experiment(cfg)
        assert calls == [(2, 3)] * cfg.trials
        assert len(stats.trial_rows) == cfg.trials * 2 * 2 * 3

    def test_gwc_selects_once_per_trial_for_every_power(self, monkeypatch):
        # at the largest K_s, with every power in config order
        calls = []

        def counting(h_all, ks, powers):
            calls.append((ks, [p.total_power for p in powers]))
            return gwc_select_powers(h_all, ks, powers)

        monkeypatch.setattr(harness, "gwc_select_powers", counting)
        cfg = tiny_config(algorithms=("GWC",), powers_dbm=(40.0, 0.0, 20.0),
                          ks_values=(2, 3), omegas=(0, 1))
        stats = run_experiment(cfg)
        assert calls == [(3, [dbm_to_watts(p) for p in cfg.powers_dbm])] * cfg.trials
        assert len(stats.trial_rows) == cfg.trials * 2 * 2 * 3

    @pytest.mark.parametrize("rank_limited", [False, True])
    def test_zf_weights_once_per_distinct_selection(self, monkeypatch, rank_limited):
        # perfect CSI: the receiver of a set, or its rank deficiency, does
        # not depend on the power. One stacked call per trial and set size
        # zero-forces each distinct set once and reports deficiency per entry,
        # and one more rates the size's usable receivers at every power
        calls, deficient, rated = [], [], []

        def counting(h):
            calls.append((h.shape[2], [entry.tobytes() for entry in h]))
            receivers = zf_weights(h)
            deficient.extend(rx is None for rx in receivers)
            return receivers

        def rating(h, w, powers, mode):
            rated.append((np.shape(h)[2], len(h), len(powers)))
            return sum_rate(h, w, powers, mode)

        monkeypatch.setattr(harness, "zf_weights", counting)
        monkeypatch.setattr(harness, "sum_rate", rating)
        cfg = tiny_config(powers_dbm=(0.0, 20.0, 40.0), ks_values=(2, 3),
                          omegas=(0, 1))
        if rank_limited:   # no angular spread: one steering vector per cluster, so
            # every channel of the 2 clusters has rank 2 and K_s = 3 is rank deficient
            cfg = replace(cfg, scenario=replace(cfg.scenario, angular_spread_deg=0.0))
        rows = run_experiment(cfg).trial_rows
        assert [size for size, _ in calls] == [2, 3] * cfg.trials
        entries = [entry for _, stack in calls for entry in stack]
        assert len(set(entries)) == len(entries)
        assert any(r.sum_rate is None for r in rows) == any(deficient) == rank_limited
        usable = np.split(~np.array(deficient), np.cumsum([len(stack) for _, stack in calls]))
        assert rated == [(size, n, len(cfg.powers_dbm)) for (size, _), n in
                         zip(calls, map(np.count_nonzero, usable)) if n]
        if not rank_limited:
            assert len(entries) == len({(r.trial, r.selected) for r in rows}) < len(rows)

    STAGES = ("_select", "_synthesize", "_gwc", "_receive", "_zero_force_and_rate", "_rows")

    @pytest.mark.parametrize("overrides", [{}, dict(algorithms=("GUS", "RANDOM")),
                                           dict(use_estimation=True)])
    def test_each_stage_runs_once_per_trial(self, monkeypatch, overrides):
        # a trial is one call per stage, in order, each looked up by its
        # module-level name, whichever algorithms run
        calls = []

        def counted(name, stage):
            def wrapper(*args):
                calls.append(name)
                return stage(*args)
            return wrapper

        cfg = tiny_config(ks_values=(2, 3), omegas=(0, 1), **overrides)
        expected = run_experiment(cfg)
        for name in self.STAGES:
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        assert run_experiment(cfg) == expected
        assert calls == list(self.STAGES) * cfg.trials

    @staticmethod
    def count_rebuilds(monkeypatch):
        calls = []

        def counting(scen, omegas, params):
            calls.append((scen.config.rng_seed, tuple(omegas)))
            return perturb_and_rebuild_omegas(scen, omegas, params)

        monkeypatch.setattr(harness, "perturb_and_rebuild_omegas", counting)
        return calls

    @pytest.mark.parametrize("ks_values", [(2,), (2, 3, 4)])
    def test_perturbation_once_per_trial_and_positive_omega(self, monkeypatch,
                                                            ks_values):
        # one rebuild per trial carries every omega of the grid, 0 included,
        # in grid order
        calls = self.count_rebuilds(monkeypatch)
        cfg = tiny_config(algorithms=("GUS", "RANDOM"), ks_values=ks_values,
                          omegas=(3, 0, 1))
        stats = run_experiment(cfg)
        assert calls == [(3 + t, (3, 0, 1)) for t in range(2)]
        assert len(stats.trial_rows) == 2 * len(ks_values) * 3 * 2 * 2

    def test_rebuild_at_omega_zero_alone(self, monkeypatch):
        # GUS takes even omega = 0's true V from the rebuild
        calls = self.count_rebuilds(monkeypatch)
        run_experiment(tiny_config(algorithms=("GUS", "RANDOM"), omegas=(0,)))
        assert calls == [(3 + t, (0,)) for t in range(2)]

    def test_no_rebuild_without_gus(self, monkeypatch):
        calls = self.count_rebuilds(monkeypatch)
        run_experiment(tiny_config(algorithms=("GWC", "RANDOM"), omegas=(0, 2)))
        assert calls == []

    def test_one_covariance_stack_and_one_solve_per_power(self, monkeypatch):
        # whichever algorithm, K_s, omega or power selects a set, a trial takes
        # the covariances of its sorted rated users once and solves once per power
        calls, solves = [], []
        solve = np.linalg.solve

        def counting(scen, selected):
            calls.append((scen.config.rng_seed, list(selected)))
            return channel_covariances(scen, selected)

        def solving(a, b):
            solves.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(harness, "channel_covariances", counting)
        monkeypatch.setattr(np.linalg, "solve", solving)
        cfg = tiny_config(use_estimation=True, powers_dbm=(0.0, 20.0, 40.0),
                          ks_values=(2, 3), omegas=(0, 1))
        rows = run_experiment(cfg).trial_rows
        assert all(r.sum_rate is not None for r in rows)
        rated = [sorted({u for r in rows if r.trial == t for u in r.selected})
                 for t in range(cfg.trials)]
        assert calls == [(cfg.base_seed + t, users) for t, users in enumerate(rated)]
        assert solves == [len(users) for users in rated for _ in cfg.powers_dbm]
        assert len({(r.trial, r.selected) for r in rows}) > 2 * cfg.trials

    def test_channel_geometry_built_once_per_trial(self, monkeypatch):
        # H and the covariances of every selected set share one steering tensor
        calls = []
        steering_tensor = gscm._steering_tensor

        def counting(scen):
            calls.append(scen.config.rng_seed)
            return steering_tensor(scen)

        monkeypatch.setattr(gscm, "_steering_tensor", counting)
        cfg = tiny_config(use_estimation=True, powers_dbm=(0.0, 20.0, 40.0),
                          ks_values=(2, 3), omegas=(0, 1))
        rows = run_experiment(cfg).trial_rows
        assert calls == [cfg.base_seed + t for t in range(cfg.trials)]
        assert len({(r.trial, r.selected) for r in rows}) > 2 * cfg.trials

    def test_failed_gus_selection_excludes_every_power(self, monkeypatch):
        # a V of zero rows leaves GUS no usable candidate; the channel keeps
        # its gains, since only the selection sees the zeroed V
        select = harness.gus_select

        def zero_v(v, *args):
            return select(np.zeros_like(v), *args)

        monkeypatch.setattr(harness, "gus_select", zero_v)
        with pytest.warns(UserWarning, match="zero-norm"):
            stats = run_experiment(tiny_config(algorithms=("GUS", "RANDOM")))
        for cell in stats.cells:
            if cell.algorithm == "GUS":
                assert (cell.trials_used, cell.excluded) == (0, 2)
            else:
                assert (cell.trials_used, cell.excluded) == (2, 0)

    def test_ks_above_antenna_count_rejected_before_any_trial(self):
        with pytest.raises(ConfigurationError, match="antenna_count"):
            tiny_config(scenario=ScenarioConfig(num_users=8, num_clusters=2, antenna_count=4),
                        ks_values=(6,))

    @pytest.mark.parametrize("overrides,ks,match", [
        (dict(num_users=5), 6, "num_users=5"),
        (dict(num_users=5, antenna_count=4), 6, "antenna_count=4"),   # the smaller bound
        (dict(num_clusters=1, num_users=7), 8, r"num_clusters \* mpcs_per_cluster=6")])
    def test_message_names_the_bound_that_binds(self, no_trials, overrides, ks, match):
        cfg = ExperimentConfig(scenario=ScenarioConfig(**overrides), ks_values=(2,))
        with pytest.raises(ConfigurationError, match=f"K_s={ks} exceeds {match};"):
            replace(cfg, ks_values=(2, ks))

    def test_paper_literal_needs_estimation(self, no_trials):
        # with perfect CSI every algorithm would read K_s*log2(1 + P/K_s)
        with pytest.raises(ConfigurationError, match="use_estimation"):
            tiny_config(mode="paper-literal", algorithms=("GUS", "RANDOM"))
        cfg = tiny_config(mode="paper-literal", algorithms=("GUS", "RANDOM"),
                          use_estimation=True)
        with pytest.raises(ConfigurationError, match="use_estimation"):
            replace(cfg, use_estimation=False)

    def test_paper_literal_gwc_rejected_before_any_trial(self, no_trials):
        # its flat objective picks the strongest column, then the lowest indices
        with pytest.raises(ConfigurationError, match="GWC.*lowest indices"):
            tiny_config(mode="paper-literal", use_estimation=True)
        with pytest.raises(ConfigurationError, match="GWC"):
            replace(tiny_config(use_estimation=True), mode="paper-literal")

    @pytest.mark.parametrize("power", [math.nan, math.inf, 4000.0, -4000.0])
    def test_nonfinite_power_rejected_before_any_trial(self, no_trials, power):
        # 4000 dBm overflows dbm_to_watts; -4000 dBm is 0 W, a pilot with no energy
        with pytest.raises(ConfigurationError, match="powers_dbm"):
            run_experiment(tiny_config(powers_dbm=(0.0, power)))
        tiny_config(powers_dbm=(-3200.0, 3080.0)).validate()

    @pytest.mark.parametrize("powers_dbm", [(0.0, 20.0), (20.0,)])
    def test_singular_mmse_excludes_only_its_power(self, monkeypatch, powers_dbm):
        # every user singular at 20 dBm drops each set's 20 dBm row; the
        # same sets are still rated at 0 dBm, with the same rates. With 20 dBm
        # alone no set size has a usable receiver, and every row is excluded
        mmse_filter = harness._mmse_filter
        cfg = tiny_config(use_estimation=True, algorithms=("GUS", "RANDOM"),
                          powers_dbm=powers_dbm)

        def singular_at_20_dbm(covariances, noise, z):
            estimates = mmse_filter(covariances, noise, z)
            return estimates * math.nan if noise < 1e2 * cfg.noise_power else estimates   # 0.1 W

        plain = run_experiment(cfg)
        monkeypatch.setattr(harness, "_mmse_filter", singular_at_20_dbm)
        stats = run_experiment(cfg)
        for row, before in zip(stats.trial_rows, plain.trial_rows, strict=True):
            assert row == (replace(before, sum_rate=None, selected=())
                           if row.p_dbm == 20.0 else before)
        assert [(c.p_dbm, c.trials_used, c.excluded) for c in stats.cells] == \
            [(0.0, 2, 0), (20.0, 0, 2)][-len(powers_dbm):] * 2

    @pytest.mark.parametrize("sweep", [run_sweep, figure2_sweep, figure3_load,
                                       figure4_robustness])
    @pytest.mark.parametrize("name", ["missing/o.csv", "folder"])
    def test_unwritable_output_path_rejected_before_any_trial(self, tmp_path, no_trials,
                                                              sweep, name):
        # a missing directory, or a path that is a directory itself
        (tmp_path / "folder").mkdir()
        out = tmp_path / name
        with pytest.raises(ConfigurationError, match="cannot write .* writable directory"):
            sweep(tiny_config(), out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]
        assert not any((tmp_path / "folder").iterdir())

    def test_negative_base_seed_rejected_before_any_trial(self, no_trials):
        with pytest.raises(ConfigurationError, match="base_seed"):
            tiny_config(base_seed=-2)
        with pytest.raises(ConfigurationError, match="base_seed"):
            replace(tiny_config(base_seed=0), base_seed=-2)


class TestValidate:
    @pytest.mark.parametrize("overrides,match", [
        (dict(bandwidth=-1.0), "bandwidth"), (dict(temperature=0.0), "temperature"),
        (dict(bandwidth=math.nan), "noise power"), (dict(temperature=math.nan), "noise power"),
        (dict(noise_figure_db=math.inf), "noise power"),
        (dict(noise_figure_db=-math.inf), "noise power"),
        (dict(noise_figure_db=1e4), "noise power"), (dict(bandwidth="x"), "noise power")])
    def test_noise_power_must_be_finite_and_positive(self, no_trials, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            run_experiment(tiny_config(**overrides))

    @pytest.mark.parametrize("name,value", [
        ("bandwidth", True), ("temperature", True), ("noise_figure_db", False)])
    def test_noise_power_inputs_must_not_be_bools(self, name, value):
        # noise_power would take a bool as the number 1 or 0 and give a finite power
        with pytest.raises(ConfigurationError, match=f"{name} must be finite, got {value}"):
            tiny_config(**{name: value})

    @pytest.mark.parametrize("values", [(), (0,), (100, -50), (100.0,), (True,), (50, 50)])
    def test_fig3_m_values_must_be_positive_integers(self, no_trials, values):
        with pytest.raises(ConfigurationError, match="fig3_m_values"):
            run_experiment(tiny_config(fig3_m_values=values))
        with pytest.raises(ConfigurationError, match="fig3_m_values"):
            figure3_load(tiny_config(fig3_m_values=values))

    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_use_estimation_must_be_a_bool(self, no_trials, value):
        with pytest.raises(ConfigurationError, match="use_estimation"):
            run_experiment(tiny_config(use_estimation=value))

    @pytest.mark.parametrize("grid,values", [
        ("ks_values", (2, 2)), ("powers_dbm", (0.0, 20.0, 0)), ("omegas", (0, 1, 0)),
        ("algorithms", ("GUS", "RANDOM", "GUS"))])
    def test_duplicate_grid_entries_rejected_before_any_trial(self, no_trials, grid,
                                                              values):
        # a duplicate would be a second cell holding the same trials
        with pytest.raises(ConfigurationError, match=f"{grid} must be .* distinct"):
            run_experiment(tiny_config(**{grid: values}))

    def test_empty_algorithms_rejected_before_any_trial(self, no_trials):
        with pytest.raises(ConfigurationError, match="algorithms must be nonempty"):
            run_experiment(tiny_config(algorithms=()))

    @pytest.mark.parametrize("name,value", [
        ("trials", 2.5), ("trials", True), ("base_seed", 1.5), ("ks_values", (2.0,)),
        ("omegas", (0.5,)), ("omegas", (0, True))])
    def test_non_integer_rejected_before_any_trial(self, no_trials, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be integer"):
            run_experiment(tiny_config(**{name: value}))
        tiny_config(trials=np.int64(2), ks_values=(np.int64(2),)).validate()


class TestValidateHoles:
    """Every invalid value fails in ``validate()``, which runs when its
    config is built or replaced, before any trial runs."""

    @pytest.mark.parametrize("part,overrides,match", [
        ("scenario", dict(num_users=40.5), "num_users must be integer"),
        ("scenario", dict(mpcs_per_cluster=2.5), "mpcs_per_cluster must be integer"),
        ("scenario", dict(antenna_count=64.0), "antenna_count must be integer"),
        ("scenario", dict(rng_seed=1.5), "rng_seed must be integer"),
        ("scenario", dict(cell_half_side=math.nan), "cell_half_side must be finite"),
        ("scenario", dict(shadowing_sigma_db=math.nan), "shadowing_sigma_db must be finite"),
        ("scenario", dict(angular_spread_deg=math.nan), "angular_spread_deg must be finite"),
        ("scenario", dict(bs_height=math.nan), "bs_height must be finite"),
        ("scenario", dict(cutoff_delay=math.nan), "cutoff_delay must be finite"),
        ("scenario", dict(power_decay=math.nan), "power_decay must be finite"),
        ("scenario", dict(carrier_freq=math.inf), "carrier_freq must be finite"),
        ("scenario", dict(shadowing_sigma_db=-1.0), "shadowing_sigma_db .* nonnegative"),
        ("scenario", dict(angular_spread_deg=-5.0), "angular_spread_deg must be nonnegative"),
        ("scenario", dict(antenna_spacing_fraction=-0.5), "antenna_spacing_fraction"),
        ("crlb", dict(input_snr=math.nan), "input_snr.* finite and positive"),
        ("crlb", dict(pn_length=127.5), "positive integers"),
        ("crlb", dict(sensors_per_axis=5.0), "positive integers"),
        ("config", dict(powers_dbm=("30",)), "powers_dbm must be finite numbers"),
        ("config", dict(powers_dbm=(0.0, True)), "powers_dbm must be finite numbers"),
        ("scenario", dict(cluster_height_range=(5.0,)), "cluster_height_range"),
        ("scenario", dict(cluster_height_range=5.0), "cluster_height_range"),
        ("config", dict(algorithms=(["GUS"],)), "algorithms"),
        ("scenario", dict(cell_half_side=2500.0), "cutoff_delay .* cell_half_side 2500"),
        ("scenario", dict(shadowing_sigma_db=3000.0), "shadowing_sigma_db must be <="),
        ("scenario", dict(vr_radius=20.0), "vr_radius 20.0 must exceed transition_size 20.0"),
        ("scenario", dict(reference_delay=2e-5), "cutoff_delay must be >= reference_delay"),
        ("scenario", dict(rng_seed=5), "scenario.rng_seed must be 0: set base_seed"),
        # rank(H) <= N_C * N_p = 1 < K_s = 2: every K_s = 2 cell would read nan
        ("scenario", dict(num_clusters=1, mpcs_per_cluster=1),
         r"K_s=2 exceeds num_clusters \* mpcs_per_cluster=1"),
    ], ids=lambda x: "-".join(map(str, x.items())) if isinstance(x, dict) else str(x))
    def test_rejected_before_any_trial(self, no_trials, part, overrides, match):
        base = tiny_config()
        with pytest.raises(ConfigurationError, match=match):
            (replace(base, scenario=replace(base.scenario, **overrides)) if part == "scenario"
             else replace(base, crlb=CrlbParams(**overrides)) if part == "crlb"
             else replace(base, **overrides))


# fields checked by hand in validate(): nested configs, which check themselves
# when built, and a (lo, hi) pair
EXEMPT_FROM_FIELD_RULES = {"scenario", "crlb", "cluster_height_range"}


@pytest.mark.parametrize("cls", [ScenarioConfig, CrlbParams, ExperimentConfig])
def test_every_config_field_has_a_rule_or_is_exempt(cls):
    unruled = {f.name for f in fields(cls) if "check" not in f.metadata}
    assert unruled <= EXEMPT_FROM_FIELD_RULES, f"{cls.__name__} fields without a rule"


def test_configs_checked_when_built_not_when_used(monkeypatch):
    # each config class's __post_init__ is its validate, so building, loading and
    # dataclasses.replace check every config, and no function that takes one checks
    # it again: the spies below see no call
    cfg = tiny_config(trials=1, omegas=(0, 1), use_estimation=True)
    scen = gscm.generate_scenario(replace(cfg.scenario, rng_seed=1))
    calls = []
    for cls in (ScenarioConfig, CrlbParams, ExperimentConfig):
        monkeypatch.setattr(cls, "validate", lambda config: calls.append(config))
    _, elevation, azimuth = scen.observables
    crlb(cfg.crlb, azimuth, elevation)
    assert gscm.generate_scenario(scen.config) == scen
    assert gscm.scenario_from_dict(gscm.scenario_to_dict(scen)) == scen
    run_experiment(cfg)
    config_hash(cfg)
    assert calls == []
    monkeypatch.undo()
    for valid, name in [(cfg.scenario, "num_users"), (cfg.crlb, "input_snr"), (cfg, "trials")]:
        with pytest.raises(ConfigurationError, match=f"{name} must be positive"):
            replace(valid, **{name: 0})


class TestAggregate:
    @pytest.mark.parametrize("overrides,counts", [
        ({}, {7}), ({"trials": 9}, {9}),   # nine rates reach numpy's unrolled summation
        # rank 2 channels (2 clusters, no angular spread), and a shadowing that
        # leaves one trial's K_s = 2 sets rank deficient: K_s = 3 cells have no usable rate
        ({"scenario": ScenarioConfig(num_users=8, num_clusters=2, antenna_count=8,
                                     mpcs_per_cluster=2, angular_spread_deg=0.0,
                                     shadowing_sigma_db=100.0, rng_seed=0)}, {0, 6})])
    def test_cells_match_per_cell_scan(self, overrides, counts):
        # Oracle: scan every row for every cell, in trial order
        cfg = tiny_config(**{"trials": 7, "ks_values": (2, 3), "omegas": (0, 1), **overrides})
        stats = run_experiment(cfg, figure="t")
        expected = []
        for ks in cfg.ks_values:
            for omega in cfg.omegas:
                for alg in cfg.algorithms:
                    for p_dbm in cfg.powers_dbm:
                        group = [r for r in stats.trial_rows
                                 if (r.algorithm, r.ks, r.omega, r.p_dbm)
                                 == (alg, ks, omega, p_dbm)]
                        ok = [r.sum_rate for r in group if r.sum_rate is not None]
                        expected.append(harness.CellStats(
                            "t", alg, ks, p_dbm, omega,
                            float(np.mean(ok)) if ok else math.nan,
                            float(np.std(ok, ddof=1) / math.sqrt(len(ok)))
                            if len(ok) > 1 else 0.0,
                            len(ok), len(group) - len(ok), group[0].load))
        # repr: bitwise on floats, and a nan mean equals a nan mean
        assert list(map(repr, stats.cells)) == list(map(repr, expected))
        assert {c.trials_used for c in stats.cells} == counts

    def test_missing_cell_raises_key_error(self):
        stats = run_experiment(tiny_config(trials=1, algorithms=("RANDOM",)))
        assert stats.cell("RANDOM", 2, 20.0).p_dbm == 20.0
        for key in [("GUS", 2, 20.0, 0), ("RANDOM", 3, 20.0, 0), ("RANDOM", 2, 10.0, 0),
                    ("RANDOM", 2, 20.0, 1)]:
            with pytest.raises(KeyError, match="RANDOM|GUS"):
                stats.cell(*key)


class TestTrialRowsMatchNaiveOracle:
    """Reusing picks, receivers, covariances and rates inside a trial
    gives exactly the rows of evaluating every row from scratch."""

    @pytest.mark.parametrize("overrides", [
        dict(ks_values=(3, 2)),
        dict(algorithms=("GUS", "RANDOM"), omegas=(0, 1, 3), ks_values=(2, 3)),
        dict(algorithms=("GUS", "RANDOM"), omegas=(0, 1, 3), ks_values=(2, 3),
             gus_variant="set"),
        dict(algorithms=("GWC",), use_estimation=True, ks_values=(2, 3),
             powers_dbm=(0.0, 20.0, 40.0, 60.0)),
        dict(mode="paper-literal", use_estimation=True,
             algorithms=("GUS", "RANDOM"), ks_values=(2, 3)),
        # the desk-scale grids, where powers choose different GWC users and
        # GUS and RANDOM rate a strict subset of the 40 users
        dict(scenario=ScenarioConfig(), algorithms=ALGORITHMS,
             powers_dbm=(0.0, 10.0, 20.0, 30.0, 40.0, 50.0), ks_values=(5, 10)),
        dict(scenario=ScenarioConfig(), algorithms=("GUS", "RANDOM"),
             powers_dbm=(30.0,), ks_values=(5, 10), omegas=tuple(range(6))),
        dict(scenario=ScenarioConfig(), algorithms=("GUS", "RANDOM"),
             use_estimation=True, powers_dbm=(30.0,), ks_values=(10,)),
    ], ids=["unsorted-ks", "omegas-last", "omegas-set", "gwc-estimated",
            "paper-literal", "fig2-grid", "fig4-grid", "estimated-csi-grid"])
    def test_rows_equal(self, overrides):
        # estimated rates agree to 1e-9 relative: the harness shares sigma^2 / P
        # where the oracle takes sigma^2 / ||phi_k||^2
        cfg = tiny_config(**overrides)
        rows, naive = run_experiment(cfg).trial_rows, tuple(naive_trial_rows(cfg))
        if not cfg.use_estimation:
            assert rows == naive
            return
        assert [replace(r, sum_rate=r.sum_rate is None) for r in rows] == \
            [replace(r, sum_rate=r.sum_rate is None) for r in naive]
        assert all(r.sum_rate is None or math.isclose(r.sum_rate, o.sum_rate, rel_tol=1e-9,
                                                      abs_tol=1e-12)
                   for r, o in zip(rows, naive))

    def test_fig2_grid_powers_choose_different_gwc_users(self):
        # the fig2-grid case above covers rows that differ between powers
        cfg = tiny_config(scenario=ScenarioConfig(), algorithms=("GWC",),
                          powers_dbm=(0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
                          ks_values=(5, 10))
        rows = run_experiment(cfg).trial_rows
        assert any(len({r.selected for r in rows if (r.trial, r.ks) == key}) > 1
                   for key in {(r.trial, r.ks) for r in rows})

    @pytest.mark.parametrize("algorithms,omegas", [
        (("GUS", "RANDOM"), (0, 2)), (("GUS",), (1,)), (("RANDOM",), (0,)),
        (ALGORITHMS, (0,))])
    def test_channel_columns_only_for_rated_users(self, monkeypatch, algorithms, omegas):
        # one synthesis per trial: every user when GWC runs (it reads all of
        # H), else the sorted users of the rated sets
        calls = []

        def recording(scen, selected):
            calls.append(list(selected))
            return gscm.channel_matrix(scen, selected)

        monkeypatch.setattr(harness, "channel_matrix", recording)
        cfg = tiny_config(scenario=replace(tiny_config().scenario, num_users=20),
                          algorithms=algorithms, omegas=omegas, ks_values=(2, 4))
        rows = run_experiment(cfg).trial_rows
        assert len(calls) == cfg.trials
        for trial, columns in enumerate(calls):
            rated = sorted({u for r in rows if r.trial == trial for u in r.selected})
            assert columns == (list(range(20)) if "GWC" in algorithms else rated)
            assert len(rated) < 20 or "GWC" in algorithms

    def test_largest_ks_infeasible_for_gwc(self):
        # two clusters with no angular spread: every channel has rank 2, so
        # GWC fails at K_s = 3 and K_s = 2 still gets its rows
        cfg = tiny_config(scenario=ScenarioConfig(
            num_users=8, num_clusters=2, antenna_count=8, mpcs_per_cluster=2,
            angular_spread_deg=0.0, rng_seed=0), ks_values=(2, 3), trials=3)
        rows = run_experiment(cfg).trial_rows
        assert rows == tuple(naive_trial_rows(cfg))
        gwc = [r for r in rows if r.algorithm == "GWC"]
        assert all(r.sum_rate is None for r in gwc if r.ks == 3)
        assert all(r.sum_rate is not None for r in gwc if r.ks == 2)

    def test_largest_ks_infeasible_for_gus(self, monkeypatch):
        # a V with two nonzero rows: the stacked selection stops after two
        # picks, where one V raises for K_s = 3; the harness and the oracle
        # both select through harness.gus_select
        select = harness.gus_select

        def two_rows(v, *args):
            norms = np.linalg.norm(v, axis=-1, keepdims=True)
            second = -np.sort(-norms, axis=-2)[..., 1:2, :]
            return select(np.where(norms >= second, v, 0.0), *args)

        monkeypatch.setattr(harness, "gus_select", two_rows)
        cfg = tiny_config(algorithms=("GUS",), ks_values=(3, 1, 2))
        with pytest.warns(UserWarning, match="zero-norm"):
            rows = run_experiment(cfg).trial_rows
            assert rows == tuple(naive_trial_rows(cfg))
        assert [r.sum_rate is None for r in rows if r.trial == 0] == \
            [True, True, False, False, False, False]


class TestEstimatedReceive:
    """The receive stage's one solve per power over a trial's rated users,
    against the one-set oracle ``conftest.estimate_channel``."""

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_each_estimate_matches_its_one_set_kernel(self, seed):
        # each K_s rates a set and its rotation: every user in two sets of a
        # K_s at two positions, and the users of a small K_s in the larger ones
        cfg = ExperimentConfig(use_estimation=True, powers_dbm=(0.0, 20.0, 40.0),
                               ks_values=(2, 3, 5, 10))
        scen = harness.generate_scenario(replace(cfg.scenario, rng_seed=seed))
        order = np.random.default_rng(seed).permutation(cfg.scenario.num_users)[:10].tolist()
        grid = [(ks, 0, alg, p_dbm, sel) for ks in cfg.ks_values
                for alg, sel in (("GUS", tuple(order[:ks])),
                                 ("RANDOM", tuple(order[1:ks] + order[:1])))
                for p_dbm in cfg.powers_dbm]
        users = sorted(order)
        h = gscm.channel_matrix(scen, users).entries
        receivers = [rx for stack in harness._receive(cfg, scen, users, h, grid).values()
                     for rx in stack]
        assert sorted((sel, columns.start) for sel, columns, *_ in receivers) == \
            sorted((sel, cfg.powers_dbm.index(p)) for *_, p, sel in grid)
        for sel, columns, h_sel, estimate in receivers:
            power = PowerConfig(dbm_to_watts(cfg.powers_dbm[columns.start]), len(sel),
                                cfg.noise_power)
            want = estimate_channel(scen, sel, h_sel, power)
            assert np.abs(estimate - want).max() <= 1e-12 * np.abs(want).max()

    def test_no_rated_set_estimates_nothing(self, monkeypatch):
        # GUS on a zero V selects nothing, so no set is left to estimate
        select = harness.gus_select
        monkeypatch.setattr(harness, "gus_select",
                            lambda v, *args: select(np.zeros_like(v), *args))
        cfg = tiny_config(use_estimation=True, algorithms=("GUS",))
        with pytest.warns(UserWarning, match="zero-norm"):
            cells = run_experiment(cfg).cells
        assert [(c.trials_used, c.excluded) for c in cells] == [(0, 2)] * 2

    def test_singular_user_excludes_exactly_its_receivers(self, monkeypatch):
        # R_u = -(sigma^2 / P) I makes user u's inner matrix zero at 20 dBm alone:
        # every (set, 20 dBm) receiver holding u is dropped, every other one rated
        cfg = tiny_config(use_estimation=True, powers_dbm=(0.0, 20.0, 40.0),
                          ks_values=(2, 3), omegas=(0, 1))
        plain = run_experiment(cfg).trial_rows
        assert all(r.sum_rate is not None for r in plain)
        singular = {t: min(u for r in plain if r.trial == t for u in r.selected)
                    for t in range(cfg.trials)}

        def covariances(scen, selected):
            r = channel_covariances(scen, selected)
            user = singular[scen.config.rng_seed - cfg.base_seed]
            r[list(selected).index(user)] = -cfg.noise_power / dbm_to_watts(20.0) * np.eye(8)
            return r

        monkeypatch.setattr(harness, "channel_covariances", covariances)
        rows = run_experiment(cfg).trial_rows
        holds = [singular[r.trial] in r.selected for r in plain]
        for row, before, held in zip(rows, plain, holds, strict=True):
            if not held:
                assert row == before
            elif row.p_dbm == 20.0:
                assert row == replace(before, sum_rate=None, selected=())
            else:
                assert row.selected == before.selected and row.sum_rate is not None
        assert 0 < sum(holds) < len(holds)


class TestOperatingPoint:
    """The regime the desk defaults run in (README, "Visibility and operating
    point") over a default run's first 40 seeds: a change that moves it fails."""

    def test_defaults_sit_deep_in_the_noise(self):
        # 37 of 1,600 users lie within vr_radius of a VR centre, and GUS's
        # K_s = 10 picks see a median matched-filter SNR ||h_k||^2 P_k / P_n of
        # -25.2 dB at the top power, 50 dBm
        cfg = ExperimentConfig()
        ks, watts = max(cfg.ks_values), dbm_to_watts(max(cfg.powers_dbm))
        inside, snr_db = 0, []
        for seed in range(cfg.base_seed, cfg.base_seed + 40):
            scen = gscm.generate_scenario(replace(cfg.scenario, rng_seed=seed))
            offsets = np.linalg.norm(scen.users[:, None, :2] - scen.vr_centers, axis=-1)
            inside += int(np.any(offsets <= scen.config.vr_radius, axis=1).sum())
            picks = gus_select(scen.v, ks, cfg.gus_variant).selected
            h = gscm.channel_matrix(scen, picks).entries
            snr_db += (10 * np.log10(np.sum(np.abs(h) ** 2, axis=0) * watts / ks
                                     / cfg.noise_power)).tolist()
        assert (inside, len(snr_db)) == (37, 400)
        assert np.median(snr_db) == pytest.approx(-25.2, abs=0.05)


class TestFigureSweeps:
    def test_fig2_csv_schema_and_determinism(self, tmp_path):
        cfg = tiny_config()
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        figure2_sweep(cfg, out1)
        figure2_sweep(cfg, out2)
        text1 = out1.read_bytes()
        assert text1 == out2.read_bytes()
        header = text1.decode().splitlines()[0]
        assert header == ",".join(RESULT_HEADER)
        assert (tmp_path / "a.csv.manifest.txt").exists()

    def test_estimated_csv_byte_identical(self, tmp_path):
        cfg = tiny_config(use_estimation=True, algorithms=("GUS", "GWC", "RANDOM"))
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        figure2_sweep(cfg, out1)
        figure2_sweep(cfg, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_fig2_one_row_per_cell(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "f2.csv"
        figure2_sweep(cfg, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(cfg.algorithms) * len(cfg.powers_dbm)

    def test_fig3_rows(self, tmp_path):
        cfg = tiny_config(fig3_m_values=(100, 200), ks_values=(2,))
        out = tmp_path / "f3.csv"
        rows = figure3_load(cfg, out)
        assert all(r["ratio"] == 2 / 8 for r in rows)
        assert [r["load_selected"] for r in rows] == [400, 800]
        assert [r["load_full"] for r in rows] == [1600, 3200]
        assert out.read_text().splitlines()[0] == ",".join(LOAD_HEADER)

    def test_fig4_omega_zero_matches_plain_gus(self):
        cfg = tiny_config(algorithms=("GUS", "RANDOM"), powers_dbm=(30.0,),
                          omegas=(0, 2))
        stats = figure4_robustness(cfg)
        base = run_experiment(tiny_config(algorithms=("GUS", "RANDOM"),
                                          powers_dbm=(30.0,), omegas=(0,)))
        assert stats.cell("GUS", 2, 30.0, omega=0).mean == \
            base.cell("GUS", 2, 30.0, omega=0).mean

    def test_fig4_drops_gwc(self):
        cfg = tiny_config(powers_dbm=(30.0,), omegas=(0, 1))
        stats = figure4_robustness(cfg)
        assert all(c.algorithm != "GWC" for c in stats.cells)

    def test_fig4_with_only_gwc_rejected_before_any_trial(self, no_trials):
        with pytest.raises(ConfigurationError, match=r"fig4 drops GWC.*\('GWC',\)"):
            figure4_robustness(tiny_config(algorithms=("GWC",)))


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(mode="paper-literal", gus_variant="set", use_estimation=True,
                          algorithms=("GUS", "RANDOM"))
        path = tmp_path / "config.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_numpy_numbers_write_as_python_numbers(self, tmp_path):
        # the field rules accept numpy scalars, so a config holding them runs;
        # its CSV, manifest, hash and config file are those of the Python numbers
        typed = tiny_config(omegas=(0, 1))
        numpy_typed = replace(
            typed, ks_values=(np.int64(2),), trials=np.int64(2), bandwidth=np.float64(20e6),
            powers_dbm=(np.float64(0.0), np.float64(20.0)),
            scenario=replace(typed.scenario, num_users=np.int64(8)),
            crlb=CrlbParams(input_snr=np.float64(100.0), num_antennas=np.int64(64)))
        assert config_hash(numpy_typed) == config_hash(typed)
        run_sweep(typed, tmp_path / "typed.csv")
        run_sweep(numpy_typed, tmp_path / "numpy.csv")
        for suffix in (".csv", ".csv.manifest.txt"):
            assert (tmp_path / f"numpy{suffix}").read_bytes() == \
                (tmp_path / f"typed{suffix}").read_bytes()
        save_config(numpy_typed, tmp_path / "numpy.yaml")
        assert load_config(tmp_path / "numpy.yaml") == numpy_typed

    def test_hash_stable(self):
        cfg = tiny_config()
        assert config_hash(cfg) == config_hash(tiny_config())
        assert config_hash(cfg) != config_hash(tiny_config(base_seed=99))

    def test_hash_pinned(self):
        # the config_sha256 that manifests carry, as PyYAML's pure-Python
        # emitter wrote them; a change here changes every manifest
        assert config_hash(ExperimentConfig()) == \
            "ab2386472f8d74df475546ddfeae3dff0a5654bd625d7641bb399437694c3aec"
        assert config_hash(ExperimentConfig(
            use_estimation=True, powers_dbm=(30.0, -2.5e-7), omegas=(0, 3),
            crlb=CrlbParams(input_snr=1e300))) == \
            "89ce79196492ada9bcb1dccad27a02e8f039102dc55e54674d2fc95e67266ffe"

    @settings(max_examples=100, deadline=None)
    @given(plain=plain_config_strategy(
        ExperimentConfig, scenario=plain_config_strategy(ScenarioConfig),
        crlb=plain_config_strategy(CrlbParams),
        algorithms=st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True),
        mode=st.sampled_from(rx.SUM_RATE_MODES),
        gus_variant=st.sampled_from(scheduling.GUS_VARIANTS)))
    def test_hash_emitters_agree(self, plain):
        # config_hash and save_config write plain.dump_yaml's bytes, which must
        # equal PyYAML's safe_dump, as libyaml's emitter does where PyYAML has
        # it. The values range past what a config accepts, as config_to_dict
        # would give them
        data = {"schema_version": harness.CONFIG_SCHEMA_VERSION, **plain}
        for sort_keys in (True, False):
            assert dump_yaml(data, sort_keys) == \
                yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=sort_keys)
        if hasattr(yaml, "CSafeDumper"):
            assert yaml.dump(data, Dumper=yaml.CSafeDumper, sort_keys=True) == \
                yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(plain=st.fixed_dictionaries({
        "schema_version": st.integers(0, 9),
        "config": plain_config_strategy(ScenarioConfig, reference_delay=st.none()),
        "users": st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1),
        "shadow_gains": st.lists(st.floats(), min_size=1)}))
    def test_scenario_emitter_agrees(self, plain):
        # save_scenario's bytes: a nested mapping holding None, and 1-D and 2-D
        # float arrays, st.floats() reaching nan, +-inf, -0.0, subnormals and
        # reprs without a "." such as 1e+16
        assert dump_yaml(plain, sort_keys=False) == yaml.safe_dump(plain, sort_keys=False)

    @pytest.mark.parametrize("value", ["", "yes", "null", "1.5", "a b", "Zürich", {"GUS"},
                                       np.zeros(2)], ids=repr)
    def test_emitter_refuses_what_could_read_back_differently(self, value):
        with pytest.raises(ValueError, match="cannot write"):
            dump_yaml({"mode": value}, sort_keys=True)

    def test_sweep_path_does_not_import_yaml(self, tmp_path):
        # a sweep only writes YAML, so PyYAML's import stays off its start-up;
        # reading a config back is the first thing that imports it
        script = textwrap.dedent("""
            import sys
            from pathlib import Path
            from gusim import gscm, harness
            out = Path(sys.argv[1])
            cfg = harness.ExperimentConfig(
                scenario=gscm.ScenarioConfig(num_users=8, num_clusters=2, antenna_count=8,
                                             mpcs_per_cluster=3),
                powers_dbm=(0.0,), ks_values=(2,), trials=2)
            harness.run_sweep(cfg, out / "o.csv")
            harness.config_hash(cfg)
            harness.save_config(cfg, out / "c.yaml")
            gscm.save_scenario(gscm.generate_scenario(cfg.scenario), out / "s.yaml")
            assert "yaml" not in sys.modules, "the sweep path imported yaml"
            assert harness.load_config(out / "c.yaml") == cfg
            assert "yaml" in sys.modules
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "o.csv.manifest.txt").exists()

    @pytest.mark.parametrize("overrides", [dict(mode=""), dict(gus_variant="x"),
                                           dict(algorithms=("GUS", ""))])
    def test_hash_of_an_invalid_config_raises(self, overrides):
        # a string outside the fixed choices may not be a word that
        # plain.dump_yaml writes, so such a config has no hash
        with pytest.raises(ConfigurationError):
            config_hash(tiny_config(**overrides))

    def test_config_file_must_hold_a_mapping(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=r"config must be a mapping, got \[1, 2\]"):
            load_config(path)

    def test_schema_version_required(self):
        data = config_to_dict(tiny_config())
        data["schema_version"] = 42
        with pytest.raises(ConfigurationError):
            config_from_dict(data)

    def test_unknown_keys_rejected(self):
        data = config_to_dict(tiny_config())
        with pytest.raises(ConfigurationError, match="unknown key.*colour"):
            config_from_dict(dict(data, colour="blue"))
        for block in ("scenario", "crlb"):
            nested = dict(data, **{block: dict(data[block], colour="blue")})
            with pytest.raises(ConfigurationError, match=f"config.{block}"):
                config_from_dict(nested)

    @pytest.mark.parametrize("key,value", [
        ("trials", "5"), ("trials", 2.0), ("trials", True),
        ("use_estimation", 1), ("mode", 3), ("powers_dbm", 30.0),
        ("powers_dbm", [30.0, "40"]), ("scenario", [1, 2]),
        pytest.param("bandwidth", 10**400, id="bandwidth-int-too-large-for-a-float"),
    ])
    def test_wrongly_typed_values_rejected(self, key, value):
        data = dict(config_to_dict(tiny_config()), **{key: value})
        with pytest.raises(ConfigurationError, match=f"config.{key}"):
            config_from_dict(data)

    def test_wrongly_typed_nested_values_rejected(self):
        data = config_to_dict(tiny_config())
        for block, key, value in (("scenario", "antenna_count", "8"),
                                  ("scenario", "cluster_height_range", [5.0]),
                                  ("scenario", "reference_delay", "soon"),
                                  ("crlb", "input_snr", None),
                                  ("scenario", "cell_half_side", -10**400)):
            bad = dict(data, **{block: dict(data[block], **{key: value})})
            with pytest.raises(ConfigurationError, match=f"config.{block}.{key}"):
                config_from_dict(bad)

    def test_ints_accepted_for_floats(self):
        data = config_to_dict(tiny_config())
        data["powers_dbm"] = [0, 20]
        data["scenario"] = dict(data["scenario"], reference_delay=0)
        cfg = config_from_dict(data)
        assert cfg.powers_dbm == (0.0, 20.0) and isinstance(cfg.powers_dbm[0], float)
        assert cfg.scenario.reference_delay == 0.0

    def test_version_1_file_with_covariance_draws_rejected(self, tmp_path):
        data = dict(config_to_dict(tiny_config()), schema_version=1,
                    covariance_draws=500)
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ConfigurationError,
                           match="schema_version 1.*covariance_draws"):
            load_config(path)

    @settings(max_examples=40, deadline=None)
    @given(
        trials=st.integers(1, 10 ** 6),
        base_seed=st.integers(0, 2 ** 63),
        powers=st.lists(st.floats(-50, 80, allow_nan=False), min_size=1, max_size=4),
        omegas=st.lists(st.integers(0, 9), min_size=1, max_size=3),
        algorithms=st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3),
        reference_delay=st.none() | st.floats(0.0, 1e-6),
        use_estimation=st.booleans(),
        input_snr=st.floats(1e-3, 1e6),
    )
    def test_round_trip_property(self, tmp_path_factory, trials, base_seed, powers,
                                 omegas, algorithms, reference_delay,
                                 use_estimation, input_snr):
        grids = dict(powers_dbm=tuple(powers), omegas=tuple(omegas),
                     algorithms=tuple(algorithms))
        kwargs = dict(
            trials=trials, base_seed=base_seed, use_estimation=use_estimation,
            scenario=ScenarioConfig(num_users=8, reference_delay=reference_delay),
            crlb=CrlbParams(input_snr=input_snr), **grids)
        if any(len(set(grid)) < len(grid) for grid in grids.values()):
            # e.g. a duplicated omega: the one rule these draws can break
            with pytest.raises(ConfigurationError, match="must be nonempty and distinct"):
                tiny_config(**kwargs)
            return
        cfg = tiny_config(**kwargs)
        path = tmp_path_factory.mktemp("rt") / "config.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg
        assert config_hash(load_config(path)) == config_hash(cfg)

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "r.csv"
        write_results_csv(run_experiment(cfg), out)
        write_manifest(cfg, out)
        text = (tmp_path / "r.csv.manifest.txt").read_text()
        assert f"config_sha256: {config_hash(cfg)}" in text
        assert "base_seed: 3" in text


class TestCli:
    def test_fig2_subcommand_byte_identical(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(), cfg_path)
        out1 = tmp_path / "o1.csv"
        out2 = tmp_path / "o2.csv"
        assert cli.main(["fig2", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["fig2", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert capsys.readouterr().err == ""   # every cell has a usable trial

    def test_cells_with_no_usable_trial_named_on_stderr(self, tmp_path, capsys):
        # a power_decay just under its bound leaves every row of a default
        # 2-trial run rank deficient: the run still exits 0 with the same
        # CSV and manifest, and names each all-nan cell on standard error
        cfg = ExperimentConfig(trials=2, scenario=ScenarioConfig(power_decay=1.5e8))
        cfg_path, out = tmp_path / "c.yaml", tmp_path / "o.csv"
        save_config(cfg, cfg_path)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        stats = run_sweep(cfg, tmp_path / "direct.csv")
        assert out.read_bytes() == (tmp_path / "direct.csv").read_bytes()
        assert (tmp_path / "o.csv.manifest.txt").read_bytes() == \
            (tmp_path / "direct.csv.manifest.txt").read_bytes()
        assert all(c.trials_used == 0 for c in stats.cells) and len(stats.cells) == 36
        assert captured.err.splitlines() == [
            f"gusim: warning: cell {c.algorithm} K_s={c.ks} P_dbm={c.p_dbm} omega={c.omega} "
            "has no usable trial (2 excluded): mean nan" for c in stats.cells]
        assert captured.out == f"wrote {out} (+ manifest)\n"

    def test_only_cells_with_no_usable_trial_are_named(self, tmp_path, capsys):
        # rank 2 channels (2 clusters, no angular spread): K_s = 3 cells have
        # no usable trial, K_s = 2 cells do
        cfg = tiny_config(scenario=replace(tiny_config().scenario, angular_spread_deg=0.0),
                          ks_values=(2, 3))
        cfg_path, out = tmp_path / "c.yaml", tmp_path / "o.csv"
        save_config(cfg, cfg_path)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        named = capsys.readouterr().err.splitlines()
        empty = [c for c in run_experiment(cfg).cells if c.trials_used == 0]
        assert len(named) == len(empty) > 0 and all(c.ks == 3 for c in empty)
        assert all(f"{c.algorithm} K_s=3 P_dbm={c.p_dbm} " in line
                   for c, line in zip(empty, named))

    def test_overrides_apply(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(use_estimation=True, algorithms=("GUS", "RANDOM")),
                    cfg_path)
        out = tmp_path / "o.csv"
        cli.main(["run", "--config", str(cfg_path), "--trials", "1",
                  "--seed", "7", "--mode", "paper-literal",
                  "--gus-variant", "set", "--out", str(out)])
        manifest = (tmp_path / "o.csv.manifest.txt").read_text()
        assert "base_seed: 7" in manifest

    def test_paper_literal_override_rejected_before_any_trial(self, tmp_path,
                                                                no_trials, capsys):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(), cfg_path)
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig2", "--config", str(cfg_path), "--mode", "paper-literal",
                      "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("gusim: error: mode 'paper-literal' needs use_estimation")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"), ("a: [1\n", "while parsing"),
        (b"trials: \xff\n", "can't decode"),
        pytest.param(f"bandwidth: 1{'0' * 5000}\n", "digits", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no int string limit")),
    ], ids=["missing", "malformed", "not-utf-8", "int-of-5001-digits"])
    def test_unreadable_config_file_is_a_usage_error(self, tmp_path, capsys,
                                                      content, message):
        cfg_path = tmp_path / "c.yaml"
        if content is not None:
            cfg_path.write_bytes(content if isinstance(content, bytes) else content.encode())
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig2", "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gusim: error: cannot read config {cfg_path}: ")
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_noise_figure_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**config_to_dict(tiny_config()),
                                            "noise_figure_db": 10000.0}))
        out = tmp_path / "f3.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig3", "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("gusim: error: noise power") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4", "run"])
    def test_unwritable_output_path_is_a_usage_error(self, tmp_path, no_trials, capsys,
                                                     command):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(), cfg_path)
        out = tmp_path / "missing" / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gusim: error: cannot write {out}") and "Traceback" not in err
        assert not out.exists() and not out.parent.exists()

    def test_overflowing_power_is_a_usage_error(self, tmp_path, no_trials, capsys):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**config_to_dict(tiny_config()),
                                            "powers_dbm": [4000.0]}))
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("gusim: error: powers_dbm") and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_power_decay_is_a_usage_error(self, tmp_path, no_trials, capsys):
        data = config_to_dict(tiny_config())
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**data, "scenario": {**data["scenario"],
                                                                 "power_decay": 1e9}}))
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("gusim: error: power_decay must be <=") and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "o.csv.manifest.txt").exists()

    def test_integer_too_large_for_a_float_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**config_to_dict(tiny_config()),
                                            "bandwidth": 10**400}))
        out = tmp_path / "f3.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig3", "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("gusim: error: config.bandwidth is an integer too large")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("flag", [["--seed", "9"], ["--trials", "3"],
                                      ["--mode", "paper-literal"], ["--gus-variant", "set"]])
    def test_fig3_takes_only_config_and_out(self, tmp_path, capsys, flag):
        # fig3 is arithmetic on the config: no trial, seed or rate to set
        out = tmp_path / "f3.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig3", *flag, "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"gusim: error: unrecognized arguments: {' '.join(flag)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig2", "fig4", "run"])
    def test_choices_are_the_config_fields_choices(self, command):
        # --mode, --gus-variant and ExperimentConfig's field rules offer the very
        # tuples that sum_rate and gus_select test against
        owners = {"mode": rx.SUM_RATE_MODES, "gus_variant": scheduling.GUS_VARIANTS}
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        offered = {a.dest: a.choices for a in sub.choices[command]._actions if a.choices}
        rules = {f.name: f.metadata["check"][1] for f in fields(ExperimentConfig)
                 if f.name in owners}
        assert offered.keys() == rules.keys() == owners.keys()
        assert all(offered[k] is rules[k] is owners[k] for k in owners)

    def test_commands_table_is_the_parser(self):
        # each subcommand, in order and with its help, comes from cli.COMMANDS
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        assert list(sub.choices) == list(cli.COMMANDS)
        assert [a.help for a in sub._choices_actions] == [h for _, h in cli.COMMANDS.values()]

    def test_fig3_without_config_uses_the_defaults(self, tmp_path):
        out, expected = tmp_path / "f3.csv", tmp_path / "expected.csv"
        assert cli.main(["fig3", "--out", str(out)]) == 0
        figure3_load(ExperimentConfig(), expected)
        assert out.read_bytes() == expected.read_bytes()
        assert (tmp_path / "f3.csv.manifest.txt").read_bytes() == \
            (tmp_path / "expected.csv.manifest.txt").read_bytes()

    def test_fig3_subcommand(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(fig3_m_values=(100,)), cfg_path)
        out = tmp_path / "f3.csv"
        cli.main(["fig3", "--config", str(cfg_path), "--out", str(out)])
        assert out.exists()

    def test_fig4_with_only_gwc_is_a_usage_error(self, tmp_path, no_trials, capsys):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(algorithms=("GWC",)), cfg_path)
        out = tmp_path / "f4.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig4", "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("gusim: error: fig4 drops GWC") and "Traceback" not in err
        assert not out.exists()

    def test_fig4_subcommand(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(powers_dbm=(30.0,), omegas=(0, 1)), cfg_path)
        out = tmp_path / "f4.csv"
        cli.main(["fig4", "--config", str(cfg_path), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) > 1
