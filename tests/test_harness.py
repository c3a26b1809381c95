import math
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gusim import cli, gscm, harness
from gusim.errors import ConfigurationError, RankDeficiencyError
from gusim.gscm import ScenarioConfig, channel_covariances
from gusim.rx import zf_weights
from gusim.localization import CrlbParams, perturb_and_rebuild_omegas
from gusim.harness import (ALGORITHMS, ExperimentConfig, LOAD_HEADER, RESULT_HEADER,
                           config_from_dict, config_hash, config_to_dict,
                           dbm_to_watts, figure2_sweep, figure3_load,
                           figure4_robustness, load_config, run_experiment,
                           run_sweep, save_config, write_manifest,
                           write_results_csv)
from gusim.scheduling import gus_select, gwc_select_powers

from conftest import naive_trial_rows


def config_strategy(cls, **overrides):
    """Configs of class ``cls`` with every numeric, bool and pair field drawn
    from its annotation (any float, integers up to 2^70); ``overrides`` gives
    the strategies of the other fields."""
    kinds = {"float": st.floats(), "int": st.integers(0, 2**70), "bool": st.booleans(),
             "float | None": st.none() | st.floats(),
             "tuple[float, float]": st.tuples(st.floats(), st.floats()),
             "tuple[float, ...]": st.lists(st.floats(), min_size=1, max_size=6).map(tuple),
             "tuple[int, ...]": st.lists(st.integers(0, 2**70), min_size=1,
                                         max_size=6).map(tuple)}
    return st.builds(cls, **{f.name: kinds[f.type] for f in fields(cls) if f.type in kinds},
                     **overrides)


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
        # zero-forces each distinct set once and reports deficiency per entry
        calls, deficient = [], []

        def counting(h):
            calls.append((h.shape[2], [entry.tobytes() for entry in h]))
            receivers = zf_weights(h)
            deficient.extend(rx is None for rx in receivers)
            return receivers

        monkeypatch.setattr(harness, "zf_weights", counting)
        cfg = tiny_config(powers_dbm=(0.0, 20.0, 40.0), ks_values=(2, 3),
                          omegas=(0, 1))
        if rank_limited:   # every channel has rank 2: K_s = 3 is rank deficient
            cfg = replace(cfg, scenario=replace(cfg.scenario, num_clusters=1,
                                                mpcs_per_cluster=2))
        rows = run_experiment(cfg).trial_rows
        assert [size for size, _ in calls] == [2, 3] * cfg.trials
        entries = [entry for _, stack in calls for entry in stack]
        assert len(set(entries)) == len(entries)
        assert any(r.sum_rate is None for r in rows) == any(deficient) == rank_limited
        if not rank_limited:
            assert len(entries) == len({(r.trial, r.selected) for r in rows}) < len(rows)

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

    def test_covariances_once_per_distinct_selection(self, monkeypatch):
        calls = []

        def counting(scen, selected):
            calls.append((scen.config.rng_seed, tuple(selected)))
            return channel_covariances(scen, selected)

        monkeypatch.setattr(harness, "channel_covariances", counting)
        cfg = tiny_config(use_estimation=True, powers_dbm=(0.0, 20.0, 40.0),
                          ks_values=(2, 3), omegas=(0, 1))
        rows = run_experiment(cfg).trial_rows
        assert all(r.sum_rate is not None for r in rows)
        # whichever algorithm, K_s, omega or power selects a set
        assert sorted(calls) == sorted({(cfg.base_seed + r.trial, r.selected)
                                        for r in rows})

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
        cfg = tiny_config(scenario=ScenarioConfig(num_users=8, num_clusters=2,
                                                  antenna_count=4), ks_values=(6,))
        with pytest.raises(ConfigurationError, match="antenna_count"):
            cfg.validate()

    def test_paper_literal_needs_estimation(self, no_trials):
        # with perfect CSI every algorithm would read K_s*log2(1 + P/K_s)
        cfg = tiny_config(mode="paper-literal", algorithms=("GUS", "RANDOM"))
        with pytest.raises(ConfigurationError, match="use_estimation"):
            cfg.validate()
        with pytest.raises(ConfigurationError, match="use_estimation"):
            run_experiment(cfg)
        tiny_config(mode="paper-literal", algorithms=("GUS", "RANDOM"),
                    use_estimation=True).validate()

    def test_paper_literal_gwc_rejected_before_any_trial(self, no_trials):
        # its flat objective picks the strongest column, then the lowest indices
        cfg = tiny_config(mode="paper-literal", use_estimation=True)
        with pytest.raises(ConfigurationError, match="GWC.*lowest indices"):
            cfg.validate()
        with pytest.raises(ConfigurationError, match="GWC"):
            run_experiment(cfg)
        tiny_config(use_estimation=True).validate()

    @pytest.mark.parametrize("power", [math.nan, math.inf, 4000.0, -4000.0])
    def test_nonfinite_power_rejected_before_any_trial(self, no_trials, power):
        # 4000 dBm overflows dbm_to_watts; -4000 dBm is 0 W, a pilot with no energy
        with pytest.raises(ConfigurationError, match="powers_dbm"):
            run_experiment(tiny_config(powers_dbm=(0.0, power)))
        tiny_config(powers_dbm=(-3200.0, 3080.0)).validate()

    def test_singular_mmse_excludes_only_its_power(self, monkeypatch):
        # a RankDeficiencyError at 20 dBm drops each set's 20 dBm row; the
        # same sets are still rated at 0 dBm, with the same rates
        estimate = harness.mmse_estimate_per_user

        def singular_at_20_dbm(received, pilots, noise, covariances):
            if np.linalg.norm(pilots[0]) ** 2 > 1e-2:   # 0.05 W per user, not 5e-4 W
                raise RankDeficiencyError("singular MMSE system")
            return estimate(received, pilots, noise, covariances)

        cfg = tiny_config(use_estimation=True, algorithms=("GUS", "RANDOM"))
        plain = run_experiment(cfg)
        monkeypatch.setattr(harness, "mmse_estimate_per_user", singular_at_20_dbm)
        stats = run_experiment(cfg)
        for row, before in zip(stats.trial_rows, plain.trial_rows, strict=True):
            assert row == (replace(before, sum_rate=None, selected=())
                           if row.p_dbm == 20.0 else before)
        assert [(c.p_dbm, c.trials_used, c.excluded) for c in stats.cells] == \
            [(0.0, 2, 0), (20.0, 0, 2)] * 2

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
        cfg = tiny_config(base_seed=-2)
        with pytest.raises(ConfigurationError, match="base_seed"):
            cfg.validate()
        with pytest.raises(ConfigurationError, match="base_seed"):
            run_experiment(cfg)
        tiny_config(base_seed=0).validate()


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
    """Every invalid value fails in ``validate()`` before any trial runs."""

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
    ], ids=lambda x: "-".join(map(str, x.items())) if isinstance(x, dict) else str(x))
    def test_rejected_before_any_trial(self, no_trials, part, overrides, match):
        base = tiny_config()
        cfg = (replace(base, scenario=replace(base.scenario, **overrides)) if part == "scenario"
               else replace(base, crlb=CrlbParams(**overrides)) if part == "crlb"
               else replace(base, **overrides))
        with pytest.raises(ConfigurationError, match=match):
            run_experiment(cfg)


# fields checked by hand in validate(): nested configs, a (lo, hi) pair, and
# the inputs of the derived noise power
EXEMPT_FROM_FIELD_RULES = {"scenario", "crlb", "cluster_height_range", "bandwidth",
                           "temperature", "noise_figure_db"}


@pytest.mark.parametrize("cls", [ScenarioConfig, CrlbParams, ExperimentConfig])
def test_every_config_field_has_a_rule_or_is_exempt(cls):
    unruled = {f.name for f in fields(cls) if "check" not in f.metadata}
    assert unruled <= EXEMPT_FROM_FIELD_RULES, f"{cls.__name__} fields without a rule"


class TestAggregate:
    def test_cells_match_per_cell_scan(self):
        # Oracle: scan every row for every cell, in trial order
        cfg = tiny_config(trials=7, ks_values=(2, 3), omegas=(0, 1))
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
                            "t", alg, ks, p_dbm, omega, float(np.mean(ok)),
                            float(np.std(ok, ddof=1) / math.sqrt(len(ok))),
                            len(ok), len(group) - len(ok), group[0].load))
        assert stats.cells == tuple(expected)

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
        cfg = tiny_config(**overrides)
        assert run_experiment(cfg).trial_rows == tuple(naive_trial_rows(cfg))

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
        # one cluster of two paths: every channel has rank 2, so GWC fails
        # at K_s = 3 and K_s = 2 still gets its rows
        cfg = tiny_config(scenario=ScenarioConfig(
            num_users=8, num_clusters=1, antenna_count=8, mpcs_per_cluster=2,
            rng_seed=0), ks_values=(2, 3), trials=3)
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
        cfg = tiny_config(mode="paper-literal", gus_variant="set")
        path = tmp_path / "config.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

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

    @pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML without libyaml")
    @settings(max_examples=100, deadline=None)
    @given(cfg=config_strategy(
        ExperimentConfig, scenario=config_strategy(ScenarioConfig),
        crlb=config_strategy(CrlbParams),
        algorithms=st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True).map(tuple),
        mode=st.sampled_from(("physical", "paper-literal")),
        gus_variant=st.sampled_from(("last", "set"))))
    def test_hash_emitters_agree(self, cfg):
        # config_hash uses libyaml's emitter where PyYAML has it; manifests
        # written with either must carry the same config_sha256
        data = config_to_dict(cfg)
        assert yaml.dump(data, Dumper=yaml.CSafeDumper, sort_keys=True) == \
            yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=True)

    @pytest.mark.parametrize("overrides", [dict(mode=""), dict(gus_variant="x"),
                                           dict(algorithms=("GUS", ""))])
    def test_hash_of_an_invalid_config_raises(self, overrides):
        # a string outside the fixed choices could hash differently with and
        # without libyaml, so such a config has no hash
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
                                  ("crlb", "input_snr", None)):
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
        cfg = tiny_config(
            trials=trials, base_seed=base_seed, powers_dbm=tuple(powers),
            omegas=tuple(omegas), algorithms=tuple(algorithms),
            use_estimation=use_estimation,
            scenario=ScenarioConfig(num_users=8, reference_delay=reference_delay),
            crlb=CrlbParams(input_snr=input_snr))
        path = tmp_path_factory.mktemp("rt") / "config.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg
        try:
            cfg.validate()
        except ConfigurationError:   # e.g. a duplicated omega: no hash to compare
            with pytest.raises(ConfigurationError):
                config_hash(load_config(path))
        else:
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
    def test_fig2_subcommand_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(), cfg_path)
        out1 = tmp_path / "o1.csv"
        out2 = tmp_path / "o2.csv"
        assert cli.main(["fig2", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["fig2", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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
    ], ids=["missing", "malformed"])
    def test_unreadable_config_file_is_a_usage_error(self, tmp_path, capsys,
                                                      content, message):
        cfg_path = tmp_path / "c.yaml"
        if content is not None:
            cfg_path.write_text(content)
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
        save_config(tiny_config(noise_figure_db=10000.0), cfg_path)
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
        save_config(tiny_config(powers_dbm=(4000.0,)), cfg_path)
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("gusim: error: powers_dbm") and "Traceback" not in err
        assert not out.exists()

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
