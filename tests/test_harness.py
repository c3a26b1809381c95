import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gusim import cli, harness
from gusim.errors import ConfigurationError, SelectionError
from gusim.gscm import ScenarioConfig
from gusim.localization import CrlbParams
from gusim.harness import (ALGORITHMS, ExperimentConfig, LOAD_HEADER, RESULT_HEADER,
                           config_from_dict, config_hash, config_to_dict,
                           dbm_to_watts, figure2_sweep, figure3_load,
                           figure4_robustness, load_config, run_experiment,
                           save_config, watts_to_dbm, write_manifest,
                           write_results_csv)
from gusim.scheduling import gus_select


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


class TestUnitConversions:
    def test_round_trip(self):
        assert watts_to_dbm(dbm_to_watts(23.0)) == pytest.approx(23.0, abs=1e-12)

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

    def test_gus_selects_once_per_trial_ks_and_omega(self, monkeypatch):
        calls = []

        def counting(v, ks, variant):
            calls.append(ks)
            return gus_select(v, ks, variant)

        monkeypatch.setattr(harness, "gus_select", counting)
        cfg = tiny_config(algorithms=("GUS",), powers_dbm=(0.0, 20.0, 40.0),
                          ks_values=(2, 3), omegas=(0, 1))
        stats = run_experiment(cfg)
        assert len(calls) == cfg.trials * 2 * 2
        assert len(stats.trial_rows) == cfg.trials * 2 * 2 * 3

    def test_failed_gus_selection_excludes_every_power(self, monkeypatch):
        def failing(v, ks, variant):
            raise SelectionError("no usable rows")

        monkeypatch.setattr(harness, "gus_select", failing)
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
        save_config(tiny_config(), cfg_path)
        out = tmp_path / "o.csv"
        cli.main(["run", "--config", str(cfg_path), "--trials", "1",
                  "--seed", "7", "--mode", "paper-literal",
                  "--gus-variant", "set", "--out", str(out)])
        manifest = (tmp_path / "o.csv.manifest.txt").read_text()
        assert "base_seed: 7" in manifest

    def test_fig3_subcommand(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(fig3_m_values=(100,)), cfg_path)
        out = tmp_path / "f3.csv"
        cli.main(["fig3", "--config", str(cfg_path), "--out", str(out)])
        assert out.exists()

    def test_fig4_subcommand(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        save_config(tiny_config(powers_dbm=(30.0,), omegas=(0, 1)), cfg_path)
        out = tmp_path / "f4.csv"
        cli.main(["fig4", "--config", str(cfg_path), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) > 1
