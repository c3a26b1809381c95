"""Geometry-based user scheduling and link-level simulation for the
massive MIMO uplink."""

__version__ = "0.1.0"

from .errors import ConfigurationError, GeometryError, RankDeficiencyError, SelectionError
from .gscm import (ChannelMatrix, Scenario, ScenarioConfig,
                   SPEED_OF_LIGHT, channel_covariances, channel_matrix,
                   cluster_attenuation, generate_scenario, large_scale_gains,
                   load_scenario, path_loss_nlos, save_scenario, vr_gain)
from .rx import PowerConfig, noise_power, sum_rate, unitary_pilots, zf_weights
from .scheduling import (ScheduleResult, estimation_load, gus_select,
                         gwc_select_powers, random_select)
from .localization import (CrlbParams, PerturbedGeometry, crlb, field_pattern,
                           perturb_and_rebuild_omegas, solve_cluster_distance)
from .harness import (AggregateStats, ExperimentConfig, TrialResult,
                      figure2_sweep, figure3_load, figure4_robustness,
                      load_config, run_experiment, save_config)
