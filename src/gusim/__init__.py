"""Geometry-based user scheduling and link-level simulation for the
massive MIMO uplink."""

__version__ = "0.1.0"

from .errors import (ConfigurationError, GeometryError, RankDeficiencyError,
                     SelectionError)
from .gscm import (ChannelMatrix, Cluster, MpcDraw, Scenario, ScenarioConfig,
                   SPEED_OF_LIGHT, channel_covariances, channel_matrix,
                   cluster_attenuation, generate_scenario, load_scenario,
                   mpc_amplitudes, path_loss_nlos, save_scenario,
                   steering_vector, vr_gain)
from .rx import (PilotConfig, PowerConfig, ZfReceiver, channel_covariance,
                 ergodic_capacity, mmse_estimate, mmse_estimate_per_user,
                 noise_power, sum_rate, unitary_pilots, zf_weights)
from .scheduling import (ScheduleResult, build_v_matrix, correlation_metric,
                         estimation_load, gus_select, gwc_select, random_select)
from .localization import (CrlbParams, LocalizationError, PerturbedGeometry,
                           crlb, field_pattern, perturb_and_rebuild,
                           solve_cluster_distance)
from .harness import (AggregateStats, ExperimentConfig, TrialResult,
                      figure2_sweep, figure3_load, figure4_robustness,
                      load_config, run_experiment, save_config)
