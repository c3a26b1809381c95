"""User scheduling: the geometry-based greedy selector working on the
user-cluster pathloss matrix, a full-CSI greedy baseline, a random
baseline, and the channel-estimation load metric."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import gscm
from .errors import ConfigurationError, RankDeficiencyError, SelectionError
from .rx import PowerConfig, zf_weights


@dataclass(frozen=True)
class ScheduleResult:
    """Ordered selected-user indices with per-step diagnostics.

    ``per_step_scores`` holds the row norm for the first pick and, for the
    geometry selector, the winning correlation at each later pick; for the
    full-CSI greedy it holds the objective value after each accepted step.
    """

    selected: tuple[int, ...]
    per_step_scores: tuple[float, ...]
    algorithm: str


def build_v_matrix(scenario: gscm.Scenario) -> np.ndarray:
    """K x N_C matrix of large-scale user-cluster gains.

    Entry (k, j) is sqrt(path gain of user k) * A_VR(user k, VR j) *
    sqrt(A_C(cluster j, user k)). Purely geometric: no fast fading and no
    shadowing enters, since the base station computes it from positions
    alone.
    """
    k = scenario.num_users
    n_c = scenario.num_clusters
    v = np.empty((k, n_c))
    for i in range(k):
        for j in range(n_c):
            v[i, j] = gscm.user_cluster_geometry_factor(
                scenario, i, j, include_shadowing=False)
    return v


def correlation_metric(v_k: np.ndarray, v_j: np.ndarray) -> float:
    """Normalized inner product |v_k . v_j*| / (||v_k|| ||v_j||) in [0, 1]."""
    v_k = np.asarray(v_k).reshape(-1)
    v_j = np.asarray(v_j).reshape(-1)
    nk = np.linalg.norm(v_k)
    nj = np.linalg.norm(v_j)
    if nk == 0 or nj == 0:
        raise ConfigurationError("correlation metric undefined for a zero row")
    return min(1.0, float(abs(np.vdot(v_j, v_k))) / (nk * nj))


def gus_select(v: np.ndarray, num_selected: int,
               variant: str = "last") -> ScheduleResult:
    """Geometry-based greedy selection on the user-cluster matrix.

    The first user maximizes the row norm; each later pick minimizes the
    correlation metric against the most recently selected row (``last``,
    the literal algorithm) or against the worst case over all selected rows
    (``set``). Ties go to the lowest index. Zero-norm rows are excluded
    with a warning since their correlation is undefined.
    """
    v = np.asarray(v, dtype=float)
    k = v.shape[0]
    if not 1 <= num_selected <= k:
        raise ConfigurationError(f"num_selected must be in [1, {k}]")
    if variant not in ("last", "set"):
        raise ConfigurationError(f"unknown variant {variant!r}")

    norms = np.linalg.norm(v, axis=1)
    candidates = [i for i in range(k) if norms[i] > 0]
    if len(candidates) < k:
        warnings.warn(
            f"excluding {k - len(candidates)} zero-norm user rows from selection",
            stacklevel=2,
        )
    if len(candidates) < num_selected:
        raise SelectionError(
            f"only {len(candidates)} usable candidates for {num_selected} slots"
        )

    first = max(candidates, key=lambda i: (norms[i], -i))
    selected = [first]
    scores = [float(norms[first])]
    remaining = [i for i in candidates if i != first]
    while len(selected) < num_selected:
        if variant == "last":
            ref = v[selected[-1]]
            corr = {i: correlation_metric(v[i], ref) for i in remaining}
        else:
            corr = {
                i: max(correlation_metric(v[i], v[s]) for s in selected)
                for i in remaining
            }
        pick = min(remaining, key=lambda i: (corr[i], i))
        selected.append(pick)
        scores.append(corr[pick])
        remaining.remove(pick)
    return ScheduleResult(tuple(selected), tuple(scores), "GUS")


def gwc_select(h_all: np.ndarray, num_selected: int,
               power: PowerConfig, mode: str = "physical") -> ScheduleResult:
    """Full-CSI greedy baseline: start from the strongest channel column
    and at each step add the user maximizing the zero-forcing sum-rate of
    the tentative set (equal power split over the tentative set size).

    Every remaining candidate is scored at once from the QR factors
    H_S = QR of the selected columns. With C = Q^H H_rem, the residual
    E = H_rem - QC of squared column norm rho^2 and X = R^-1 C, the ZF
    noise gain [(H'^H H')^-1]_kk of the tentative set H' = [H_S h] is
    ||row k of R^-1||^2 + |X_k|^2 / rho^2 for a selected user and
    1 / rho^2 for the candidate, which gives ``sum_rate``'s per-user SINR
    in closed form. In ``paper-literal`` mode that SINR is the per-user
    power, so every candidate scores the same and the lowest index wins.

    Candidates are visited in descending score (ties to the lowest index)
    and the first one that ``zf_weights`` accepts is added; a candidate in
    the span of the selected columns (rho^2 = 0) gets no score. A step
    that cannot improve the objective still takes the best available
    candidate so that exactly ``num_selected`` users come out.
    """
    h_all = np.asarray(h_all)
    m, k = h_all.shape
    if not 1 <= num_selected <= k:
        raise ConfigurationError(f"num_selected must be in [1, {k}]")
    if mode not in ("physical", "paper-literal"):
        raise ConfigurationError(f"unknown sum-rate mode {mode!r}")

    norms = np.linalg.norm(h_all, axis=0)
    # QR factors of the selected columns, grown one column per step
    dtype = np.result_type(h_all, float)
    q_all = np.zeros((m, num_selected), dtype=dtype)
    r_inv_all = np.zeros((num_selected, num_selected), dtype=dtype)
    selected: list[int] = []
    scores: list[float] = []
    remaining = np.arange(k)
    while len(selected) < num_selected:
        s = len(selected)
        q, r_inv = q_all[:, :s], r_inv_all[:s, :s]
        h_rem = h_all[:, remaining]
        c = q.conj().T @ h_rem
        resid = h_rem - q @ c
        rho2 = np.sum(resid.real ** 2 + resid.imag ** 2, axis=0)
        scored = np.flatnonzero(rho2 > 0)
        rho2 = rho2[scored]
        p = power.total_power / (s + 1)
        if mode == "physical":
            gain = (np.sum(np.abs(r_inv) ** 2, axis=1)[:, None]
                    + np.abs(r_inv @ c[:, scored]) ** 2 / rho2)
            rates = (np.sum(np.log2(1.0 + p / (power.noise_power * gain)), axis=0)
                     + np.log2(1.0 + p * rho2 / power.noise_power))
        else:
            rates = np.full(len(scored), (s + 1) * math.log2(1.0 + p))
        key = rates if s else norms[remaining[scored]]
        for j in np.argsort(-key, kind="stable"):
            try:
                zf_weights(h_all[:, selected + [int(remaining[scored[j]])]])
            except (RankDeficiencyError, ConfigurationError):
                continue
            break
        else:
            raise SelectionError(
                "zero-forcing is undefined for every remaining candidate"
            )
        w = scored[j]
        # append the winner's column, re-orthogonalized once against Q
        delta = q.conj().T @ resid[:, w]
        e = resid[:, w] - q @ delta
        rho = np.linalg.norm(e)
        q_all[:, s] = e / rho
        r_inv_all[:s, s] = -(r_inv @ (c[:, w] + delta)) / rho
        r_inv_all[s, s] = 1.0 / rho
        selected.append(int(remaining[w]))
        scores.append(float(rates[j]))
        remaining = np.delete(remaining, w)
    return ScheduleResult(tuple(selected), tuple(scores), "GWC")


def random_select(num_users: int, num_selected: int,
                  rng: np.random.Generator | int | None = None) -> ScheduleResult:
    """Uniform subset baseline, deterministic for a given generator/seed."""
    if num_selected > num_users:
        raise ConfigurationError("num_selected must be <= num_users")
    if num_selected < 1 or num_users < 1:
        raise ConfigurationError("counts must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    picks = rng.choice(num_users, size=num_selected, replace=False)
    return ScheduleResult(tuple(int(i) for i in picks),
                          tuple(0.0 for _ in range(num_selected)), "RANDOM")


def estimation_load(num_antennas: int, num_estimated_users: int) -> int:
    """Channel-estimation load 2 * M * (users whose channels are estimated):
    the selected-set size for the geometry scheduler, the full pool for a
    full-CSI scheme."""
    if num_antennas < 1 or num_estimated_users < 1:
        raise ConfigurationError("counts must be positive")
    return 2 * num_antennas * num_estimated_users
