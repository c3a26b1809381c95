"""User scheduling: the geometry-based greedy selector working on the
user-cluster pathloss matrix, a full-CSI greedy baseline, a random
baseline, and the channel-estimation load metric."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SelectionError
from .plain import _is_integer
from .rx import ZF_COND_LIMIT


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


def gus_select(v: np.ndarray, num_selected: int, variant: str = "last"):
    """Geometry-based greedy selection on the user-cluster matrix.

    The first user maximizes the row norm; each later pick minimizes the
    correlation metric against the most recently selected row (``last``,
    the literal algorithm) or against the worst case over all selected rows
    (``set``). Ties go to the lowest index. Zero-norm rows are excluded
    with a warning since their correlation is undefined. An (n, K, N_C)
    stack gives one result per entry, cut at its count of usable rows,
    where one V raises ``SelectionError``.
    """
    v = np.asarray(v, dtype=float)
    stack, k = v.reshape(-1, *v.shape[-2:]), v.shape[-2]
    if not (_is_integer(num_selected) and 1 <= num_selected <= k):
        raise ConfigurationError(f"num_selected must be an integer in [1, {k}]")
    if variant not in ("last", "set"):
        raise ConfigurationError(f"unknown variant {variant!r}")

    norms = np.linalg.norm(stack, axis=2)
    counts = np.count_nonzero(norms, axis=1)
    if counts.sum() < norms.size:
        warnings.warn(f"excluding {norms.size - counts.sum()} zero-norm user rows "
                      "from selection", stacklevel=2)
    if v.ndim == 2 and counts[0] < num_selected:
        raise SelectionError(f"only {counts[0]} usable candidates for {num_selected} slots")

    # row e K + a of corr: the correlation metric of row a of entry e with
    # each row of that entry, products summed elementwise so that equal rows
    # give exactly equal entries (and corr is symmetric to the bit). Zero-norm
    # and selected users are barred with an infinite metric.
    safe = np.where(norms > 0, norms, 1.0)
    corr = np.minimum(1.0, np.abs(np.einsum("eik,ejk->eij", stack, stack))
                      / (safe[:, :, None] * safe[:, None, :])).reshape(-1, k)
    rows, barred = np.arange(len(stack)) * k, np.where(norms > 0, 0.0, np.inf)
    at, scores, worst = [rows + norms.argmax(axis=1)], [norms.max(axis=1)], barred
    while len(at) < num_selected:   # at: the picks' rows of corr
        barred.reshape(-1)[at[-1]] = np.inf
        latest = corr[at[-1]]   # each row's metric against the latest pick
        worst = np.maximum(latest if variant == "last" else np.maximum(worst, latest), barred)
        at.append(rows + worst.argmin(axis=1))
        scores.append(worst.min(axis=1))
    results = tuple(ScheduleResult(tuple(p[:n]), tuple(sc[:n]), "GUS") for p, sc, n in
                    zip((np.array(at) - rows).T.tolist(), np.array(scores).T.tolist(), counts))
    return results if v.ndim == 3 else results[0]


def _gwc_node(h_all: np.ndarray, q: np.ndarray, r_inv: np.ndarray, remaining):
    """The power-free part of a greedy step from a prefix's QR factors."""
    h_rem = h_all[:, remaining]
    c = q.conj().T @ h_rem
    resid = h_rem - q @ c
    rho2 = np.sum(resid.real ** 2 + resid.imag ** 2, axis=0)
    scored = np.flatnonzero(rho2 > 0)
    rho2 = rho2[scored]
    x = r_inv @ c[:, scored]
    gain = np.sum(np.abs(r_inv) ** 2, axis=1)[:, None] + np.abs(x) ** 2 / rho2
    return c, resid, scored, rho2, x, gain


# a candidate whose Frobenius bound on cond(H') is at most this needs no SVD:
# 100x inside ZF_COND_LIMIT, so rounding cannot accept what the rule rejects
_CERTIFIED_COND = 1e10


def gwc_select_powers(h_all: np.ndarray, num_selected: int,
                      powers) -> tuple[ScheduleResult, ...]:
    """Full-CSI greedy baseline, one result per power in input order: start
    from the strongest channel column and at each step add the user
    maximizing the zero-forcing sum-rate of the tentative set (equal power
    split over the tentative set size).

    Every remaining candidate is scored at once from the QR factors
    H_S = QR of the selected columns. With C = Q^H H_rem, the residual
    E = H_rem - QC of squared column norm rho^2 and X = R^-1 C, the ZF
    noise gain [(H'^H H')^-1]_kk of the tentative set H' = [H_S h] is
    ||row k of R^-1||^2 + |X_k|^2 / rho^2 for a selected user and
    1 / rho^2 for the candidate, which gives ``sum_rate``'s physical
    per-user SINR in closed form.

    Candidates are visited in descending score (ties to the lowest index)
    and the first that ``zf_weights``' condition rule accepts, applied to
    the tentative factor R'^-1 as cond(H') = cond(R') = cond(R'^-1), is
    added; a candidate in the span of the selected columns (rho^2 = 0) gets
    no score. The rule runs as an SVD only where the bound
    ||H'||_F ||R'^-1||_F >= cond(H') exceeds 1e10 or is not finite, at most
    once per candidate of a prefix. A step that cannot improve the
    objective still takes the best available candidate, and no pick depends
    on how many picks follow. A power left with no acceptable candidate
    gets a shorter result. C, E, X, the gains and the condition tests run
    once per ordered prefix that some power reaches, and there one
    (P, s, n) pass rates every power it serves.
    """
    h_all = np.asarray(h_all)
    m, k = h_all.shape
    if not (_is_integer(num_selected) and 1 <= num_selected <= k):
        raise ConfigurationError(f"num_selected must be an integer in [1, {k}]")
    if num_selected > m:
        raise SelectionError(f"zero-forcing needs num_selected <= M = {m}")

    norms = np.linalg.norm(h_all, axis=0)
    dtype = np.result_type(h_all, float)
    q_all = np.zeros((m, num_selected), dtype=dtype)
    r_inv_all = np.zeros((num_selected, num_selected), dtype=dtype)
    found = [([], []) for _ in powers]   # each power's picks and scores
    totals, noises = np.reshape([(p.total_power, p.noise_power) for p in powers],
                                (-1, 2)).T[:, :, None]   # (P, 1) each

    # depth first: a child writes only its own column of the factors, so
    # siblings share them uncopied; fro2 is the prefix's ||H_S||_F^2
    def walk(s: int, remaining: np.ndarray, group: list[int], fro2: float) -> None:
        q, r_inv = q_all[:, :s], r_inv_all[:s, :s]
        c, resid, scored, rho2, x, gain = _gwc_node(h_all, q, r_inv, remaining)
        # cond(R') <= ||R'||_F ||R'^-1||_F with ||R'||_F = ||H'||_F; None marks
        # a candidate whose SVD rule has not run yet
        with np.errstate(over="ignore", invalid="ignore"):
            bound2 = (fro2 + norms[remaining[scored]] ** 2) * (gain.sum(axis=0) + 1.0 / rho2)
        accepted = [True if ok else None for ok in (bound2 <= _CERTIFIED_COND ** 2).tolist()]

        # (P, s, n) rates of every power of the group, then one visiting order each
        p, p_n = totals[group] / (s + 1), noises[group]
        rates = (np.sum(np.log2(1.0 + p[:, :, None] / (p_n[:, :, None] * gain)), axis=1)
                 + np.log2(1.0 + p * rho2 / p_n))
        key = rates if s else norms[remaining[scored]]
        order = np.argsort(-key, axis=-1, kind="stable").tolist()
        children: dict[int, list[int]] = {}
        for i, row, visit in zip(group, rates.tolist(), order if s else [order] * len(group)):
            for j in visit:
                if accepted[j] is None:   # on R'^-1 = [[R^-1, -X_j/rho], [0, 1/rho]]
                    rho = math.sqrt(rho2[j])
                    r_inv_all[:s, s], r_inv_all[s, s] = -x[:, j] / rho, 1.0 / rho
                    sv = np.linalg.svd(r_inv_all[:s + 1, :s + 1], compute_uv=False)
                    accepted[j] = not (sv[-1] == 0 or sv[0] / sv[-1] > ZF_COND_LIMIT)
                if accepted[j]:
                    found[i][0].append(int(remaining[scored[j]]))
                    found[i][1].append(row[j])
                    children.setdefault(scored[j], []).append(i)
                    break
        for w, sub in children.items() if s + 1 < num_selected else ():
            # append the winner's column, re-orthogonalized once against Q
            delta = q.conj().T @ resid[:, w]
            e = resid[:, w] - q @ delta
            rho = np.linalg.norm(e)
            q_all[:, s] = e / rho
            r_inv_all[:s, s] = -(r_inv @ (c[:, w] + delta)) / rho
            r_inv_all[s, s] = 1.0 / rho
            walk(s + 1, np.concatenate((remaining[:w], remaining[w + 1:])), sub,
                 fro2 + norms[remaining[w]] ** 2)

    walk(0, np.arange(k), list(range(len(powers))), 0.0)
    return tuple(ScheduleResult(tuple(sel), tuple(sc), "GWC") for sel, sc in found)


def random_select(num_users: int, num_selected: int,
                  rng: np.random.Generator | int | None = None) -> ScheduleResult:
    """Uniform subset baseline, deterministic for a given generator/seed."""
    if not (_is_integer(num_selected) and _is_integer(num_users)
            and 1 <= num_selected <= num_users):
        raise ConfigurationError(f"need integers 1 <= num_selected <= num_users, got "
                                 f"{num_selected} of {num_users}")
    picks = np.random.default_rng(rng).choice(num_users, size=num_selected, replace=False)
    return ScheduleResult(tuple(int(i) for i in picks),
                          tuple(0.0 for _ in range(num_selected)), "RANDOM")


def estimation_load(num_antennas: int, num_estimated_users: int) -> int:
    """Channel-estimation load 2 * M * (users whose channels are estimated):
    the selected-set size for the geometry scheduler, the full pool for a
    full-CSI scheme."""
    if not (_is_integer(num_antennas) and _is_integer(num_estimated_users)
            and min(num_antennas, num_estimated_users) >= 1):
        raise ConfigurationError(f"counts must be positive integers, got "
                                 f"{num_antennas!r} and {num_estimated_users!r}")
    return 2 * num_antennas * num_estimated_users
