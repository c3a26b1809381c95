"""User scheduling: the geometry-based greedy selector working on the
user-cluster pathloss matrix, a full-CSI greedy baseline, a random
baseline, and the channel-estimation load metric."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SelectionError
from .plain import check_count
from .rx import ZF_COND_LIMIT, zf_refused

GUS_VARIANTS = ("last", "set")   # gus_select's reference rows for the correlation step


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


def _check_array(name: str, a: np.ndarray, shapes: str, ndims: tuple[int, ...]) -> None:
    """Raise ``ConfigurationError`` unless ``a`` is finite with one of ``ndims`` axes."""
    if a.ndim not in ndims or not np.isfinite(a).all():
        bad = a.size - np.count_nonzero(np.isfinite(a))
        raise ConfigurationError(f"{name} must be a finite {shapes} array, "
                                 f"got shape {a.shape} with {bad} non-finite entries")


def gus_select(v: np.ndarray, num_selected: int, variant: str = "last"):
    """Geometry-based greedy selection on the user-cluster matrix.

    The first user maximizes the row norm; each later pick minimizes the
    correlation metric against the most recently selected row (``last``,
    the literal algorithm) or against the worst case over all selected rows
    (``set``). Ties go to the lowest index. Zero-norm rows are excluded
    with a warning since their correlation is undefined. An (n, K, N_C)
    stack gives one result per entry, cut at its count of usable rows,
    where one V raises ``SelectionError``. A V that is not a finite (K, N_C)
    or (n, K, N_C) array raises ``ConfigurationError``.
    """
    v = np.asarray(v, dtype=float)
    _check_array("v", v, "(K, N_C) or (n, K, N_C)", (2, 3))
    stack, k = v.reshape(-1, *v.shape[-2:]), v.shape[-2]
    check_count("num_selected", num_selected, k)
    if variant not in GUS_VARIANTS:
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
    h_rem, qh = h_all[:, remaining], q.conj().T
    c = qh @ h_rem
    resid = h_rem - q @ c
    rho2 = (resid.real ** 2 + resid.imag ** 2).sum(axis=0)
    scored = np.flatnonzero(rho2 > 0)
    all_scored = scored.size == rho2.size   # then no gather is needed
    x = r_inv @ (c if all_scored else c[:, scored])
    rho2 = rho2 if all_scored else rho2[scored]
    gain = (np.abs(r_inv) ** 2).sum(axis=1)[:, None] + np.abs(x) ** 2 / rho2
    return qh, c, resid, scored, rho2, x, gain


# a candidate whose Frobenius bound on cond(H') is at most this needs no SVD:
# 100x inside ZF_COND_LIMIT, so rounding cannot accept what the rule rejects
_CERTIFIED_COND = ZF_COND_LIMIT / 100


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
    and the first that ``rx.zf_refused`` accepts, applied to the tentative
    factor R'^-1 as cond(H') = cond(R') = cond(R'^-1), is added; a
    candidate in the span of the selected columns (rho^2 = 0) gets no
    score, and one whose R'^-1 is not finite is refused. The rule runs as an
    SVD only where the bound
    ||H'||_F ||R'^-1||_F >= cond(H') exceeds 1e10 or is not finite, at most
    once per candidate of a prefix, and the full visiting order is built
    only when the top candidate needs the SVD rule or scores NaN. A step
    that cannot improve the objective still takes the best available
    candidate, and no pick depends on how many picks follow. A power left
    with no acceptable candidate gets a shorter result. C, E, X, the gains
    and the condition tests run once per ordered prefix that some power
    reaches, and there one (P, s, n) pass rates every power it serves. An
    ``h_all`` that is not a finite (M, K) array raises ``ConfigurationError``.
    """
    h_all = np.asarray(h_all)
    _check_array("h_all", h_all, "(M, K)", (2,))
    m, k = h_all.shape
    check_count("num_selected", num_selected, k)
    if num_selected > m:
        raise SelectionError(f"zero-forcing needs num_selected <= M = {m}")

    norms = np.linalg.norm(h_all, axis=0)
    norms2 = norms ** 2
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
        qh, c, resid, scored, rho2, x, gain = _gwc_node(h_all, q, r_inv, remaining)
        if not scored.size:
            return
        # cond(R') <= ||R'||_F ||R'^-1||_F with ||R'||_F = ||H'||_F; None marks
        # a candidate whose SVD rule has not run yet
        bound2 = (fro2 + norms2[remaining[scored]]) * (gain.sum(axis=0) + 1.0 / rho2)
        accepted = [True if ok else None for ok in (bound2 <= _CERTIFIED_COND ** 2).tolist()]

        # (P, s, n) rates of every power of the group, each visiting its top first
        p, p_n = totals[group] / (s + 1), noises[group]
        rates = (np.log2(1.0 + p[:, :, None] / (p_n[:, :, None] * gain)).sum(axis=1)
                 + np.log2(1.0 + p * rho2 / p_n))
        key = rates if s else np.broadcast_to(norms[remaining[scored]], rates.shape)
        order, children = None, {}
        for r, (i, j) in enumerate(zip(group, key.argmax(axis=-1).tolist())):
            if accepted[j] is not True or math.isnan(key[r, j]):
                order = order or np.argsort(-key, axis=-1, kind="stable").tolist()
                for j in order[r]:
                    if accepted[j] is None:   # on R'^-1 = [[R^-1, -X_j/rho], [0, 1/rho]]
                        rho = math.sqrt(rho2[j])
                        r_inv_all[:s, s], r_inv_all[s, s] = -x[:, j] / rho, 1.0 / rho
                        accepted[j] = not zf_refused(r_inv_all[:s + 1, :s + 1])[0]
                    if accepted[j]:
                        break
                else:
                    continue
            found[i][0].append(int(remaining[scored[j]]))
            found[i][1].append(float(rates[r, j]))
            children.setdefault(scored[j], []).append(i)
        for w, sub in children.items() if s + 1 < num_selected else ():
            # append the winner's column, re-orthogonalized once against Q
            delta = qh @ resid[:, w]
            e = resid[:, w] - q @ delta
            rho = math.sqrt(e.real.dot(e.real) + e.imag.dot(e.imag))   # np.linalg.norm's sum
            q_all[:, s] = e / rho
            r_inv_all[:s, s] = -(r_inv @ (c[:, w] + delta)) / rho
            r_inv_all[s, s] = 1.0 / rho
            walk(s + 1, np.concatenate((remaining[:w], remaining[w + 1:])), sub,
                 fro2 + norms2[remaining[w]])

    with np.errstate(over="ignore", invalid="ignore"):
        walk(0, np.arange(k), list(range(len(powers))), 0.0)
    return tuple(ScheduleResult(tuple(sel), tuple(sc), "GWC") for sel, sc in found)


def random_select(num_users: int, num_selected: int,
                  rng: np.random.Generator | int | None = None) -> ScheduleResult:
    """Uniform subset baseline, deterministic for a given generator/seed."""
    check_count("num_users", num_users)
    check_count("num_selected", num_selected, num_users)
    picks = np.random.default_rng(rng).choice(num_users, size=num_selected, replace=False)
    return ScheduleResult(tuple(int(i) for i in picks),
                          tuple(0.0 for _ in range(num_selected)), "RANDOM")


def estimation_load(num_antennas: int, num_estimated_users: int) -> int:
    """Channel-estimation load 2 * M * (users whose channels are estimated):
    the selected-set size for the geometry scheduler, the full pool for a
    full-CSI scheme."""
    check_count("num_antennas", num_antennas)
    check_count("num_estimated_users", num_estimated_users)
    return 2 * num_antennas * num_estimated_users
