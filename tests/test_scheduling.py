import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gusim.gscm as gscm
import gusim.scheduling as scheduling
from gusim.errors import ConfigurationError, RankDeficiencyError, SelectionError
from gusim.harness import ExperimentConfig, dbm_to_watts
from gusim.localization import perturb_and_rebuild_omegas
from gusim.rx import PowerConfig, sum_rate, unitary_pilots, zf_weights
from gusim.scheduling import (GUS_VARIANTS, estimation_load, gus_select,
                              gwc_select_powers, random_select)

from conftest import correlation_metric, gwc_select_single


class TestCorrelationMetric:
    def test_identical_rows(self):
        assert correlation_metric([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        assert correlation_metric([1.0, 0.0], [0.0, 3.0]) == 0.0

    def test_forty_five_degrees(self):
        assert correlation_metric([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            0.7071067811865475, rel=1e-12)

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(0.1, 1.0, size=(2, 4))
            assert correlation_metric(a, b) == pytest.approx(
                correlation_metric(b, a), rel=1e-12)
            assert correlation_metric(3.7 * a, b) == pytest.approx(
                correlation_metric(a, b), rel=1e-12)
            assert 0.0 <= correlation_metric(a, b) <= 1.0

    def test_zero_row_rejected(self):
        with pytest.raises(ConfigurationError):
            correlation_metric([0.0, 0.0], [1.0, 0.0])


class TestGusSelect:
    def test_orthogonal_rows(self):
        v = np.array([[2.0, 0.0], [0.0, 1.0]])
        result = gus_select(v, 2)
        assert result.selected == (0, 1)
        assert result.per_step_scores[0] == pytest.approx(2.0)
        assert result.per_step_scores[1] == pytest.approx(0.0)

    def test_single_slot_max_norm(self):
        v = np.array([[1.0, 0.0], [3.0, 1.0], [0.5, 0.5]])
        assert gus_select(v, 1).selected == (1,)

    def test_hand_enumerated_case(self):
        v = np.array([[1.0, 1.0], [1.0, 0.0], [3.0, 0.0]])
        result = gus_select(v, 2)
        assert result.selected == (2, 0)
        assert result.per_step_scores[0] == pytest.approx(3.0)
        assert result.per_step_scores[1] == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.1, 1.0, size=(8, 3))
        base = gus_select(v, 4).selected
        assert gus_select(2.5 * v, 4).selected == base
        # per-row positive scaling keeps the later (correlation) picks
        scales = rng.uniform(0.5, 2.0, size=8)
        first = gus_select(v, 1).selected[0]
        scales[first] = 1.0  # keep the first pick the strongest row
        v2 = v * scales[:, None]
        if gus_select(v2, 1).selected[0] == first:
            assert gus_select(v2, 4).selected == base

    def test_no_duplicates_and_exact_length(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0.0, 1.0, size=(12, 4))
        result = gus_select(v, 7)
        assert len(result.selected) == 7
        assert len(set(result.selected)) == 7

    def test_avoids_duplicate_cluster_user(self):
        # two users on the same single cluster, one user on a distinct one:
        # the distinct user is preferred for the second slot
        v = np.array([[2.0, 0.0], [1.9, 0.0], [0.1, 0.8]])
        assert gus_select(v, 2).selected == (0, 2)

    def test_zero_rows_warned_and_excluded(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.warns(UserWarning, match="zero-norm"):
            result = gus_select(v, 2)
        assert 1 not in result.selected

    def test_infeasible_after_exclusions(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            with pytest.raises(SelectionError):
                gus_select(v, 2)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown variant 'first'"):
            gus_select(np.eye(3), 2, variant="first")

    def test_set_variant_uses_worst_case(self):
        # candidate 3 is orthogonal to the last pick but identical to the
        # first; the set variant must reject it
        v = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.2, 0.2, 0.9],
        ])
        assert gus_select(v, 3, variant="last").selected == (0, 1, 2)
        assert gus_select(v, 3, variant="set").selected == (0, 1, 3)


def gus_oracle(v, num_selected, variant="last"):
    """Reference GUS: one ``correlation_metric`` call per candidate pair
    and step, with the same first pick, tie and zero-row rules as
    ``gus_select``. Returns (selected, per-step scores)."""
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=1)
    candidates = [i for i in range(v.shape[0]) if norms[i] > 0]
    if len(candidates) < v.shape[0]:
        warnings.warn("excluding zero-norm user rows from selection")
    if len(candidates) < num_selected:
        raise SelectionError("too few usable candidates")
    first = max(candidates, key=lambda i: (norms[i], -i))
    selected, scores = [first], [float(norms[first])]
    remaining = [i for i in candidates if i != first]
    while len(selected) < num_selected:
        refs = selected[-1:] if variant == "last" else selected
        corr = {i: max(correlation_metric(v[i], v[s]) for s in refs)
                for i in remaining}
        pick = min(remaining, key=lambda i: (corr[i], i))
        selected.append(pick)
        scores.append(corr[pick])
        remaining.remove(pick)
    return tuple(selected), tuple(scores)


class TestGusMatchesPairwiseOracle:
    @staticmethod
    def _check(v, num_selected, variant):
        result = gus_select(v, num_selected, variant)
        selected, scores = gus_oracle(v, num_selected, variant)
        assert result.selected == selected
        np.testing.assert_allclose(result.per_step_scores, scores, rtol=1e-12,
                                   atol=1e-15)

    @pytest.mark.parametrize("variant", GUS_VARIANTS)
    def test_random_matrices(self, variant):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 30))
            v = rng.uniform(0.0, 1.0, size=(k, int(rng.integers(1, 13))))
            self._check(v, int(rng.integers(1, k + 1)), variant)

    @pytest.mark.parametrize("variant", GUS_VARIANTS)
    def test_desk_scale_v_matrices(self, variant):
        for seed in (1, 2, 3):
            v = gscm.large_scale_gains(gscm.generate_scenario(gscm.ScenarioConfig(rng_seed=seed)))
            for ks in (5, 10, 20):
                self._check(v, ks, variant)

    @pytest.mark.parametrize("variant", GUS_VARIANTS)
    def test_tied_correlations(self, variant):
        # duplicated rows, a row scaled by a power of two (equal metric to
        # the bit), orthogonal rows (metric 0) and a collinear pair
        # (clipped to 1) give exact ties that the index rule must break
        base = np.array([[3.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0],
                         [0.3, 0.4, 0.5, 0.6], [0.3, 0.4, 0.5, 0.6]])
        for num_selected in range(1, len(base) + 1):
            self._check(base, num_selected, variant)

    @staticmethod
    def _check_stack(stack, num_selected, variant):
        # each entry is the one-V result, bitwise, cut at its usable rows
        results = gus_select(stack, num_selected, variant)
        assert len(results) == len(stack)
        for v, result in zip(stack, results):
            usable = int(np.count_nonzero(np.linalg.norm(v, axis=1)))
            n = min(usable, num_selected)
            assert len(result.selected) == n
            if n:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    alone = gus_select(v, n, variant)
                    selected, scores = gus_oracle(v, n, variant)
                assert result == alone and result.selected == selected
                np.testing.assert_allclose(result.per_step_scores, scores, rtol=1e-12,
                                           atol=1e-15)

    @pytest.mark.parametrize("variant", GUS_VARIANTS)
    def test_stacks(self, variant):
        # some entries with zero-norm rows, some too short for num_selected
        rng = np.random.default_rng(12)
        for _ in range(40):
            n, k = int(rng.integers(1, 7)), int(rng.integers(2, 30))
            stack = rng.uniform(0.0, 1.0, size=(n, k, int(rng.integers(1, 13))))
            for entry in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
                stack[entry, rng.random(k) < rng.uniform(0.1, 1.0)] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                self._check_stack(stack, int(rng.integers(1, k + 1)), variant)
        stack[0] = 0.0
        with pytest.warns(UserWarning, match="zero-norm"):
            assert gus_select(stack, 1, variant)[0].selected == ()

    @pytest.mark.parametrize("variant", GUS_VARIANTS)
    def test_desk_scale_omega_stacks(self, variant):
        # the stack the harness selects on: V and its rebuilds for omega 1..5
        scen = gscm.generate_scenario(gscm.ScenarioConfig(rng_seed=4))
        stack = np.concatenate([gscm.large_scale_gains(scen)[None], perturb_and_rebuild_omegas(
            scen, range(1, 6), ExperimentConfig().crlb).v_tilde])
        for ks in (1, 5, 10, 40):
            self._check_stack(stack, ks, variant)

    @pytest.mark.parametrize("variant", GUS_VARIANTS)
    def test_zero_norm_row_warns_in_both(self, variant):
        v = np.array([[1.0, 0.2], [0.0, 0.0], [0.1, 1.0], [0.5, 0.5]])
        with pytest.warns(UserWarning, match="zero-norm"):
            result = gus_select(v, 3, variant)
        with pytest.warns(UserWarning, match="zero-norm"):
            selected, _ = gus_oracle(v, 3, variant)
        assert result.selected == selected
        assert 1 not in selected


def gwc_oracle(h_all, num_selected, power):
    """Reference greedy: one ``zf_weights`` + ``sum_rate`` per candidate
    and step, with the same first pick, tie and skip rules as
    ``gwc_select_powers``. Returns (selected, per-step objective)."""
    def set_rate(members):
        h = h_all[:, members]
        p = PowerConfig(power.total_power, len(members), power.noise_power)
        return sum_rate(h, zf_weights(h), p)

    first = int(np.argmax(np.linalg.norm(h_all, axis=0)))
    selected, scores = [first], [set_rate([first])]
    remaining = [i for i in range(h_all.shape[1]) if i != first]
    while len(selected) < num_selected:
        best_i, best_rate = None, -math.inf
        for i in remaining:
            try:
                rate = set_rate(selected + [i])
            except (RankDeficiencyError, ConfigurationError):
                continue
            if rate > best_rate:
                best_i, best_rate = i, rate
        if best_i is None:
            raise SelectionError("no candidate left")
        selected.append(best_i)
        scores.append(best_rate)
        remaining.remove(best_i)
    return tuple(selected), tuple(scores)


def gwc_full(h_all, num_selected, power):
    """The result of ``gwc_select_powers`` for one power, which must reach
    ``num_selected`` picks."""
    result, = gwc_select_powers(h_all, num_selected, [power])
    assert len(result.selected) == num_selected
    return result


def assert_matches_oracle(h, num_selected, power):
    result = gwc_full(h, num_selected, power)
    selected, scores = gwc_oracle(h, num_selected, power)
    assert result.selected == selected
    np.testing.assert_allclose(result.per_step_scores, scores, rtol=1e-9, atol=0)


# Column 1 is off the span of column 0 (rho^2 = 1e-26 > 0) and outscores
# column 2, but [h0 h1] has condition number 1e13. Column 2 is nearly
# parallel to column 0 (condition number about 2e10) and is the one
# zero-forcing accepts.
NEAR_COLLINEAR = np.array([[1.0, 0.0, 0.999], [0.0, 1e-13, 1e-10]], dtype=complex)
NEAR_COLLINEAR_POWER = PowerConfig(2e4, 2, 1.0)


class TestGwcSelect:
    def test_single_slot_max_column_norm(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        power = PowerConfig(4.0, 1, 1e-2)
        pick = gwc_full(h, 1, power).selected[0]
        assert pick == int(np.argmax(np.linalg.norm(h, axis=0)))

    def test_orthogonal_equal_norm_tie_break(self):
        h = np.eye(4, dtype=complex) * 2.0
        power = PowerConfig(4.0, 2, 1e-2)
        assert gwc_full(h, 2, power).selected == (0, 1)

    def test_greedy_near_exhaustive(self):
        rng = np.random.default_rng(4)
        power = PowerConfig(2.0, 2, 1e-1)

        def set_rate(h, members):
            hs = h[:, members]
            return sum_rate(hs, zf_weights(hs), power, mode="physical")

        for _ in range(40):
            h = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)))
            best = max(set_rate(h, list(c)) for c in itertools.combinations(range(5), 2))
            greedy = set_rate(h, list(gwc_full(h, 2, power).selected))
            assert greedy >= 0.9 * best

    def test_matches_oracle_on_gaussian_channels(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            ks = int(rng.integers(1, 11))
            m = int(rng.integers(ks, 65))
            k = int(rng.integers(ks, 41))
            h = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            power = PowerConfig(float(10 ** rng.uniform(-2, 2)), ks,
                                float(10 ** rng.uniform(-3, 0)))
            assert_matches_oracle(h, ks, power)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle_on_desk_channels(self, seed):
        # criterion-5 drops (base_seed 1, trial seeds 1, 2, 3, ...)
        cfg = ExperimentConfig()
        scen = gscm.generate_scenario(replace(cfg.scenario, rng_seed=seed))
        h = gscm.channel_matrix(scen, range(scen.num_users)).entries
        for ks in cfg.ks_values:
            for p_dbm in cfg.powers_dbm:
                power = PowerConfig(dbm_to_watts(p_dbm), ks, cfg.noise_power)
                assert_matches_oracle(h, ks, power)

    def test_duplicated_column_skipped_without_warning(self):
        # column 4 repeats the strongest column 0 and lies in its span
        h = np.diag([3.0, 2.0, 1.0, 1.0])
        h = np.column_stack([h, h[:, 0]])
        power = PowerConfig(4.0, 4, 1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gwc_full(h, 4, power).selected == (0, 1, 2, 3)
            with pytest.raises(SelectionError):   # five users on four antennas
                gwc_select_powers(h, 5, [power])
            # with a fifth antenna, a fifth pick has no candidate: the result
            # stops at four
            tall = np.vstack([h, np.zeros(5)])
            assert gwc_select_powers(tall, 5, [power])[0].selected == (0, 1, 2, 3)

    def test_collinear_pool_gives_a_short_result(self):
        # every column lies in the span of the strongest one, column 1
        rng = np.random.default_rng(8)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h = np.outer(v, [1.0, 2.0, -0.5, 1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, = gwc_select_powers(h, 2, [PowerConfig(1.0, 2, 1e-2)])
        assert result.selected == (1,) and len(result.per_step_scores) == 1

    def test_near_collinear_candidate_skipped_like_zf_weights(self):
        h, power = NEAR_COLLINEAR, NEAR_COLLINEAR_POWER
        with pytest.raises(RankDeficiencyError):
            zf_weights(h[:, [0, 1]])
        h_02 = h[:, [0, 2]]
        assert sum_rate(h_02, zf_weights(h_02), power) < math.log2(1.0 + 1e4)
        assert gwc_full(h, 2, power).selected == (0, 2)
        assert gwc_oracle(h, 2, power)[0] == (0, 2)

    def test_more_users_than_antennas_raises(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        power = PowerConfig(1.0, 4, 1e-2)
        with pytest.raises(SelectionError):
            gwc_select_powers(h, 4, [power])
        with pytest.raises(SelectionError):
            gwc_oracle(h, 4, power)

    def test_objective_recorded_per_step(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        power = PowerConfig(3.0, 3, 1e-2)
        result = gwc_full(h, 3, power)
        assert len(result.per_step_scores) == 3
        assert all(np.isfinite(result.per_step_scores))


def desk_channel(seed):
    """The full desk-scale channel matrix of one trial seed."""
    scen = gscm.generate_scenario(replace(ExperimentConfig().scenario, rng_seed=seed))
    return gscm.channel_matrix(scen, range(scen.num_users)).entries


def desk_powers(p_dbm, num_selected=10, noise_power=ExperimentConfig().noise_power):
    return [PowerConfig(dbm_to_watts(p), num_selected, noise_power) for p in p_dbm]


def near_planar_pool(seed, m, k):
    """Columns of spread norms whose last coordinate is 1e-13..1e-8 of the
    rest, so the condition rule decides which extensions are acceptable."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-1.5, 0.5, k)
    h[m - 1] = rng.standard_normal(k) * 10.0 ** rng.uniform(-13, -8, k)
    return h


def assert_matches_single(h, num_selected, powers):
    """Each power's result is the one-power search's, scores equal by ==;
    a short result is the longest run the one-power search completes."""
    results = gwc_select_powers(h, num_selected, powers)
    assert len(results) == len(powers)
    for power, result in zip(powers, results):
        n = len(result.selected)
        if n < num_selected:
            with pytest.raises(SelectionError):
                gwc_select_single(h, n + 1, power)
        expected = gwc_select_single(h, n, power)
        assert result.selected == expected.selected
        assert result.per_step_scores == expected.per_step_scores
    return results


class TestGwcSelectPowers:
    """One search for several powers gives every power exactly the picks
    and scores of its own one-power search."""

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_matches_single_on_desk_channels(self, seed):
        assert_matches_single(desk_channel(seed), 10,
                              desk_powers(ExperimentConfig().powers_dbm))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unsorted_repeated_and_extreme_powers(self, seed):
        powers = desk_powers((40.0, -20.0, 70.0, 10.0, 40.0, -5.0, 55.0, 0.0, 70.0))
        results = assert_matches_single(desk_channel(seed), 10, powers)
        assert results[0] == results[4] and results[2] == results[8]

    def test_matches_single_on_gaussian_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ks = int(rng.integers(1, 11))
            m = int(rng.integers(ks, 65))
            k = int(rng.integers(ks, 41))
            h = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            powers = [PowerConfig(float(10 ** rng.uniform(-3, 4)), ks,
                                  float(10 ** rng.uniform(-3, 0)))
                      for _ in range(int(rng.integers(1, 7)))]
            assert_matches_single(h, ks, powers)

    @pytest.mark.parametrize("seed,m,k", [(1807, 3, 6), (780, 4, 8), (1381, 4, 8)])
    def test_some_powers_run_out(self, seed, m, k):
        # the powers part ways on a near-planar pool, and some branches
        # reach a prefix that no remaining candidate extends acceptably
        h = near_planar_pool(seed, m, k)
        powers = desk_powers(range(-40, 91, 5), m, noise_power=1e-3)
        results = assert_matches_single(h, m, powers)
        lengths = [len(r.selected) for r in results]
        assert min(lengths) < m and m in lengths
        # each power alone gets the same length as in the shared search
        short = powers[lengths.index(min(lengths))]
        assert len(gwc_select_powers(h, m, [short])[0].selected) == min(lengths)
        assert gwc_full(h, m, powers[lengths.index(m)]).selected
        # a duplicated column never extends a prefix holding its twin
        assert_matches_single(np.column_stack([h, h[:, ::2]]), m, powers)

    @pytest.mark.parametrize("h,num_selected,powers", [
        (desk_channel(1), 10, desk_powers(ExperimentConfig().powers_dbm)),
        (desk_channel(2), 10, desk_powers((50.0, -20.0, 70.0, 10.0, 50.0))),
        (near_planar_pool(1807, 3, 6), 3, desk_powers(range(-40, 91, 5), 3, 1e-3)),
    ], ids=["desk-1", "desk-2", "runs-out"])
    def test_one_node_per_distinct_prefix(self, monkeypatch, h, num_selected, powers):
        depths = []
        node = scheduling._gwc_node

        def spy(h_all, q, r_inv, remaining):
            depths.append(q.shape[1])
            return node(h_all, q, r_inv, remaining)

        monkeypatch.setattr(scheduling, "_gwc_node", spy)
        results = gwc_select_powers(h, num_selected, powers)
        prefixes = {r.selected[:s] for r in results
                    for s in range(min(len(r.selected) + 1, num_selected))}
        assert sorted(depths) == sorted(map(len, prefixes))
        assert len(depths) < num_selected * len(powers)


@pytest.fixture
def svd_calls(monkeypatch):
    """The matrix of each ``np.linalg.svd`` call, in order; read it before
    an oracle runs, since the oracles take SVDs too."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


@pytest.fixture
def argsort_calls(monkeypatch):
    """The key of each ``np.argsort`` call, in order."""
    calls, argsort = [], np.argsort

    def spy(a, *args, **kwargs):
        calls.append(np.array(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


@st.composite
def scaled_channels(draw):
    """(H, K_s, powers): complex Gaussian columns scaled by 1e-160..1e160, half
    of them drawn above 1e150, so that norms, residuals and scores overflow
    and some top scores are NaN."""
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    scale = st.floats(-160.0, 160.0) | st.floats(150.0, 160.0)
    exponents = draw(st.lists(scale, min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    h *= 10.0 ** np.array(exponents)
    num_selected = draw(st.integers(1, min(m, k)))
    p_dbm = draw(st.lists(st.floats(-40.0, 90.0), min_size=1, max_size=6))
    return h, num_selected, desk_powers(p_dbm, num_selected, noise_power=1e-3)


def scaled_channel(seed):
    """(H, K_s, powers) from one seed, in the manner of ``scaled_channels``:
    M <= 8, K <= 10, about half the column scales 10^+-(150..160) and the
    rest 10^-160..10^160."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 9)), int(rng.integers(1, 11))
    exponents = np.where(rng.random(k) < 0.5, rng.choice([-1, 1], k) * rng.uniform(150, 160, k),
                         rng.uniform(-160, 160, k))
    h = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) * 10.0 ** exponents
    num_selected = int(rng.integers(1, min(m, k) + 1))
    p_dbm = rng.uniform(-40, 90, int(rng.integers(1, 7)))
    return h, num_selected, desk_powers(p_dbm, num_selected, noise_power=1e-3)


class TestTopCandidateFastPath:
    """Each power takes its top candidate from one argmax when that is
    certified and scores a number; the full visiting order is built only
    otherwise, and the picks and scores stay those of the one-power search."""

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_no_argsort_on_desk_channels(self, argsort_calls, seed):
        gwc_select_powers(desk_channel(seed), 10, desk_powers(ExperimentConfig().powers_dbm))
        assert len(argsort_calls) == 0

    def test_rejected_top_candidate_builds_the_full_order(self, argsort_calls, svd_calls):
        # column 1 tops the second step's scores but its certificate fails and
        # the SVD rule rejects it, so the step visits the full order and takes
        # column 2, which passes the rule
        h, power = NEAR_COLLINEAR, NEAR_COLLINEAR_POWER
        result, = gwc_select_powers(h, 2, [power])
        assert len(argsort_calls) == 1 and argsort_calls[0].shape == (1, 2)
        assert argsort_calls[0].argmin() == 0   # the negated key: column 1 on top
        assert len(svd_calls) == 2   # column 1 rejected, then column 2 accepted
        assert result.selected == (0, 2)
        assert_matches_single(h, 2, [power])

    def test_certified_top_scoring_nan_builds_the_full_order(self, argsort_calls):
        # at zero power, column 1 (orthogonal to column 0) has a noise gain
        # 2.5e-201 whose product with the noise power 1e-125 underflows to 0,
        # so it scores 0 / 0 = NaN although its certificate holds; argmax
        # takes the first NaN, the stable order puts it last and column 2 first
        h = np.array([[2e100, 0.0, 1e100], [0.0, 1e100, 1e97]], dtype=complex)
        power = PowerConfig(0.0, 2, 1e-125)
        result, = gwc_select_powers(h, 2, [power])
        assert len(argsort_calls) == 1 and result.selected == (0, 2)
        with np.errstate(invalid="ignore"):
            assert_matches_single(h, 2, [power])

    @pytest.mark.parametrize("seed", [182, 483, 610])
    def test_non_finite_factor_is_refused(self, seed):
        # a column near 1e159 beside one near 1e-151 overflows X = R^-1 C, so
        # the tentative R'^-1 is not finite: the condition rule refuses that
        # candidate where its SVD would not converge, and the results stop short
        h, num_selected, powers = scaled_channel(seed)
        with np.errstate(all="ignore"):
            results = assert_matches_single(h, num_selected, powers)
        assert all(0 < len(r.selected) < num_selected for r in results)

    @settings(max_examples=300, deadline=None)
    @given(case=scaled_channels())
    def test_matches_single_at_extreme_column_scales(self, case):
        h, num_selected, powers = case
        with np.errstate(all="ignore"):
            results = gwc_select_powers(h, num_selected, powers)
            for power, result in zip(powers, results):
                n = len(result.selected)
                if n < num_selected:
                    with pytest.raises(SelectionError):
                        gwc_select_single(h, n + 1, power)
                if n:
                    expected = gwc_select_single(h, n, power)
                    assert result.selected == expected.selected
                    assert result.per_step_scores == expected.per_step_scores


class TestConditionCertificate:
    """A candidate whose bound ||H'||_F ||R'^-1||_F on cond(H') is at most
    1e10 is accepted without an SVD; any other runs the condition rule."""

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_no_svd_on_desk_channels(self, svd_calls, seed):
        gwc_select_powers(desk_channel(seed), 10, desk_powers(ExperimentConfig().powers_dbm))
        assert len(svd_calls) == 0

    @pytest.mark.parametrize("h,num_selected,powers", [
        (near_planar_pool(1807, 3, 6), 3, desk_powers(range(-40, 91, 5), 3, 1e-3)),
        (NEAR_COLLINEAR, 2, [NEAR_COLLINEAR_POWER]),
    ], ids=["near-planar", "near-collinear"])
    def test_ill_conditioned_candidates_take_the_svd(self, svd_calls, h, num_selected,
                                                      powers):
        gwc_select_powers(h, num_selected, powers)
        assert len(svd_calls) >= 1
        assert_matches_single(h, num_selected, powers)

    def test_infinite_bound_takes_the_svd(self, svd_calls):
        # column 1's rho^2 = 1e-320 > 0 makes 1 / rho^2 overflow; its
        # condition number 1e160 fails the rule, so the result stops at one
        h = np.array([[1.0, 0.0], [0.0, 1e-160]], dtype=complex)
        power = PowerConfig(1.0, 2, 1e-2)
        result, = gwc_select_powers(h, 2, [power])
        assert [a.shape for a in svd_calls] == [(2, 2)]
        assert result.selected == (0,)
        assert_matches_single(h, 2, [power])

    def test_nan_bound_takes_the_svd(self, svd_calls):
        # column 0's squared norm overflows, so its bound is inf * 0: the
        # SVD of R'^-1 = [[0]] rejects it and column 1 is picked
        h = np.array([[1e155, 1.0], [0.0, 1.0]], dtype=complex)
        power = PowerConfig(1.0, 1, 1e-2)
        with np.errstate(over="ignore"):
            result, = gwc_select_powers(h, 1, [power])
            assert [a.tolist() for a in svd_calls] == [[[0j]]]
            assert result.selected == (1,)
            assert_matches_single(h, 1, [power])


class TestGreedyPrefixes:
    """The first n picks of a greedy run do not depend on how many follow,
    which lets the harness run each scheduler once at the largest K_s."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gus_prefixes(self, seed):
        scen = gscm.generate_scenario(gscm.ScenarioConfig(rng_seed=seed))
        v = gscm.large_scale_gains(scen)
        for omega in range(6):
            v_omega = v if omega == 0 else perturb_and_rebuild_omegas(
                scen, (omega,), ExperimentConfig().crlb).v_tilde[0]
            for variant in GUS_VARIANTS:
                full = gus_select(v_omega, 10, variant)
                for ks in range(1, 10):
                    short = gus_select(v_omega, ks, variant)
                    assert short.selected == full.selected[:ks]
                    assert short.per_step_scores == full.per_step_scores[:ks]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gwc_prefixes(self, seed):
        cfg = ExperimentConfig()
        scen = gscm.generate_scenario(replace(cfg.scenario, rng_seed=seed))
        h = gscm.channel_matrix(scen, range(scen.num_users)).entries
        for p_dbm in cfg.powers_dbm:
            power = PowerConfig(dbm_to_watts(p_dbm), 10, cfg.noise_power)
            full = gwc_full(h, 10, power)
            for ks in (1, 2, 5, 9):
                short = gwc_full(h, ks, power)
                assert short.selected == full.selected[:ks]
                assert short.per_step_scores == full.per_step_scores[:ks]


class TestRandomSelect:
    def test_full_pool(self):
        assert sorted(random_select(5, 5, 0).selected) == [0, 1, 2, 3, 4]

    def test_seed_determinism(self):
        assert random_select(10, 3, 42).selected == random_select(10, 3, 42).selected

    def test_uniform_frequency(self):
        rng = np.random.default_rng(6)
        counts = np.zeros(10)
        n = 10_000
        for _ in range(n):
            counts[random_select(10, 1, rng).selected[0]] += 1
        np.testing.assert_allclose(counts / n, 0.1, atol=0.01)

    def test_oversized_request_rejected(self):
        with pytest.raises(ConfigurationError):
            random_select(3, 4)


class TestEstimationLoad:
    def test_reference_value(self):
        assert estimation_load(200, 10) == 4000

    def test_load_ratio(self):
        assert estimation_load(200, 10) / estimation_load(200, 50) == pytest.approx(0.2)

    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError):
            estimation_load(0, 10)


def nan_at(shape, index, value=np.nan):
    """A positive (real) array of ``shape`` with ``value`` at ``index``."""
    a = np.random.default_rng(1).uniform(0.1, 1.0, shape)
    a[index] = value
    return a


GWC_POWER = [PowerConfig(1.0, 3, 1e-2)]


class TestSchedulerInputs:
    """Each scheduler takes only a finite array of its documented shape:
    (K, N_C) or (n, K, N_C) for GUS, (M, K) for GWC."""

    @pytest.mark.parametrize("call", [
        lambda: gus_select(nan_at((5, 4), (0, 1)), 3),   # gave (0, 0, 0), scores nan
        lambda: gus_select(nan_at((2, 5, 4), (1, 3, 2), np.inf), 3),   # a RuntimeWarning
        lambda: gus_select(np.ones(5), 2),   # an IndexError
        lambda: gus_select(np.ones((2, 2, 5, 4)), 2),   # taken as a stack, one result
        lambda: gwc_select_powers(nan_at((6, 5), (2, 1)) + 0j, 3, GWC_POWER),   # skipped
        lambda: gwc_select_powers(np.full((6, 5), np.nan), 3, GWC_POWER),   # an empty result
        lambda: gwc_select_powers(nan_at((6, 5), (0, 4), -np.inf), 3, GWC_POWER),
        lambda: gwc_select_powers(np.ones(5), 1, GWC_POWER),   # a ValueError
        lambda: gwc_select_powers(np.ones((2, 6, 5)), 1, GWC_POWER),
    ], ids=["gus-nan", "gus-inf-stack", "gus-1d", "gus-4d", "gwc-nan-column", "gwc-all-nan",
            "gwc-inf", "gwc-1d", "gwc-3d"])
    def test_rejected(self, call):
        with pytest.raises(ConfigurationError, match="must be a finite .* array, got shape"):
            call()

    def test_zero_rows_and_an_all_zero_channel_stay_accepted(self):
        with pytest.warns(UserWarning, match="excluding 2 zero-norm"):
            assert gus_select(np.zeros((2, 5, 4)) + np.eye(5, 4), 2)[0].selected == (0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, = gwc_select_powers(np.zeros((6, 5), dtype=complex), 3, GWC_POWER)
        assert result.selected == result.per_step_scores == ()


@pytest.mark.parametrize("call,name", [
    (lambda: gus_select(np.ones((6, 4)), True), "num_selected"),
    (lambda: gus_select(np.ones((6, 4)), 2.0), "num_selected"),
    (lambda: random_select(6, 2.0), "num_selected"),
    (lambda: random_select(6.0, 2), "num_users"),
    (lambda: gwc_select_powers(np.eye(8, 6), 2.0, [PowerConfig(1.0, 2, 1e-2)]), "num_selected"),
    (lambda: gwc_select_powers(np.eye(8, 6), True, [PowerConfig(1.0, 1, 1e-2)]),
     "num_selected"),
    (lambda: estimation_load(64.5, 5), "num_antennas"),
    (lambda: estimation_load(64, True), "num_estimated_users"),
    (lambda: unitary_pilots(2.5), "num_users"),
    (lambda: unitary_pilots(2, 3.0), "pilot_length"),
    (lambda: PowerConfig(1.0, 0, 1e-3), "num_users"),
], ids=["gus-bool", "gus-float", "random-float", "random-pool-float", "gwc-float",
        "gwc-bool", "load-float", "load-bool", "pilots-float", "pilots-length-float",
        "power-zero"])
def test_selection_counts_must_be_integers(call, name):
    # one rule, plain.check_count, whose message names the argument
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer in \\[1, "):
        call()
