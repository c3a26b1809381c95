import math

import numpy as np
import pytest

from gusim.errors import ConfigurationError, RankDeficiencyError
from gusim.rx import (SUM_RATE_MODES, PowerConfig, _mmse_filter, noise_power, sum_rate,
                      unitary_pilots, zf_weights)

from conftest import channel_covariance, ergodic_capacity, mmse_estimate, sum_rate_loop


def random_channel(rng, m, k):
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / math.sqrt(2)


class TestNoisePower:
    def test_reference_value(self):
        # 20 MHz, 290 K, 9 dB noise figure
        assert noise_power(20e6, 290.0, 9.0) == pytest.approx(6.362410294494550e-13,
                                                              rel=1e-12)

    def test_unit_noise_figure(self):
        assert noise_power(20e6, 290.0, 0.0) == pytest.approx(
            20e6 * 1.381e-23 * 290.0, rel=1e-15)

    def test_linear_in_bandwidth(self):
        assert noise_power(40e6) == pytest.approx(2 * noise_power(20e6), rel=1e-14)

    @pytest.mark.parametrize("args", [
        (20e6, 290.0, 1e4), ("x",), (math.nan,), (0.0,), (-20e6,), (20e6, 0.0),
        (-20e6, -290.0), (math.inf,), (20e6, math.nan), (20e6, 290.0, math.nan),
        (20e6, 290.0, -1e4), (20e6, 290.0, "9"), (1e300, 1e300)])
    def test_rejects_inputs_without_a_finite_positive_power(self, args):
        with pytest.raises(ConfigurationError, match=(
                r"^noise power must be finite and positive; "
                r"bandwidth=.*, temperature=.*, noise_figure_db=.*$")):
            noise_power(*args)


class TestChannelCovariance:
    def test_single_sample_outer_product(self):
        h = np.array([1.0 + 1j, 2.0 - 1j])
        np.testing.assert_allclose(channel_covariance([h]), np.outer(h, h.conj()))

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        r = channel_covariance([random_channel(rng, 3, 1).ravel() for _ in range(20)])
        np.testing.assert_allclose(r, r.conj().T, atol=1e-14)

    def test_iid_unit_variance_diagonal(self):
        rng = np.random.default_rng(1)
        samples = [random_channel(rng, 4, 1).ravel() for _ in range(10_000)]
        r = channel_covariance(samples)
        np.testing.assert_allclose(np.real(np.diag(r)), 1.0, rtol=0.05)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            channel_covariance([])


class TestMmseEstimate:
    def test_scalar_case(self):
        r = np.array([[1.0 + 0j]])
        y = np.array([[0.8 - 0.4j]])
        est = mmse_estimate(y, np.array([[1.0 + 0j]]), 1.0, r)
        assert est[0] == pytest.approx((0.8 - 0.4j) / 2.0, abs=1e-14)

    def test_noiseless_limit_inverts_pilots(self):
        rng = np.random.default_rng(3)
        m, k = 2, 2
        phi = random_channel(rng, k, k) + 2 * np.eye(k)
        h = random_channel(rng, m, k)
        y = h @ phi
        a = random_channel(rng, m * k, m * k)
        r = a @ a.conj().T + np.eye(m * k)
        est = mmse_estimate(y, phi, 1e-14, r).reshape(m, k, order="F")
        np.testing.assert_allclose(est, h, rtol=1e-5, atol=1e-8)

    def test_matches_normal_equations_oracle(self):
        # independent route: h = (R^-1 + Phi~^H Phi~ / s2)^-1 Phi~^H y / s2
        rng = np.random.default_rng(4)
        for _ in range(25):
            m, k, tau_p = 2, 2, 2
            phi = random_channel(rng, k, tau_p)
            a = random_channel(rng, m * k, m * k)
            r = a @ a.conj().T + 0.5 * np.eye(m * k)
            s2 = 0.3
            y = random_channel(rng, m, tau_p)
            est = mmse_estimate(y, phi, s2, r)
            phi_t = np.kron(phi.T, np.eye(m))
            lhs = np.linalg.inv(r) + phi_t.conj().T @ phi_t / s2
            oracle = np.linalg.solve(lhs, phi_t.conj().T @ y.reshape(-1, order="F") / s2)
            np.testing.assert_allclose(est, oracle, rtol=1e-8, atol=1e-12)

    def test_orthogonality_principle(self):
        # estimation error is uncorrelated with the estimate in the
        # Monte-Carlo average
        rng = np.random.default_rng(5)
        m, k = 2, 2
        n = m * k
        a = random_channel(rng, n, n)
        r = a @ a.conj().T + np.eye(n)
        l = np.linalg.cholesky(r)
        phi = unitary_pilots(k)
        phi_t = np.kron(phi.T, np.eye(m))
        s2 = 0.5
        cross = np.zeros((n, n), dtype=complex)
        est_cov = np.zeros((n, n), dtype=complex)
        trials = 10_000
        for _ in range(trials):
            h = l @ random_channel(rng, n, 1).ravel()
            noise = math.sqrt(s2) * random_channel(rng, phi_t.shape[0], 1).ravel()
            y = (phi_t @ h + noise).reshape(m, k, order="F")
            hat = mmse_estimate(y, phi, s2, r)
            cross += np.outer(h - hat, hat.conj())
            est_cov += np.outer(hat, hat.conj())
        rel = np.linalg.norm(cross) / np.linalg.norm(est_cov)
        assert rel < 0.02

    def test_singular_inner_matrix_reported(self):
        with pytest.raises(RankDeficiencyError):
            mmse_estimate(np.zeros((1, 1)), np.zeros((1, 1), dtype=complex), 0.0,
                          np.eye(1, dtype=complex))


def random_covariances(rng, k, m, rank):
    a = random_channel(rng, k * m, rank).reshape(k, m, rank)
    return a @ a.conj().transpose(0, 2, 1)


def block_diagonal(blocks):
    k, m, _ = blocks.shape
    out = np.zeros((k * m, k * m), dtype=complex)
    for i, block in enumerate(blocks):
        out[i * m:(i + 1) * m, i * m:(i + 1) * m] = block
    return out


def filter_per_user(received, pilots, noise_variance, covariances):
    """``rx._mmse_filter`` on the projections z_k = Y phi_k^H / ||phi_k||^2 of
    the received block onto mutually orthogonal pilots, with noise terms
    s_k = sigma_n^2 / ||phi_k||^2: the M x K_s estimate, NaN where singular."""
    energy = np.sum(np.abs(pilots) ** 2, axis=1)
    z = (received @ pilots.conj().T / energy).T[:, :, None]   # (K_s, M, 1)
    return _mmse_filter(covariances, noise_variance / energy, z)[:, :, 0].T


class TestMmseEstimatePerUser:
    """The receive stage's per-user filter ``rx._mmse_filter`` against the dense
    Kronecker-form oracle with block-diagonal covariance."""

    @pytest.mark.parametrize("m,k,tau_p,rank", [(4, 3, 3, 4), (5, 2, 4, 2), (1, 1, 1, 1)])
    def test_matches_dense_mmse_with_block_diagonal_covariance(self, m, k, tau_p, rank):
        rng = np.random.default_rng(m * 100 + tau_p)
        for _ in range(10):
            r = random_covariances(rng, k, m, rank)
            pilots = math.sqrt(float(rng.uniform(0.1, 5.0))) * unitary_pilots(k, tau_p)
            s2 = float(rng.uniform(0.01, 2.0))
            y = random_channel(rng, m, tau_p)
            dense = mmse_estimate(y, pilots, s2, block_diagonal(r)).reshape(m, k, order="F")
            fast = filter_per_user(y, pilots, s2, r)
            assert fast.shape == (m, k)
            assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_unequal_pilot_powers(self):
        rng = np.random.default_rng(8)
        m, k = 3, 3
        r = random_covariances(rng, k, m, m)
        pilots = np.diag([0.5, 1.0, 3.0]) @ unitary_pilots(k)
        y = random_channel(rng, m, k)
        dense = mmse_estimate(y, pilots, 0.7, block_diagonal(r)).reshape(m, k, order="F")
        np.testing.assert_allclose(filter_per_user(y, pilots, 0.7, r), dense,
                                   rtol=1e-10, atol=1e-12)

    def test_scalar_case(self):
        est = filter_per_user(np.array([[0.8 - 0.4j]]), np.array([[1.0 + 0j]]), 1.0,
                              np.array([[[1.0 + 0j]]]))
        assert est[0, 0] == pytest.approx((0.8 - 0.4j) / 2.0, abs=1e-14)

    def test_covariances_left_unmodified(self):
        # R_k + s_k I is built in place and restored, after the stacked solve and
        # after the one-by-one solves a singular user takes, so R_k keep their bits
        rng = np.random.default_rng(11)
        m, k = 5, 3
        r = random_covariances(rng, k, m, m)
        y = random_channel(rng, m, k)
        singular = r.copy()
        singular[1] = -(0.3 / np.sum(np.abs(unitary_pilots(k)[1]) ** 2)) * np.eye(m)
        for covariances, finite in ((r, True), (singular, False)):
            before = covariances.copy()
            est = filter_per_user(y, unitary_pilots(k), 0.3, covariances)
            assert np.isfinite(est).all() == finite
            assert covariances.tobytes() == before.tobytes()

    def test_singular_inner_matrix_reported(self):
        # NaN for exactly the user whose R_k + s_k I is singular; the others
        # are the dense estimate of the users without it
        rng = np.random.default_rng(12)
        m, k, s2 = 4, 3, 0.6
        r = random_covariances(rng, k, m, m)
        pilots = np.diag([0.5, 1.0, 3.0]) @ unitary_pilots(k)
        energy = np.sum(np.abs(pilots) ** 2, axis=1)
        r[1] = -(s2 / energy[1]) * np.eye(m)
        y = random_channel(rng, m, k)
        est = filter_per_user(y, pilots, s2, r)
        assert np.isnan(est[:, 1]).all()
        others = [0, 2]
        dense = mmse_estimate(y, pilots[others], s2, block_diagonal(r[others]))
        np.testing.assert_allclose(est[:, others], dense.reshape(m, 2, order="F"),
                                   rtol=1e-10, atol=1e-12)
        zero = filter_per_user(np.zeros((1, 1)), np.ones((1, 1), dtype=complex), 0.0,
                               np.zeros((1, 1, 1), dtype=complex))
        assert np.isnan(zero).all()


class TestZfWeights:
    def test_identity_channel(self):
        w = zf_weights(np.eye(3, dtype=complex))
        np.testing.assert_allclose(w, np.eye(3), atol=1e-12)

    def test_orthogonal_columns(self):
        c = 2.5
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = c
        h[2, 1] = 1j * c
        w = zf_weights(h)
        np.testing.assert_allclose(w @ h, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(w, h.conj().T / c**2, atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(6)
        h = random_channel(rng, 8, 3)
        w = zf_weights(h)
        assert np.linalg.norm(w @ h - np.eye(3)) < 1e-9

    def test_rank_deficient_raises_with_conditioning(self):
        h = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficiencyError, match="condition"):
            zf_weights(h)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            zf_weights(np.ones((2, 3), dtype=complex))
        with pytest.raises(ConfigurationError):
            zf_weights(np.ones((4, 2, 3), dtype=complex))

    @pytest.mark.parametrize("m,k_s", [(64, 10), (64, 5), (8, 3), (4, 1), (3, 3)])
    def test_stack_matches_per_matrix_calls(self, m, k_s):
        # bitwise, with rank-deficient and non-finite entries reported as None,
        # not raised; LAPACK's SVD raises on a NaN and may not return on an inf
        rng = np.random.default_rng(m + k_s)
        h = np.stack([random_channel(rng, m, k_s) for _ in range(8)])
        h[1] = np.ones((m, k_s))                       # rank 1
        h[4, :, -1] = 0.0                              # a zero column
        h[5, :, 0] = h[5, :, -1] * (1 + 1e-14)         # conditioned beyond the limit
        h[6, 0, 0], h[7, -1, -1] = np.nan, np.inf      # not finite
        weights = zf_weights(h)
        assert len(weights) == len(h)
        for entry, w in zip(h, weights):
            try:
                alone = zf_weights(entry)
            except RankDeficiencyError:
                assert w is None
            else:
                assert np.array_equal(w, alone)
        deficient = [w is None for w in weights]
        assert deficient == [False, k_s > 1, False, False, True, k_s > 1, True, True]


class TestSumRate:
    def test_paper_literal_perfect_zf(self):
        rng = np.random.default_rng(7)
        h = random_channel(rng, 8, 3)
        w = zf_weights(h)
        power = PowerConfig(6.0, 3, 1e-3)
        rate = sum_rate(h, w, power, mode="paper-literal")
        assert rate == pytest.approx(3 * math.log2(1 + 2.0), rel=1e-9)

    def test_zero_power(self):
        h = np.eye(2, dtype=complex)
        power = PowerConfig(0.0, 2, 1.0)
        assert sum_rate(h, zf_weights(h), power) == 0.0

    def test_physical_identity_unit_sinr(self):
        h = np.eye(4, dtype=complex)
        power = PowerConfig(4.0, 4, 1.0)
        assert sum_rate(h, zf_weights(h), power, mode="physical") == pytest.approx(4.0,
                                                                                  rel=1e-12)

    @pytest.mark.parametrize("mode", SUM_RATE_MODES)
    def test_nondecreasing_in_power(self, mode):
        rng = np.random.default_rng(8)
        h = random_channel(rng, 8, 4)
        w = zf_weights(h)
        rates = [sum_rate(h, w, PowerConfig(p, 4, 1e-2), mode=mode)
                 for p in [0.1, 0.5, 1.0, 5.0, 20.0]]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("mode", SUM_RATE_MODES)
    def test_matches_per_user_loop(self, mode):
        rng = np.random.default_rng(9)
        for k_s in (1, 2, 5, 10):
            h = random_channel(rng, 16, k_s)
            # ZF leaves no interference; random weights leave plenty
            for w in (zf_weights(h), random_channel(rng, 16, k_s).T):
                for p in (1e-3, 1.0, 1e3):
                    power = PowerConfig(p, k_s, 1e-2)
                    assert sum_rate(h, w, power, mode) == pytest.approx(
                        sum_rate_loop(h, w, power, mode), rel=1e-12, abs=0)


    @pytest.mark.parametrize("mode", SUM_RATE_MODES)
    def test_several_powers_match_one_power_calls(self, mode):
        # bitwise: one receiver rated at mixed total and noise powers
        rng = np.random.default_rng(10)
        for m, k_s in ((64, 10), (64, 5), (16, 1), (8, 8)):
            h = random_channel(rng, m, k_s)
            powers = [PowerConfig(p, k_s, n) for p, n in
                      ((1e-3, 1e-2), (1.0, 1e-2), (1e3, 1e-2), (1.0, 5.0), (0.0, 1.0))]
            w = zf_weights(h + 0.1 * random_channel(rng, m, k_s))
            rates = sum_rate(h, w, powers, mode)
            assert rates.shape == (len(powers),)
            assert rates.tolist() == [sum_rate(h, w, p, mode) for p in powers]
            assert sum_rate(h, w, powers[:1], mode)[0] == sum_rate(h, w, powers[0], mode)

    @pytest.mark.parametrize("mode", SUM_RATE_MODES)
    @pytest.mark.parametrize("estimated", [False, True])
    def test_stack_matches_one_set_calls(self, mode, estimated):
        # bitwise, as the harness rates one set size: the ZF receiver of
        # each true channel, or of a noisy estimate per (set, power), each
        # receiver rated at every power
        rng = np.random.default_rng(12)
        for m, k_s, sets in ((64, 10, 3), (64, 5, 7), (16, 1, 2), (8, 8, 4)):
            powers = [PowerConfig(p, k_s, n) for p, n in
                      ((1e-3, 1e-2), (1.0, 1e-2), (1e3, 1e-2), (1.0, 5.0), (0.0, 1.0))]
            h = np.stack([random_channel(rng, m, k_s) for _ in range(sets)])
            if estimated:
                h = np.repeat(h, len(powers), axis=0)
                w = zf_weights(h + 0.1 * np.stack([random_channel(rng, m, k_s) for _ in h]))
            else:
                w = zf_weights(h)
            w = np.stack(w)
            rates = sum_rate(h, w, powers, mode)
            assert rates.shape == (len(h), len(powers))
            assert rates.tolist() == [[sum_rate(h_i, w_i, p, mode) for p in powers]
                                      for h_i, w_i in zip(h, w)]

    def test_receiver_stack_must_match_the_channel_stack(self):
        h = np.eye(4, dtype=complex)
        stack = np.stack([np.eye(4)] * 3)
        for channel, weights in ((h, stack), (np.stack([h] * 2), stack),
                                 (np.stack([h] * 3), h)):
            for power in ([PowerConfig(1.0, 4, 1.0)] * 3, PowerConfig(1.0, 4, 1.0)):
                with pytest.raises(ConfigurationError, match="receiver shape"):
                    sum_rate(channel, weights, power)

    def test_unknown_mode_rejected(self):
        h = np.eye(2, dtype=complex)
        with pytest.raises(ConfigurationError, match="unknown sum-rate mode 'ideal'"):
            sum_rate(h, zf_weights(h), PowerConfig(1.0, 2, 1.0), "ideal")

    def test_power_split_must_match_the_channel(self):
        # a split over 5 users would rate this 8 x 3 channel at P/5 per user
        h = random_channel(np.random.default_rng(11), 8, 3)
        w = zf_weights(h)
        with pytest.raises(ConfigurationError, match="3 users"):
            sum_rate(h, w, PowerConfig(1.0, 5, 1e-3))
        with pytest.raises(ConfigurationError, match="3 users"):
            sum_rate(h, w, [PowerConfig(1.0, 3, 1e-3), PowerConfig(2.0, 2, 1e-3)])
        with pytest.raises(ConfigurationError, match="need powers"):   # not a numpy error
            sum_rate(h, w, [])


class TestPowerConfig:
    @pytest.mark.parametrize("args", [
        (math.nan, 3, 1e-3), (math.inf, 3, 1e-3), ("1", 3, 1e-3), (True, 3, 1e-3),
        (1.0, 2.5, 1e-3), (1.0, True, 1e-3), (1.0, 3.0, 1e-3),
        (1.0, 3, math.nan), (1.0, 3, math.inf)])
    def test_rejects_values_outside_the_contract(self, args):
        with pytest.raises(ConfigurationError):
            PowerConfig(*args)

    def test_accepts_numpy_scalars(self):
        power = PowerConfig(np.float64(2.0), np.int64(4), np.float32(1e-3))
        assert power.per_user == 0.5


class TestErgodicCapacity:
    def test_zero_power(self):
        h = np.eye(2, dtype=complex)
        assert ergodic_capacity([h], PowerConfig(0.0, 2, 1.0)) == 0.0

    def test_scaled_identity_gram(self):
        p_n = 2.0
        h = math.sqrt(p_n) * np.eye(3, dtype=complex)
        cap = ergodic_capacity([h], PowerConfig(6.0, 3, p_n))
        assert cap == pytest.approx(3 * math.log2(1 + 2.0), rel=1e-12)

    def test_dominates_zf_sum_rate(self):
        rng = np.random.default_rng(9)
        power = PowerConfig(4.0, 4, 1e-2)
        for _ in range(100):
            h = random_channel(rng, 8, 4)
            cap = ergodic_capacity([h], power)
            rate = sum_rate(h, zf_weights(h), power, mode="physical")
            assert cap >= rate - 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ergodic_capacity([], PowerConfig(1.0, 1, 1.0))
