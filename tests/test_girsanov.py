import numpy as np
import pytest

import cnmfg
from cnmfg.girsanov import (
    GirsanovWeights,
    log_increments,
    paired_gap,
    self_normalized_mean,
    stochastic_exponential,
    weighted_conditional_values,
)
from cnmfg.sde import NoiseBundle, TimeGrid, generate_noise, simulate_driftless_state
from cnmfg.flows import estimate_conditional_flow


def _drift_array(noise, value):
    return np.full_like(noise.dw, value)


class TestStochasticExponential:
    def test_zero_drift_gives_unit_weights(self, lq_spec):
        noise = generate_noise(100, TimeGrid(1.0, 10), 1)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.0), noise)
        np.testing.assert_array_equal(np.exp(w.log_m), np.ones((100, 11)))

    def test_forced_increment_closed_form(self, lq_spec):
        # lambda = 0.5 with sum dW = 1 over T=1: M_T = exp(0.5 - 0.125)
        grid = TimeGrid(1.0, 4)
        dw = np.full((1, 4, 1), 0.25)
        dw0 = np.zeros((1, 4, 1))
        noise = NoiseBundle(grid=grid, seed=0, dw=dw, dw0=dw0)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.5), noise)
        assert w.m_terminal[0] == pytest.approx(np.exp(0.375), rel=1e-12)

    def test_martingale_mean(self, lq_spec):
        noise = generate_noise(100_000, TimeGrid(1.0, 50), 2)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.5), noise)
        m_t = w.m_terminal
        assert abs(m_t.mean() - 1.0) <= 3 * m_t.std() / np.sqrt(m_t.size)

    def test_martingale_mean_each_step(self, lq_spec):
        noise = generate_noise(20_000, TimeGrid(1.0, 20), 3)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.8), noise)
        for k in range(21):
            col = np.exp(w.log_m[:, k])
            assert abs(col.mean() - 1.0) <= 4 * max(col.std(), 1e-12) / np.sqrt(col.size)

    def test_positive_and_starts_at_one(self, lq_spec):
        noise = generate_noise(1000, TimeGrid(1.0, 30), 4)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.9), noise)
        m = np.exp(w.log_m)
        assert np.all(m > 0)
        np.testing.assert_array_equal(m[:, 0], 1.0)

    def test_log_linear_consistency(self, lq_spec):
        # log-domain accumulation against direct multiplicative accumulation
        noise = generate_noise(2000, TimeGrid(1.0, 50), 5)
        lam = _drift_array(noise, 0.7)
        w = stochastic_exponential(lq_spec, lam, noise)
        dt = noise.grid.dt
        m_direct = np.ones(2000)
        worst = 0.0
        for k in range(50):
            step = np.exp(lam[:, k, 0] * noise.dw[:, k, 0] - 0.5 * lam[:, k, 0] ** 2 * dt)
            m_direct = m_direct * step
            rel = np.abs(np.exp(w.log_m[:, k + 1]) - m_direct) / m_direct
            worst = max(worst, rel.max())
        assert worst <= 1e-8

    def test_nonfinite_drift_diagnostic(self, lq_spec):
        noise = generate_noise(10, TimeGrid(1.0, 5), 6)
        lam = _drift_array(noise, 0.0)
        lam[3, 2, 0] = np.nan
        with pytest.raises(RuntimeError, match=r"path 3, step 2"):
            stochastic_exponential(lq_spec, lam, noise)

    @pytest.mark.parametrize("d_state", [1, 2])
    def test_streamed_drifts_equal_the_materialised_running_sum(self, lq_spec, d_state):
        noise = generate_noise(3000, TimeGrid(1.0, 12), 4, d_state=d_state, d_common=1)
        lam = np.random.default_rng(d_state).normal(scale=0.7, size=noise.dw.shape)
        # the running sum of the materialised increments, as first written
        want = np.cumsum(log_increments(lam, noise.dw, noise.grid.dt), axis=1)
        for drifts in (lam, lambda k: lam[:, k].copy()):
            log_m = stochastic_exponential(lq_spec, drifts, noise).log_m
            assert np.all(log_m[:, 0] == 0.0)
            np.testing.assert_array_equal(log_m[:, 1:].view(np.int64), want.view(np.int64))

    def test_streamed_nonfinite_drift_diagnostic(self, lq_spec):
        noise = generate_noise(10, TimeGrid(1.0, 5), 6)
        lam = _drift_array(noise, 0.0)
        lam[4, 3, 0] = np.inf
        with pytest.raises(RuntimeError, match=r"path 4, step 3"):
            stochastic_exponential(lq_spec, lambda k: lam[:, k], noise)
        with pytest.raises(ValueError, match="step 0 drift shape"):
            stochastic_exponential(lq_spec, lambda k: lam[1:, k], noise)

    def test_scaled_weights_proportional_with_unit_maximum(self, lq_spec):
        noise = generate_noise(2000, TimeGrid(1.0, 10), 8)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.9), noise)
        w_big = GirsanovWeights(grid=noise.grid, log_m=w.log_m + 1000.0)
        for k in range(w.log_m.shape[1]):
            m_k = np.exp(w.log_m[:, k])
            assert w.scaled(k).max() == 1.0
            np.testing.assert_allclose(w.scaled(k) * m_k.max(), m_k, rtol=1e-12)
            np.testing.assert_allclose(w_big.scaled(k), w.scaled(k), rtol=1e-12)

    def test_ess_frac_is_kish_on_scaled_weights(self):
        log_m = np.zeros((4, 3))
        log_m[:, 1] = np.log([1.0, 1.0, 3.0, 3.0]) + 800.0   # exp(log M) alone overflows
        log_m[:, 2] = [0.0, -1e4, -1e4, -1e4]
        w = GirsanovWeights(grid=TimeGrid(1.0, 2), log_m=log_m)
        assert w.ess_frac(0) == 1.0
        assert w.ess_frac(1) == pytest.approx(8.0 ** 2 / (4 * 20.0), rel=1e-12)
        assert w.ess_frac(-1) == 0.25

    def test_ess_frac_min_is_smallest_over_steps_after_zero(self, lq_spec):
        log_m = np.zeros((4, 4))
        log_m[:, 0] = [0.0, -1e4, -1e4, -1e4]        # step 0 is not scanned
        log_m[:, 1] = [0.0, -1e4, 0.0, 0.0]           # 0.75
        log_m[:, 2] = [0.0, -1e4, -1e4, 0.0]          # 0.5, the smallest, twice
        log_m[:, 3] = [0.0, 0.0, -1e4, -1e4]
        assert GirsanovWeights(grid=TimeGrid(1.0, 3), log_m=log_m).ess_frac_min() == (0.5, 2)
        noise = generate_noise(2000, TimeGrid(1.0, 10), 9)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.9), noise)
        fracs = [w.ess_frac(k) for k in range(1, 11)]
        assert w.ess_frac_min() == (min(fracs), 1 + fracs.index(min(fracs)))
        assert w.ess_frac_min()[1] == 10       # a constant drift degrades the weights steadily
        zero = stochastic_exponential(lq_spec, _drift_array(noise, 0.0), noise)
        assert zero.ess_frac_min() == (1.0, 1)

    def test_fourth_moment_reported_not_asserted(self, lq_spec):
        # diagnostic only: bounded drift keeps E[M_T^4] finite
        noise = generate_noise(50_000, TimeGrid(1.0, 50), 7)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.5), noise)
        fourth = float((w.m_terminal**4).mean())
        assert np.isfinite(fourth)


class TestWeightedExpectation:
    def test_constant_passes_through(self, lq_spec):
        noise = generate_noise(5000, TimeGrid(1.0, 20), 8)
        w = stochastic_exponential(lq_spec, _drift_array(noise, 0.5), noise)
        assert self_normalized_mean(np.full(5000, 3.25), w.m_terminal)[0] == pytest.approx(3.25)

    def test_unit_weights_are_plain_mean(self, lq_spec):
        w = GirsanovWeights(grid=TimeGrid(1.0, 10), log_m=np.zeros((1000, 11)))
        values = np.arange(1000.0)
        assert self_normalized_mean(values, w.m_terminal)[0] == pytest.approx(values.mean())

    def test_matches_direct_drifted_simulation(self):
        # weighting the driftless state by the exponential of lambda = 0.5
        # reproduces the mean of the SDE with drift 0.5 under the same noise
        spec = cnmfg.make_instance("lq", sigma0=0.0, init_std=0.0)
        grid = TimeGrid(1.0, 50)
        noise = generate_noise(100_000, grid, 9)
        paths = simulate_driftless_state(spec, noise)
        lam = _drift_array(noise, 0.5)
        w = stochastic_exponential(spec, lam, noise)
        weighted_mean = self_normalized_mean(paths.x[:, -1, 0], w.m_terminal)[0]

        drifted_terminal = paths.x[:, -1, 0] + 0.5  # sigma=1, exact for constant drift
        se = 3 * drifted_terminal.std() / np.sqrt(drifted_terminal.size)
        assert abs(weighted_mean - 0.5) <= 3 * se


class TestPairedGap:
    def test_difference_and_paired_stderr(self):
        rng = np.random.default_rng(3)
        values, w = rng.normal(size=(2, 400)), rng.uniform(0.5, 2.0, size=(2, 400))
        a, b = self_normalized_mean(values[0], w[0]), self_normalized_mean(values[1], w[1])
        gap, se = paired_gap(a, b)
        assert gap == a[0] - b[0]
        assert se == (a[2] - b[2]).std(ddof=1) / np.sqrt(400)
        assert se != np.hypot(a[1], b[1])       # paired, not independent errors

    def test_a_triple_against_itself_is_zero(self):
        t = self_normalized_mean(np.arange(10.0), np.linspace(1.0, 2.0, 10))
        assert paired_gap(t, t) == (0.0, 0.0)


class TestConditionalValues:
    def test_unit_weights_recover_occupancy(self):
        bins = np.array([0, 0, 1, 1, 1, 2])
        vals = (bins == 1).astype(float)
        rep = weighted_conditional_values(vals, np.ones(6), bins, n_bins=3)
        np.testing.assert_allclose(rep.bin_means, [0, 1, 0])
        np.testing.assert_allclose(rep.counts, [2, 3, 1])

    def test_independent_weights_and_keys(self, lq_spec):
        # sigma0 = 0 decouples X^c from W, so weights are independent of bins
        spec = cnmfg.make_instance("lq", sigma0=0.0)
        grid = TimeGrid(1.0, 20)
        noise = generate_noise(50_000, grid, 10)
        paths = simulate_driftless_state(spec, noise)
        lam = _drift_array(noise, 0.5)
        w = stochastic_exponential(spec, lam, noise)
        flow = estimate_conditional_flow(paths, None, 8)
        k = 20
        bins = flow.assign(k, paths.xc[:, k, 0])
        m_k = np.exp(w.log_m[:, k])
        rep = weighted_conditional_values(paths.x[:, k, 0], m_k, bins,
                                          n_bins=flow.bins_at(k).n_bins)
        for b in range(rep.n_bins):
            count = rep.counts[b]
            if count < 100:
                continue
            # normalized per-bin weight mean ~ 1 within 4 s.e.
            sel = bins == b
            se = m_k[sel].std() / np.sqrt(count)
            assert abs(rep.bin_weight_means[b] - 1.0) <= 4 * se / m_k.mean() + 1e-12

    def test_conditional_martingale_identity(self, lq_spec, small_config):
        # E[M_T | X^c bin] ~ 1 after global normalization on the interacting instance
        grid = small_config.grid(lq_spec)
        noise = generate_noise(20_000, grid, 11)
        paths = simulate_driftless_state(lq_spec, noise)
        lam = np.clip(0.8 * paths.x[:, :-1, :], -1, 1)  # bounded state-dependent drift
        w = stochastic_exponential(lq_spec, lam, noise)
        flow = estimate_conditional_flow(paths, w, small_config.n_bins)
        k = grid.n_steps
        bins = flow.assign(k, paths.xc[:, k, 0])
        rep = weighted_conditional_values(paths.x[:, k, 0], w.m_terminal, bins,
                                          n_bins=flow.bins_at(k).n_bins)
        valid = rep.counts >= small_config.min_bin_count
        global_mean = float(np.nanmean(rep.bin_weight_means[valid]))
        pooled_se = float(np.nanstd(rep.bin_weight_means[valid])) / np.sqrt(valid.sum())
        assert abs(global_mean - 1.0) <= 3 * max(pooled_se, 0.01)
