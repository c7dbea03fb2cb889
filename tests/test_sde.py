import warnings
from dataclasses import replace

import numpy as np
import pytest

import cnmfg
from cnmfg.sde import (
    _CHUNK,
    _STREAM_NOISE,
    _TWO53,
    NoiseBundle,
    TimeGrid,
    _increment_sanity_check,
    _philox_key,
    generate_noise,
    searchsorted_right,
    simulate_common_state,
    simulate_driftless_state,
    simulate_markov_sde,
    sorted_ties,
    stable_argsort,
)
from cnmfg.equilibrium import initial_flow


class TestStableArgsort:
    @staticmethod
    def _check(v):
        got = stable_argsort(v)
        want = np.argsort(v, kind="stable")
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype

    def test_random_arrays_with_ties_nan_and_signed_zeros(self):
        gen = np.random.default_rng(11)
        for trial in range(4000):
            n = int(gen.integers(0, 400)) if trial % 50 else int(gen.integers(1000, 20_000))
            kind = trial % 4
            if kind == 0:                       # continuous: ties unlikely
                v = gen.normal(size=n)
            elif kind == 1:                     # heavy ties
                v = gen.integers(-3, 4, size=n) * 0.25
            else:                               # ties among distinct values
                v = np.round(gen.normal(size=n), int(gen.integers(0, 3)))
            if kind >= 2 and n:
                v[gen.random(n) < 0.1] = np.nan
                zeros = np.flatnonzero(v == 0.0)
                v[zeros] = np.where(gen.random(zeros.size) < 0.5, -0.0, 0.0)
            self._check(v)

    @pytest.mark.parametrize("v", [
        np.array([]),
        np.array([2.5]),
        np.full(5000, 0.75),                    # a point mass, as a step-0 common state
        np.full(17, np.nan),
        np.array([0.0, -0.0, 0.0, -0.0, -1.0, -0.0]),
        np.array([np.nan, 1.0, np.nan, -np.inf, np.inf, 1.0, -np.inf]),
        np.arange(3000.0)[::-1],
        np.repeat(np.arange(40.0), 60),
    ])
    def test_edge_cases(self, v):
        self._check(v)


class TestSortedTies:
    @pytest.mark.parametrize("s, want", [
        (np.array([]), []),
        (np.array([1.0]), []),
        (np.array([-0.0, 0.0, 1.0]), [True, False]),
        (np.array([1.0, np.nan, np.nan]), [False, True]),
        (np.array([-np.inf, -np.inf, np.inf, np.nan]), [True, False, False]),
        (np.array([1, 2, 2, 3]), [False, True, False]),
    ])
    def test_adjacent_equal_values(self, s, want):
        np.testing.assert_array_equal(sorted_ties(s), np.array(want, dtype=bool))


def _edge_arrays(gen):
    """Sorted edge arrays of every length and shape the lookups see, and the
    lengths that go to np.searchsorted (more than 64 edges, a NaN edge)."""
    arrays = [np.array([]), np.array([0.0]), np.array([-0.0]), np.array([np.inf])]
    for n in (1, 2, 15, 41, 64, 65, 100, 300):
        lo = gen.normal()
        arrays.append(np.linspace(lo, lo + gen.uniform(0.01, 8.0), n))     # a table axis
        arrays.append(np.sort(gen.normal(size=n)))                         # quantile edges
        arrays.append(np.sort(np.round(gen.normal(size=n), 1)))           # repeated edges
    arrays.append(np.array([-np.inf, -1.0, 0.0, 0.0, 2.0, np.inf]))
    arrays.append(np.array([-1.0, 0.5, np.nan]))
    arrays.append(np.array([np.nan, np.nan]))
    return arrays


def _values_for(gen, edges, n):
    v = gen.normal(scale=2.0, size=n)
    if n:
        special = np.concatenate([edges, [0.0, -0.0, np.inf, -np.inf, np.nan]])
        pick = gen.random(n) < 0.3
        v[pick] = gen.choice(special, size=int(pick.sum()))
    return v


class TestSearchsortedRight:
    @staticmethod
    def _check(edges, values):
        got = searchsorted_right(edges, values)
        want = np.searchsorted(edges, values, side="right")
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype == np.intp
        assert got.shape == np.shape(want)

    def test_equals_numpy_on_random_inputs(self):
        gen = np.random.default_rng(23)
        for edges in _edge_arrays(gen):
            for n in (0, 1, 7, 300, int(gen.integers(1000, 20_001)), 20_000):
                self._check(edges, _values_for(gen, edges, n))

    def test_values_on_edges_signed_zeros_infinities_and_nan(self):
        edges = np.array([-np.inf, -2.0, -0.0, 0.0, 0.0, 1.5, 1.5, 3.0])
        values = np.array([-np.inf, -2.0, -0.0, 0.0, 1.5, 3.0, np.inf, np.nan,
                           np.nextafter(1.5, 0), np.nextafter(1.5, 2), -5.0, 9.0])
        self._check(edges, values)
        self._check(edges[1:-1], values)
        self._check(np.linspace(-1.0, 1.0, 41), np.concatenate([np.linspace(-1.0, 1.0, 41),
                                                                values]))

    def test_scalar_integer_and_two_dimensional_values(self):
        edges = np.linspace(-1.0, 1.0, 15)
        self._check(edges, 0.25)
        self._check(edges, np.arange(-3, 4))
        self._check(edges, np.random.default_rng(3).normal(size=(50, 3)))


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.times, [0, 0.5, 1.0, 1.5, 2.0])

    def test_nearest_step_snaps_within_half_dt(self):
        grid = TimeGrid(1.0, 10)
        assert grid.nearest_step(0.32) == 3
        with pytest.raises(ValueError):
            grid.nearest_step(1.2)


class TestGenerateNoise:
    def test_repeatable(self):
        grid = TimeGrid(1.0, 4)
        a = generate_noise(2, grid, 7)
        b = generate_noise(2, grid, 7)
        assert np.array_equal(a.dw, b.dw)
        assert np.array_equal(a.dw0, b.dw0)

    def test_seed_separation(self):
        grid = TimeGrid(1.0, 4)
        a = generate_noise(2, grid, 7)
        b = generate_noise(2, grid, 8)
        assert not np.array_equal(a.dw, b.dw)

    def test_prefix_stability_across_path_counts(self):
        # chunked substreams: the first paths do not depend on how many follow
        grid = TimeGrid(1.0, 8)
        a = generate_noise(100, grid, 3)
        b = generate_noise(4096, grid, 3)
        assert np.array_equal(a.dw, b.dw[:100])

    def test_increment_moments(self):
        grid = TimeGrid(1.0, 50)
        noise = generate_noise(100_000, grid, 12)
        dt = grid.dt
        n = noise.dw.size
        se_var = dt * np.sqrt(2.0 / n)
        assert abs(noise.dw.mean()) <= 4 * np.sqrt(dt / n)
        assert abs(noise.dw.var() - dt) <= 4 * se_var
        assert abs(noise.dw0.var() - dt) <= 4 * se_var

    @pytest.mark.parametrize("d_state, d_common", [(1, 1), (2, 1), (1, 3)])
    @pytest.mark.parametrize("n_paths", [1, 4097, 10_001])
    def test_equals_path_major_draw(self, d_state, d_common, n_paths):
        grid = TimeGrid(1.0, 7)
        got = generate_noise(n_paths, grid, 21, d_state, d_common)
        dw, dw0 = _path_major_noise(n_paths, grid, 21, d_state, d_common)
        for a, b in ((got.dw, dw), (got.dw0, dw0)):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_clean_draw_passes_the_sanity_check(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_noise(100_000, TimeGrid(1.0, 10), 12)

    @pytest.mark.parametrize("name", ["dW", "dW0"])
    @pytest.mark.parametrize("shift, scale", [(6.0, 1.0), (-6.0, 1.0), (0.0, 1.03), (0.0, 0.97)])
    def test_sanity_check_flags_shifted_or_scaled_draws(self, name, shift, scale):
        grid = TimeGrid(1.0, 10)
        noise = generate_noise(100_000, grid, 12)
        arr = noise.dw if name == "dW" else noise.dw0
        se_mean = np.sqrt(grid.dt / arr.size)
        bad = arr * scale + shift * se_mean      # keeps the step-major layout
        with pytest.warns(UserWarning, match=f"^{name} increment statistics"):
            _increment_sanity_check(bad, grid.dt, name)
        # the same check reads a path-major copy alike
        with pytest.warns(UserWarning, match=f"^{name} increment statistics"):
            _increment_sanity_check(np.ascontiguousarray(bad), grid.dt, name)


def _path_major_noise(n_paths, grid, seed, d_state, d_common):
    """``generate_noise``'s increments as first written: one path-major array of
    every normal, split and scaled afterwards."""
    n_per_row = grid.n_steps * (d_state + d_common)
    pairs = (n_per_row + 1) // 2
    normals = np.empty((n_paths, n_per_row))
    for chunk, start in enumerate(range(0, n_paths, _CHUNK)):
        stop = min(start + _CHUNK, n_paths)
        bg = np.random.Philox(key=_philox_key(seed, _STREAM_NOISE, chunk))
        raw = bg.random_raw((stop - start) * pairs * 2).reshape(stop - start, pairs, 2)
        u1 = ((raw[:, :, 0] >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
        u2 = (raw[:, :, 1] >> np.uint64(11)).astype(np.float64) / _TWO53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty((stop - start, 2 * pairs))
        out[:, 0::2] = r * np.cos(theta)
        out[:, 1::2] = r * np.sin(theta)
        normals[start:stop] = out[:, :n_per_row]
    normals = normals.reshape(n_paths, grid.n_steps, d_state + d_common)
    sqdt = np.sqrt(grid.dt)
    return normals[:, :, :d_state] * sqdt, normals[:, :, d_state:] * sqdt


class TestCommonState:
    def test_pure_integrator(self, lq_spec):
        grid = TimeGrid(1.0, 20)
        noise = generate_noise(500, grid, 3)
        xc = simulate_common_state(lq_spec, noise)
        expected = np.cumsum(noise.dw0[:, :, 0], axis=1)
        np.testing.assert_allclose(xc[:, 1:, 0], expected, atol=1e-12)

    def test_martingale_mean(self, lq_spec):
        grid = TimeGrid(1.0, 20)
        noise = generate_noise(100_000, grid, 4)
        xc = simulate_common_state(lq_spec, noise)
        terminal = xc[:, -1, 0]
        assert abs(terminal.mean()) <= 3 * terminal.std() / np.sqrt(terminal.size)

    def test_constant_drift_shift(self, lq_spec):
        spec = replace(lq_spec, common_drift=lambda t, xc: np.ones_like(xc),
                       common_drift_bound=1.0)
        grid = TimeGrid(1.0, 20)
        noise = generate_noise(100_000, grid, 5)
        terminal = simulate_common_state(spec, noise)[:, -1, 0]
        assert abs(terminal.mean() - 1.0) <= 3 * terminal.std() / np.sqrt(terminal.size)

    def test_nonfinite_drift_aborts(self, lq_spec):
        spec = replace(lq_spec, common_drift=lambda t, xc: np.full_like(xc, np.nan))
        noise = generate_noise(10, TimeGrid(1.0, 5), 6)
        with pytest.raises(RuntimeError, match="non-finite common drift"):
            simulate_common_state(spec, noise)


class TestDriftlessState:
    def test_brownian_scaling(self):
        spec = cnmfg.make_instance("lq", sigma0=0.0, init_std=0.0)
        grid = TimeGrid(1.0, 50)
        noise = generate_noise(100_000, grid, 7)
        x_t = simulate_driftless_state(spec, noise).x[:, -1, 0]
        var = x_t.var()
        se = 1.0 * np.sqrt(2.0 / x_t.size)
        assert abs(var - 1.0) <= 4 * se

    def test_covariance_with_common_state(self):
        # X_T = sigma W_T + sigma0 W0_T and Xc_T = W0_T share only W0:
        # cov = sigma0 * sigmac * T, an analytic oracle
        spec = cnmfg.make_instance("lq", init_std=0.0)
        grid = TimeGrid(1.0, 50)
        noise = generate_noise(100_000, grid, 8)
        paths = simulate_driftless_state(spec, noise)
        cov = np.cov(paths.x[:, -1, 0], paths.xc[:, -1, 0])[0, 1]
        assert cov == pytest.approx(0.5, abs=0.02)

    def test_zero_noise_gives_constant_paths(self, lq_spec):
        grid = TimeGrid(1.0, 5)
        noise = generate_noise(20, grid, 9)
        frozen = NoiseBundle(grid=grid, seed=9, dw=np.zeros_like(noise.dw),
                             dw0=np.zeros_like(noise.dw0))
        paths = simulate_driftless_state(lq_spec, frozen)
        for k in range(6):
            np.testing.assert_array_equal(paths.x[:, k], paths.x[:, 0])


class TestSpentNoise:
    def test_a_bundle_without_dw0_drives_no_simulator(self, lq_spec, small_config):
        noise = replace(generate_noise(100, small_config.grid(lq_spec), 14, 1, 1), dw0=None)
        flow = initial_flow(lq_spec, small_config)
        for simulate in (lambda: simulate_common_state(lq_spec, noise),
                         lambda: simulate_driftless_state(lq_spec, noise),
                         lambda: simulate_markov_sde(lq_spec, _ConstantPolicy(0.0), flow, noise)):
            with pytest.raises(ValueError, match="common increments were already integrated"):
                simulate()


class _ConstantPolicy:
    def __init__(self, value):
        self.value = value

    def actions(self, k, x, xc, key):
        return np.full((x.shape[0], 1), self.value)


class _NanAt:
    """A constant-zero policy whose action is NaN at one (step, path)."""

    def __init__(self, step, path):
        self.step, self.path = step, path

    def actions(self, k, x, xc, key):
        a = np.zeros((x.shape[0], 1))
        if k == self.step:
            a[self.path] = np.nan
        return a


class TestMarkovSde:
    @pytest.mark.parametrize("common_from, message", [
        (None, "non-finite controlled drift at step 2, path 7"),
        (5, "non-finite controlled drift at step 2, path 7"),
        (1, "non-finite common drift at step 1, path 4"),
    ])
    def test_nonfinite_drift_names_the_earlier_step(self, lq_spec, small_config, common_from,
                                                    message):
        # X0 and X are advanced together, so the first non-finite step wins
        grid = small_config.grid(lq_spec)

        def common_drift(t, xc):
            bc = np.zeros_like(xc)
            if common_from is not None and t >= (common_from - 0.5) * grid.dt:
                bc[4] = np.inf
            return bc

        spec = replace(lq_spec, common_drift=common_drift)
        noise = generate_noise(50, grid, 15, 1, 1)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            simulate_markov_sde(spec, _NanAt(2, 7), initial_flow(lq_spec, small_config), noise)

    @pytest.mark.parametrize("controlled", [False, True])
    def test_each_initial_sampler_draws_once(self, lq_spec, small_config, controlled):
        calls = {"state": 0, "common": 0}

        def counted(name, sampler):
            def sample(rng, n):
                calls[name] += 1
                return sampler(rng, n)
            return sample

        spec = replace(lq_spec, init_state_sampler=counted("state", lq_spec.init_state_sampler),
                       init_common_sampler=counted("common", lq_spec.init_common_sampler))
        noise = generate_noise(100, small_config.grid(spec), 16, 1, 1)
        if controlled:
            flow = initial_flow(lq_spec, small_config)
            paths = simulate_markov_sde(spec, _ConstantPolicy(0.0), flow, noise)
        else:
            paths = simulate_driftless_state(spec, noise)
        assert calls == {"state": 1, "common": 1}
        reference = simulate_driftless_state(lq_spec, noise)
        np.testing.assert_array_equal(paths.x, reference.x)
        np.testing.assert_array_equal(paths.xc, reference.xc)

    @pytest.mark.parametrize("which", ["init_state_sampler", "init_common_sampler"])
    def test_misshapen_initial_draw_rejected(self, lq_spec, which):
        spec = replace(lq_spec, **{which: lambda rng, n: np.zeros(n)})
        noise = generate_noise(10, TimeGrid(1.0, 3), 17, 1, 1)
        with pytest.raises(ValueError, match=rf"^{which} returned shape \(10,\), "
                                             rf"expected \(10, 1\)$"):
            simulate_driftless_state(spec, noise)

    def test_zero_policy_matches_driftless(self, lq_spec, small_config):
        noise = generate_noise(small_config.n_paths, small_config.grid(lq_spec),
                               small_config.seed, 1, 1)
        flow = initial_flow(lq_spec, small_config)
        driftless = simulate_driftless_state(lq_spec, noise)
        controlled = simulate_markov_sde(lq_spec, _ConstantPolicy(0.0), flow, noise)
        np.testing.assert_array_equal(controlled.x, driftless.x)
        assert controlled.clamp_count == 0

    def test_unit_policy_mean_shift(self, lq_spec, small_config):
        noise = generate_noise(20_000, small_config.grid(lq_spec), 11, 1, 1)
        flow = initial_flow(lq_spec, small_config)
        paths = simulate_markov_sde(lq_spec, _ConstantPolicy(1.0), flow, noise)
        terminal = paths.x[:, -1, 0]
        se = terminal.std() / np.sqrt(terminal.size)
        assert abs(terminal.mean() - 1.0) <= 3 * se

    def test_out_of_box_actions_clamped_and_counted(self, lq_spec, small_config):
        noise = generate_noise(100, small_config.grid(lq_spec), 12, 1, 1)
        flow = initial_flow(lq_spec, small_config)
        paths = simulate_markov_sde(lq_spec, _ConstantPolicy(2.0), flow, noise)
        assert paths.clamp_count == 100 * small_config.n_steps
        terminal = paths.x[:, -1, 0]
        assert abs(terminal.mean() - 1.0) < 0.5  # clamped to +1 drift

    def test_deterministic(self, lq_spec, small_config):
        noise = generate_noise(500, small_config.grid(lq_spec), 13, 1, 1)
        flow = initial_flow(lq_spec, small_config)
        a = simulate_markov_sde(lq_spec, _ConstantPolicy(0.3), flow, noise)
        b = simulate_markov_sde(lq_spec, _ConstantPolicy(0.3), flow, noise)
        assert np.array_equal(a.x, b.x)

    def test_discontinuous_drift_smoke(self, lq_spec, small_config):
        # measurable-only drift: no rate claim, just bounded finite paths with
        # the expected repulsion from the origin
        spec = replace(
            lq_spec,
            drift=lambda t, x, mu, a: 0.5 * np.sign(x) + 0.5 * a,
            drift_bound=1.0,
        )
        noise = generate_noise(20_000, small_config.grid(spec), 14, 1, 1)
        flow = initial_flow(spec, small_config)
        paths = simulate_markov_sde(spec, _ConstantPolicy(0.0), flow, noise)
        assert np.all(np.isfinite(paths.x))
        assert np.abs(paths.x[:, -1, 0]).mean() > np.abs(paths.x[:, 0, 0]).mean()
