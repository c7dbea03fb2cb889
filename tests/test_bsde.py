import csv
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace

import cnmfg
import cnmfg.bsde as bsde_mod
from cnmfg.bsde import (
    BasisSpec,
    BsdeSolution,
    MarkovPolicy,
    _bilinear,
    _terminal_values,
    control_weights,
    extract_control,
    pass_actions,
    policy_to_csv,
    solve_bsde,
    stacked_objective_influence,
)
from cnmfg.equilibrium import initial_flow
from cnmfg.flows import estimate_conditional_flow
from cnmfg.girsanov import self_normalized_mean
from cnmfg.problem import hamiltonian_batch, minimize_hamiltonian_batch
from cnmfg.sde import (PathBundle, TimeGrid, generate_noise, simulate_driftless_state,
                       step_major)

from hjb_oracle import clipped_gaussian_expectation, solve_hjb


def _setup(spec, n_paths=20_000, n_steps=50, seed=11, n_bins=8):
    grid = TimeGrid(spec.horizon, n_steps)
    noise = generate_noise(n_paths, grid, seed, spec.d_state, spec.d_common)
    paths = simulate_driftless_state(spec, noise)
    flow = estimate_conditional_flow(paths, None, n_bins)
    return grid, noise, paths, flow


def _all_pass_actions(spec, sol, flow, paths):
    """(n, n_steps, d_action) step-major stack of ``pass_actions`` over every step."""
    a = step_major(paths.n_paths, paths.grid.n_steps, spec.d_action)
    for k in range(paths.grid.n_steps):
        a[:, k] = pass_actions(spec, sol, flow, paths, k)
    return a


class TestZeroDriver:
    def test_linear_terminal_martingale(self):
        spec = cnmfg.make_instance("lq", sigma0=0.0, init_std=0.0)
        spec = replace(spec, terminal_cost=lambda x, mu: x[:, 0])
        grid, noise, paths, flow = _setup(spec)
        sol = solve_bsde(spec, flow, paths, noise, BasisSpec(degree=2), driver="zero")
        assert abs(sol.y0) <= 3 * sol.y0_stderr

        # the smoothed regressed integrand recovers the diffusion loading
        # (sigma = 1) across each step's sampled range
        worst = 0.0
        for k in range(0, 50, 7):
            lo, hi = np.percentile(paths.x[:, k, 0], [1, 99])
            xs = np.linspace(lo, hi, 31)[:, None]
            z = sol.z_smoothed(k, xs, np.zeros_like(xs))[:, 0]
            worst = max(worst, np.abs(z - 1.0).max())
        assert worst <= 0.05

    def test_quadratic_terminal_heat_kernel(self):
        spec = cnmfg.make_instance("lq", sigma0=0.0, init_std=0.0)
        spec = replace(spec, terminal_cost=lambda x, mu: x[:, 0] ** 2)
        grid, noise, paths, flow = _setup(spec)
        sol = solve_bsde(spec, flow, paths, noise, BasisSpec(degree=2), driver="zero")
        assert abs(sol.y0 - spec.horizon) <= 3 * sol.y0_stderr

    def test_zero_driver_reproduces_terminal_mean(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=5000, n_steps=20)
        sol = solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2), driver="zero")
        from cnmfg.bsde import _terminal_values

        g = _terminal_values(lq_spec, flow, paths)
        assert sol.y0 == pytest.approx(g.mean(), abs=3 * sol.y0_stderr)

    def test_zero_driver_stores_no_actions(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=500, n_steps=5, n_bins=2)
        zero = solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2), driver="zero")
        assert zero.weights is None
        with pytest.raises(ValueError, match="no actions or weights"):
            solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2), driver="zero",
                       weights=True)
        full = solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2))
        assert _all_pass_actions(lq_spec, full, flow, paths).shape == (500, 5, 1)
        assert full.weights is None
        # no solution field holds a per-path array
        assert all(np.ndim(v) < 2 or v.shape[0] != 500 for v in vars(full).values())


class TestHjbOracle:
    def test_value_and_policy_track_oracle(self, lq_nointeraction_spec):
        spec = lq_nointeraction_spec
        grid, noise, paths, flow = _setup(spec, n_paths=10_000, seed=17)
        sol = solve_bsde(spec, flow, paths, noise, BasisSpec(degree=4))
        fd = solve_hjb()
        y0_oracle = clipped_gaussian_expectation(lambda x: fd.value(0.0, x))
        assert sol.y0 == pytest.approx(y0_oracle, abs=0.03)

        policy = extract_control(sol, spec, flow)
        xs = np.linspace(-2, 2, 41)
        for k in (0, 25, 49):
            got = policy.actions(k, xs[:, None], np.zeros((41, 1)), np.zeros(41))[:, 0]
            want = fd.policy(grid.times[k], xs)
            assert np.abs(got - want).max() <= 0.15


class TestExtractControl:
    def _dummy_solution(self, spec, flow, const_z):
        grid = flow.grid
        basis = BasisSpec(degree=2)
        n_feat = basis.n_features(2)
        stats = np.zeros((grid.n_steps + 1, 2, 2))
        stats[:, 1] = 1.0
        col_stats = np.zeros((grid.n_steps + 1, 2, n_feat))    # identity: mean 0, std 1
        col_stats[:, 1] = 1.0
        fitted = BasisSpec(degree=2, stats=stats, col_stats=col_stats)
        z_coef = np.zeros((grid.n_steps, 1, n_feat))
        z_coef[:, 0, 0] = const_z
        return BsdeSolution(grid=grid, basis=fitted, z_coef=z_coef, y0=0.0, y0_stderr=0.0,
                            residual_var=np.zeros(grid.n_steps))

    def test_zero_integrand_gives_zero_policy(self, lq_spec, small_config):
        flow = initial_flow(lq_spec, small_config)
        sol = self._dummy_solution(lq_spec, flow, 0.0)
        policy = extract_control(sol, lq_spec, flow)
        x = np.linspace(-1, 1, 9)[:, None]
        a = policy.actions(3, x, np.zeros((9, 1)), np.zeros(9))
        np.testing.assert_allclose(a, 0.0, atol=1e-8)

    def test_large_integrand_clamps_to_boundary(self, lq_spec, small_config):
        flow = initial_flow(lq_spec, small_config)
        sol = self._dummy_solution(lq_spec, flow, 2.0)
        policy = extract_control(sol, lq_spec, flow)
        x = np.linspace(-1, 1, 9)[:, None]
        a = policy.actions(3, x, np.zeros((9, 1)), np.zeros(9))
        np.testing.assert_allclose(a, -1.0, atol=1e-12)

    def test_policy_always_inside_box(self, lq_spec, small_config):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=4000, n_steps=20, seed=9)
        sol = solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2))
        policy = extract_control(sol, lq_spec, flow)
        x = np.linspace(-6, 6, 25)[:, None]
        for k in (0, 10, 19):
            a = policy.actions(k, x, np.zeros((25, 1)), np.zeros(25))
            assert np.all(a >= lq_spec.action_lo - 1e-12)
            assert np.all(a <= lq_spec.action_hi + 1e-12)


class TestEvaluateObjective:
    def test_constant_terminal_only(self, lq_spec, small_config):
        spec = replace(lq_spec,
                       running_cost=lambda t, x, mu, a: np.zeros(x.shape[0]),
                       terminal_cost=lambda x, mu: np.full(x.shape[0], 2.5))
        grid, noise, paths, flow = _setup(spec, n_paths=2000, n_steps=10, seed=4)
        actions = np.zeros((2000, 10, 1))
        j, se = stacked_objective_influence(spec, flow, lambda k: actions[None, :, k], paths,
                                            noise)[0][:2]
        assert j == pytest.approx(2.5, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_zero_action_is_plain_monte_carlo(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=3000, n_steps=20, seed=5)
        actions = np.zeros((3000, 20, 1))
        j, _ = stacked_objective_influence(lq_spec, flow, lambda k: actions[None, :, k], paths,
                                           noise)[0][:2]

        # drift = action = 0 makes every weight one; accumulate by hand
        total = np.zeros(3000)
        for k in range(20):
            keys = paths.xc[:, k, 0]
            bins = flow.assign(k, keys)
            for b in np.unique(bins):
                sel = bins == b
                mu = flow.bins_at(k).measures[int(b)]
                total[sel] += lq_spec.running_cost(grid.times[k], paths.x[sel, k], mu,
                                                   actions[sel, k]) * grid.dt
        kT = 20
        bins = flow.assign(kT, paths.xc[:, kT, 0])
        for b in np.unique(bins):
            sel = bins == b
            total[sel] += lq_spec.terminal_cost(paths.x[sel, kT],
                                                flow.bins_at(kT).measures[int(b)])
        assert j == pytest.approx(total.mean(), rel=1e-12)

    def test_optimal_beats_perturbations(self, lq_nointeraction_spec):
        spec = lq_nointeraction_spec
        grid, noise, paths, flow = _setup(spec, n_paths=10_000, seed=6)
        sol = solve_bsde(spec, flow, paths, noise, BasisSpec(degree=4))
        a_opt = _all_pass_actions(spec, sol, flow, paths)
        j_opt, se_opt = stacked_objective_influence(spec, flow, lambda k: a_opt[None, :, k],
                                                    paths, noise)[0][:2]
        for shift in (-0.25, 0.25):
            a = spec.clip_action(a_opt + shift)
            j_p, se_p = stacked_objective_influence(spec, flow, lambda k: a[None, :, k],
                                                    paths, noise)[0][:2]
            assert j_opt <= j_p + 3 * np.hypot(se_opt, se_p)
        a = np.zeros_like(a_opt)
        j_zero, se_zero = stacked_objective_influence(spec, flow, lambda k: a[None, :, k],
                                                      paths, noise)[0][:2]
        assert j_opt <= j_zero + 3 * np.hypot(se_opt, se_zero)


class TestStackedScoring:
    @pytest.mark.parametrize("family", ["lq", "tanh"])
    def test_bitwise_equal_to_per_control(self, family):
        spec = cnmfg.make_instance(family)
        grid, noise, paths, flow = _setup(spec, n_paths=3000, n_steps=12, seed=9)
        rng = np.random.default_rng(4)
        controls = rng.uniform(-1.0, 1.0, size=(4, 3000, 12, 1))
        stacked = stacked_objective_influence(spec, flow, lambda k: controls[:, :, k],
                                              paths, noise)
        assert len(stacked) == 4
        for a, (est, se, infl) in zip(controls, stacked):
            est1, se1, infl1 = stacked_objective_influence(spec, flow, lambda k: a[None, :, k],
                                                           paths, noise)[0]
            assert (est, se) == (est1, se1)
            np.testing.assert_array_equal(infl, infl1)

    def test_non_finite_drift_names_path_control_and_step(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=8, seed=9)
        controls = np.zeros((3, 1000, 8, 1))
        controls[1, 17, 4] = np.nan       # the lq drift is the action
        with pytest.raises(RuntimeError, match="non-finite drift sample at path 17, "
                                               "control 1, step 4"):
            stacked_objective_influence(lq_spec, flow, lambda k: controls[:, :, k], paths,
                                        noise)

    @pytest.mark.parametrize("family", ["lq", "tanh"])
    def test_terminal_only_payoff_under_control_weights(self, family):
        # with no running cost the payoff is the terminal cost, so the scoring
        # pass and control_weights (the weights apply_phi uses), both shifted
        # by the terminal step's largest log-weight, must agree
        spec = replace(cnmfg.make_instance(family),
                       running_cost=lambda t, x, mu, a: np.zeros(x.shape[0]))
        grid, noise, paths, flow = _setup(spec, n_paths=3000, n_steps=12, seed=9)
        a = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3000, 12, 1))
        est, se, infl = stacked_objective_influence(spec, flow, lambda k: a[None, :, k], paths,
                                                    noise)[0]
        weights = control_weights(spec, flow, a, paths, noise)
        est1, se1, infl1 = self_normalized_mean(_terminal_values(spec, flow, paths),
                                                weights.scaled(-1))
        assert (est, se) == (est1, se1)
        np.testing.assert_array_equal(infl, infl1)

    @pytest.mark.parametrize("family", ["lq", "tanh"])
    def test_control_weights_equal_the_materialised_drifts(self, family):
        spec = cnmfg.make_instance(family)
        grid, noise, paths, flow = _setup(spec, n_paths=3000, n_steps=12, seed=9)
        a = np.random.default_rng(6).uniform(-1.0, 1.0, size=(3000, 12, 1))
        lam = step_major(3000, 12, spec.d_state)    # the drift array once materialised
        for k in range(12):
            lam[:, k] = flow.per_bin(k, paths, lambda mu, x, a_k: np.asarray(
                spec.drift(grid.times[k], x, mu, a_k), float) @ spec.sigma_inv.T,
                paths.x[:, k], a[:, k])
        got = control_weights(spec, flow, a, paths, noise).log_m
        want = cnmfg.stochastic_exponential(spec, lam, noise).log_m
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_control_weights_name_a_nonfinite_drift(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=4, seed=9)
        a = np.zeros((1000, 4, 1))
        a[7, 2, 0] = np.nan
        a[3, 3, 0] = np.inf
        with pytest.raises(RuntimeError, match=r"path 7, step 2"):
            control_weights(lq_spec, flow, a, paths, noise)

    @pytest.mark.parametrize("shape", [(1000, 3, 1), (999, 4, 1), (1000, 4, 2)])
    def test_misaligned_controls_rejected(self, lq_spec, shape):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=4, seed=9)
        with pytest.raises(ValueError, match="does not match paths"):
            control_weights(lq_spec, flow, np.zeros(shape), paths, noise)

    def test_rejects_nonfinite_drift(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=4, seed=9)
        controls = np.zeros((2, 1000, 4, 1))
        controls[1, 7, 2, 0] = np.nan
        with pytest.raises(RuntimeError, match="step 2"):
            stacked_objective_influence(lq_spec, flow, lambda k: controls[:, :, k],
                                        paths, noise)


class TestFusedWeights:
    """``solve_bsde(..., weights=True)`` against ``control_weights`` on the
    actions ``pass_actions`` recomputes."""

    @pytest.mark.parametrize("family", ["lq", "tanh"])
    @pytest.mark.parametrize("partition", [None, (0.3, 0.6)])
    def test_bitwise_equal_to_control_weights(self, family, partition):
        spec = cnmfg.make_instance(family)
        _, noise, paths, _ = _setup(spec, n_paths=3000, n_steps=12, seed=9)
        flow = estimate_conditional_flow(paths, None, 8, partition_times=partition)
        basis = BasisSpec(degree=2)
        plain = solve_bsde(spec, flow, paths, noise, basis)
        fused = solve_bsde(spec, flow, paths, noise, basis, weights=True)
        want = control_weights(spec, flow, _all_pass_actions(spec, fused, flow, paths), paths,
                               noise).log_m
        _assert_bitwise(fused.weights.log_m, want)
        assert (fused.y0, fused.y0_stderr) == (plain.y0, plain.y0_stderr)
        _assert_bitwise(fused.z_coef, plain.z_coef)
        _assert_bitwise(fused.residual_var, plain.residual_var)

    @pytest.mark.parametrize("partition", [None, (0.3, 0.6)])
    def test_bitwise_on_paths_the_flow_was_not_binned_on(self, lq_spec, partition):
        # exploitability's best response: a flow of one bundle, a pass on
        # another, whose keys are assigned from the flow's edges
        _, _, own, _ = _setup(lq_spec, n_paths=3000, n_steps=12, seed=9)
        flow = estimate_conditional_flow(own, None, 8, partition_times=partition)
        _, noise, paths, _ = _setup(lq_spec, n_paths=2000, n_steps=12, seed=10)
        fused = solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2), weights=True)
        actions = _all_pass_actions(lq_spec, fused, flow, paths)
        _assert_bitwise(control_weights(lq_spec, flow, actions, paths, noise).log_m,
                        fused.weights.log_m)

    def test_nonfinite_drift_names_path_and_step(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=4, seed=9)
        x_bad = paths.x[7, 2, 0]

        def drift(t, x, mu, a):
            b = lq_spec.drift(t, x, mu, a)
            return np.where((t == grid.times[2]) & (x == x_bad), np.nan, b)

        spec = replace(lq_spec, drift=drift)
        with pytest.raises(RuntimeError, match=r"non-finite drift sample at path 7, step 2"):
            solve_bsde(spec, flow, paths, noise, BasisSpec(degree=2), weights=True)


class TestRegression:
    def test_idempotent_on_in_span_targets(self, lq_spec, small_config):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=4000, n_steps=10, seed=7)
        basis = BasisSpec(degree=2).fit_stats(paths)
        k = 5
        feats = basis.features(k, paths.x[:, k], paths.xc[:, k])
        target = 1.5 * feats[:, 1] - 0.25 * feats[:, 3] + 0.8
        from cnmfg.bsde import _ridge_factor, _ridge_solve

        coef = _ridge_solve(_ridge_factor(feats, 1e-12), feats, target)
        np.testing.assert_allclose(feats @ coef, target, atol=1e-8)

    @staticmethod
    def _ridge_fit(feats, target, ridge):
        """Fitted values of the ridge regression with an unpenalized intercept, from
        the augmented least-squares problem |F c - y|^2 + n ridge |c[1:]|^2."""
        n, n_feat = feats.shape
        a = np.vstack([feats, np.sqrt(n * ridge) * np.eye(n_feat)[1:]])
        b = np.concatenate([target, np.zeros(n_feat - 1)])
        return feats @ np.linalg.lstsq(a, b, rcond=None)[0]

    def test_zero_driver_residual_variance_recomputed(self, lq_spec):
        # each step regresses the previous step's value fit (the terminal values
        # at the last step); residual_var is the mean squared residual
        grid, noise, paths, flow = _setup(lq_spec, n_paths=4000, n_steps=10, seed=12)
        basis = BasisSpec(degree=2)
        sol = solve_bsde(lq_spec, flow, paths, noise, basis, driver="zero")
        fitted = basis.fit_stats(paths)
        y = _terminal_values(lq_spec, flow, paths)
        want = np.empty(grid.n_steps)
        for k in range(grid.n_steps - 1, -1, -1):
            fit = self._ridge_fit(fitted.features(k, paths.x[:, k], paths.xc[:, k]), y,
                                  bsde_mod._RIDGE)
            want[k] = np.mean((y - fit) ** 2)
            y = fit
        assert np.all(want > 0)
        np.testing.assert_allclose(sol.residual_var, want, rtol=1e-9)

    def test_last_step_residual_variance_recomputed(self, lq_spec):
        # the last step's value target is g + H dt, H minimized at the integrand
        # fitted to the centred terminal values times dW / dt
        grid, noise, paths, flow = _setup(lq_spec, n_paths=4000, n_steps=10, seed=13)
        basis = BasisSpec(degree=2)
        sol = solve_bsde(lq_spec, flow, paths, noise, basis)
        k, dt = grid.n_steps - 1, grid.dt
        feats = basis.fit_stats(paths).features(k, paths.x[:, k], paths.xc[:, k])
        g = _terminal_values(lq_spec, flow, paths)
        centred = g - self._ridge_fit(feats, g, bsde_mod._RIDGE)
        z = self._ridge_fit(feats, centred * noise.dw[:, k, 0] / dt, bsde_mod._RIDGE)[:, None]
        t_k = grid.times[k]
        h = flow.per_bin(k, paths, lambda mu, x, zb: hamiltonian_batch(
            lq_spec, t_k, x, mu, minimize_hamiltonian_batch(lq_spec, t_k, x, mu, zb), zb),
            paths.x[:, k], z)
        target = g + h * dt
        want = np.mean((target - self._ridge_fit(feats, target, bsde_mod._RIDGE)) ** 2)
        assert want > 0
        np.testing.assert_allclose(sol.residual_var[k], want, rtol=1e-9)

    def test_basis_fit_cached_per_degree(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=5, seed=9)
        first = BasisSpec(degree=2).fit_stats(paths)
        again = BasisSpec(degree=2).fit_stats(paths)
        assert again.stats is first.stats and again.col_stats is first.col_stats
        cubic = BasisSpec(degree=3).fit_stats(paths)
        assert cubic.col_stats.shape[2] == cubic.n_features(2) != first.col_stats.shape[2]
        cold = replace(paths)   # same arrays, empty caches
        fresh = BasisSpec(degree=2).fit_stats(cold)
        assert fresh.stats is not first.stats
        np.testing.assert_array_equal(fresh.stats, first.stats)
        np.testing.assert_array_equal(fresh.col_stats, first.col_stats)

    def test_explosion_threshold_aborts(self, lq_spec, monkeypatch):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=5, seed=8)
        spec = replace(lq_spec, terminal_cost=lambda x, mu: 1e9 * x[:, 0] ** 2)
        monkeypatch.setattr(bsde_mod, "_EXPLOSION_THRESHOLD", 1e3)
        with pytest.raises(RuntimeError, match="exploded at step"):
            solve_bsde(spec, flow, paths, noise, BasisSpec(degree=2))

    def test_requires_driftless_paths(self, lq_spec, small_config):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=1000, n_steps=5, seed=8)
        paths.label = "markov"
        with pytest.raises(ValueError, match="driftless"):
            solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2))


def _loop_monomials(basis, k, x, xc):
    """Monomial columns as first written: one column at a time, factor by factor."""
    raw = np.concatenate([np.atleast_2d(x), np.atleast_2d(xc)], axis=1)
    z = (raw - basis.stats[k, 0]) / basis.stats[k, 1]
    exps = basis.exponents(raw.shape[1])
    out = np.empty((raw.shape[0], len(exps)))
    for j, e in enumerate(exps):
        col = np.ones(raw.shape[0])
        for v, p in enumerate(e):
            if p:
                col = col * z[:, v] ** p
        out[:, j] = col
    return out


def _loop_features(basis, k, x, xc):
    cols = _loop_monomials(basis, k, x, xc)
    cols = (cols - basis.col_stats[k, 0]) / basis.col_stats[k, 1]
    cols[:, 0] = 1.0
    return cols


def _assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _searchsorted_bilinear(x_axis, k_axis, table, x, key):
    """The table lookup with both axis indices from np.searchsorted."""
    xq = np.clip(x, x_axis[0], x_axis[-1])
    kq = np.clip(key, k_axis[0], k_axis[-1])
    ix = np.clip(np.searchsorted(x_axis, xq, side="right") - 1, 0, x_axis.size - 2)
    ik = np.clip(np.searchsorted(k_axis, kq, side="right") - 1, 0, k_axis.size - 2)
    tx = ((xq - x_axis[ix]) / (x_axis[ix + 1] - x_axis[ix]))[:, None]
    tk = ((kq - k_axis[ik]) / (k_axis[ik + 1] - k_axis[ik]))[:, None]
    return ((1 - tx) * (1 - tk) * table[ix, ik] + tx * (1 - tk) * table[ix + 1, ik]
            + (1 - tx) * tk * table[ix, ik + 1] + tx * tk * table[ix + 1, ik + 1])


class TestBilinear:
    """The table policy's lookup equals the searchsorted lookup bitwise."""

    @staticmethod
    def _queries(gen, axis, n):
        special = np.concatenate([axis, [0.0, -0.0, np.inf, -np.inf, np.nan,
                                         axis[0] - 1.0, axis[-1] + 1.0]])
        v = gen.uniform(axis[0] - 0.5, axis[-1] + 0.5, size=n)
        pick = gen.random(n) < 0.2
        v[pick] = gen.choice(special, size=int(pick.sum()))
        return v

    @pytest.mark.parametrize("nx, nk, d_action, uniform", [
        (41, 41, 1, True), (41, 41, 2, True), (2, 2, 1, True), (7, 13, 1, False),
        (41, 5, 3, False),
    ])
    def test_equals_searchsorted_lookup(self, nx, nk, d_action, uniform):
        gen = np.random.default_rng(nx * 100 + nk)
        if uniform:
            x_axis = np.linspace(-1.3, 2.1, nx)
            k_axis = np.linspace(0.2, 0.9, nk)
        else:
            x_axis = np.sort(gen.normal(size=nx))
            k_axis = np.sort(gen.normal(size=nk))
        table = gen.normal(size=(nx, nk, d_action))
        for n in (1, 50, 20_000):
            x = self._queries(gen, x_axis, n)
            key = self._queries(gen, k_axis, n)
            got = _bilinear(x_axis, k_axis, table, x, key)
            _assert_bitwise(got, _searchsorted_bilinear(x_axis, k_axis, table, x, key))

    def test_table_policy_actions(self):
        grid = TimeGrid(horizon=1.0, n_steps=3)
        gen = np.random.default_rng(8)
        x_axes = np.stack([np.linspace(-2.0 + k, 2.0 + k, 41) for k in range(3)])
        key_axes = np.stack([np.linspace(-1.0, 1.0 + k, 41) for k in range(3)])
        tables = gen.normal(size=(3, 41, 41, 1))
        policy = MarkovPolicy(grid=grid, kind="table", x_axes=x_axes, key_axes=key_axes,
                              tables=tables)
        x = gen.normal(scale=2.0, size=(5000, 1))
        key = gen.normal(scale=2.0, size=5000)
        key[::97] = np.nan
        for k in range(3):
            want = _searchsorted_bilinear(x_axes[k], key_axes[k], tables[k], x[:, 0], key)
            _assert_bitwise(policy.actions(k, x, np.zeros((5000, 1)), key), want)


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda s: BasisSpec(degree=-1), "degree must be >= 0"),
        (lambda s: BasisSpec().features(1, s.paths.x[:, 1], s.paths.xc[:, 1]),
         "basis statistics not fitted"),
        (lambda s: solve_bsde(s.spec, s.flow, s.paths, s.noise, BasisSpec(), driver="other"),
         "driver must be 'hamiltonian' or 'zero'"),
        (lambda s: MarkovPolicy(grid=s.grid, kind="other").actions(
            1, s.paths.x[:, 1], s.paths.xc[:, 1], s.paths.xc[:, 1, 0]),
         "unknown policy kind 'other'"),
    ], ids=["negative-degree", "unfitted-basis", "unknown-driver", "unknown-policy-kind"])
    def test_raises(self, lq_spec, call, message):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=200, n_steps=3, n_bins=2)
        setup = SimpleNamespace(spec=lq_spec, grid=grid, noise=noise, paths=paths, flow=flow)
        with pytest.raises(ValueError, match=message):
            call(setup)


class TestFeatureColumns:
    """``BasisSpec.features`` equals the column-by-column monomial loop bitwise, and
    the fitted statistics are numpy's pairwise means and stds of each step's
    feature-major rows."""

    @staticmethod
    def _paths(d_state, n=600, n_steps=4, seed=3, layout="path-major"):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, n_steps + 1, d_state)) * [1.5, 0.2][:d_state]
        xc = rng.normal(0.3, 2.0, size=(n, n_steps + 1, 1))
        x[:, :2, -1] = 0.25                     # constant inputs (std = inf) at steps 0, 1
        xc[:, 0] = -1.0
        if layout == "step-major":
            sm_x, sm_xc = step_major(n, n_steps + 1, d_state), step_major(n, n_steps + 1, 1)
            sm_x[...], sm_xc[...] = x, xc
            x, xc = sm_x, sm_xc
        return PathBundle(grid=TimeGrid(1.0, n_steps), x=x, xc=xc, label="driftless")

    @pytest.mark.parametrize("layout", ["path-major", "step-major"])
    @pytest.mark.parametrize("d_state", [1, 2])
    def test_input_stats_equal_path_major_moments(self, layout, d_state):
        # the input statistics are the mean/std(axis=-1) of each step's
        # contiguous feature-major rows, bit for bit, in either bundle layout
        paths = self._paths(d_state, n=5000, layout=layout)
        raw = np.concatenate([np.asarray(paths.x), np.asarray(paths.xc)], axis=2)
        raw = np.ascontiguousarray(raw.transpose(1, 2, 0))     # (n_steps + 1, n_vars, n)
        basis = BasisSpec(degree=2).fit_stats(paths)
        std = raw.std(axis=-1)
        _assert_bitwise(basis.stats[:, 0], raw.mean(axis=-1))
        _assert_bitwise(basis.stats[:, 1], np.where(std < 1e-10, np.inf, std))
        assert np.isinf(basis.stats[:2, 1, d_state - 1]).all()
        assert np.isinf(basis.stats[0, 1, d_state])             # the point-mass common state
        assert np.isfinite(basis.stats[1:, 1, d_state]).all()

    @pytest.mark.parametrize("d_state", [1, 2])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_step_major_bundle_fits_the_same_statistics(self, d_state, degree):
        fits = [BasisSpec(degree=degree).fit_stats(self._paths(d_state, layout=layout))
                for layout in ("path-major", "step-major")]
        _assert_bitwise(fits[1].stats, fits[0].stats)
        _assert_bitwise(fits[1].col_stats, fits[0].col_stats)

    @pytest.mark.parametrize("d_state", [1, 2])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_equals_monomial_loop(self, d_state, degree):
        paths = self._paths(d_state)
        basis = BasisSpec(degree=degree).fit_stats(paths)
        assert np.isinf(basis.stats[:2, 1, d_state - 1]).all()
        assert np.isfinite(basis.stats[2:, 1]).all()
        raw_x, raw_xc = paths.x.reshape(-1, d_state), paths.xc.reshape(-1, 1)
        rng = np.random.default_rng(degree)
        for k in range(paths.grid.n_steps + 1):
            # the fitted column statistics: the loop's columns, feature-major
            cols = np.ascontiguousarray(_loop_monomials(basis, k, paths.x[:, k],
                                                        paths.xc[:, k]).T)
            col_std = cols.std(axis=1)
            _assert_bitwise(basis.col_stats[k, 0, 1:], cols.mean(axis=1)[1:])
            _assert_bitwise(basis.col_stats[k, 1, 1:], np.where(col_std < 1e-12, np.inf,
                                                                col_std)[1:])
            off = (rng.normal(size=(50, d_state)) * 4.0 + 1.0,
                   rng.normal(size=(50, 1)) * 5.0 - 2.0)      # off-sample rows
            for x, xc in ((paths.x[:, k], paths.xc[:, k]), off, (raw_x[:1], raw_xc[:1]),
                          (raw_x[7], raw_xc[7])):             # one row, and one 1-d row
                got = basis.features(k, x, xc)
                assert got.flags.f_contiguous
                _assert_bitwise(got, _loop_features(basis, k, x, xc))
        # column statistics not from a fit: the intercept is still reset to one
        odd = replace(basis, col_stats=rng.normal(size=basis.col_stats.shape) + 2.0)
        _assert_bitwise(odd.features(1, *off), _loop_features(odd, 1, *off))


def _window_loop(solution, k, x, xc, window):
    """The smoothed integrand as first written: the mean of the window's per-step fits."""
    def z_at(j):
        return solution.basis.features(j, x, xc) @ solution.z_coef[j].T

    n_steps = solution.z_coef.shape[0]
    lo, hi = max(0, k - window // 2), min(n_steps, k + window // 2 + 1)
    out = z_at(lo)
    for j in range(lo + 1, hi):
        out = out + z_at(j)
    return out / (hi - lo)


def _assert_fold_close(got, want):
    # tolerance set before measuring: 1e-12 relative to the integrand's scale
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())


class TestWindowFold:
    """``z_smoothed``'s folded coefficients against the per-step window loop."""

    @pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (100.0, 0.1)])
    @pytest.mark.parametrize("d_state", [1, 2])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_equals_window_loop(self, d_state, degree, offset, scale):
        n_steps = 12
        # constant inputs at steps 0 and 1, a point-mass common state at step 0
        paths = TestFeatureColumns._paths(d_state, n_steps=n_steps)
        paths = PathBundle(grid=paths.grid, x=paths.x * scale + offset,
                           xc=paths.xc * scale + offset, label="driftless")
        basis = BasisSpec(degree=degree).fit_stats(paths)
        n_feat = basis.n_features(d_state + 1)
        rng = np.random.default_rng(10 * degree + d_state)
        solution = BsdeSolution(grid=paths.grid, basis=basis,
                                z_coef=rng.normal(size=(n_steps, d_state, n_feat)), y0=0.0,
                                y0_stderr=0.0, residual_var=np.zeros(n_steps))
        off = (rng.normal(size=(50, d_state)) * 4.0 * scale + 1.0 + offset,
               rng.normal(size=(50, 1)) * 5.0 * scale - 2.0 + offset)   # off-sample rows
        for window in (1, 2, 9):
            for k in range(n_steps):                           # first and last steps included
                for x, xc in ((paths.x[:, k], paths.xc[:, k]), off):
                    want = _window_loop(solution, k, x, xc, window)
                    _assert_fold_close(solution.z_smoothed(k, x, xc, window), want)

    def test_solved_integrand(self, lq_spec):
        grid, noise, paths, flow = _setup(lq_spec, n_paths=2000, n_steps=10, seed=4)
        solution = solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=3))
        x = np.linspace(-3.0, 3.0, 41)[:, None]
        xc = np.linspace(-2.0, 2.0, 41)[:, None]
        for k in range(10):
            _assert_fold_close(solution.z_smoothed(k, x, xc),
                               _window_loop(solution, k, x, xc, 9))


def _writer_policy_csv(policy, path):
    """``policy_to_csv`` as first written: every row through ``csv.writer``."""
    times = policy.grid.times
    d_a = policy.tables.shape[3]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "xc"] + [f"a{j}" for j in range(d_a)])
        for k in range(policy.tables.shape[0]):
            for i, xv in enumerate(policy.x_axes[k]):
                for kv, acts in zip(policy.key_axes[k], policy.tables[k, i]):
                    writer.writerow([f"{v:.17g}" for v in (times[k], xv, kv, *acts)])


class TestPolicyCsv:
    def test_bytes_equal_csv_writer(self, tmp_path):
        rng = np.random.default_rng(12)
        n_steps, n_x, n_key, d_a = 3, 4, 5, 2
        tables = rng.normal(size=(n_steps, n_x, n_key, d_a))
        tables[0, 0, 0] = [1e-300, -2.5e21]               # exponent notation
        tables[1, 2, 3] = [3e-7, 0.0]
        tables[2, 1] *= 1e-5
        policy = MarkovPolicy(grid=TimeGrid(0.3, n_steps), kind="table",
                              x_axes=rng.normal(size=(n_steps, n_x)) * 1e-6,
                              key_axes=rng.normal(size=(n_steps, n_key)) * 1e8,
                              tables=tables)
        policy_to_csv(policy, tmp_path / "fast.csv")
        _writer_policy_csv(policy, tmp_path / "oracle.csv")
        fast = (tmp_path / "fast.csv").read_bytes()
        assert b"e-300" in fast and b"e+21" in fast
        assert fast == (tmp_path / "oracle.csv").read_bytes()

    def test_feedback_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="table"):
            policy_to_csv(MarkovPolicy(grid=TimeGrid(1.0, 2), kind="feedback"),
                          tmp_path / "p.csv")
