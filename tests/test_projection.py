from dataclasses import replace

import numpy as np
import pytest

import cnmfg
import cnmfg.projection as projection_mod
from cnmfg.bsde import BasisSpec, control_weights
from cnmfg.equilibrium import SolverConfig, initial_flow
from cnmfg.flows import estimate_conditional_flow
from cnmfg.projection import (
    lagged_noise_control,
    mimicking_check,
    project_control,
    project_cost_gap,
)
from cnmfg.sde import generate_noise, simulate_driftless_state


@pytest.fixture(scope="module")
def setup(lq_spec):
    cfg = SolverConfig(seed=31, n_paths=10_000)
    grid = cfg.grid(lq_spec)
    noise = generate_noise(cfg.n_paths, grid, cfg.seed, 1, 1)
    paths = simulate_driftless_state(lq_spec, noise)
    flow = initial_flow(lq_spec, cfg, paths)
    fresh = generate_noise(cfg.n_paths, grid, cfg.eval_seed, 1, 1)
    return cfg, grid, noise, paths, flow, fresh,


def _affine_markov_actions(paths):
    # in the feature span of degree >= 1 and never clipped on 3-sigma cells
    return 0.15 * paths.x[:, :-1, :] + 0.05 * paths.xc[:, :-1, :] - 0.02


class TestProjectControl:
    def test_affine_control_recovered_on_cells(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        actions = _affine_markov_actions(paths)
        w = control_weights(lq_spec, flow, actions, paths, noise)
        policy = project_control(lq_spec, paths, actions, flow, w, BasisSpec(degree=2))
        worst = 0.0
        for k in (0, 20, 40):
            xg = policy.x_axes[k]
            kg = policy.key_axes[k]
            cell_x, cell_k = np.meshgrid(xg, kg, indexing="ij")
            want = 0.15 * cell_x + 0.05 * cell_k - 0.02
            got = policy.tables[k][:, :, 0]
            inside = np.abs(want) <= 0.999
            worst = max(worst, np.abs(got - want)[inside].max())
        assert worst <= 1e-3

    def test_constant_control_recovered(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        actions = np.full((paths.n_paths, grid.n_steps, 1), 0.4)
        w = control_weights(lq_spec, flow, actions, paths, noise)
        policy = project_control(lq_spec, paths, actions, flow, w, BasisSpec(degree=2))
        assert np.abs(policy.tables - 0.4).max() <= 1e-3

    def test_inversion_abort_machinery(self, lq_spec, setup, monkeypatch):
        cfg, grid, noise, paths, flow, fresh = setup
        actions = _affine_markov_actions(paths)
        # impossible tolerance: every interior-argmin cell flags
        monkeypatch.setattr(projection_mod, "_INVERSION_TOL", -1.0)
        # the closed-form inverse and the box-search fallback
        for spec in (lq_spec, replace(lq_spec, invert_drift=None)):
            w = control_weights(spec, flow, actions, paths, noise)
            with pytest.raises(RuntimeError, match="drift inversion failed"):
                project_control(spec, paths, actions, flow, w, BasisSpec(degree=2))

    def test_residual_comes_from_the_drift_not_the_hook(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        # a hook that inverts a, not the drift 2a: interior cells keep a residual |target|
        spec = replace(lq_spec, drift=lambda t, x, mu, a: 2.0 * a,
                       invert_drift=lambda t, x, mu, target: target)
        actions = _affine_markov_actions(paths)
        w = control_weights(spec, flow, actions, paths, noise)
        with pytest.raises(RuntimeError, match="drift inversion failed"):
            project_control(spec, paths, actions, flow, w, BasisSpec(degree=2))

    def test_closed_form_inverse_matches_box_search(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        fallback = replace(lq_spec, invert_drift=None)
        assert lq_spec.invert_drift is not None and fallback.invert_drift is None
        actions = lagged_noise_control(lq_spec, noise)     # clips on part of the cells
        w = control_weights(lq_spec, flow, actions, paths, noise)
        hook = project_control(lq_spec, paths, actions, flow, w, BasisSpec(degree=2))
        box = project_control(fallback, paths, actions, flow, w, BasisSpec(degree=2))
        np.testing.assert_array_equal(hook.x_axes, box.x_axes)
        np.testing.assert_array_equal(hook.key_axes, box.key_axes)
        assert np.any(hook.tables == lq_spec.action_lo) and np.any(hook.tables == lq_spec.action_hi)
        assert np.max(np.abs(hook.tables - box.tables)) <= 1e-7


class TestMimicking:
    def test_markov_baseline_and_path_dependent_ratio(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        basis = BasisSpec(degree=2)

        a_mk = _affine_markov_actions(paths)
        w_mk = control_weights(lq_spec, flow, a_mk, paths, noise)
        pol_mk = project_control(lq_spec, paths, a_mk, flow, w_mk, basis)
        rep_mk = mimicking_check(lq_spec, (paths, w_mk), pol_mk, flow, fresh,
                                 checked_steps=(10, 30, 50))
        assert rep_mk.clamp_count == 0

        a_pd = lagged_noise_control(lq_spec, noise)
        w_pd = control_weights(lq_spec, flow, a_pd, paths, noise)
        pol_pd = project_control(lq_spec, paths, a_pd, flow, w_pd, basis)
        rep_pd = mimicking_check(lq_spec, (paths, w_pd), pol_pd, flow, fresh,
                                 checked_steps=(10, 30, 50))
        # subsampling-noise floor dominates both; the path-dependent control
        # must stay within twice the Markovian baseline
        assert rep_pd.max_w1 <= 2.0 * rep_mk.max_w1

    def test_zero_drift_both_sides_identical_law(self, setup):
        spec = cnmfg.make_instance("lq")
        cfg, grid, noise, paths, flow, fresh = setup
        actions = np.zeros((paths.n_paths, grid.n_steps, 1))
        w = control_weights(spec, flow, actions, paths, noise)
        policy = project_control(spec, paths, actions, flow, w, BasisSpec(degree=2))
        rep = mimicking_check(spec, (paths, w), policy, flow, fresh,
                              checked_steps=(25, 50))
        # identical laws; the report sits at the two-sample subsampling floor
        assert rep.max_w1 <= 0.35


class TestCostGap:
    def test_affine_markov_gap_zero(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        actions = _affine_markov_actions(paths)
        w = control_weights(lq_spec, flow, actions, paths, noise)
        policy = project_control(lq_spec, paths, actions, flow, w, BasisSpec(degree=2))
        gap, se = project_cost_gap(lq_spec, paths, actions, policy, flow, noise)
        assert abs(gap) <= 3 * se + 1e-3

    def test_constant_control_gap_zero(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        actions = np.full((paths.n_paths, grid.n_steps, 1), 0.4)
        w = control_weights(lq_spec, flow, actions, paths, noise)
        policy = project_control(lq_spec, paths, actions, flow, w, BasisSpec(degree=2))
        gap, se = project_cost_gap(lq_spec, paths, actions, policy, flow, noise)
        assert abs(gap) <= 3 * se + 1e-3

    def test_path_dependent_gap_nonnegative(self, lq_spec, setup):
        cfg, grid, noise, paths, flow, fresh = setup
        actions = lagged_noise_control(lq_spec, noise)
        w = control_weights(lq_spec, flow, actions, paths, noise)
        policy = project_control(lq_spec, paths, actions, flow, w, BasisSpec(degree=2))
        gap, se = project_cost_gap(lq_spec, paths, actions, policy, flow, noise)
        assert gap >= -3 * se


def test_consumers_leave_only_log_weights_on_the_weights(lq_spec, setup):
    cfg, grid, noise, paths, flow, fresh = setup
    actions = _affine_markov_actions(paths)
    w = control_weights(lq_spec, flow, actions, paths, noise)
    estimate_conditional_flow(paths, w, cfg.n_bins)
    policy = project_control(lq_spec, paths, actions, flow, w, BasisSpec(degree=2))
    mimicking_check(lq_spec, (paths, w), policy, flow, fresh, checked_steps=[grid.n_steps])
    assert set(vars(w)) == {"grid", "log_m"}
