"""A ``mean_field`` spec's one coefficient call per step against the per-bin
loop that the same spec runs without the declaration: every result bitwise
equal, in current-value and partition conditioning."""

from dataclasses import replace

import numpy as np
import pytest

import cnmfg
import cnmfg.bsde as bsde_mod
from cnmfg.bsde import (BasisSpec, control_weights, extract_control, pass_actions, solve_bsde,
                        stacked_objective_influence)
from cnmfg.flows import estimate_conditional_flow
from cnmfg.problem import minimize_hamiltonian_batch
from cnmfg.projection import project_control
from cnmfg.sde import (TimeGrid, generate_noise, simulate_driftless_state, simulate_markov_sde,
                       step_major)

N_PATHS, N_STEPS = 3000, 12


def _bitwise(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.fixture(scope="module", params=[("lq", None), ("lq", (0.3, 0.6)),
                                        ("tanh", None), ("tanh", (0.3, 0.6))],
                ids=lambda p: f"{p[0]}-{'partition' if p[1] else 'current'}")
def case(request):
    """(declared spec, the same spec undeclared, noise, paths, a weighted flow)."""
    family, partition = request.param
    declared = cnmfg.make_instance(family)
    looped = replace(declared, mean_field=False)
    assert declared.mean_field and not looped.mean_field
    assert looped.argmin_action is declared.argmin_action
    noise = generate_noise(N_PATHS, TimeGrid(declared.horizon, N_STEPS), 9, 1, 1)
    paths = simulate_driftless_state(declared, noise)
    # bins of unequal mass, as in the Picard loop: the flow of a BSDE control
    unit = estimate_conditional_flow(paths, None, 8, partition_times=partition)
    weights = solve_bsde(looped, unit, paths, noise, BasisSpec(degree=2), weights=True).weights
    flow = estimate_conditional_flow(paths, weights, 8, partition_times=partition)
    return declared, looped, noise, paths, flow


def _both(case, run):
    declared, looped, *rest = case
    return run(declared, *rest), run(looped, *rest)


def test_solve_bsde(case):
    def run(spec, noise, paths, flow):
        return solve_bsde(spec, flow, paths, noise, BasisSpec(degree=2), weights=True)

    got, want = _both(case, run)
    _bitwise(got.z_coef, want.z_coef)
    _bitwise(got.residual_var, want.residual_var)
    assert (got.y0, got.y0_stderr) == (want.y0, want.y0_stderr)
    _bitwise(got.weights.log_m, want.weights.log_m)


def test_one_minimization_per_step(case, monkeypatch):
    declared, looped, noise, paths, flow = case
    calls = []

    def counting(spec, t, x, mu, z):
        calls.append(x.shape[0])
        return minimize_hamiltonian_batch(spec, t, x, mu, z)

    monkeypatch.setattr(bsde_mod, "minimize_hamiltonian_batch", counting)
    solve_bsde(declared, flow, paths, noise, BasisSpec(degree=2))
    assert calls == [N_PATHS] * N_STEPS
    calls.clear()
    solve_bsde(looped, flow, paths, noise, BasisSpec(degree=2))
    assert len(calls) > N_STEPS and sum(calls) == N_PATHS * N_STEPS


def test_actions_and_policies(case):
    declared, looped, noise, paths, flow = case
    other = simulate_driftless_state(declared, generate_noise(2000, paths.grid, 10, 1, 1))
    sol = solve_bsde(declared, flow, paths, noise, BasisSpec(degree=2), weights=True)

    def run(spec, noise, paths, flow):
        actions = step_major(N_PATHS, N_STEPS, 1)
        for k in range(N_STEPS):
            actions[:, k] = pass_actions(spec, sol, flow, paths, k)
        table = project_control(spec, paths, actions, flow, sol.weights, BasisSpec(degree=2))
        out = [actions, table.tables]
        for policy in (extract_control(sol, spec, flow), table):
            for k in range(N_STEPS):
                # keys of another bundle, some beyond every bin edge
                keys = flow.keys(k, other.xc) * np.linspace(0.0, 3.0, other.n_paths)
                out.append(policy.actions(k, other.x[:, k], other.xc[:, k], keys))
            fresh = generate_noise(2000, paths.grid, 11, 1, 1)
            out.append(simulate_markov_sde(spec, policy, flow, fresh).x)
        return out

    for got, want in zip(*_both(case, run)):
        _bitwise(got, want)


def test_control_weights_and_stacked_scoring(case):
    controls = np.random.default_rng(4).uniform(-1.5, 1.5, size=(3, N_PATHS, N_STEPS, 1))

    def run(spec, noise, paths, flow):
        log_m = control_weights(spec, flow, controls[0], paths, noise).log_m
        return log_m, stacked_objective_influence(spec, flow, lambda k: controls[:, :, k],
                                                  paths, noise)

    (got_m, got), (want_m, want) = _both(case, run)
    _bitwise(got_m, want_m)
    for (est, se, infl), (est1, se1, infl1) in zip(got, want):
        assert (est, se) == (est1, se1)
        _bitwise(infl, infl1)


def test_terminal_cost_returning_a_view_leaves_the_paths(case):
    # the value fit writes y_next in place; a per-row terminal value that is
    # a view of paths.x must come back as a copy
    declared, looped, noise, paths, flow = case
    spec = replace(declared, terminal_cost=lambda x, mu: x[:, 0], mean_field=True)
    assert spec.mean_field
    before = paths.x.copy()
    got = solve_bsde(spec, flow, paths, noise, BasisSpec(degree=2))
    _bitwise(paths.x, before)
    want = solve_bsde(replace(spec, mean_field=False), flow, paths, noise, BasisSpec(degree=2))
    assert (got.y0, got.y0_stderr) == (want.y0, want.y0_stderr)


def _two_action_spec():
    """A declared spec with two coupled action axes and no argmin hook, so the
    Hamiltonian is minimized by the box search's coordinate sweeps."""
    w = 1.5

    def drift(t, x, mu, a):
        return a[:, :1] + 0.5 * a[:, 1:]

    def running_cost(t, x, mu, a):
        dev = x[:, 0] - w * mu.mean[0]
        return 0.5 * a[:, 0] ** 2 + 0.4 * a[:, 0] * a[:, 1] + 0.5 * a[:, 1] ** 2 + dev ** 2

    def terminal_cost(x, mu):
        return 0.5 * (x[:, 0] - w * mu.mean[0]) ** 2

    return replace(cnmfg.make_instance("lq"), action_lo=[-1.0, -1.0],
                   action_hi=[1.0, 1.0], drift_bound=1.5, drift=drift,
                   running_cost=running_cost, terminal_cost=terminal_cost,
                   argmin_action=None, invert_drift=None, mean_field=True)


def test_two_coupled_action_axes():
    # every batch runs the same coordinate sweeps, so one whole-step batch and
    # one batch per bin give each row the same action
    declared = _two_action_spec()
    looped = replace(declared, mean_field=False)
    assert declared.mean_field and declared.argmin_action is None and not looped.mean_field
    n_paths, n_steps = 600, 4
    noise = generate_noise(n_paths, TimeGrid(declared.horizon, n_steps), 12, 1, 1)
    paths = simulate_driftless_state(declared, noise)
    flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
    sols = [solve_bsde(s, flow, paths, noise, BasisSpec(degree=2), weights=True)
            for s in (declared, looped)]
    _bitwise(sols[0].z_coef, sols[1].z_coef)
    _bitwise(sols[0].weights.log_m, sols[1].weights.log_m)
    assert (sols[0].y0, sols[0].y0_stderr) == (sols[1].y0, sols[1].y0_stderr)
    for k in range(n_steps):
        got, want = (pass_actions(s, sols[0], flow, paths, k) for s in (declared, looped))
        assert got.shape == (n_paths, 2)
        _bitwise(got, want)
