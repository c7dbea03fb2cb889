"""Per-step arrays are stored step-major: ``a[:, k]`` is one contiguous block.

Every layer reads the particle system one time step at a time, so each array
below keeps its logical (n_paths, n_steps[+1], ...) shape but must give a
C-contiguous ``[:, k]``.
"""

import numpy as np
import pytest

import cnmfg.equilibrium as equilibrium_mod
from cnmfg.bsde import BasisSpec, extract_control, pass_actions, solve_bsde
from cnmfg.equilibrium import SolverConfig, solve_equilibrium
from cnmfg.flows import estimate_conditional_flow
from cnmfg.girsanov import stochastic_exponential
from cnmfg.sde import (
    TimeGrid,
    generate_noise,
    simulate_driftless_state,
    simulate_markov_sde,
    step_major,
)

N, STEPS = 700, 8


def _assert_step_major(arr, shape):
    assert arr.shape == shape
    for k in (0, 1, shape[1] - 1):
        assert arr[:, k].flags.c_contiguous, k


def test_step_major_helper():
    a = step_major(5, 3, 2, dtype=np.int32)
    _assert_step_major(a, (5, 3, 2))
    assert a.dtype == np.int32 and not a.any()
    _assert_step_major(step_major(5, 3), (5, 3))


@pytest.fixture(scope="module")
def layers(lq_spec):
    grid = TimeGrid(lq_spec.horizon, STEPS)
    noise = generate_noise(N, grid, 3, 1, 1)
    paths = simulate_driftless_state(lq_spec, noise)
    flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
    solution = solve_bsde(lq_spec, flow, paths, noise, BasisSpec(degree=2), weights=True)
    weights = stochastic_exponential(lq_spec, np.clip(0.5 * paths.x[:, :-1], -1, 1), noise)
    return grid, noise, paths, flow, solution, weights


def test_noise_with_two_state_coordinates():
    noise = generate_noise(N, TimeGrid(1.0, STEPS), 4, d_state=2, d_common=1)
    _assert_step_major(noise.dw, (N, STEPS, 2))
    _assert_step_major(noise.dw0, (N, STEPS, 1))


def test_simulators_and_orders(lq_spec, layers):
    grid, noise, paths, flow, solution, _ = layers
    _assert_step_major(noise.dw, (N, STEPS, 1))
    _assert_step_major(noise.dw0, (N, STEPS, 1))
    policy = extract_control(solution, lq_spec, flow)
    for bundle in (paths, simulate_markov_sde(lq_spec, policy, flow, noise)):
        _assert_step_major(bundle.x, (N, STEPS + 1, 1))
        _assert_step_major(bundle.xc, (N, STEPS + 1, 1))
        _assert_step_major(bundle.key_order, (N, STEPS + 1))
        _assert_step_major(bundle.state_order, (N, STEPS + 1))


def test_weights_and_flows(layers):
    _, _, paths, flow, solution, weights = layers
    _assert_step_major(weights.log_m, (N, STEPS + 1))
    _assert_step_major(solution.weights.log_m, (N, STEPS + 1))
    _assert_step_major(np.exp(weights.log_m), (N, STEPS + 1))
    _assert_step_major(flow.src_w, (N, STEPS + 1))
    weighted = estimate_conditional_flow(paths, weights, 4, min_bin_count=32)
    _assert_step_major(weighted.src_w, (N, STEPS + 1))
    blended = 0.5 * flow.src_w + 0.5 * weighted.src_w
    mixed = flow.reweighted(lambda k: blended[:, k])
    _assert_step_major(mixed.src_w, (N, STEPS + 1))


def test_controls(lq_spec, layers, monkeypatch):
    _, _, paths, flow, solution, _ = layers
    for k in (0, 1, STEPS - 1):
        a_k = pass_actions(lq_spec, solution, flow, paths, k)
        assert a_k.shape == (N, 1) and a_k.flags.c_contiguous
    # the action array solve_equilibrium builds for the projection
    projected = []
    project_control = equilibrium_mod.project_control

    def recording(spec, paths, actions, *args):
        _assert_step_major(actions, (N, STEPS, 1))
        projected.append(actions.dtype)
        return project_control(spec, paths, actions, *args)

    monkeypatch.setattr(equilibrium_mod, "project_control", recording)
    cfg = SolverConfig(n_paths=N, n_steps=STEPS, n_bins=4, min_bin_count=32, max_iters=1)
    solve_equilibrium(lq_spec, cfg)
    assert projected == [np.float64]
