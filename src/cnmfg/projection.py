"""Markovian projection of admissible controls.

The drift of an arbitrary adapted control is regressed onto the current
(state, conditioning key) pair under the controlled measure, then inverted
back to an action at every cell of a rectangular lookup grid: in closed form
through the spec's ``invert_drift`` hook, clipped to the action box, or by the
generic box search on the squared drift gap without one.  The resulting
Markovian policy preserves time-t marginal laws up to Monte Carlo error, which
``mimicking_check`` quantifies, and never costs more than the original control
(``project_cost_gap``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import (BasisSpec, MarkovPolicy, stacked_objective_influence, _RIDGE,
                   _ridge_factor, _ridge_solve)
from .flows import ConditionalMeasureFlow, EmpiricalMeasure, lp_transport
from .girsanov import GirsanovWeights, paired_gap
from .problem import ProblemSpec, box_minimize_batch
from .sde import NoiseBundle, PathBundle, simulate_markov_sde, step_major

__all__ = [
    "project_control",
    "mimicking_check",
    "project_cost_gap",
    "lagged_noise_control",
    "MimickingReport",
]

_N_X = 41               # state points per step of the lookup table
_N_KEY = 41             # conditioning-key points per step of the lookup table
_SPAN_SIGMAS = 3.0      # table axes span the weighted mean +- this many deviations
_MAX_FLAGGED = 0.01     # largest tolerated fraction of failed drift inversions
_INVERSION_TOL = 1e-6   # drift gap above which an interior cell's inversion failed


def lagged_noise_control(spec: ProblemSpec, noise: NoiseBundle) -> np.ndarray:
    """Path-dependent probe control: the driving noise at half the current time, clamped.

    Genuinely non-Markovian in (state, common state); the canonical input for
    exercising the projection.
    """
    n = noise.n_paths
    w_path = step_major(n, noise.grid.n_steps + 1, noise.dw.shape[2])
    np.cumsum(noise.dw, axis=1, out=w_path[:, 1:])
    out = step_major(n, noise.grid.n_steps, spec.d_action)
    for k in range(noise.grid.n_steps):
        vals = w_path[:, k // 2, : spec.d_action]
        out[:, k] = np.clip(vals, spec.action_lo, spec.action_hi)
    return out


def _weighted_span(values: np.ndarray, weights: np.ndarray, n_points: int):
    w = weights / weights.sum()
    mean = float(w @ values)
    var = float(w @ (values - mean) ** 2)
    half = _SPAN_SIGMAS * np.sqrt(max(var, 1e-12))
    return np.linspace(mean - half, mean + half, n_points)


def _check_projectable(spec: ProblemSpec) -> None:
    """Raises unless the lookup table can hold ``spec``'s policy: a 1-d state and key."""
    if spec.d_state != 1 or spec.d_common != 1:
        raise NotImplementedError("lookup-table projection requires 1-d state and key")


def project_control(spec: ProblemSpec, paths: PathBundle, action_samples: np.ndarray,
                    flow: ConditionalMeasureFlow, weights: GirsanovWeights,
                    basis: BasisSpec) -> MarkovPolicy:
    """Project an adapted control onto (state, key) and rebuild it as a table.

    The drift is regressed (not the action): the conditional-drift identity is
    stated for the drift, and averaging actions directly would be wrong for
    drifts that are nonlinear in the action.  Inversion failures at cells whose
    best action is strictly interior signal a non-convex drift image or basis
    underfit; more than 1% of such cells aborts.
    """
    _check_projectable(spec)
    grid = paths.grid
    n = paths.n_paths
    n_steps = grid.n_steps
    a = np.asarray(action_samples, float)
    if a.shape[:2] != (n, n_steps):
        raise ValueError("action_samples misaligned with paths")

    fitted = basis.fit_stats(paths)
    x_axes = np.empty((n_steps, _N_X))
    key_axes = np.empty((n_steps, _N_KEY))
    tables = np.empty((n_steps, _N_X, _N_KEY, spec.d_action))
    flagged = 0
    worst = (0.0, -1)

    for k in range(n_steps):
        keys = paths.xc[:, flow.key_index(k), 0]
        t_k = grid.times[k]
        w_k = weights.scaled(k)

        drift_vals = flow.per_bin(k, paths, lambda mu, xs, acts: np.asarray(
            spec.drift(t_k, xs, mu, acts), float), paths.x[:, k], a[:, k],
            mean_only=spec.mean_field)

        feats = fitted.features(k, paths.x[:, k], keys[:, None])
        factor = _ridge_factor(feats, _RIDGE, sample_w=w_k)
        coef = _ridge_solve(factor, feats, drift_vals, sample_w=w_k)

        x_axes[k] = _weighted_span(paths.x[:, k, 0], w_k, _N_X)
        key_axes[k] = _weighted_span(keys, np.ones(n), _N_KEY)

        cell_x, cell_key = np.meshgrid(x_axes[k], key_axes[k], indexing="ij")
        cell_x = cell_x.ravel()
        cell_key = cell_key.ravel()
        cell_feats = fitted.features(k, cell_x[:, None], cell_key[:, None])
        b_hat = cell_feats @ coef

        def invert(mu, xs, target):
            def gap(actions):
                bval = np.asarray(spec.drift(t_k, xs, mu, actions), float)
                return np.sum((bval - target) ** 2, axis=1)

            if spec.invert_drift is None:
                return box_minimize_batch(gap, spec.action_lo, spec.action_hi, xs.shape[0])
            acts = np.asarray(spec.invert_drift(t_k, xs, mu, target), float)
            acts = spec.clip_action(acts.reshape(xs.shape[0], spec.d_action))
            return acts, gap(acts)

        cell_actions, val = flow.per_bin(k, cell_key, invert, cell_x[:, None], b_hat,
                                         mean_only=spec.mean_field)
        cell_resid = np.sqrt(np.maximum(val, 0.0))

        margin = 1e-9 * np.maximum(spec.action_hi - spec.action_lo, 1.0)
        interior = np.all((cell_actions > spec.action_lo + margin)
                          & (cell_actions < spec.action_hi - margin), axis=1)
        bad = (cell_resid > _INVERSION_TOL) & interior
        flagged += int(np.count_nonzero(bad))
        if np.any(bad):
            worst = max(worst, (float(cell_resid[bad].max()), k), key=lambda w: w[0])
        tables[k] = cell_actions.reshape(_N_X, _N_KEY, spec.d_action)

    frac = flagged / tables[..., 0].size
    if frac > _MAX_FLAGGED:
        raise RuntimeError(
            f"drift inversion failed on {frac:.2%} of cells "
            f"(worst residual {worst[0]:.3g} at step {worst[1]}); "
            "non-convex drift image or basis underfit")
    return MarkovPolicy(grid=grid, kind="table", spec=spec, flow=flow,
                        x_axes=x_axes, key_axes=key_axes, tables=tables,
                        label="projected")


@dataclass
class MimickingReport:
    steps: np.ndarray
    w1: np.ndarray
    max_w1: float
    mean_w1: float
    clamp_count: int


def mimicking_check(spec: ProblemSpec, original: tuple, policy: MarkovPolicy,
                    flow: ConditionalMeasureFlow, fresh_noise: NoiseBundle,
                    checked_steps=None) -> MimickingReport:
    """Per-step transport distance between weighted original and re-solved marginals.

    The Markovian SDE is simulated with independent noise; at each retained
    step the 2-d joint (state, common state) laws are compared by exact
    transport, which ``lp_transport`` runs on stratified subsamples.
    """
    paths, weights = original
    grid = paths.grid
    if checked_steps is None:
        stride = max(1, grid.n_steps // 10)
        checked_steps = list(range(stride, grid.n_steps + 1, stride))
        if checked_steps[-1] != grid.n_steps:
            checked_steps.append(grid.n_steps)
    new_paths = simulate_markov_sde(spec, policy, flow, fresh_noise)
    vals = []
    for k in checked_steps:
        joint_a = np.column_stack([paths.x[:, k, 0], paths.xc[:, k, 0]])
        joint_b = np.column_stack([new_paths.x[:, k, 0], new_paths.xc[:, k, 0]])
        vals.append(lp_transport(EmpiricalMeasure(joint_a, weights.scaled(k)),
                                 EmpiricalMeasure(joint_b), q=1.0))
    vals = np.asarray(vals)
    return MimickingReport(steps=np.asarray(checked_steps), w1=vals,
                           max_w1=float(vals.max()), mean_w1=float(vals.mean()),
                           clamp_count=new_paths.clamp_count)


def project_cost_gap(spec: ProblemSpec, paths: PathBundle, action_samples: np.ndarray,
                     policy: MarkovPolicy, flow: ConditionalMeasureFlow, noise: NoiseBundle):
    """J(original) - J(markovian) with a paired standard error; >= 0 up to noise.

    Both controls are scored in one stacked pass, each under its own weights;
    the policy's actions are evaluated one step at a time, as the pass needs them.
    """
    original = np.asarray(action_samples, float)

    def step_actions(k):
        keys = paths.xc[:, flow.key_index(k), 0]
        markov = spec.clip_action(policy.actions(k, paths.x[:, k], paths.xc[:, k], keys))
        return np.stack([original[:, k], markov])

    return paired_gap(*stacked_objective_influence(spec, flow, step_actions, paths, noise))
