"""Fixed points of the best-response measure map by damped Picard iteration.

One application of the map: simulate reference paths, solve the optimality
BSDE against the input flow, which also accumulates the stochastic exponential
of the controlled drift, and re-estimate the conditional law under those
weights.  Every application reuses the same common random numbers, so every
iterate is a weight array on one fixed reference particle system and mixing
blends the weights.
Non-convergence is a reportable outcome, not an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bsde import (
    BasisSpec,
    BsdeSolution,
    MarkovPolicy,
    extract_control,
    pass_actions,
    solve_bsde,
    stacked_objective_influence,
)
from .flows import (ConditionalMeasureFlow, estimate_conditional_flow, flow_distance,
                    _flow_on_read)
from .girsanov import GirsanovWeights, paired_gap
from .problem import ProblemSpec
from .projection import MimickingReport, _check_projectable, mimicking_check, project_control
from .sde import (NoiseBundle, PathBundle, TimeGrid, generate_noise, simulate_driftless_state,
                  step_major)

__all__ = [
    "SolverConfig",
    "IterationRow",
    "IterationReport",
    "PhiResult",
    "EquilibriumResult",
    "initial_flow",
    "apply_phi",
    "next_damping",
    "solve_equilibrium",
    "exploitability",
]

_MIN_DAMPING = 1.0 / 64.0
_STALL_ROWS = 5   # consecutive non-decreasing residuals at one damping that halve it
_N_CONST = 9      # most constant deviation actions per axis of the exploitability family
_SHIFT = 0.1      # size of its shifted-policy deviations


@dataclass(frozen=True)
class SolverConfig:
    n_paths: int = 20000
    n_steps: int = 50
    n_bins: int = 16
    min_bin_count: int = 64
    basis_degree: int = 2
    damping: float = 0.5
    max_iters: int = 30
    tol: float = 0.05
    seed: int = 1
    partition_times: Optional[tuple] = None

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not 0 < self.tol < np.inf:
            raise ValueError("residual tolerance (config key 'tol') must be finite and > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # named as in a config file's [solver] section too; every reported
        # stderr is a sample standard deviation (ddof=1), so it needs two paths
        if self.n_paths < 2:
            raise ValueError("n_paths (config key 'paths') must be >= 2")
        if self.n_steps < 1:
            raise ValueError("n_steps (config key 'steps') must be >= 1")
        if self.basis_degree < 0:
            raise ValueError("basis_degree (config key 'degree') must be >= 0")
        if self.n_bins < 1:
            raise ValueError("n_bins (config key 'bins') must be >= 1")
        if self.min_bin_count < 1:
            raise ValueError("min_bin_count must be >= 1")
        if self.partition_times is not None:
            object.__setattr__(self, "partition_times",
                               tuple(float(t) for t in self.partition_times))

    def grid(self, spec: ProblemSpec) -> TimeGrid:
        return TimeGrid(horizon=spec.horizon, n_steps=self.n_steps)

    def basis(self) -> BasisSpec:
        return BasisSpec(degree=self.basis_degree)

    @property
    def eval_seed(self) -> int:
        """Seed of the evaluation noise that the mimicking check and exploitability draw."""
        return self.seed + 99_991


@dataclass
class IterationRow:
    iteration: int
    residual: float
    damping: float
    y0: float
    wall_ms: float


@dataclass
class IterationReport:
    rows: list = field(default_factory=list)
    status: str = "running"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class PhiResult:
    flow: ConditionalMeasureFlow
    solution: BsdeSolution

    @property
    def weights(self) -> GirsanovWeights:
        """Girsanov weights of the BSDE's control, with which ``flow`` was binned."""
        return self.solution.weights


@dataclass
class EquilibriumResult:
    flow: ConditionalMeasureFlow
    policy: Optional[MarkovPolicy]                 # feedback closure (representation a)
    solution: BsdeSolution                         # its ``weights`` bin the last application
    report: IterationReport
    projected_policy: Optional[MarkovPolicy] = None  # lookup table (representation b)
    mimicking: Optional[MimickingReport] = None
    eval_reference: Optional[tuple] = None           # ``_reference`` of the evaluation noise


def _evaluation_noise(spec: ProblemSpec, config: SolverConfig) -> NoiseBundle:
    return generate_noise(config.n_paths, config.grid(spec), config.eval_seed,
                          d_state=spec.d_state, d_common=spec.d_common)


def _reference(spec: ProblemSpec, config: SolverConfig,
               noise: Optional[NoiseBundle] = None):
    """(noise, driftless paths) of ``noise``, by default the config's seed's;
    ``dw0`` lives on only in the paths."""
    if noise is None:
        noise = generate_noise(config.n_paths, config.grid(spec), config.seed,
                               d_state=spec.d_state, d_common=spec.d_common)
    return replace(noise, dw0=None), simulate_driftless_state(spec, noise)


def _estimate_flow(config: SolverConfig, paths: PathBundle,
                   weights: Optional[GirsanovWeights],
                   on_read: bool = False) -> ConditionalMeasureFlow:
    """The config's flow of ``paths`` under ``weights``; with ``on_read`` each
    step is binned whenever it is read and not kept (``flows._flow_on_read``)."""
    estimate = _flow_on_read if on_read else estimate_conditional_flow
    return estimate(paths, weights, config.n_bins, partition_times=config.partition_times,
                    min_bin_count=config.min_bin_count)


def initial_flow(spec: ProblemSpec, config: SolverConfig,
                 paths: Optional[PathBundle] = None) -> ConditionalMeasureFlow:
    """Unit-weight conditional law of the driftless state; the iteration seed."""
    if paths is None:
        _, paths = _reference(spec, config)
    return _estimate_flow(config, paths, None)


def apply_phi(spec: ProblemSpec, m: Optional[ConditionalMeasureFlow], config: SolverConfig,
              reference: Optional[tuple] = None) -> PhiResult:
    """One application of the best-response map; bitwise deterministic per seed.

    The output flow is binned with the Girsanov weights of the BSDE's control,
    which the backward pass accumulates step by step (``solve_bsde(...,
    weights=True)``); no action array exists, and ``bsde.pass_actions`` gives
    any step's actions from the solution and ``m``.  ``m`` None maps the
    reference's unit-weight flow (``initial_flow``), each step of it binned
    when the pass reads it, so no step outlives its read.  Without
    ``reference`` the map simulates its own and frees its noise before the
    output is binned."""
    noise, paths = _reference(spec, config) if reference is None else reference
    if m is None:
        m = _estimate_flow(config, paths, None, on_read=True)
    solution = solve_bsde(spec, m, paths, noise, config.basis(), weights=True)
    del m, noise
    return PhiResult(flow=_estimate_flow(config, paths, solution.weights),
                     solution=solution)


def next_damping(rows: list, config: SolverConfig) -> tuple:
    """(status, damping) after the last of ``rows``: the Picard loop's stop rule.

    By precedence: a residual <= ``tol`` is ``converged``; five rows at the
    current damping whose residuals did not decrease (within 1e-15) from the
    row before halve it, and below 1/64 is ``aborted``; the ``max_iters``-th
    row is ``max_iters``; otherwise ``running``, mixing at the damping returned.
    """
    damping = rows[-1].damping
    if rows[-1].residual <= config.tol:
        return "converged", damping
    residuals = [np.inf] + [r.residual for r in rows]    # the first row follows an infinite one
    if len(rows) >= _STALL_ROWS and all(
            rows[-i].damping == damping and residuals[-i] >= residuals[-i - 1] - 1e-15
            for i in range(1, _STALL_ROWS + 1)):
        damping /= 2.0
        if damping < _MIN_DAMPING:
            return "aborted", damping
    if len(rows) >= config.max_iters:
        return "max_iters", damping
    return "running", damping


def solve_equilibrium(spec: ProblemSpec, config: SolverConfig,
                      project: bool = True) -> EquilibriumResult:
    """Damped Picard iteration on the measure map, then Markovian projection.

    The loop bootstraps with one map application, so a constant map converges
    at the first reported iteration with residual zero.  After each
    application ``next_damping`` reads the report's rows and names the status
    and the damping of the next mix, which is blended and binned one step at a
    time, dropping each step of the two flows it blends once read.  The
    returned flow's bundle holds no cached sort orders.  With ``project`` the
    result also holds the evaluation reference that ``exploitability`` takes.
    A spec the projection cannot hold is refused before the first application.
    """
    if project:
        _check_projectable(spec)
    reference = _reference(spec, config)
    report = IterationReport()
    damping = config.damping
    m = apply_phi(spec, None, config, reference).flow
    while report.status == "running":
        t0 = time.perf_counter()
        phi = apply_phi(spec, m, config, reference)
        residual = flow_distance(phi.flow, m)
        report.rows.append(IterationRow(iteration=len(report.rows) + 1, residual=residual,
                                        damping=damping, y0=phi.solution.y0,
                                        wall_ms=(time.perf_counter() - t0) * 1e3))
        report.status, damping = next_damping(report.rows, config)
        if report.status == "running":
            # the next application runs without this one's solution and its
            # log M; reweighted bins each step as its blend is formed, so no
            # (n, n_steps + 1) weight array exists, and the two flows blended
            # shrink as the new iterate grows
            phi.solution = None

            def blend(k):
                w = (1.0 - damping) * m.step_weights(k) + damping * phi.flow.step_weights(k)
                m.steps[k] = phi.flow.steps[k] = None
                return w

            m = m.reweighted(blend)
            del phi

    # m is the iterate the last application ran on, so (m, solution) is a
    # matched pair.  Nothing after the loop reads the reference noise or Φ(m),
    # and no flow is binned from the reference again, so its sort orders go too.
    solution, paths = phi.solution, reference[1]
    del phi, reference
    paths.forget_sort_orders()
    result = EquilibriumResult(flow=m, policy=extract_control(solution, spec, m),
                               solution=solution, report=report)
    if project:
        # the last application's actions, recomputed from its fit on m; the
        # array lives only for the projection
        actions = step_major(paths.n_paths, paths.grid.n_steps, spec.d_action)
        for k in range(paths.grid.n_steps):
            actions[:, k] = pass_actions(spec, solution, m, paths, k)
        table = project_control(spec, paths, actions, m, solution.weights, config.basis())
        del actions
        noise = _evaluation_noise(spec, config)
        result.projected_policy = table
        result.mimicking = mimicking_check(spec, (paths, solution.weights), table, m, noise)
        # exploitability scores on the evaluation noise's driftless paths,
        # which need no dW0 once simulated
        result.eval_reference = _reference(spec, config, noise)
    return result


def exploitability(spec: ProblemSpec, flow: ConditionalMeasureFlow, policy: MarkovPolicy,
                   config: SolverConfig, eval_reference: Optional[tuple] = None):
    """Objective gain available to a deviating agent, over a finite deviation family.

    Family: the policy itself, a fresh BSDE best response to the flow, constant
    policies on an action grid, and the policy shifted by +-0.1 (clamped).
    The grid spans the whole box with the largest per-axis count n <= 9
    whose n^d_action points number at most 81.  Evaluation uses the evaluation
    seed, independent of estimation noise: ``eval_reference``, the (noise
    without dW0, driftless paths) pair of ``_reference`` on that seed's noise,
    when the caller already holds it (``EquilibriumResult.eval_reference``),
    else one simulated here.  The best response's actions are recomputed one
    step at a time (``pass_actions``) as the scoring pass reads them.
    """
    noise, paths = (_reference(spec, config, _evaluation_noise(spec, config))
                    if eval_reference is None else eval_reference)
    if (noise.seed, noise.grid, noise.n_paths) != (config.eval_seed, config.grid(spec),
                                                   config.n_paths):
        raise ValueError("eval_reference was not drawn from the config's evaluation seed "
                         "and grid")

    br = solve_bsde(spec, flow, paths, noise, config.basis())
    n_axis = _N_CONST
    while n_axis > 1 and n_axis ** spec.d_action > 81:
        n_axis -= 1
    axes = [np.linspace(spec.action_lo[j], spec.action_hi[j], n_axis)
            for j in range(spec.d_action)]
    mesh = np.meshgrid(*axes, indexing="ij")
    consts = np.column_stack([g.ravel() for g in mesh])
    shifts = (-_SHIFT, _SHIFT)

    def step_actions(k):
        keys = paths.xc[:, flow.key_index(k), 0]
        a_pol = spec.clip_action(policy.actions(k, paths.x[:, k], paths.xc[:, k], keys))
        a_k = np.empty((2 + len(consts) + len(shifts), paths.n_paths, spec.d_action))
        a_k[0] = a_pol
        a_k[1] = pass_actions(spec, br, flow, paths, k)
        a_k[2:2 + len(consts)] = consts[:, None, :]
        for i, s in enumerate(shifts):
            a_k[2 + len(consts) + i] = spec.clip_action(a_pol + s)
        return a_k

    scores = stacked_objective_influence(spec, flow, step_actions, paths, noise)
    return paired_gap(scores[0], min(scores, key=lambda s: s[0]))   # first lowest; self wins a tie
