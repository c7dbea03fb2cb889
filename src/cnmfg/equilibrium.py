"""Fixed points of the best-response measure map by damped Picard iteration.

One application of the map: simulate reference paths, solve the optimality
BSDE against the input flow, reweight by the stochastic exponential of the
controlled drift, re-estimate the conditional law.  Iterates are mixed by
particle pooling (the same common random numbers are reused each application,
so mixing is exact weight blending).  Non-convergence is a reportable outcome,
not an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bsde import (
    BasisSpec,
    BsdeSolution,
    MarkovPolicy,
    extract_control,
    solve_bsde,
    stacked_objective_influence,
)
from .flows import ConditionalMeasureFlow, estimate_conditional_flow, flow_distance, mix_flows
from .girsanov import GirsanovWeights, stochastic_exponential
from .problem import ProblemSpec
from .projection import MimickingReport, mimicking_check, project_control
from .sde import NoiseBundle, PathBundle, TimeGrid, generate_noise, simulate_driftless_state

__all__ = [
    "SolverConfig",
    "IterationRow",
    "IterationReport",
    "PhiResult",
    "EquilibriumResult",
    "initial_flow",
    "apply_phi",
    "solve_equilibrium",
    "exploitability",
]

_MIN_DAMPING = 1.0 / 64.0


@dataclass(frozen=True)
class SolverConfig:
    n_paths: int = 20000
    n_steps: int = 50
    n_bins: int = 16
    min_bin_count: int = 64
    basis_degree: int = 2
    ridge: float = 1e-8
    damping: float = 0.5
    max_iters: int = 30
    tol: float = 0.05
    flow_order: float = 2.0
    seed: int = 1
    eval_seed: Optional[int] = None
    partition_times: Optional[tuple] = None
    retained_eval_paths: int = 2048

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("residual tolerance must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.eval_seed is None:
            object.__setattr__(self, "eval_seed", self.seed + 99_991)
        if self.partition_times is not None:
            object.__setattr__(self, "partition_times",
                               tuple(float(t) for t in self.partition_times))

    def grid(self, spec: ProblemSpec) -> TimeGrid:
        return TimeGrid(horizon=spec.horizon, n_steps=self.n_steps)

    def basis(self) -> BasisSpec:
        return BasisSpec(degree=self.basis_degree, ridge=self.ridge)

    @property
    def mode(self) -> str:
        return "current" if self.partition_times is None else "partition"


@dataclass
class IterationRow:
    iteration: int
    residual: float
    damping: float
    y0: float
    wall_ms: float
    exploitability: Optional[float] = None


@dataclass
class IterationReport:
    rows: list = field(default_factory=list)
    status: str = "running"

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def residuals(self) -> np.ndarray:
        return np.asarray([r.residual for r in self.rows])


@dataclass
class PhiResult:
    flow: ConditionalMeasureFlow
    solution: BsdeSolution
    weights: GirsanovWeights
    paths: PathBundle
    noise: NoiseBundle


@dataclass
class EquilibriumResult:
    flow: ConditionalMeasureFlow
    policy: Optional[MarkovPolicy]                 # feedback closure (representation a)
    solution: BsdeSolution
    weights: GirsanovWeights
    paths: PathBundle
    report: IterationReport
    projected_policy: Optional[MarkovPolicy] = None  # lookup table (representation b)
    mimicking: Optional[MimickingReport] = None


def _reference(spec: ProblemSpec, config: SolverConfig):
    grid = config.grid(spec)
    noise = generate_noise(config.n_paths, grid, config.seed,
                           d_state=spec.d_state, d_common=spec.d_common)
    paths = simulate_driftless_state(spec, noise)
    return noise, paths


def initial_flow(spec: ProblemSpec, config: SolverConfig,
                 paths: Optional[PathBundle] = None) -> ConditionalMeasureFlow:
    """Unit-weight conditional law of the driftless state; the iteration seed."""
    if paths is None:
        _, paths = _reference(spec, config)
    return estimate_conditional_flow(
        paths, None, config.n_bins, mode=config.mode,
        partition_times=config.partition_times, min_bin_count=config.min_bin_count,
        flow_p=spec.p, retained=config.retained_eval_paths)


def apply_phi(spec: ProblemSpec, m: ConditionalMeasureFlow, config: SolverConfig,
              reference: Optional[tuple] = None) -> PhiResult:
    """One application of the best-response map; bitwise deterministic per seed."""
    if reference is None:
        noise, paths = _reference(spec, config)
    else:
        noise, paths = reference
    solution = solve_bsde(spec, m, paths, noise, config.basis(), store_actions=True)
    actions = solution.control_samples
    n = paths.n_paths
    lam = np.empty((n, config.n_steps, spec.d_state))
    sig_inv_t = spec.sigma_inv.T
    for k in range(config.n_steps):
        perm, groups = m.groups(k, paths.xc[:, m.key_index(k), 0])
        x_g, a_g = paths.x[perm, k], actions[perm, k]
        lam_g = np.empty((n, spec.d_state))
        t_k = paths.grid.times[k]
        for b, lo, hi in groups:
            lam_g[lo:hi] = np.asarray(
                spec.drift(t_k, x_g[lo:hi], m.summary(k, b), a_g[lo:hi]), float) @ sig_inv_t
        lam[perm, k] = lam_g
    weights = stochastic_exponential(spec, lam, noise)
    m_next = estimate_conditional_flow(
        paths, weights, config.n_bins, mode=config.mode,
        partition_times=config.partition_times, min_bin_count=config.min_bin_count,
        flow_p=spec.p, retained=config.retained_eval_paths)
    return PhiResult(flow=m_next, solution=solution, weights=weights,
                     paths=paths, noise=noise)


def solve_equilibrium(spec: ProblemSpec, config: SolverConfig,
                      project: bool = True) -> EquilibriumResult:
    """Damped Picard iteration on the measure map, then Markovian projection.

    The loop bootstraps with one map application, so a constant map converges
    at the first reported iteration with residual zero.  Five consecutive
    non-decreasing residuals halve the damping; damping below 1/64 aborts.
    """
    reference = _reference(spec, config)
    report = IterationReport()
    damping = config.damping
    m = apply_phi(spec, initial_flow(spec, config, reference[1]), config, reference).flow

    final: Optional[PhiResult] = None
    m_star = m
    stall = 0
    prev_residual = np.inf
    for it in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        phi = apply_phi(spec, m, config, reference)
        residual = flow_distance(phi.flow, m, config.flow_order)
        wall_ms = (time.perf_counter() - t0) * 1e3
        report.rows.append(IterationRow(iteration=it, residual=residual,
                                        damping=damping, y0=phi.solution.y0,
                                        wall_ms=wall_ms))
        final = phi
        m_star = m
        if residual <= config.tol:
            report.status = "converged"
            break
        if residual >= prev_residual - 1e-15:
            stall += 1
        else:
            stall = 0
        if stall >= 5:
            damping = damping / 2.0
            stall = 0
            if damping < _MIN_DAMPING:
                report.status = "aborted"
                break
        prev_residual = residual
        m = mix_flows(m, phi.flow, damping)
    else:
        report.status = "max_iters"

    result = EquilibriumResult(flow=m_star, policy=None, solution=final.solution,
                               weights=final.weights, paths=final.paths, report=report)
    result.policy = extract_control(final.solution, spec, m_star)
    if project:
        table = project_control(spec, final.paths, final.solution.control_samples,
                                m_star, final.weights, config.basis())
        fresh = generate_noise(config.n_paths, config.grid(spec), config.eval_seed,
                               d_state=spec.d_state, d_common=spec.d_common)
        result.projected_policy = table
        result.mimicking = mimicking_check(spec, (final.paths, final.weights),
                                           table, m_star, fresh)
    return result


def _policy_actions_along(policy: MarkovPolicy, flow: ConditionalMeasureFlow,
                          paths: PathBundle, d_action: int) -> np.ndarray:
    n_steps = paths.grid.n_steps
    out = np.empty((paths.n_paths, n_steps, d_action))
    for k in range(n_steps):
        keys = paths.xc[:, flow.key_index(k), 0]
        out[:, k] = policy.actions(k, paths.x[:, k], paths.xc[:, k], keys)
    return out


def exploitability(spec: ProblemSpec, flow: ConditionalMeasureFlow, policy: MarkovPolicy,
                   config: SolverConfig, n_const: int = 9, delta: float = 0.1):
    """Objective gain available to a deviating agent, over a finite deviation family.

    Family: the policy itself, a fresh BSDE best response to the flow, constant
    policies on an action grid, and the policy shifted by +-delta (clamped).
    Evaluation uses the evaluation seed, independent of estimation noise.
    """
    grid = config.grid(spec)
    noise = generate_noise(config.n_paths, grid, config.eval_seed,
                           d_state=spec.d_state, d_common=spec.d_common)
    paths = simulate_driftless_state(spec, noise)

    a_pol = spec.clip_action(_policy_actions_along(policy, flow, paths, spec.d_action))
    br = solve_bsde(spec, flow, paths, noise, config.basis(), store_actions=True)
    axes = [np.linspace(spec.action_lo[j], spec.action_hi[j], n_const)
            for j in range(spec.d_action)]
    mesh = np.meshgrid(*axes, indexing="ij")
    consts = np.column_stack([g.ravel() for g in mesh])[:81]
    shifts = (-delta, delta)
    names = (["self", "bsde-best-response"]
             + [f"const{tuple(np.round(c, 6))}" for c in consts]
             + [f"shift{s:+g}" for s in shifts])

    def step_actions(k):
        a_k = np.empty((len(names), paths.n_paths, spec.d_action))
        a_k[0] = a_pol[:, k]
        a_k[1] = br.control_samples[:, k]
        a_k[2:2 + len(consts)] = consts[:, None, :]
        for i, s in enumerate(shifts):
            a_k[2 + len(consts) + i] = spec.clip_action(a_pol[:, k] + s)
        return a_k

    scores = stacked_objective_influence(spec, flow, step_actions, paths, noise)
    j_pol, _, infl_pol = scores[0]
    best = (j_pol, infl_pol, "self")
    for name, (j, _, infl) in zip(names[1:], scores[1:]):
        if j < best[0]:
            best = (j, infl, name)
    eps = j_pol - best[0]
    diff = infl_pol - best[1]
    se = float(diff.std(ddof=1) / np.sqrt(paths.n_paths))
    return float(eps), se
