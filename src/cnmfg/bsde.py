"""Backward least-squares Monte Carlo for the optimality BSDE.

Backward recursion on driftless reference paths: at each step the martingale
integrands are regressed from increment products, the driver is the minimized
Hamiltonian evaluated pathwise at the regressed integrand, and the value is
regressed from value-plus-driver.  The feedback control is the Hamiltonian
minimizer at the regressed integrand.

Feature matrices are built feature-major: ``features`` fills an
(n_features, n) block one contiguous feature at a time and returns its
(n, n_features) F-ordered transpose view, on which the ridge regressions run.
The basis statistics are fitted once per reference bundle and degree
(``BasisSpec.fit_stats``), one step at a time, as numpy's pairwise row means
and standard deviations of the same blocks.  The smoothed integrand folds its
window's per-step fits into one polynomial in the inputs
(``BasisSpec.coef_on``), so a policy evaluation builds one basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import comb

from .flows import ConditionalMeasureFlow
from .girsanov import (GirsanovWeights, log_increments, put_log_increment,
                       self_normalized_mean, stochastic_exponential)
from .problem import ProblemSpec, minimize_hamiltonian_batch
from .sde import NoiseBundle, PathBundle, TimeGrid, searchsorted_right, step_major

__all__ = [
    "BasisSpec",
    "BsdeSolution",
    "MarkovPolicy",
    "solve_bsde",
    "pass_actions",
    "extract_control",
    "control_weights",
    "stacked_objective_influence",
    "policy_to_csv",
]

_EXPLOSION_THRESHOLD = 1e8   # a step's residual variance above this aborts the pass
_RIDGE = 1e-8                 # ridge penalty of every basis regression


@lru_cache(maxsize=None)
def _monomial_exponents(n_vars: int, degree: int) -> tuple:
    exps = [e for e in itertools.product(range(degree + 1), repeat=n_vars) if sum(e) <= degree]
    return tuple(sorted(exps, key=lambda e: (sum(e), e)))


@dataclass
class BasisSpec:
    """Polynomial features of total degree <= degree in standardized (x, x^c).

    Both the raw inputs and the monomial columns are standardized against the
    per-step reference-measure sample, so the ridge penalty acts uniformly
    across shape terms; the intercept column stays at one.
    """

    degree: int = 2
    stats: Optional[np.ndarray] = None       # (n_steps + 1, 2, n_vars) input mean/std
    col_stats: Optional[np.ndarray] = None   # (n_steps + 1, 2, n_features) column mean/std

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def exponents(self, n_vars: int):
        return _monomial_exponents(n_vars, self.degree)

    def n_features(self, n_vars: int) -> int:
        return len(self.exponents(n_vars))

    def fit_stats(self, paths: PathBundle) -> "BasisSpec":
        """Basis fitted to the paths; the statistics are cached on the bundle per degree."""
        cached = paths.basis_stats.get(self.degree)
        if cached is None:
            cached = paths.basis_stats[self.degree] = self._fit(paths)
        return BasisSpec(degree=self.degree, stats=cached.stats, col_stats=cached.col_stats)

    def _fit(self, paths: PathBundle) -> "BasisSpec":
        n, n_steps1, d_x = paths.x.shape
        n_vars = d_x + paths.xc.shape[2]
        n_feat = self.n_features(n_vars)
        stats = np.empty((n_steps1, 2, n_vars))
        col_stats = np.zeros((n_steps1, 2, n_feat))
        col_stats[:, 1] = 1.0   # the intercept stays the constant one
        # one set of buffers for all steps: per-step temporaries of this size
        # go back to the system when freed and fault in again at the next step
        raw, cols = np.empty((n_vars, n)), np.empty((n_feat, n))
        work = np.empty((max(n_vars, n_feat), n))
        for k in range(n_steps1):
            raw[:d_x] = paths.x[:, k].T
            raw[d_x:] = paths.xc[:, k].T
            mean, std = _row_mean_std(raw, work)
            # a degenerate (constant) variable contributes nothing: mapping it
            # to zero keeps off-sample evaluation benign instead of exploding
            stats[k] = mean, np.where(std < 1e-10, np.inf, std)
            raw -= stats[k, 0][:, None]
            raw /= stats[k, 1][:, None]
            mean, std = _row_mean_std(self._monomials(raw, cols)[1:], work)
            col_stats[k, :, 1:] = mean, np.where(std < 1e-12, np.inf, std)
        return BasisSpec(degree=self.degree, stats=stats, col_stats=col_stats)

    def _monomials(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` (n_features, n) filled with the monomials of the rows of ``z`` (n_vars, n)."""
        powers = [[None, zv] + [zv ** p for p in range(2, self.degree + 1)] for zv in z]
        for j, e in enumerate(self.exponents(z.shape[0])):
            factors = [powers[v][p] for v, p in enumerate(e) if p]
            if not factors:
                out[j] = 1.0
                continue
            # left to right, as the product 1 * z_0^e_0 * z_1^e_1 * ... rounds
            out[j] = factors[0]
            for f in factors[1:]:
                out[j] *= f
        return out

    def monomials(self, x: np.ndarray, xc: np.ndarray, centre: np.ndarray,
                  scale: np.ndarray, blocks: Optional[tuple] = None) -> np.ndarray:
        """(n, n_features) F-ordered monomials of the inputs standardized as
        (input - centre) / scale, one entry per input variable.

        ``blocks``, an (n_vars, n) and an (n_features, n) array, are filled in
        place and the result is a view of the second; without them both are
        allocated."""
        x, xc = np.atleast_2d(x), np.atleast_2d(xc)
        n, d_x = x.shape
        if blocks is None:
            n_vars = d_x + xc.shape[1]
            blocks = np.empty((n_vars, n)), np.empty((self.n_features(n_vars), n))
        z, cols = blocks
        z[:d_x] = x.T
        z[d_x:] = xc.T
        z -= centre[:, None]
        z /= scale[:, None]
        return self._monomials(z, cols).T

    def features(self, k: int, x: np.ndarray, xc: np.ndarray,
                 blocks: Optional[tuple] = None) -> np.ndarray:
        """(n, n_features) F-ordered columns of step k: monomials of the
        standardized inputs, then standardized by ``col_stats``; ``blocks`` as
        for ``monomials``."""
        if self.stats is None or self.col_stats is None:
            raise ValueError("basis statistics not fitted")
        cols = self.monomials(x, xc, *self.stats[k], blocks=blocks).T   # the (n_features, n) block
        cols -= self.col_stats[k, 0][:, None]
        cols /= self.col_stats[k, 1][:, None]
        cols[0] = 1.0
        return cols.T

    def coef_on(self, k: int, coef: np.ndarray, centre: np.ndarray,
                scale: np.ndarray) -> np.ndarray:
        """``coef`` (m, n_features) on step k's features re-expressed on
        ``monomials(., ., centre, scale)``, equal up to rounding.

        Each of step k's standardized inputs is a_v * u_v + b_v in
        u_v = (input - centre) / scale (a_v = 0 for a degenerate variable), so
        by the binomial theorem the monomial z^e is the sum over f <= e of
        prod_v C(e_v, f_v) a_v^f_v b_v^(e_v - f_v) u^f.
        """
        mean, std = self.stats[k]
        a, b = scale / std, (centre - mean) / std
        g = np.array(coef, dtype=float)
        # the column standardization folded in; the intercept stays one
        col_mean, col_std = self.col_stats[k, :, 1:]
        g[:, 1:] /= col_std
        g[:, 0] -= g[:, 1:] @ col_mean
        exps = np.array(self.exponents(mean.size))
        e, f = exps[:, None, :], exps[None, :, :]          # C(e, f) is zero unless f <= e
        return g @ (comb(e, f) * a ** f * b ** np.maximum(e - f, 0)).prod(axis=2)


def _row_mean_std(a: np.ndarray, work: np.ndarray):
    """``a.mean(axis=1)`` and ``a.std(axis=1)`` of ``a`` (m, n), pairwise sums
    along the contiguous rows, with ``work[:m]`` as scratch."""
    m, n = a.shape
    mean = a.sum(axis=1) / n
    dev = np.subtract(a, mean[:, None], out=work[:m])
    dev *= dev
    return mean, np.sqrt(dev.sum(axis=1) / n)


def _ridge_factor(feats: np.ndarray, ridge: float, sample_w: Optional[np.ndarray] = None):
    n = feats.shape[0]
    if sample_w is None:
        gram = feats.T @ feats / n
    else:
        gram = feats.T @ (feats * sample_w[:, None]) / sample_w.sum()
    # features are standardized and the constant column comes first; leave the
    # intercept unpenalized so shrinkage never biases the level
    penalty = ridge * np.eye(feats.shape[1])
    penalty[0, 0] = 0.0
    gram = gram + penalty
    return cho_factor(gram)


def _ridge_solve(factor, feats: np.ndarray, targets: np.ndarray,
                 sample_w: Optional[np.ndarray] = None) -> np.ndarray:
    n = feats.shape[0]
    t = targets if targets.ndim == 2 else targets[:, None]
    if sample_w is None:
        rhs = feats.T @ t / n
    else:
        rhs = feats.T @ (t * sample_w[:, None]) / sample_w.sum()
    coef = cho_solve(factor, rhs)
    return coef if targets.ndim == 2 else coef[:, 0]


@dataclass
class BsdeSolution:
    grid: TimeGrid
    basis: BasisSpec
    z_coef: np.ndarray           # (n_steps, d_state, n_features)
    y0: float
    y0_stderr: float
    residual_var: np.ndarray     # (n_steps,)
    weights: Optional[GirsanovWeights] = None      # of the pass's control, if asked for

    def z_smoothed(self, k: int, x: np.ndarray, xc: np.ndarray, window: int = 9) -> np.ndarray:
        """Integrand averaged over a centred step window.

        The integrand is continuous in time, so averaging the per-step fits
        trades an O(window * dt) bias for a substantial variance cut.  Each
        neighbour's fit, under its own standardization, is a polynomial in the
        inputs; each call folds their mean into one coefficient matrix on the
        monomials of the inputs standardized by step k's statistics (scale one
        for a variable constant at step k).
        """
        n_steps = self.z_coef.shape[0]
        lo, hi = max(0, k - window // 2), min(n_steps, k + window // 2 + 1)
        centre, std = self.basis.stats[k]
        scale = np.where(np.isinf(std), 1.0, std)
        coef = sum(self.basis.coef_on(j, self.z_coef[j], centre, scale)
                   for j in range(lo, hi)) / (hi - lo)
        return self.basis.monomials(x, xc, centre, scale) @ coef.T


def _terminal_values(spec: ProblemSpec, flow: ConditionalMeasureFlow,
                     paths: PathBundle) -> np.ndarray:
    k = paths.grid.n_steps
    return flow.per_bin(k, paths, lambda mu, x: np.asarray(spec.terminal_cost(x, mu), float),
                        paths.x[:, k], mean_only=spec.mean_field)


def _sigma_inv_drift(spec: ProblemSpec, t: float, x: np.ndarray, mu,
                     a: np.ndarray) -> np.ndarray:
    """sigma^-1 b(t, x, mu, a), one row per path."""
    return np.asarray(spec.drift(t, x, mu, a), float) @ spec.sigma_inv.T


def solve_bsde(spec: ProblemSpec, flow: ConditionalMeasureFlow, paths: PathBundle,
               noise: NoiseBundle, basis: BasisSpec, driver: str = "hamiltonian",
               weights: bool = False) -> BsdeSolution:
    """Backward LSMC pass for the value process and its martingale integrands.

    The integrand targets are centred by the preliminary value fit before the
    increment regression, which removes the dominant 1/dt variance term
    without changing the conditional expectation.  Each step's actions
    minimize the Hamiltonian at the regressed integrand; the pass keeps none
    of them, and ``pass_actions`` recomputes any step's from the solution.
    ``weights`` evaluates sigma^-1 b at them in the same per-bin call and
    accumulates their Girsanov weights step by step (``put_log_increment``),
    bitwise equal to ``control_weights`` on the actions ``pass_actions``
    gives.  ``driver="zero"`` (martingale test mode) minimizes no
    Hamiltonian, so it has no actions or weights.
    """
    if paths.label != "driftless":
        raise ValueError("solve_bsde expects reference-measure (driftless) paths")
    if driver not in ("hamiltonian", "zero"):
        raise ValueError("driver must be 'hamiltonian' or 'zero'")
    if driver == "zero" and weights:
        raise ValueError("driver='zero' minimizes no Hamiltonian: it has no actions or weights")
    grid = paths.grid
    n = paths.n_paths
    dt = grid.dt
    fitted = basis.fit_stats(paths)
    n_feat = fitted.n_features(spec.d_state + spec.d_common)
    n_steps = grid.n_steps

    z_coef = np.zeros((n_steps, spec.d_state, n_feat))
    resid = np.zeros(n_steps)
    log_m = step_major(n, n_steps + 1) if weights else None

    y_next = _terminal_values(spec, flow, paths)
    # raw pathwise accumulation: the intercept makes every regression mean-
    # preserving, so mean(step-0 target) == mean(raw sum); its spread is the
    # honest standard error for the value estimate
    raw_sum = y_next.copy()
    y0 = 0.0
    # one set of path-sized buffers for all steps, as in BasisSpec._fit: freed
    # per-step arrays stay in the heap as slack at the end of the pass.  y_next
    # takes each step's value fit in place.
    blocks = np.empty((spec.d_state + spec.d_common, n)), np.empty((n_feat, n))
    dev, target, h_dt = np.empty(n), np.empty(n), np.empty(n)
    zt, z_fit = np.empty((n, spec.d_state)), np.empty((n, spec.d_state))
    for k in range(n_steps - 1, -1, -1):
        feats = fitted.features(k, paths.x[:, k], paths.xc[:, k], blocks)
        factor = _ridge_factor(feats, _RIDGE)
        c_pre = _ridge_solve(factor, feats, y_next)
        centred = np.subtract(y_next, np.matmul(feats, c_pre, out=dev), out=dev)

        np.multiply(centred[:, None], noise.dw[:, k], out=zt)
        zt /= dt
        z_coef[k] = _ridge_solve(factor, feats, zt).T

        if driver == "zero":
            h_dt.fill(0.0)
        else:
            t_k = grid.times[k]

            def minimize(mu, x, z):
                a, h_bin = minimize_hamiltonian_batch(spec, t_k, x, mu, z)
                if log_m is None:
                    return (h_bin,)
                return h_bin, _sigma_inv_drift(spec, t_k, x, mu, a)

            h, *lam = flow.per_bin(k, paths, minimize, paths.x[:, k],
                                   np.matmul(feats, z_coef[k].T, out=z_fit),
                                   mean_only=spec.mean_field)
            if log_m is not None:
                put_log_increment(log_m, k, lam[0], noise)
            np.multiply(h, dt, out=h_dt)

        raw_sum += h_dt
        np.add(y_next, h_dt, out=target)
        y_fit = np.matmul(feats, c_pre + _ridge_solve(factor, feats, h_dt), out=y_next)
        np.subtract(target, y_fit, out=dev)
        dev *= dev
        resid[k] = float(np.mean(dev))
        if resid[k] > _EXPLOSION_THRESHOLD:
            raise RuntimeError(
                f"BSDE regression exploded at step {k}: residual variance {resid[k]:.3g}")
        if k == 0:
            y0 = float(target.mean())
    y0_se = float(raw_sum.std(ddof=1) / np.sqrt(n))

    return BsdeSolution(grid=grid, basis=fitted, z_coef=z_coef, y0=y0, y0_stderr=y0_se,
                        residual_var=resid,
                        weights=None if log_m is None else
                        GirsanovWeights.from_increments(grid, log_m))


def pass_actions(spec: ProblemSpec, solution: BsdeSolution, flow: ConditionalMeasureFlow,
                 paths: PathBundle, k: int) -> np.ndarray:
    """(n, d_action) step-k actions of the ``solve_bsde`` pass that gave
    ``solution`` on ``flow`` and ``paths``, bitwise: the pass's own features,
    integrand fit and per-bin Hamiltonian minimization, repeated for one step."""
    feats = solution.basis.features(k, paths.x[:, k], paths.xc[:, k])
    t_k = paths.grid.times[k]
    return flow.per_bin(
        k, paths, lambda mu, x, z: minimize_hamiltonian_batch(spec, t_k, x, mu, z, values=False),
        paths.x[:, k], feats @ solution.z_coef[k].T, mean_only=spec.mean_field)


@dataclass
class MarkovPolicy:
    """Feedback control on the grid: either a Hamiltonian-minimizer closure over
    the regressed integrand, or a rectangular lookup table with bilinear
    interpolation (clamped extrapolation)."""

    grid: TimeGrid
    kind: str                                      # "feedback" | "table"
    spec: Optional[ProblemSpec] = None
    flow: Optional[ConditionalMeasureFlow] = None
    solution: Optional[BsdeSolution] = None
    x_axes: Optional[np.ndarray] = None            # (n_steps, nx)
    key_axes: Optional[np.ndarray] = None          # (n_steps, nk)
    tables: Optional[np.ndarray] = None            # (n_steps, nx, nk, d_action)
    label: str = ""

    def actions(self, k: int, x: np.ndarray, xc: np.ndarray, key: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.kind == "feedback":
            z_hat = self.solution.z_smoothed(k, x, np.atleast_2d(xc))
            t_k = self.grid.times[k]
            return self.flow.per_bin(
                k, key, lambda mu, xs, z: minimize_hamiltonian_batch(self.spec, t_k, xs, mu, z,
                                                                     values=False),
                x, z_hat, mean_only=self.spec.mean_field)
        if self.kind == "table":
            return _bilinear(self.x_axes[k], self.key_axes[k], self.tables[k],
                             x[:, 0], np.asarray(key, float))
        raise ValueError(f"unknown policy kind {self.kind!r}")


def _bilinear(x_axis: np.ndarray, k_axis: np.ndarray, table: np.ndarray,
              x: np.ndarray, key: np.ndarray) -> np.ndarray:
    xq = np.clip(x, x_axis[0], x_axis[-1])
    kq = np.clip(key, k_axis[0], k_axis[-1])
    ix = np.clip(searchsorted_right(x_axis, xq) - 1, 0, x_axis.size - 2)
    ik = np.clip(searchsorted_right(k_axis, kq) - 1, 0, k_axis.size - 2)
    tx = (xq - x_axis[ix]) / (x_axis[ix + 1] - x_axis[ix])
    tk = (kq - k_axis[ik]) / (k_axis[ik + 1] - k_axis[ik])
    tx = tx[:, None]
    tk = tk[:, None]
    nk = k_axis.size
    flat = table.reshape(-1, table.shape[-1])
    at = ix * nk + ik                    # flat row of table[ix, ik]
    v00 = flat[at]
    v10 = flat[at + nk]
    v01 = flat[at + 1]
    v11 = flat[at + nk + 1]
    return ((1 - tx) * (1 - tk) * v00 + tx * (1 - tk) * v10
            + (1 - tx) * tk * v01 + tx * tk * v11)


def extract_control(solution: BsdeSolution, spec: ProblemSpec,
                    flow: ConditionalMeasureFlow) -> MarkovPolicy:
    """Feedback policy: Hamiltonian minimizer at the integrand averaged over
    ``z_smoothed``'s default window of 9 steps."""
    return MarkovPolicy(grid=solution.grid, kind="feedback", spec=spec, flow=flow,
                        solution=solution, label="bsde-feedback")


def _control_array(actions: np.ndarray, paths: PathBundle) -> np.ndarray:
    a = np.asarray(actions, float)
    if a.shape[:2] != (paths.n_paths, paths.grid.n_steps):
        raise ValueError(f"action array shape {a.shape} does not match paths")
    return a


def control_weights(spec: ProblemSpec, flow: ConditionalMeasureFlow,
                    actions: np.ndarray, paths: PathBundle,
                    noise: NoiseBundle) -> GirsanovWeights:
    """Girsanov weights of an adapted control given as an action array: the
    stochastic exponential of sigma^-1 b.

    The drifts are evaluated one step at a time as ``stochastic_exponential``
    accumulates them, so no (n, n_steps, d_state) drift array exists.  The
    BSDE's own control gets its weights from ``solve_bsde(..., weights=True)``.
    """
    a = _control_array(actions, paths)

    def step_drift(k):
        t_k = paths.grid.times[k]
        return flow.per_bin(
            k, paths, lambda mu, x, a_k: _sigma_inv_drift(spec, t_k, x, mu, a_k),
            paths.x[:, k], a[:, k], mean_only=spec.mean_field)
    return stochastic_exponential(spec, step_drift, noise)


def stacked_objective_influence(spec: ProblemSpec, flow: ConditionalMeasureFlow,
                                step_actions, paths: PathBundle, noise: NoiseBundle):
    """Weak-formulation objectives of C controls scored together in one pass over (step, bin).

    ``step_actions(k)`` gives the (C, n, d_action) actions at step k.  The
    running cost and each control's terminal log-weight are accumulated in
    step order, the order in which ``stochastic_exponential`` accumulates, and
    the terminal cost is added last; each payoff is then self-normalized by
    its own weights, shifted by their own maximum.  Each (step, bin) call
    evaluates the C controls one at a time.  Returns one (estimate,
    stderr, influence) triple per control; control c's triple equals bitwise
    the self-normalized mean of its payoff under
    ``control_weights(...).scaled(-1)``.  Only (n, C) arrays persist
    across steps.
    """
    grid = paths.grid
    run_cost = log_m = 0.0
    for k in range(grid.n_steps):
        t_k = grid.times[k]
        a_k = step_actions(k)

        def costs_and_drifts(mu, x, a):
            # a is (m, C, d_action): one (m, C) cost and (m, C, d_state) drift
            m, c = a.shape[:2]
            cost, lam = np.empty((m, c)), np.empty((m, c, spec.d_state))
            for j in range(c):
                cost[:, j] = np.ravel(spec.running_cost(t_k, x, mu, a[:, j]))
                lam[:, j] = _sigma_inv_drift(spec, t_k, x, mu, a[:, j])
            cost *= grid.dt
            return cost, lam

        cost, lam = flow.per_bin(k, paths, costs_and_drifts, paths.x[:, k],
                                 a_k.transpose(1, 0, 2), mean_only=spec.mean_field)
        if not np.all(np.isfinite(lam)):
            path, control = np.argwhere(~np.isfinite(lam).all(axis=2))[0]
            raise RuntimeError(f"non-finite drift sample at path {path}, control {control}, "
                               f"step {k}")
        run_cost = run_cost + cost
        log_m = log_m + log_increments(lam, noise.dw[:, k, None], grid.dt)
    payoff = run_cost + _terminal_values(spec, flow, paths)[:, None]
    m_terminal = np.exp(log_m - log_m.max(axis=0))    # each control shifted by its own max
    return [self_normalized_mean(payoff[:, j], m_terminal[:, j]) for j in range(payoff.shape[1])]


def policy_to_csv(policy: MarkovPolicy, path) -> None:
    """Table policy as CSV, one row per (step, x, key) cell.

    Rows carry the bytes ``csv.writer`` gives them (no cell needs quoting) and
    are written one step at a time, each step as one preformatted block.
    """
    if policy.kind != "table":
        raise ValueError("only table policies serialize to CSV")
    times = policy.grid.times
    d_a = policy.tables.shape[3]
    act_fmt = ",".join(["%.17g"] * d_a)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", "x", "xc"] + [f"a{j}" for j in range(d_a)]) + "\r\n")
        for k in range(policy.tables.shape[0]):
            t_str = f"{times[k]:.17g}"
            key_strs = [f"{kv:.17g}" for kv in policy.key_axes[k].tolist()]
            rows = []
            for xv, acts in zip(policy.x_axes[k].tolist(), policy.tables[k].tolist()):
                head = f"{t_str},{xv:.17g},"
                rows.extend(f"{head}{kv},{act_fmt % tuple(a)}\r\n"
                            for kv, a in zip(key_strs, acts))
            fh.write("".join(rows))
