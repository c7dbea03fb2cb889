"""Conditional measure flows, Wasserstein distances, and the flow metric.

A flow represents t -> law(X_t | conditioning key) as weighted-quantile bins
over the key, one empirical measure per bin.  Without partition times the key
at step k is the common state at step k (current-value conditioning).  Given
partition times, the key is the common state at the most recent partition time
<= t (players react to the common state at finitely many time points); with a
partition containing every grid point this reproduces current-value
conditioning exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment, linprog

from .girsanov import GirsanovWeights
from .problem import EmpiricalMeasure, _RowsMeasure
from .sde import (PathBundle, TimeGrid, searchsorted_right, sorted_ties, stable_argsort,
                  step_major)

__all__ = [
    "EmpiricalMeasure",
    "ConditionalMeasureFlow",
    "estimate_conditional_flow",
    "group_rows",
    "wasserstein_1d",
    "lp_transport",
    "flow_distance",
    "truncation_bound_check",
    "flow_to_csv",
]

_MAX_LP_ATOMS = 256   # per side; combined support capped at 512
_CSV_QUANTILES = 33   # quantile levels per (step, bin) row of a flow CSV


def _systematic_resample(support: np.ndarray, weights: np.ndarray, n_out: int) -> np.ndarray:
    """Deterministic stratified subsample after a lexicographic sort.

    The lexicographic order is the stable order of the first coordinate unless
    that coordinate has a tie (equal values, NaNs among them), which only the
    later coordinates break; only then does ``np.lexsort`` run.
    """
    first = support[:, 0]
    order = stable_argsort(first)
    if support.shape[1] > 1 and sorted_ties(first[order]).any():
        order = np.lexsort(support.T[::-1])
    cdf = np.cumsum(weights[order])
    cdf /= cdf[-1]
    u = (np.arange(n_out) + 0.5) / n_out
    idx = np.searchsorted(cdf, u, side="left")
    return support[order[np.minimum(idx, order.size - 1)]]


# ---------------------------------------------------------------------------
# transport distances
# ---------------------------------------------------------------------------


def _check_order(q: float) -> None:
    if not 1 <= q < np.inf:
        raise ValueError(f"order q must be finite and >= 1, got {q!r}")


def wasserstein_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure, q: float = 1.0) -> float:
    """Order-q Wasserstein distance between 1-d empirical measures.

    Quantile coupling: integrate |F^-1 - G^-1|^q over the merged grid of
    cumulative weights, then take the q-th root.  On each interval of the grid
    the quantile indices are the running counts of each side's levels below it;
    where the interval's midpoint does not lie strictly above its lower end
    (zero or one-ulp mass, or a last level rounded past one) they are looked up
    as the atoms whose cumulative weight lies below the midpoint.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("wasserstein_1d requires 1-d supports")
    _check_order(q)
    return _wasserstein_sorted(*mu.sorted_1d, *nu.sorted_1d, q)


def _wasserstein_sorted(xa, wa, xb, wb, q: float) -> float:
    """``wasserstein_1d`` on sorted atoms ``xa``, ``xb`` with weights ``wa``, ``wb``."""
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    inner = np.concatenate([ca[:-1], cb[:-1]])
    # two sorted runs: the stable sort (a timsort) finds and merges them, which
    # beats a full sort followed by stable_argsort's tie fix-up
    order = np.argsort(inner, kind="stable")
    levels = np.concatenate([[0.0], inner[order], [1.0]])
    mass = np.diff(levels)
    mids = 0.5 * (levels[:-1] + levels[1:])
    ia = np.zeros(mass.size, dtype=np.intp)
    np.cumsum(order < xa.size - 1, out=ia[1:])
    ib = np.arange(mass.size) - ia
    odd = np.flatnonzero(~(levels[:-1] < mids))
    if odd.size:
        ia[odd] = np.minimum(np.searchsorted(ca, mids[odd], side="left"), xa.size - 1)
        ib[odd] = np.minimum(np.searchsorted(cb, mids[odd], side="left"), xb.size - 1)
    cost = float(np.sum(mass * np.abs(xa[ia] - xb[ib]) ** q))
    return cost ** (1.0 / q)


def lp_transport(mu: EmpiricalMeasure, nu: EmpiricalMeasure, q: float = 1.0) -> float:
    """Exact optimal transport cost on the coupling polytope.

    Supports above 256 atoms per side are reduced by deterministic stratified
    subsampling so the combined support stays at or below 512 atoms.  Equal
    atom counts with uniform weights on both sides are solved as an assignment
    problem: by Birkhoff-von Neumann the polytope's optimal vertex is then a
    permutation.  Every other pair goes to the HiGHS LP.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch between measures")
    _check_order(q)
    return _transport_cost(mu.support, mu.weights, nu.support, nu.weights, q)


def _transport_cost(xa, wa, xb, wb, q: float) -> float:
    """``lp_transport`` on atoms ``xa``, ``xb`` (rows) with weights ``wa``, ``wb``."""
    if xa.shape[0] > _MAX_LP_ATOMS:
        xa = _systematic_resample(xa, wa, _MAX_LP_ATOMS)
        wa = np.full(_MAX_LP_ATOMS, 1.0 / _MAX_LP_ATOMS)
    if xb.shape[0] > _MAX_LP_ATOMS:
        xb = _systematic_resample(xb, wb, _MAX_LP_ATOMS)
        wb = np.full(_MAX_LP_ATOMS, 1.0 / _MAX_LP_ATOMS)
    diff = xa[:, None, :] - xb[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** q
    if xa.shape[0] == xb.shape[0] and np.all(wa == wa[0]) and np.all(wb == wb[0]):
        rows, cols = linear_sum_assignment(cost)
        total = float(cost[rows, cols].mean())
    else:
        total = _transport_lp(cost, wa, wb)
    return total ** (1.0 / q)


def _transport_lp(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> float:
    """Optimal coupling cost of marginals wa, wb under an (n, m) cost matrix (HiGHS)."""
    n, m = cost.shape
    # marginal constraints; the last row is redundant and dropped
    row_marg = sp.kron(sp.eye(n, format="csr"), np.ones((1, m)), format="csr")
    col_marg = sp.kron(np.ones((1, n)), sp.eye(m, format="csr"), format="csr")
    a_eq = sp.vstack([row_marg, col_marg[:-1]], format="csr")
    b_eq = np.concatenate([wa, wb[:-1]])
    # 1e-10 is the tightest tolerance HiGHS accepts; the default 1e-7 lets the
    # solver stop at vertices that are measurably suboptimal for the oracle
    # equivalence contract
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return max(res.fun, 0.0)


def _atoms_of(mu: EmpiricalMeasure) -> tuple:
    """(atoms, weights) of ``mu`` as ``_wq`` takes them: sorted 1-d atoms or support rows."""
    return mu.sorted_1d if mu.dim == 1 else (mu.support, mu.weights)


def _wq(a: tuple, b: tuple, q: float) -> float:
    """Order-q Wasserstein distance between two ``_atoms_of`` pairs."""
    if a[0].ndim == 1:
        return _wasserstein_sorted(*a, *b, q)
    return _transport_cost(*a, *b, q)


def truncation_bound_check(x, y, radius, q):
    """Check (|x-y|^q - R^q)^+ <= 2^q |x|^q 1{|x|>=R/2} + 2^q |y|^q 1{|y|>=R/2}.

    Accepts single points or batched arrays (last axis = coordinates); returns
    a bool (or bool array for batches).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    scalar = x.ndim <= 1 and y.ndim <= 1 and np.ndim(radius) == 0 and np.ndim(q) == 0
    x2 = np.atleast_2d(x)
    y2 = np.atleast_2d(y)
    r = np.asarray(radius, float).ravel()
    qq = np.asarray(q, float).ravel()
    nx = np.linalg.norm(x2, axis=-1)
    ny = np.linalg.norm(y2, axis=-1)
    nd = np.linalg.norm(x2 - y2, axis=-1)
    lhs = np.maximum(nd ** qq - r ** qq, 0.0)
    rhs = (2.0 ** qq) * (nx ** qq * (nx >= r / 2) + ny ** qq * (ny >= r / 2))
    ok = lhs <= rhs * (1 + 1e-12) + 1e-12
    return bool(np.all(ok)) if scalar else ok


# ---------------------------------------------------------------------------
# conditional measure flows
# ---------------------------------------------------------------------------


@dataclass
class StepBins:
    """One step of a flow: bin b's atoms are the source rows ``rows[lo:hi]``, sorted
    by the first state coordinate (ties in path order), with weights
    ``row_w[lo:hi]`` of total ``totals[b]``, where [lo, hi) is the b-th run of
    ``counts``.  ``row_w`` is the step's path-normalized weights in ``rows``
    order; each measure reads its slices on access."""

    edges: np.ndarray                       # (n_bins + 1,) including outer edges
    measures: list                          # EmpiricalMeasure per bin
    counts: np.ndarray
    rows: np.ndarray                        # (n_source,) source rows, bin-major
    row_w: np.ndarray                       # (n_source,) weight of each of ``rows``
    totals: np.ndarray                      # (n_bins,) total weight of each bin

    @property
    def n_bins(self) -> int:
        return len(self.measures)


def _weighted_quantiles(values: np.ndarray, weights: np.ndarray, qs: np.ndarray) -> np.ndarray:
    order = stable_argsort(values)
    return _sorted_quantiles(values[order], weights[order], qs)


def _sorted_quantiles(v: np.ndarray, w: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Weighted quantiles of atoms ``v`` already sorted, with matching weights ``w``."""
    cw = np.cumsum(w)
    cw /= cw[-1]
    return np.interp(qs, cw, v)


def group_rows(labels: np.ndarray, n_groups: int):
    """Rows grouped by label: (permutation, [(label, lo, hi), ...] of the non-empty groups).

    ``labels[perm[lo:hi]] == label`` and, within a group, rows keep their
    original order, so each slice holds exactly the rows of the boolean mask
    ``labels == label`` in the same order.  Labels must lie in [0, n_groups).
    """
    perm = np.argsort(labels.astype(_label_dtype(n_groups), copy=False),
                      kind="stable")                          # radix sort for int16
    counts = np.bincount(labels, minlength=n_groups)
    ends = np.cumsum(counts)
    return perm, [(int(b), int(ends[b] - counts[b]), int(ends[b]))
                  for b in np.flatnonzero(counts)]


def _label_dtype(n_groups: int):
    return np.int16 if n_groups <= np.iinfo(np.int16).max else np.intp


def _make_step_bins(k: int, keys: np.ndarray, order: np.ndarray, atoms: np.ndarray,
                    weights: np.ndarray, n_bins: int, min_bin_count: int,
                    state_order: np.ndarray) -> StepBins:
    """Quantile bins of ``keys`` at step k; ``order`` is a stable argsort of ``keys``
    and ``state_order`` one of ``atoms[:, 0]``.  The bins' measures read ``atoms``
    and ``weights`` (normalized over the step) through the bins' rows."""
    n = keys.shape[0]
    sorted_keys = keys[order]
    qs = np.linspace(0.0, 1.0, n_bins + 1)
    # a unit-weight flow's shared zero-stride vector equals each of its gathers
    unit = weights.strides == (0,)
    edges = _sorted_quantiles(sorted_keys, weights if unit else weights[order], qs)
    lo_key, hi_key = sorted_keys[0], sorted_keys[-1]
    interior = np.unique(edges[1:-1])
    interior = interior[(interior > lo_key) & (interior < hi_key)]

    def bin_counts(interior):
        # keys below edge j: the rows of bins 0..j under searchsorted(..., "right")
        below = np.searchsorted(sorted_keys, interior, side="left")
        return np.diff(np.concatenate([[0], below, [n]]))

    # merge-nearest rule: drop the separating edge of any undersized bin
    counts = bin_counts(interior)
    while interior.size > 0:
        small = np.argwhere(counts < min_bin_count).ravel()
        if small.size == 0:
            break
        b = int(small[0])
        if b == 0:
            drop = 0
        elif b == counts.size - 1:
            drop = interior.size - 1
        else:
            drop = b - 1 if counts[b - 1] <= counts[b + 1] else b
        interior = np.delete(interior, drop)
        counts = bin_counts(interior)

    full_edges = np.concatenate([[lo_key], interior, [hi_key]])
    # sorted rows [lo, hi) of bin b are the rows that assign(k, keys) puts in b
    labels = np.empty(n, dtype=_label_dtype(counts.size))
    labels[order] = np.repeat(np.arange(counts.size, dtype=labels.dtype), counts)
    # the step's rows bin-major, each bin's rows sorted by the first state
    # coordinate, ties in path order, and their weights in that order
    rows = state_order[np.argsort(labels[state_order], kind="stable")]   # radix sort for int16
    row_w = weights if unit else weights[rows]
    ends = np.cumsum(counts)
    starts = ends - counts
    totals = np.array([row_w[lo:hi].sum() for lo, hi in zip(starts, ends)])
    bad = np.flatnonzero(~((totals > 0) & (totals < np.inf)))
    if bad.size:
        b = int(bad[0])
        why = ("weights degenerate: other bins' paths carry all the mass" if totals[b] == 0
               else "weights not finite or negative")
        raise ValueError(f"empirical measure needs positive total mass at step {k}, "
                         f"bin {b} (total weight {totals[b]:.6g}): {why}")
    measures = [_RowsMeasure(atoms, rows[lo:hi], row_w[lo:hi], total)
                for lo, hi, total in zip(starts, ends, totals)]
    return StepBins(edges=full_edges, measures=measures, counts=counts, rows=rows,
                    row_w=row_w, totals=totals)


@dataclass
class ConditionalMeasureFlow:
    """Per-step weights on one fixed particle system, binned by the conditioning key.

    The flow copies no particles: ``paths`` is the bundle it was estimated on,
    and each step's ``StepBins`` holds the step's weights once, in bin order
    (every step of a unit-weight flow holds one shared read-only constant vector).
    ``estimate_conditional_flow`` and ``reweighted`` build ``steps`` as the list
    of a ``_StepsOnRead`` under the flow's binning settings; a flow from
    ``_flow_on_read`` keeps the ``_StepsOnRead``, which bins a step whenever it is read.
    """

    paths: PathBundle
    steps: list                               # StepBins per time step, or _StepsOnRead
    key_idx: np.ndarray                       # (n_steps + 1,) grid index of the key
    partition_times: Optional[tuple]          # None: current-value conditioning
    n_bins_requested: int
    min_bin_count: int

    @property
    def grid(self) -> TimeGrid:
        return self.paths.grid

    @property
    def n_source(self) -> int:
        return self.paths.n_paths

    @property
    def src_key(self) -> np.ndarray:
        """(n, n_steps + 1) conditioning keys; without partition times a view of ``paths.xc``."""
        keys = self.paths.xc[:, :, 0]
        return keys if self.partition_times is None else keys[:, self.key_idx]

    @property
    def src_w(self) -> np.ndarray:
        """(n, n_steps + 1) step-major weights of the source rows, normalized per
        step: ``step_weights(k)`` in column k."""
        w = step_major(self.n_source, len(self.steps))
        for k in range(len(self.steps)):
            w[:, k] = self.step_weights(k)
        return w

    def step_weights(self, k: int) -> np.ndarray:
        """(n,) weights of the source rows at step k, normalized over the step:
        the step's bin-order weights scattered back to path order."""
        bins = self.steps[k]
        w = np.empty(self.n_source)
        w[bins.rows] = bins.row_w
        return w

    def reweighted(self, step_w) -> "ConditionalMeasureFlow":
        """The flow of the same particles and binning settings under the weights
        ``step_w(k)`` of each step k ((n,) in path order, normalized over the
        step).  Every step is binned here, one at a time, so a blend of two
        flows' ``step_weights`` never exists for more than one step."""
        return replace(self, steps=list(_StepsOnRead(self, step_w)))

    def keys(self, k: int, xc: np.ndarray) -> np.ndarray:
        """Conditioning keys at step k of the common states ``xc`` (n, n_steps + 1,
        d_common): the first coordinate at the step's key index."""
        return xc[:, self.key_idx[k], 0]

    def bins_at(self, k: int) -> StepBins:
        return self.steps[k]

    def assign(self, k: int, keys) -> np.ndarray:
        """Bin of each key at step k: ``np.searchsorted(interior edges, keys, "right")``.

        ``keys`` holds conditioning keys, or is a ``PathBundle`` keyed by
        ``keys(k, bundle.xc)``.
        """
        return self._assign(k, self.steps[k], keys)

    def _assign(self, k: int, bins: StepBins, keys) -> np.ndarray:
        """``assign(k, keys)`` with ``bins``, the flow's step k, already read."""
        if isinstance(keys, PathBundle):
            keys = self.keys(k, keys.xc)
        return searchsorted_right(bins.edges[1:-1], keys)

    def per_bin(self, k: int, keys, fn, *rows, mean_only=False):
        """``fn(bins_at(k).measures[b], *row_slices)`` on each bin b that ``keys`` fill at step k.

        ``keys`` is as for ``assign``.  Each call gets exactly the rows of the
        mask ``assign(k, keys) == b``, in path order.  ``fn`` returns one array
        or a tuple of arrays with one leading entry per row; each comes back
        scattered to row order.  Step k is read from ``steps`` once.

        With ``mean_only`` (a spec's ``mean_field`` declaration: ``fn`` reads
        its measure only as ``mean[j]`` and each row on its own) ``fn`` is
        called once, on all rows in path order (read-only) and a measure whose
        ``mean`` is the (d, n) array of each row's bin mean; no rows are
        grouped, gathered or scattered.  Each output that is not a fresh array
        (a view, or memory shared with a row argument) is copied, so both
        paths return arrays of their own.
        """
        bins = self.steps[k]
        labels = self._assign(k, bins, keys)
        n = labels.size
        if n == 0:
            raise ValueError(f"per_bin at step {k} got no rows")
        if mean_only:
            means = np.stack([mu.mean for mu in bins.measures], axis=1)      # (d, n_bins)
            args = [np.asarray(r).view() for r in rows]
            for a in args:
                a.flags.writeable = False
            res = fn(_RowMeans(means[:, labels]), *args)
            parts = [p if p.flags.owndata and not any(np.may_share_memory(p, a) for a in args)
                     else p.copy() for p in _outputs(k, res, n)]
            return tuple(parts) if isinstance(res, tuple) else parts[0]
        perm, groups = group_rows(labels, bins.n_bins)
        gathered = [np.asarray(r)[perm] for r in rows]
        outs = None
        for b, lo, hi in groups:
            res = fn(bins.measures[b], *(g[lo:hi] for g in gathered))
            parts = _outputs(k, res, hi - lo)
            if outs is None:
                outs = [np.empty((n,) + p.shape[1:], p.dtype) for p in parts]
            for out, part in zip(outs, parts):
                out[perm[lo:hi]] = part
        return tuple(outs) if isinstance(res, tuple) else outs[0]


def _outputs(k: int, res, n: int) -> list:
    """The arrays of a ``per_bin`` call's result, checked to have one leading entry per row."""
    parts = [np.asarray(part) for part in (res if isinstance(res, tuple) else (res,))]
    for part in parts:
        if part.shape[:1] != (n,):
            raise ValueError(f"per_bin at step {k}: an output of shape {part.shape} "
                             f"has no leading entry per row ({n} rows)")
    return parts


class _RowMeans:
    """The measure a ``mean_field`` spec's coefficients see in a per-row call:
    ``mean`` is (d, n), column i the mean of row i's bin, and nothing else."""

    __slots__ = ("mean",)

    def __init__(self, mean: np.ndarray):
        self.mean = mean

    def __getattr__(self, name):
        raise AttributeError(
            f"a per-row measure has only 'mean', not {name!r}: a spec declared "
            "mean_field reads mu only as mu.mean[j]")


class _StepsOnRead:
    """StepBins per step, each binned when it is read and kept by nobody: step k
    is ``flow``'s atoms at k under the weights ``step_w(k)`` (path order,
    normalized), binned as ``flow``'s settings say.  A pass that reads each step
    once, as ``solve_bsde`` reads its input flow, holds one step's bins at a time."""

    def __init__(self, flow: ConditionalMeasureFlow, step_w):
        self._flow, self._step_w = flow, step_w

    def __len__(self) -> int:
        return len(self._flow.key_idx)

    def __getitem__(self, k) -> StepBins:
        f, paths = self._flow, self._flow.paths
        k = range(len(self))[k]
        return _make_step_bins(k, f.keys(k, paths.xc), paths.key_order[:, f.key_idx[k]],
                               paths.x[:, k], self._step_w(k), f.n_bins_requested,
                               f.min_bin_count, paths.state_order[:, k])


def _partition_key_index(grid: TimeGrid, partition: tuple) -> np.ndarray:
    """Grid index of the latest partition time at or before each step."""
    snapped = np.asarray(sorted(set(grid.nearest_step(t) for t in partition)))
    return snapped[np.searchsorted(snapped, np.arange(grid.n_steps + 1), side="right") - 1]


def estimate_conditional_flow(x_paths: PathBundle, weights: Optional[GirsanovWeights],
                              n_bins: int, partition_times: Optional[Sequence[float]] = None,
                              min_bin_count: int = 64) -> ConditionalMeasureFlow:
    """Bin the conditioning key by weighted quantiles, one empirical law per bin.

    ``weights`` may be None for unit weights; otherwise the time-matched
    stochastic-exponential values reweight the atoms (the conditional law under
    the controlled measure).  ``partition_times`` None conditions on the
    current common state; otherwise on its value at the latest partition time
    (0 and the horizon always included).  Bins with fewer than
    ``min_bin_count`` (at least 1) atoms are merged into their nearest
    neighbour, so no bin is empty.
    """
    flow = _flow_on_read(x_paths, weights, n_bins, partition_times, min_bin_count)
    return replace(flow, steps=list(flow.steps))


def _flow_on_read(x_paths: PathBundle, weights: Optional[GirsanovWeights], n_bins: int,
                  partition_times: Optional[Sequence[float]],
                  min_bin_count: int) -> ConditionalMeasureFlow:
    """``estimate_conditional_flow``'s flow with its steps binned on read (``_StepsOnRead``)."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if min_bin_count < 1:
        raise ValueError("min_bin_count must be >= 1")
    if x_paths.xc.shape[2] != 1:
        raise NotImplementedError("conditioning keys require a one-dimensional common state")
    n = x_paths.n_paths
    grid = x_paths.grid
    max_bins = max(1, n // min_bin_count)
    if n_bins > max_bins:
        warnings.warn(f"n_bins={n_bins} exceeds n_paths/min_bin_count; clamped to {max_bins}")
        n_bins = max_bins
    if partition_times is None:
        key_idx = np.arange(grid.n_steps + 1)
        partition = None
    else:
        partition = tuple(sorted(set(float(t) for t in partition_times) | {0.0, grid.horizon}))
        key_idx = _partition_key_index(grid, partition)

    if weights is None:
        # zero stride: one 8-byte vector for every step, whose slices are its own views
        unit = np.lib.stride_tricks.as_strided(np.array([1.0 / n]), (n,), (0,), writeable=False)

        def step_w(k):
            return unit
    else:
        def step_w(k):
            w = weights.scaled(k)
            w /= w.sum()     # pairwise along the contiguous step
            return w
    # the settings flow that the steps read has no steps, so no cycle keeps a flow alive
    settings = ConditionalMeasureFlow(x_paths, [], key_idx, partition, n_bins_requested=n_bins,
                                      min_bin_count=min_bin_count)
    return replace(settings, steps=_StepsOnRead(settings, step_w))


def flow_distance(m: ConditionalMeasureFlow, m2: ConditionalMeasureFlow,
                  q: float = 2.0, retained: int = 2048) -> float:
    """Monte Carlo estimate of the flow metric.

    For each evaluation path, integrate W_q^2 between the two looked-up
    conditional measures over time (trapezoid rule), raise to q/2, average over
    paths, take the q-th root.  Evaluation paths are up to ``retained`` evenly
    spaced common-state paths of each flow's bundle, taken once when the flows
    share one, so the estimate is symmetric; each flow looks a path up by its
    own key at every step.
    """
    _check_order(q)
    if retained < 1:
        raise ValueError(f"retained evaluation paths must be >= 1, got {retained!r}")
    if m.grid != m2.grid:
        raise ValueError("flow grids do not match")
    evals = []
    for f in ((m,) if m2.paths is m.paths else (m, m2)):
        idx = np.unique(np.linspace(0, f.n_source - 1, min(retained, f.n_source)).astype(int))
        evals.append(f.paths.xc[idx])
    xc = np.concatenate(evals)
    n_eval, n_nodes = xc.shape[:2]
    w2 = np.empty((n_eval, n_nodes))
    for k in range(n_nodes):
        bins_a = m.assign(k, m.keys(k, xc))
        bins_b = m2.assign(k, m2.keys(k, xc))
        mus, nus = m.steps[k].measures, m2.steps[k].measures
        n_b = len(nus)
        pairs, inverse = np.unique(bins_a * n_b + bins_b, return_inverse=True)
        ia, ib = (i.tolist() for i in np.divmod(pairs, n_b))
        # each bin's atoms are read once per step
        atoms_a = {a: _atoms_of(mus[a]) for a in set(ia)}
        atoms_b = {b: _atoms_of(nus[b]) for b in set(ib)}
        vals = np.array([0.0 if mus[a] is nus[b] else _wq(atoms_a[a], atoms_b[b], q) ** 2
                         for a, b in zip(ia, ib)])
        w2[:, k] = vals[inverse]
    dt = m.grid.dt
    trap_w = np.full(n_nodes, dt)
    trap_w[0] = trap_w[-1] = 0.5 * dt
    integral = w2 @ trap_w
    return float(np.mean(integral ** (q / 2.0)) ** (1.0 / q))


def flow_to_csv(flow: ConditionalMeasureFlow, path) -> None:
    """Lossy CSV summary: per (step, bin), edges plus ``_CSV_QUANTILES`` quantiles."""
    qs = np.linspace(0.0, 1.0, _CSV_QUANTILES)
    d = flow.paths.x.shape[2]
    header = ["step", "t", "bin_index", "bin_lo", "bin_hi"]
    for c in range(d):
        header.extend(f"x{c}_q{j:02d}" for j in range(_CSV_QUANTILES))
    row_fmt = ",".join(["%d,%.17g,%d"] + ["%.17g"] * (2 + d * _CSV_QUANTILES)) + "\r\n"
    times = flow.grid.times
    with open(path, "w", newline="") as fh:
        # the bytes csv.writer gives these rows: no cell needs quoting
        fh.write(",".join(header) + "\r\n")
        for k, bins in enumerate(flow.steps):
            rows = []
            for b, mu in enumerate(bins.measures):
                if d == 1:
                    quants = [_sorted_quantiles(*mu.sorted_1d, qs)]
                else:
                    support, w = mu.support, mu.weights
                    quants = [_weighted_quantiles(support[:, c], w, qs) for c in range(d)]
                rows.append(row_fmt % (k, times[k], b, bins.edges[b], bins.edges[b + 1],
                                       *np.concatenate(quants).tolist()))
            fh.write("".join(rows))
