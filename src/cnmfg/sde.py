"""Path simulation on a shared time grid.

Brownian increments come from Philox counter streams keyed by
(seed, fixed-size path chunk), with fixed-consumption Box-Muller sampling, so
every (path, step, coordinate) triple occupies a non-overlapping substream.
Output never depends on how work is scheduled across workers.  Each chunk's
normals are computed in one chunk-sized block, laid out coordinate by path,
and written, times sqrt(dt), straight into that chunk's rows of the
step-major ``dw`` and ``dw0``; no array of all the normals is ever built.

Every per-step array has the logical shape (n_paths, n_steps[+1], ...) but is
stored step-major (see ``step_major``), because every layer reads it one time
step at a time: ``x[:, k]`` is then one contiguous block, not a strided column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .problem import ProblemSpec, _like_state

__all__ = [
    "step_major",
    "stable_argsort",
    "sorted_ties",
    "searchsorted_right",
    "TimeGrid",
    "NoiseBundle",
    "PathBundle",
    "generate_noise",
    "simulate_driftless_state",
    "simulate_markov_sde",
]

_CHUNK = 4096          # paths per Philox key; fixed so chunking never depends on workers
_STREAM_NOISE = 0
_STREAM_STATE_INIT = 1
_STREAM_COMMON_INIT = 2
_TWO53 = float(1 << 53)
_MAX_COUNTED_EDGES = 64   # searchsorted_right counts up to this many edges; < 256 (uint8)


def step_major(n_paths: int, n_steps: int, *tail: int, dtype=float) -> np.ndarray:
    """Zero (n_paths, n_steps, *tail) array stored step by step.

    The memory is laid out as (n_steps, n_paths, *tail), so ``a[:, k]`` is
    C-contiguous.  Elementwise ufuncs and ``copy(order="K")`` keep the layout;
    ``.copy()``, ``np.ascontiguousarray`` and ``np.stack`` make it path-major.
    """
    return np.zeros((n_steps, n_paths) + tail, dtype=dtype).swapaxes(0, 1)


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of a 1-d array, from the faster default sort.

    The default sort orders equal values arbitrarily; each run of equal values
    (NaNs, sorted last, count as equal, and so do -0.0 and 0.0) is then put
    back in index order, which is the order the stable sort keeps.
    """
    v = np.asarray(values)
    order = np.argsort(v)
    if v.size < 2:
        return order
    tie = sorted_ties(v[order])
    if not tie.any():
        return order
    in_run = np.zeros(v.size, dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    idx = np.flatnonzero(in_run)
    run = np.empty(v.size, dtype=np.intp)
    run[0] = 0
    np.cumsum(~tie, out=run[1:])
    # runs are contiguous and numbered in order, so sorting run * n + index
    # sorts each run's indices in place
    base = run[idx] * v.size
    order[idx] = np.sort(base + order[idx]) - base
    return order


def sorted_ties(s: np.ndarray) -> np.ndarray:
    """``tie[i]``: positions i and i + 1 of the sorted 1-d array ``s`` hold equal
    values, as the sorts compare them (NaNs, sorted last, are equal, and so are
    -0.0 and 0.0)."""
    tie = s[1:] == s[:-1]
    if s.dtype.kind == "f" and s.size and np.isnan(s[-1]):
        tie |= np.isnan(s[:-1])
    return tie


def searchsorted_right(edges: np.ndarray, values) -> np.ndarray:
    """``np.searchsorted(edges, values, side="right")`` for a short sorted float array ``edges``.

    The index of a value is the number of edges it does not lie below, counted
    with one vectorized comparison per edge: at a few dozen edges that beats a
    binary search, whose branches on unsorted values are unpredictable.
    ``value < edge`` is False for a NaN value, which therefore lands after
    every edge, where ``np.searchsorted`` puts NaN.  More than
    ``_MAX_COUNTED_EDGES`` edges, or a NaN edge (NaNs sort last), go to
    ``np.searchsorted``.
    """
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values, dtype=float)
    if edges.size > _MAX_COUNTED_EDGES or (edges.size and np.isnan(edges[-1])):
        return np.searchsorted(edges, values, side="right")
    above = np.zeros(values.shape, dtype=np.uint8)      # edges above each value
    lt = np.empty(values.shape, dtype=bool)
    for e in edges.tolist():
        np.less(values, e, out=lt)
        above += lt.view(np.uint8)
    return np.subtract(edges.size, above, dtype=np.intp)


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def nearest_step(self, t: float) -> int:
        k = int(round(t / self.dt))
        if k < 0 or k > self.n_steps or abs(t - k * self.dt) > 0.5 * self.dt + 1e-12:
            raise ValueError(f"t={t} is not within dt/2 of a grid point")
        return k


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments of one seed.  ``dw0`` is None when the common increments
    live on only in the paths they drove (the solver's reference); no simulator takes it."""

    grid: TimeGrid
    seed: int
    dw: np.ndarray            # (n_paths, n_steps, d_state), step-major
    dw0: np.ndarray | None    # (n_paths, n_steps, d_common), step-major

    @property
    def n_paths(self) -> int:
        return self.dw.shape[0]


@dataclass
class PathBundle:
    """Simulated paths.  The key and state orders and the basis statistics are
    computed on first use and cached, and a flow binned on the bundle reads its
    bins' atoms from ``x`` on access, so ``x`` and ``xc`` must not be mutated
    after first use."""

    grid: TimeGrid
    x: np.ndarray     # (n_paths, n_steps + 1, d_state), step-major
    xc: np.ndarray    # (n_paths, n_steps + 1, d_common), step-major
    label: str
    clamp_count: int = 0
    basis_stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @cached_property
    def key_order(self) -> np.ndarray:
        """Stable per-step argsort of the conditioning key ``xc[:, :, 0]``, as int32."""
        return _stable_column_order(self.xc[:, :, 0])

    @cached_property
    def state_order(self) -> np.ndarray:
        """Stable per-step argsort of the first state coordinate ``x[:, :, 0]``, as
        int32; every flow binned on the bundle lists each bin's atoms in this order."""
        return _stable_column_order(self.x[:, :, 0])

    def forget_sort_orders(self) -> None:
        """Drop the cached key and state orders; a later binning on the bundle
        computes them again."""
        for name in ("key_order", "state_order"):
            self.__dict__.pop(name, None)


def _stable_column_order(values: np.ndarray) -> np.ndarray:
    order = step_major(*values.shape, dtype=np.int32)
    for k in range(values.shape[1]):
        order[:, k] = stable_argsort(values[:, k])
    return order


def _philox_key(seed: int, stream: int, chunk: int) -> int:
    return ((int(seed) % (1 << 64)) << 64) | ((stream & 0x7) << 48) | (chunk & 0xFFFFFFFFFFFF)


def _stream_generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream, 0)))


def _chunk_normals(seed: int, stream: int, chunk: int, n_rows: int, n_per_row: int) -> np.ndarray:
    """Fixed-consumption standard normals, one Philox raw pair per Box-Muller pair.

    Path i of the chunk takes the raw pairs [i * pairs, (i + 1) * pairs), and
    its normal c is the cosine (c even) or sine (c odd) of its pair c // 2.
    The block is returned coordinate-major, (n_per_row, n_rows): the values of
    one normal over the chunk's paths are one contiguous run.
    """
    pairs = (n_per_row + 1) // 2
    raw = np.random.Philox(key=_philox_key(seed, stream, chunk)).random_raw(n_rows * pairs * 2)
    u = np.empty((2, pairs, n_rows))
    np.right_shift(raw.reshape(n_rows, pairs, 2).transpose(2, 1, 0), np.uint64(11),
                   out=u, casting="unsafe")
    u1, u2 = u
    u1 += 1.0
    u /= _TWO53                              # u1 in (0, 1], u2 in [0, 1)
    np.log(u1, out=u1)
    u1 *= -2.0
    r = np.sqrt(u1, out=u1)
    theta = np.multiply(u2, 2.0 * np.pi, out=u2)
    out = np.empty((pairs, 2, n_rows))
    np.multiply(r, np.cos(theta), out=out[:, 0])
    np.multiply(r, np.sin(theta), out=out[:, 1])
    return out.reshape(2 * pairs, n_rows)[:n_per_row]


def generate_noise(n_paths: int, grid: TimeGrid, seed: int,
                   d_state: int = 1, d_common: int = 1) -> NoiseBundle:
    """Brownian increments N(0, dt) for (W, W0), bitwise reproducible from the seed.

    A path's normals, step by step, are its d_state state then d_common common
    coordinates.  Each chunk's block is scaled by sqrt(dt) straight into the
    step-major ``dw`` and ``dw0`` rows of its paths.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    n_steps, d = grid.n_steps, d_state + d_common
    sqdt = np.sqrt(grid.dt)
    dw = step_major(n_paths, n_steps, d_state)
    dw0 = step_major(n_paths, n_steps, d_common)
    for chunk, start in enumerate(range(0, n_paths, _CHUNK)):
        stop = min(start + _CHUNK, n_paths)
        normals = _chunk_normals(seed, _STREAM_NOISE, chunk, stop - start, n_steps * d)
        normals = normals.reshape(n_steps, d, stop - start)
        # (n_steps, d, paths) views of the chunk's rows in the step-major arrays
        np.multiply(normals[:, :d_state], sqdt, out=dw[start:stop].transpose(1, 2, 0))
        np.multiply(normals[:, d_state:], sqdt, out=dw0[start:stop].transpose(1, 2, 0))
    if n_paths >= 10_000:
        _increment_sanity_check(dw, grid.dt, "dW")
        _increment_sanity_check(dw0, grid.dt, "dW0")
    return NoiseBundle(grid=grid, seed=int(seed), dw=dw, dw0=dw0)


def _increment_sanity_check(arr: np.ndarray, dt: float, name: str) -> None:
    """Warns when the sample mean or variance of ``arr`` is more than 4 s.e. from (0, dt)."""
    flat = arr.ravel(order="K")              # a view of a step-major or C-contiguous array
    n = flat.size
    se_mean = np.sqrt(dt / n)
    se_var = dt * np.sqrt(2.0 / n)
    mean = flat.sum() / n
    var = flat @ flat / n - mean * mean
    if abs(mean) > 4 * se_mean or abs(var - dt) > 4 * se_var:
        import warnings

        warnings.warn(f"{name} increment statistics failed the sanity check: "
                      f"mean {mean:.3g} ({abs(mean) / se_mean:.1f} s.e.), "
                      f"var {var:.6g} vs dt {dt:.6g}")


def _simulate(spec: ProblemSpec, noise: NoiseBundle, policy=None, flow=None) -> PathBundle:
    """Euler scheme for the common state X0 and the state X, advanced together.

    Each initial sampler draws once, from its own stream of the noise seed.
    At each step X0 takes its common drift and dW0; X takes, with a policy,
    the drift of the policy's actions under ``flow`` (actions outside the box
    are clamped and counted), then the diffusion increment, grouped so that a
    zero drift reproduces the driftless paths bitwise.
    """
    if noise.dw0 is None:
        raise ValueError("noise bundle has no dW0: its common increments were already "
                         "integrated into reference paths")
    grid, n = noise.grid, noise.n_paths
    x = step_major(n, grid.n_steps + 1, spec.d_state)
    xc = step_major(n, grid.n_steps + 1, spec.d_common)
    for out, name, stream in ((x, "init_state_sampler", _STREAM_STATE_INIT),
                              (xc, "init_common_sampler", _STREAM_COMMON_INIT)):
        draw = np.asarray(getattr(spec, name)(_stream_generator(noise.seed, stream), n), float)
        if draw.shape != out[:, 0].shape:
            raise ValueError(f"{name} returned shape {draw.shape}, expected {out[:, 0].shape}")
        out[:, 0] = draw
    dt = grid.dt
    times = grid.times
    sigma_t, sigma0_t, sigmac_t = spec.sigma.T, spec.sigma0.T, spec.sigmac.T
    clamped = 0
    for k in range(grid.n_steps):
        bc = _like_state(spec.common_drift(times[k], xc[:, k]), xc[:, k], "common_drift")
        if not np.all(np.isfinite(bc)):
            bad = int(np.argwhere(~np.isfinite(bc))[0][0])
            raise RuntimeError(f"non-finite common drift at step {k}, path {bad}")
        xc[:, k + 1] = xc[:, k] + bc * dt + noise.dw0[:, k] @ sigmac_t
        x_k = x[:, k]
        if policy is not None:
            keys = flow.keys(k, xc)
            a = np.asarray(policy.actions(k, x_k, xc[:, k], keys), float)
            outside = (a < spec.action_lo - 1e-12) | (a > spec.action_hi + 1e-12)
            clamped += int(np.count_nonzero(outside.any(axis=1)))
            a = spec.clip_action(a)
            b = flow.per_bin(k, keys, lambda mu, xs, acts: _like_state(
                spec.drift(times[k], xs, mu, acts), xs), x_k, a, mean_only=spec.mean_field)
            if not np.all(np.isfinite(b)):
                bad = int(np.argwhere(~np.isfinite(b))[0][0])
                raise RuntimeError(f"non-finite controlled drift at step {k}, path {bad}")
            x_k = x_k + b * dt
        x[:, k + 1] = x_k + (noise.dw[:, k] @ sigma_t + noise.dw0[:, k] @ sigma0_t)
    return PathBundle(grid=grid, x=x, xc=xc, label="driftless" if policy is None else "markov",
                      clamp_count=clamped)


def simulate_driftless_state(spec: ProblemSpec, noise: NoiseBundle) -> PathBundle:
    """Reference-measure state: initial draw plus pure diffusion, no drift term."""
    return _simulate(spec, noise)


def simulate_markov_sde(spec: ProblemSpec, policy, flow, noise: NoiseBundle) -> PathBundle:
    """Controlled state under a Markovian feedback policy and a conditional measure flow.

    ``policy`` exposes ``actions(k, x, xc, key)``; ``flow`` exposes
    ``keys(k, xc)`` and ``per_bin(k, keys, fn, *rows, mean_only)``.  Actions falling
    outside the box are clamped and counted.
    """
    if noise.grid != flow.grid:
        raise ValueError("policy/flow grid does not match the noise grid")
    return _simulate(spec, noise, policy, flow)
