"""Game instances: coefficients, costs, action box, and Hamiltonian machinery.

Coefficient callables are vectorized over a batch of paths:

    drift(t, x, mu, a)        t scalar, x (n, d_state), a (n, d_action) -> (n, d_state)
    common_drift(t, xc)       xc (n, d_common)                           -> (n, d_common)
    running_cost(t, x, mu, a)                                            -> (n,)
    terminal_cost(x, mu)                                                 -> (n,)
    argmin_action(t, x, mu, z)  optional, z (n, d_state)                 -> (n, d_action)
    invert_drift(t, x, mu, target)  optional, target (n, d_state)        -> (n, d_action)

``mu`` is an :class:`EmpiricalMeasure` (weighted atoms plus a cached
mean): the one measure type, which the flows in ``flows.py`` also bin,
sort and transport.  Row i of a batch is a player conditioned on the common
state, and ``mu`` is the conditional law of its bin.

A spec built with ``mean_field=True`` declares that every callable above
taking ``mu`` reads it only as ``mu.mean[j]`` and treats each batch row on its
own (no sums, sorts or stop tests across rows).  Such a spec's coefficients
may then be called once for a whole step, with rows from many bins: ``mu`` is
an object whose ``mean`` is a (d_state, n) array, column i the mean of row
i's bin, and elementwise code computes the same bits as one call per bin.
The declaration is bound like the two hooks: a ``dataclasses.replace`` that
swaps ``drift``, ``running_cost``, ``terminal_cost`` or either hook drops it
(a hook that the replace itself drops counts as swapped).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "ProblemSpec",
    "ValidationReport",
    "hamiltonian_batch",
    "minimize_hamiltonian_batch",
    "box_minimize_batch",
    "validate_spec",
    "make_instance",
    "register_family",
    "point_mass_sampler",
    "truncated_gaussian_sampler",
]

_COND_LIMIT = 1e12
_TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


class EmpiricalMeasure:
    """Finite-support probability measure: weighted atoms in R^d, normalized to mass one.

    ``mean`` is computed on first access and cached.
    """

    def __init__(self, support, weights=None):
        support = np.asarray(support, dtype=float)
        if support.ndim == 1:
            support = support[:, None]
        if support.shape[0] == 0:
            raise ValueError("empirical measure needs a non-empty support")
        if weights is None:
            weights = np.full(support.shape[0], 1.0 / support.shape[0])
        else:
            weights = np.asarray(weights, dtype=float).ravel()
            if weights.shape[0] != support.shape[0]:
                raise ValueError("support and weights length mismatch")
            total = weights.sum()
            if not 0 < total < np.inf:
                raise ValueError("empirical measure needs positive total mass")
            if np.any(weights < 0):
                raise ValueError("negative weights")
            weights = weights / total
        self.support = support
        self.weights = weights

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @cached_property
    def mean(self) -> np.ndarray:
        return self.weights @ self.support

    @property
    def sorted_1d(self):
        """(sorted atoms, matching weights), tied atoms in support order; only
        valid for 1-d supports.  Sorted on every call."""
        if self.dim != 1:
            raise ValueError("sorted_1d requires 1-d support")
        order = np.argsort(self.support[:, 0], kind="stable")
        return self.support[order, 0], self.weights[order]


class _RowsMeasure(EmpiricalMeasure):
    """A flow bin: rows ``rows`` of the (n, d) ``atoms``, sorted by their first
    coordinate, under the weights ``w`` of total ``total``.

    Nothing is copied at construction: ``support``, ``weights`` and
    ``sorted_1d`` are gathered on each read, and only ``mean`` is cached.
    ``atoms`` must not change afterwards.
    """

    def __init__(self, atoms: np.ndarray, rows: np.ndarray, w: np.ndarray, total: float):
        self._atoms, self._rows, self._w, self._total = atoms, rows, w, total

    @property
    def support(self) -> np.ndarray:
        return self._atoms.take(self._rows, axis=0)

    @property
    def weights(self) -> np.ndarray:
        return self._w / self._total

    @property
    def dim(self) -> int:
        return self._atoms.shape[1]

    @property
    def sorted_1d(self):
        if self.dim != 1:
            raise ValueError("sorted_1d requires 1-d support")
        return self._atoms[:, 0].take(self._rows), self.weights


# ---------------------------------------------------------------------------
# game instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    d_state: int = field(init=False)         # read off sigma, sigmac and the action box
    d_common: int = field(init=False)
    d_action: int = field(init=False)
    horizon: float
    sigma: np.ndarray
    sigma0: np.ndarray
    sigmac: np.ndarray
    action_lo: np.ndarray
    action_hi: np.ndarray
    drift_bound: float
    common_drift_bound: float
    drift: Callable
    common_drift: Callable
    running_cost: Callable
    terminal_cost: Callable
    init_state_sampler: Callable
    init_common_sampler: Callable
    family: str = "custom"
    params: dict = field(default_factory=dict)
    argmin_action: Optional[Callable] = None
    invert_drift: Optional[Callable] = None
    mean_field: bool = False

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be finite and > 0")
        object.__setattr__(self, "sigma", np.atleast_2d(np.asarray(self.sigma, float)))
        object.__setattr__(self, "sigma0", np.atleast_2d(np.asarray(self.sigma0, float)))
        object.__setattr__(self, "sigmac", np.atleast_2d(np.asarray(self.sigmac, float)))
        lo = np.atleast_1d(np.asarray(self.action_lo, float))
        hi = np.atleast_1d(np.asarray(self.action_hi, float))
        object.__setattr__(self, "action_lo", lo)
        object.__setattr__(self, "action_hi", hi)
        for name in ("sigma", "sigma0", "sigmac", "action_lo", "action_hi"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name in ("sigma", "sigmac"):
            m = getattr(self, name)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
                raise ValueError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
        if lo.ndim != 1 or lo.size == 0 or hi.shape != lo.shape:
            raise ValueError("action box bounds must be non-empty vectors of one length")
        object.__setattr__(self, "d_state", self.sigma.shape[0])
        object.__setattr__(self, "d_common", self.sigmac.shape[0])
        object.__setattr__(self, "d_action", lo.size)
        if self.sigma0.shape != (self.d_state, self.d_common):
            raise ValueError("sigma0 must be d_state x d_common")
        if np.any(lo > hi):
            raise ValueError("empty action box (lo > hi)")
        object.__setattr__(self, "argmin_action", _bind_hook(
            self.argmin_action, (self.drift, self.running_cost, self.sigma.tobytes())))
        object.__setattr__(self, "invert_drift", _bind_hook(self.invert_drift, (self.drift,)))
        # a truthy bound token, or False once a callable that takes mu is swapped
        object.__setattr__(self, "mean_field", _bind_hook(self.mean_field or None, (
            self.drift, self.running_cost, self.terminal_cost, self.argmin_action,
            self.invert_drift)) or False)

    @cached_property
    def cond_sigma(self) -> float:
        return float(np.linalg.cond(self.sigma))

    @cached_property
    def cond_sigmac(self) -> float:
        return float(np.linalg.cond(self.sigmac))

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        """Inverse of sigma, computed on first use rather than at construction
        so that validate_spec can still report on a singular spec."""
        if not np.isfinite(self.cond_sigma) or self.cond_sigma > _COND_LIMIT:
            raise ValueError(
                f"sigma is numerically singular (cond={self.cond_sigma:.3g})"
            )
        return np.linalg.inv(self.sigma)

    def clip_action(self, a: np.ndarray) -> np.ndarray:
        return np.clip(a, self.action_lo, self.action_hi)


class _BoundHook:
    """A closed-form hook, or the ``mean_field`` declaration (``fn`` True), tied
    to the coefficients it was derived from."""

    __slots__ = ("fn", "derived_from")

    def __init__(self, fn: Callable, derived_from: tuple):
        self.fn = fn
        self.derived_from = derived_from

    def __call__(self, t, x, mu, arg):
        return self.fn(t, x, mu, arg)


def _bind_hook(hook: Optional[Callable], derived_from: tuple) -> Optional[_BoundHook]:
    """Binds a hook to the spec coefficients it is derived from.

    ``dataclasses.replace`` hands the old spec's bound hook to the new spec; a
    hook bound to other coefficients no longer solves this spec's problem and
    is dropped.  ``argmin_action`` is bound to the drift, running cost and
    sigma; ``invert_drift`` to the drift alone; ``mean_field`` to the drift,
    the running and terminal costs and the two bound hooks.
    """
    if hook is None:
        return None
    if isinstance(hook, _BoundHook):
        return hook if hook.derived_from == derived_from else None
    return _BoundHook(hook, derived_from)


# ---------------------------------------------------------------------------
# Hamiltonian and its minimization
# ---------------------------------------------------------------------------


def _like_state(b, x: np.ndarray, name: str = "drift") -> np.ndarray:
    """The drift ``b`` of the (n, d) states ``x``, shaped like ``x``: an (n,)
    drift of a one-dimensional state reads as (n, 1), any other shape raises."""
    b = np.asarray(b, dtype=float)
    if b.shape != x.shape and (b.shape != x.shape[:1] or x.shape[1:] != (1,)):
        raise ValueError(f"{name} returned shape {b.shape}, expected {x.shape}")
    return b.reshape(x.shape)


def _sigma_inv_drift(spec: ProblemSpec, t: float, x: np.ndarray, mu,
                     a: np.ndarray) -> np.ndarray:
    """sigma^-1 b(t, x, mu, a), one row per path."""
    return _like_state(spec.drift(t, x, mu, a), x) @ spec.sigma_inv.T


def hamiltonian_batch(spec: ProblemSpec, t: float, x: np.ndarray, mu: EmpiricalMeasure,
                      a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Reduced Hamiltonian over a path batch: running cost plus z . sigma^-1 drift."""
    f = np.asarray(spec.running_cost(t, x, mu, a), dtype=float).ravel()
    return f + np.einsum("nk,nk->n", z, _sigma_inv_drift(spec, t, x, mu, a))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_GRID_POINTS = 33   # per axis of the box search's coarse scan
_GS_ITERS = 40      # golden-section steps per coordinate refinement
_SWEEPS = 3         # cyclic coordinate sweeps when the box has several axes


def box_minimize_batch(objective: Callable, lo: np.ndarray, hi: np.ndarray, n: int):
    """Minimize ``objective(a)`` over a box, independently for each of n batch rows.

    ``objective`` maps an (n, d) action array to an (n,) value array.  Coarse
    lexicographically ordered grid scan of ``_GRID_POINTS`` per axis (first
    index wins ties within 1e-12), then cyclic per-coordinate golden-section
    refinement around the grid cell.  Returns (argmin (n, d), value (n,)).
    """
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    d = lo.shape[0]
    axes = [np.linspace(lo[j], hi[j], _GRID_POINTS) for j in range(d)]
    spacing = (hi - lo) / (_GRID_POINTS - 1)

    candidates = list(itertools.product(*axes))
    vals = np.empty((len(candidates), n))
    for i, cand in enumerate(candidates):
        a = np.tile(np.asarray(cand), (n, 1))
        vals[i] = objective(a)
    min_vals = vals.min(axis=0)
    # first candidate within the tie tolerance; candidates are enumerated in
    # lexicographic order, so this picks the lexicographically smallest action
    pick = np.argmax(vals <= min_vals[None, :] + _TIE_TOL, axis=0)
    best_a = np.asarray(candidates, dtype=float)[pick]
    best_val = vals[pick, np.arange(n)]

    # cyclic coordinate descent over a single coordinate is idempotent after
    # the first sweep; later sweeps only matter when coordinates couple.  Every
    # batch runs the same sweeps, so a row's action never depends on its batch.
    for _ in range(1 if d == 1 else _SWEEPS):
        for j in range(d):
            if spacing[j] <= 0:
                continue
            a_lo = np.maximum(best_a[:, j] - spacing[j], lo[j])
            a_hi = np.minimum(best_a[:, j] + spacing[j], hi[j])
            if np.max(a_hi - a_lo) < 1e-13 * max(1.0, hi[j] - lo[j]):
                continue
            best_a, best_val = _golden_section_coord(
                objective, best_a, best_val, j, a_lo, a_hi)
    return best_a, best_val


def _golden_section_coord(objective, base_a, base_val, j, a_lo, a_hi):
    def eval_at(coord_vals):
        a = base_a.copy()
        a[:, j] = coord_vals
        return objective(a)

    m1 = a_hi - _INV_GOLDEN * (a_hi - a_lo)
    m2 = a_lo + _INV_GOLDEN * (a_hi - a_lo)
    f1 = eval_at(m1)
    f2 = eval_at(m2)
    for _ in range(_GS_ITERS):
        left = f1 < f2
        hi_new = np.where(left, m2, a_hi)
        lo_new = np.where(left, a_lo, m1)
        m1_new = np.where(left, hi_new - _INV_GOLDEN * (hi_new - lo_new), m2)
        m2_new = np.where(left, m1, lo_new + _INV_GOLDEN * (hi_new - lo_new))
        probe = np.where(left, m1_new, m2_new)
        f_probe = eval_at(probe)
        f1, f2 = np.where(left, f_probe, f2), np.where(left, f1, f_probe)
        a_lo, a_hi, m1, m2 = lo_new, hi_new, m1_new, m2_new
    cand = np.where(f1 < f2, m1, m2)
    cand_val = np.minimum(f1, f2)
    improved = cand_val < base_val
    out_a = base_a.copy()
    out_a[improved, j] = cand[improved]
    out_val = np.where(improved, cand_val, base_val)
    return out_a, out_val


def minimize_hamiltonian_batch(spec: ProblemSpec, t: float, x: np.ndarray,
                               mu: EmpiricalMeasure, z: np.ndarray) -> np.ndarray:
    """Vectorized Hamiltonian minimizer, (n, d_action).

    With an ``argmin_action`` hook the unconstrained minimizer is clipped to
    the action box and no Hamiltonian is evaluated; otherwise the generic box
    search runs.
    """
    n = x.shape[0]
    if spec.argmin_action is not None:
        a = np.asarray(spec.argmin_action(t, x, mu, z), float).reshape(n, spec.d_action)
        return spec.clip_action(a)
    return box_minimize_batch(lambda a: hamiltonian_batch(spec, t, x, mu, a, z),
                              spec.action_lo, spec.action_hi, n)[0]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    n_probes: int
    max_drift: float
    max_common_drift: float
    cond_sigma: float
    cond_sigmac: float
    drift_ok: bool
    common_drift_ok: bool
    sigma_ok: bool
    sigmac_ok: bool
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.drift_ok and self.common_drift_ok and self.sigma_ok and self.sigmac_ok

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"validation: {status} ({self.n_probes} probes)",
            f"  max |drift| = {self.max_drift:.6g} (bound ok: {self.drift_ok})",
            f"  max |common drift| = {self.max_common_drift:.6g} (bound ok: {self.common_drift_ok})",
            f"  cond(sigma) = {self.cond_sigma:.6g} (ok: {self.sigma_ok})",
            f"  cond(sigmac) = {self.cond_sigmac:.6g} (ok: {self.sigmac_ok})",
        ]
        lines.extend("  note: " + n for n in self.notes)
        return "\n".join(lines)


def validate_spec(spec: ProblemSpec, n_probes: int = 256, seed: int = 0) -> ValidationReport:
    """Sample-based check of the declared drift bounds and diffusion invertibility."""
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    rng = np.random.default_rng(seed)
    notes = []

    # probe actions: uniform over the box plus all box corners
    corners = list(itertools.product(*zip(spec.action_lo, spec.action_hi)))[:64]
    a_probes = rng.uniform(spec.action_lo, spec.action_hi, size=(n_probes, spec.d_action))
    a_probes = np.vstack([a_probes, np.asarray(corners, float)])
    m = a_probes.shape[0]
    t_probes = rng.uniform(0.0, spec.horizon, size=m)
    x_probes = rng.normal(0.0, 3.0, size=(m, spec.d_state))
    xc_probes = rng.normal(0.0, 3.0, size=(m, spec.d_common))
    mu_atoms = rng.normal(0.0, 2.0, size=(8, spec.d_state))
    mu = EmpiricalMeasure(mu_atoms)

    max_drift = 0.0
    max_common = 0.0
    for i in range(m):
        b = np.asarray(spec.drift(t_probes[i], x_probes[i : i + 1], mu, a_probes[i : i + 1]), float)
        bc = np.asarray(spec.common_drift(t_probes[i], xc_probes[i : i + 1]), float)
        if not np.all(np.isfinite(b)) or not np.all(np.isfinite(bc)):
            notes.append(f"non-finite drift at probe {i}")
            max_drift = np.inf
            break
        max_drift = max(max_drift, float(np.linalg.norm(b)))
        max_common = max(max_common, float(np.linalg.norm(bc)))

    drift_ok = max_drift <= spec.drift_bound + 1e-9
    common_ok = max_common <= spec.common_drift_bound + 1e-9
    sigma_ok = np.isfinite(spec.cond_sigma) and spec.cond_sigma <= _COND_LIMIT
    sigmac_ok = np.isfinite(spec.cond_sigmac) and spec.cond_sigmac <= _COND_LIMIT
    if not sigma_ok:
        notes.append("singular sigma")
    if not sigmac_ok:
        notes.append("singular sigmac")
    if not drift_ok and np.isfinite(max_drift):
        notes.append(f"drift bound {spec.drift_bound} violated: observed {max_drift:.6g}")
    return ValidationReport(
        n_probes=m, max_drift=max_drift, max_common_drift=max_common,
        cond_sigma=spec.cond_sigma, cond_sigmac=spec.cond_sigmac,
        drift_ok=drift_ok, common_drift_ok=common_ok,
        sigma_ok=sigma_ok, sigmac_ok=sigmac_ok, notes=notes,
    )


# ---------------------------------------------------------------------------
# initial-condition samplers
# ---------------------------------------------------------------------------


def point_mass_sampler(value, dim: int = 1):
    value = np.broadcast_to(np.atleast_1d(np.asarray(value, float)), (dim,)).copy()

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.tile(value, (n, 1))

    return sample


def truncated_gaussian_sampler(mean=0.0, std=1.0, clip: float = 3.0, dim: int = 1):
    """Gaussian clipped at mean +- clip*std, so every moment bound holds trivially."""
    mean = np.broadcast_to(np.atleast_1d(np.asarray(mean, float)), (dim,))
    std = np.broadcast_to(np.atleast_1d(np.asarray(std, float)), (dim,))

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        draws = rng.normal(0.0, 1.0, size=(n, dim))
        return mean + std * np.clip(draws, -clip, clip)

    return sample


# ---------------------------------------------------------------------------
# built-in instance families
# ---------------------------------------------------------------------------


def _zero_common_drift(t, xc):
    return np.zeros_like(xc)


def _scalar_spec(family: str, params: dict, drift, running_cost, terminal_cost,
                 argmin_action, invert_drift, drift_bound: float) -> ProblemSpec:
    """A built-in 1-d instance with zero common drift, whose coefficients read
    ``mu`` only through its mean (``mean_field``).

    ``params`` holds every keyword value of the family's builder; each is
    recorded in ``spec.params`` as a float.  The initial common state is a
    point mass unless ``common_init_std`` is positive.
    """
    v = {key: float(val) for key, val in params.items()}
    if v["common_init_std"] > 0:
        common_sampler = truncated_gaussian_sampler(v["common_init"], v["common_init_std"], dim=1)
    else:
        common_sampler = point_mass_sampler(v["common_init"], dim=1)
    return ProblemSpec(
        horizon=v["horizon"],
        sigma=[[v["sigma"]]], sigma0=[[v["sigma0"]]], sigmac=[[v["sigmac"]]],
        action_lo=[v["action_lo"]], action_hi=[v["action_hi"]],
        drift_bound=drift_bound, common_drift_bound=0.0,
        drift=drift, common_drift=_zero_common_drift,
        running_cost=running_cost, terminal_cost=terminal_cost,
        init_state_sampler=truncated_gaussian_sampler(v["init_mean"], v["init_std"],
                                                      clip=v["init_clip"], dim=1),
        init_common_sampler=common_sampler,
        family=family, params=v, argmin_action=argmin_action, invert_drift=invert_drift,
        mean_field=True,
    )


def _make_lq(action_weight: float = 1.0, state_weight: float = 3.0,
             terminal_weight: float = 1.0, interaction: float = 2.5,
             sigma: float = 1.0, sigma0: float = 0.5, sigmac: float = 1.0,
             horizon: float = 1.0, action_lo: float = -1.0, action_hi: float = 1.0,
             init_mean: float = 0.0, init_std: float = 0.5, init_clip: float = 3.0,
             common_init: float = 0.0, common_init_std: float = 0.0) -> ProblemSpec:
    """Linear-quadratic family: drift = action, quadratic costs in (a, x - w*mean).

    Default weights give a fixed point the damped iteration genuinely has to
    work for (several iterations at desk scale) while staying contractive.
    """
    params = dict(locals())
    w = float(interaction)
    ca, cx, cg = float(action_weight), float(state_weight), float(terminal_weight)

    def drift(t, x, mu, a):
        return a

    def running_cost(t, x, mu, a):
        dev = x[:, 0] - w * mu.mean[0]
        return 0.5 * ca * a[:, 0] ** 2 + 0.5 * cx * dev ** 2

    def terminal_cost(x, mu):
        dev = x[:, 0] - w * mu.mean[0]
        return 0.5 * cg * dev ** 2

    # H = ca a^2 / 2 + (z / sigma) a + terms free of a; with ca <= 0 the
    # minimizer sits on the box boundary and the box search finds it
    def argmin_action(t, x, mu, z):
        return -(z / float(sigma)) / ca

    # drift = a: the gap |b - target|^2 is separable in a, so clipping the
    # inverse to the box minimizes it there
    def invert_drift(t, x, mu, target):
        return target

    return _scalar_spec("lq", params, drift, running_cost, terminal_cost,
                        argmin_action if ca > 0 else None, invert_drift,
                        drift_bound=max(abs(float(action_lo)), abs(float(action_hi))))


def _make_tanh(gain: float = 0.5, cost_weight: float = 1.0, interaction: float = 1.0,
               sigma: float = 1.0, sigma0: float = 0.5, sigmac: float = 1.0,
               horizon: float = 1.0, action_lo: float = -1.0, action_hi: float = 1.0,
               init_mean: float = 0.0, init_std: float = 0.5, init_clip: float = 3.0,
               common_init: float = 0.0, common_init_std: float = 0.0) -> ProblemSpec:
    """Saturating-drift family with costs that are nonsmooth in the measure argument."""
    params = dict(locals())
    g0 = float(gain)
    cw = float(cost_weight)
    w = float(interaction)

    def drift(t, x, mu, a):
        return g0 * np.tanh(x) + a

    def running_cost(t, x, mu, a):
        return 0.5 * a[:, 0] ** 2 + cw * np.abs(x[:, 0] - w * mu.mean[0])

    def terminal_cost(x, mu):
        return cw * np.abs(x[:, 0] - w * mu.mean[0])

    # H = a^2 / 2 + (z / sigma) a + terms free of a
    def argmin_action(t, x, mu, z):
        return -(z / float(sigma))

    # drift = g0 tanh(x) + a: as for lq, the clipped inverse is the box minimizer
    def invert_drift(t, x, mu, target):
        return target - g0 * np.tanh(x)

    box_rad = max(abs(float(action_lo)), abs(float(action_hi)))
    return _scalar_spec("tanh", params, drift, running_cost, terminal_cost,
                        argmin_action, invert_drift, drift_bound=abs(g0) + box_rad)


_FAMILIES: dict[str, Callable[..., ProblemSpec]] = {
    "lq": _make_lq,
    "tanh": _make_tanh,
}


def register_family(name: str, builder: Callable[..., ProblemSpec]) -> None:
    _FAMILIES[name] = builder


def make_instance(family: str, **params) -> ProblemSpec:
    try:
        builder = _FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown instance family {family!r} (known: {known})") from None
    return builder(**params)
