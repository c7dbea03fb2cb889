"""Stochastic exponential weights for the change of measure, and weighted means.

Weights are held only in the log domain; each consumer exponentiates the
step it needs, when it needs it.  Every log M is built the same way: each
step's checked log-increment is written into column k + 1 of a step-major
array (``put_log_increment``, in any step order), then
``GirsanovWeights.from_increments`` sums the columns in place in step order.
All expectation estimators are self-normalized ratios, so the discretization
bias of the normalizing constant cancels, and so does any per-step constant
factor: normalized weights come from ``scaled(k)``, which divides out step
k's largest weight in the log domain and cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec
from .sde import NoiseBundle, step_major

__all__ = [
    "GirsanovWeights",
    "stochastic_exponential",
    "put_log_increment",
    "log_increments",
    "self_normalized_mean",
    "paired_gap",
    "weighted_conditional_values",
    "ConditionalBinReport",
]


@dataclass
class GirsanovWeights:
    log_m: np.ndarray                       # (n_paths, n_steps + 1), log M_t, step-major

    @classmethod
    def from_increments(cls, log_m: np.ndarray) -> "GirsanovWeights":
        """Weights of a step-major ``log_m`` whose column k + 1 holds step k's
        log-increment and column 0 zero: the columns are summed in place, in step order."""
        for k in range(log_m.shape[1] - 1):
            np.add(log_m[:, k], log_m[:, k + 1], out=log_m[:, k + 1])
        return cls(log_m=log_m)

    @property
    def n_paths(self) -> int:
        return self.log_m.shape[0]

    @property
    def m_terminal(self) -> np.ndarray:
        return np.exp(self.log_m[:, -1])

    def scaled(self, k: int) -> np.ndarray:
        """exp(log M_k - its maximum over paths): proportional to M at step k.

        Self-normalized estimators are unchanged, but the weights are finite
        wherever ``log_m`` is: the largest weight of the step is one.
        """
        shifted = self.log_m[:, k] - self.log_m[:, k].max()
        return np.exp(shifted, out=shifted)

    def ess_frac(self, k: int) -> float:
        """Kish effective sample size of the weights at step k over the path count,
        (sum w)^2 / (n sum w^2) on ``scaled(k)``: one for equal weights, 1/n for one path."""
        w = self.scaled(k)
        return float(w.sum() ** 2 / np.dot(w, w) / w.size)

    def ess_frac_min(self) -> tuple:
        """(smallest ``ess_frac(k)`` over steps 1..n_steps, the first step k attaining it);
        step 0 is left out, where every weight is one."""
        fracs = [self.ess_frac(k) for k in range(1, self.log_m.shape[1])]
        k = int(np.argmin(fracs))
        return fracs[k], k + 1


def stochastic_exponential(spec: ProblemSpec, drift_samples, noise: NoiseBundle
                           ) -> GirsanovWeights:
    """Exponential martingale of the supplied sigma^-1 drift against W.

    ``drift_samples`` is an (n_paths, n_steps, d_state) array of sigma^-1 b
    evaluations, or a callable giving step k's (n_paths, d_state) drifts, which
    is called once per step in step order.  Each step's increment
    lambda . dW - |lambda|^2 dt / 2 goes straight into the step-major
    ``log_m``, which is then summed in place.
    """
    lam = drift_samples if callable(drift_samples) else _step_reader(
        drift_samples, noise.dw.shape, "drift_samples")
    log_m = step_major(noise.n_paths, noise.grid.n_steps + 1)
    for k in range(noise.grid.n_steps):
        put_log_increment(log_m, k, lam(k), noise)
    return GirsanovWeights.from_increments(log_m)


def _step_reader(values, shape: tuple, name: str):
    """``k -> values[:, k]``, once the whole (n_paths, n_steps, width) ``shape`` is checked."""
    a = np.asarray(values, float)
    if a.shape != shape:
        raise ValueError(f"{name} shape {a.shape} does not match paths: expected {shape}")
    return lambda k: a[:, k]


def put_log_increment(log_m: np.ndarray, k: int, lam_k, noise: NoiseBundle) -> None:
    """Writes step k's log-increment of the sigma^-1 drifts ``lam_k`` (n_paths,
    d_state) into ``log_m[:, k + 1]``; a misshapen or non-finite drift raises,
    naming the step (and the first offending path)."""
    dw_k = noise.dw[:, k]
    lam_k = np.asarray(lam_k, float)
    if lam_k.shape != dw_k.shape:
        raise ValueError(f"step {k} drift shape {lam_k.shape} != increments shape "
                         f"{dw_k.shape}")
    bad = ~np.isfinite(lam_k).all(axis=1)
    if bad.any():
        raise RuntimeError(f"non-finite drift sample at path {np.argmax(bad)}, step {k}")
    log_m[:, k + 1] = log_increments(lam_k, dw_k, noise.grid.dt)


def log_increments(lam: np.ndarray, dw: np.ndarray, dt: float) -> np.ndarray:
    """Per-step log-weight increments lambda . dW - |lambda|^2 dt / 2 (last axis summed).

    Leading axes broadcast, so stacked drift samples share one increment array.
    """
    return np.einsum("...k,...k->...", lam, dw) - 0.5 * dt * np.einsum("...k,...k->...", lam, lam)


def self_normalized_mean(values: np.ndarray, weights: np.ndarray):
    """Ratio estimator sum(w v)/sum(w) with its influence values and standard error."""
    v = np.asarray(values, float).ravel()
    w = np.asarray(weights, float).ravel()
    if v.shape != w.shape:
        raise ValueError("values and weights must be aligned by path")
    wbar = w.mean()
    est = float((w * v).sum() / w.sum())
    influence = w * (v - est) / wbar
    stderr = float(influence.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else float("inf")
    return est, stderr, influence


def paired_gap(a: tuple, b: tuple):
    """(estimate a - estimate b, paired standard error) of two ``self_normalized_mean``
    triples on the same paths; the error is that of the influence difference's mean."""
    diff = a[2] - b[2]
    return float(a[0] - b[0]), float(diff.std(ddof=1) / np.sqrt(diff.size))


@dataclass
class ConditionalBinReport:
    bin_means: np.ndarray           # per-bin self-normalized mean of values
    bin_weight_means: np.ndarray    # per-bin mean weight / global mean weight
    counts: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.bin_means.shape[0]


def weighted_conditional_values(values: np.ndarray, weights: np.ndarray,
                                bin_index: np.ndarray, n_bins: int) -> ConditionalBinReport:
    """Per-bin self-normalized means plus normalized per-bin weight masses.

    ``weights`` is a raw weight vector (e.g. M at some step); ``bin_index``
    comes from the measure-flow binning.  The normalized per-bin weight means
    let the conditional-martingale identity E[M | bin] = 1 be tested after
    global normalization.
    """
    v = np.asarray(values, float).ravel()
    w = np.asarray(weights, float).ravel()
    b = np.asarray(bin_index).ravel()
    counts = np.bincount(b, minlength=n_bins)
    wsum = np.bincount(b, weights=w, minlength=n_bins)
    wvsum = np.bincount(b, weights=w * v, minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(wsum > 0, wvsum / wsum, np.nan)
        weight_means = np.where(counts > 0, wsum / np.maximum(counts, 1), np.nan) / w.mean()
    return ConditionalBinReport(bin_means=means, bin_weight_means=weight_means, counts=counts)
