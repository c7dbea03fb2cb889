"""Stochastic exponential weights for the change of measure, and weighted means.

Weights are accumulated in the log domain; linear-domain values are produced
lazily.  All expectation estimators are self-normalized ratios, so the
discretization bias of the normalizing constant cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problem import ProblemSpec
from .sde import NoiseBundle, TimeGrid, step_major

__all__ = [
    "GirsanovWeights",
    "stochastic_exponential",
    "log_increments",
    "self_normalized_mean",
    "weighted_conditional_values",
    "ConditionalBinReport",
]


@dataclass
class GirsanovWeights:
    grid: TimeGrid
    log_m: np.ndarray                       # (n_paths, n_steps + 1), log M_t, step-major
    _m: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_paths(self) -> int:
        return self.log_m.shape[0]

    @property
    def m(self) -> np.ndarray:
        """exp(log M), in the layout of ``log_m``."""
        if self._m is None:
            self._m = np.exp(self.log_m)
        return self._m

    @property
    def m_terminal(self) -> np.ndarray:
        return self.m[:, -1]


def stochastic_exponential(spec: ProblemSpec, drift_samples: np.ndarray,
                           noise: NoiseBundle) -> GirsanovWeights:
    """Exponential martingale of the supplied sigma^-1 drift against W.

    ``drift_samples`` has shape (n_paths, n_steps, d_state) and already contains
    sigma^-1 b evaluations;  log M accumulates lambda . dW - |lambda|^2 dt / 2.
    """
    lam = np.asarray(drift_samples, float)
    if lam.shape != noise.dw.shape:
        raise ValueError(f"drift_samples shape {lam.shape} != increments shape {noise.dw.shape}")
    if not np.all(np.isfinite(lam)):
        path, step = np.argwhere(~np.isfinite(lam).all(axis=2))[0]
        raise RuntimeError(f"non-finite drift sample at path {path}, step {step}")
    log_m = step_major(lam.shape[0], noise.grid.n_steps + 1)
    np.cumsum(log_increments(lam, noise.dw, noise.grid.dt), axis=1, out=log_m[:, 1:])
    return GirsanovWeights(grid=noise.grid, log_m=log_m)


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


@dataclass
class ConditionalBinReport:
    bin_means: np.ndarray           # per-bin self-normalized mean of values
    bin_weight_means: np.ndarray    # per-bin mean weight / global mean weight
    counts: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.bin_means.shape[0]


def weighted_conditional_values(values: np.ndarray, weights: np.ndarray,
                                bin_index: np.ndarray, n_bins: Optional[int] = None
                                ) -> ConditionalBinReport:
    """Per-bin self-normalized means plus normalized per-bin weight masses.

    ``weights`` is a raw weight vector (e.g. M at some step); ``bin_index``
    comes from the measure-flow binning.  The normalized per-bin weight means
    let the conditional-martingale identity E[M | bin] = 1 be tested after
    global normalization.
    """
    v = np.asarray(values, float).ravel()
    w = np.asarray(weights, float).ravel()
    b = np.asarray(bin_index).ravel()
    if n_bins is None:
        n_bins = int(b.max()) + 1 if b.size else 0
    counts = np.bincount(b, minlength=n_bins)
    wsum = np.bincount(b, weights=w, minlength=n_bins)
    wvsum = np.bincount(b, weights=w * v, minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(wsum > 0, wvsum / wsum, np.nan)
        weight_means = np.where(counts > 0, wsum / np.maximum(counts, 1), np.nan) / w.mean()
    return ConditionalBinReport(bin_means=means, bin_weight_means=weight_means, counts=counts)
