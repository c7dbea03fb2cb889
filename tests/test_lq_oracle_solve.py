"""The solver against the LQ oracle (``lq_oracle.py``) on instances whose
action box (+-4) never binds, one of them (w < 0) monotone: the reported y0
lies within three printed standard errors of the oracle's value, each bin's
conditional mean lies near beta(t) times its mean key, and the feedback's
slope in x is -K11(t) / ca."""

import numpy as np
import pytest

import cnmfg
from cnmfg.equilibrium import SolverConfig, solve_equilibrium

from lq_oracle import solve_lq
from test_lq_oracle import CLIPPED_Y0

# measured at seed 1: max |z| 2.63 and mean z +0.20 at w = 0.5, 3.93 and
# +0.29 at w = 0.9, 2.99 and +0.12 at w = -0.5 over 800 (step, bin) cells
MAX_BIN_Z = 5.0
MAX_MEAN_BIN_Z = 0.5
# measured at seed 1: relative slope errors from -3.2% to +2.5% at each w
SLOPE_REL_TOL = 0.05


@pytest.fixture(scope="module", params=sorted(CLIPPED_Y0))
def solved(request):
    """(w, spec, equilibrium result, oracle solution), one solve per instance."""
    w = request.param
    spec = cnmfg.make_instance("lq", interaction=w, action_lo=-4.0, action_hi=4.0)
    result = solve_equilibrium(spec, SolverConfig(tol=1e-3, seed=1), project=False)
    return w, spec, result, solve_lq(spec.params)


def test_y0_within_three_standard_errors_of_the_oracle(solved):
    w, _, result, _ = solved
    assert result.report.converged
    sol = result.solution
    assert abs(sol.y0 - CLIPPED_Y0[w]) <= 3.0 * sol.y0_stderr, (sol.y0, sol.y0_stderr)


def _bin_z_scores(flow, beta_at):
    """z = (mean state - beta(t_k) * mean key) / (state sd / sqrt(Kish ESS)) per
    (step, bin) cell of steps 1..n_steps, each bin under its normalized weights."""
    paths, zs = flow.paths, []
    for k in range(1, flow.grid.n_steps + 1):
        bins = flow.steps[k]
        ends = np.cumsum(bins.counts)
        for b, (lo, hi) in enumerate(zip(ends - bins.counts, ends)):
            rows = bins.rows[lo:hi]
            w = bins.row_w[lo:hi] / bins.totals[b]
            x, key = paths.x[rows, k, 0], flow.src_key[rows, k]
            x_mean = w @ x
            sd = np.sqrt(w @ (x - x_mean) ** 2)
            ess = 1.0 / (w @ w)
            zs.append((x_mean - beta_at(flow.grid.times[k]) * (w @ key)) / (sd / np.sqrt(ess)))
    return np.array(zs)


def test_bin_means_follow_the_oracle_conditional_mean(solved):
    _, _, result, oracle = solved
    z = _bin_z_scores(result.flow, lambda t: np.interp(t, oracle.t, oracle.beta))
    assert z.size >= result.flow.grid.n_steps
    assert np.abs(z).max() <= MAX_BIN_Z, np.abs(z).max()
    assert abs(z.mean()) <= MAX_MEAN_BIN_Z, z.mean()


@pytest.mark.parametrize("k", [0, 10, 25, 40, 49])
def test_feedback_slope_matches_the_oracle(solved, k):
    _, spec, result, oracle = solved
    x = np.linspace(-1.0, 1.0, 41)
    actions = result.policy.actions(k, x[:, None], np.zeros((x.size, 1)), np.zeros(x.size))
    slope = np.polyfit(x, actions[:, 0], 1)[0]
    t_k = result.solution.grid.times[k]
    want = -np.interp(t_k, oracle.t, oracle.k[:, 0, 0]) / spec.params["action_weight"]
    assert slope == pytest.approx(want, rel=SLOPE_REL_TOL), (slope, want)
