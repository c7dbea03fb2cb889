"""The solver against the LQ oracle (``lq_oracle.py``): the reported y0 lies
within three printed standard errors of the oracle's value, on instances whose
action box (+-4) never binds."""

import pytest

import cnmfg
from cnmfg.equilibrium import SolverConfig, solve_equilibrium

from test_lq_oracle import CLIPPED_Y0


@pytest.mark.parametrize("w", sorted(CLIPPED_Y0))
def test_y0_within_three_standard_errors_of_the_oracle(w):
    spec = cnmfg.make_instance("lq", interaction=w, action_lo=-4.0, action_hi=4.0)
    result = solve_equilibrium(spec, SolverConfig(tol=1e-3, seed=1), project=False)
    assert result.report.converged
    sol = result.solution
    assert abs(sol.y0 - CLIPPED_Y0[w]) <= 3.0 * sol.y0_stderr, (sol.y0, sol.y0_stderr)
