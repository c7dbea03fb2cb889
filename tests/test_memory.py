"""Peak memory of one best-response map application, traced by ``tracemalloc``.

The unit is one float64 per path and grid point, n_paths * (n_steps + 1) * 8
bytes.  A self-simulated ``apply_phi(spec, None, config)`` holds the reference
paths (x and xc), the Brownian increments dW (until the BSDE pass has
accumulated the Girsanov weights), log M, the paths' two cached int32 sort
orders and the bins of one flow at a time (int32 rows, int16 labels and, for
Girsanov weights, one float64 weight per path and step).  It holds no action
array: the BSDE pass evaluates each step's drift where it minimizes the
Hamiltonian.  Measured with numpy 2.4 at 8,000 paths and 50 steps: 6.43 units.
An (n, n_steps) action array held next to log M, as when the weights were a
second pass over stored actions, adds about one unit (6.98 units).
"""

import tracemalloc

from cnmfg.equilibrium import SolverConfig, apply_phi

PEAK_BOUND_UNITS = 6.6


def test_self_simulated_phi_peak(lq_spec):
    cfg = SolverConfig(n_paths=8000, n_steps=50, n_bins=16, seed=1)
    unit = cfg.n_paths * (cfg.n_steps + 1) * 8
    tracemalloc.start()
    try:
        phi = apply_phi(lq_spec, None, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phi.flow.n_source == cfg.n_paths
    assert peak / unit <= PEAK_BOUND_UNITS, f"traced peak {peak / unit:.2f} units"
