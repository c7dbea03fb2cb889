"""Peak memory of one best-response map application, traced by ``tracemalloc``.

The unit is one float64 per path and grid point, n_paths * (n_steps + 1) * 8
bytes.  A self-simulated ``apply_phi(spec, None, config)`` holds the reference
paths (x and xc), the Brownian increments dW (until the Girsanov weights
exist), log M, the BSDE actions, the paths' two cached int32 sort orders and
the bins of one flow at a time (int32 rows, int16 labels and, for Girsanov
weights, one float64 weight per path and step).  Measured with numpy 2.4 at
8,000 paths and 50 steps: 6.98 units.  A per-step copy of the unit weights,
a reference that keeps dW0, or noise held while the output is binned each
add about one unit (7.9-8.0 units); all three together give 8.96 units.
"""

import tracemalloc

from cnmfg.equilibrium import SolverConfig, apply_phi

PEAK_BOUND_UNITS = 7.5


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
