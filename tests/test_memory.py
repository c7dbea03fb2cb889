"""Peak memory of one best-response map application and of one Picard mix,
traced by ``tracemalloc``.

The unit is one float64 per path and grid point, n_paths * (n_steps + 1) * 8
bytes.  A self-simulated ``apply_phi(spec, None, config)`` holds the reference
paths (x and xc), the Brownian increments dW (until the BSDE pass has
accumulated the Girsanov weights), log M, the paths' two cached int32 sort
orders and, once the pass is done, the bins of the output flow (int32 rows and
one float64 Girsanov weight per path and step).  No flow holds bin labels:
grouping a flow's own paths rebuilds them from the step's rows and counts.
The unit-weight input flow is binned one step at a time as the pass reads it,
so the pass starts with no input-flow bins held, and the sort orders are
computed when it reads its first step.  It holds no action array: the BSDE
pass evaluates each step's drift where it minimizes the Hamiltonian.
Measured with numpy 2.4 at 8,000 paths and 50 steps: 2.98 units held when the
pass starts (4.85 with the input flow binned in full first: its rows, labels
and the sort orders) and a peak of 6.33 units (6.43 then), now set while the
reference noise is drawn.  An (n, n_steps) action array held next to log M,
as when the weights were a second pass over stored actions, adds about one
unit.  The Picard loop's mix blends and bins one step at a time, so it holds
the new iterate's bins and no (n, n_steps + 1) weight array.
"""

import tracemalloc

import cnmfg.equilibrium as equilibrium_mod
from cnmfg.equilibrium import SolverConfig, apply_phi, solve_equilibrium
from cnmfg.flows import ConditionalMeasureFlow

PEAK_BOUND_UNITS = 6.43
PASS_ENTRY_BOUND_UNITS = 3.08
MIX_BOUND_UNITS = 2.0


def _traced_phi(spec, cfg, monkeypatch):
    """(result, traced bytes when the BSDE pass starts, traced peak) of a self-simulated Φ."""
    at_entry = []
    solve = equilibrium_mod.solve_bsde

    def recording(*args, **kwargs):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(equilibrium_mod, "solve_bsde", recording)
    tracemalloc.start()
    try:
        phi = apply_phi(spec, None, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(at_entry) == 1
    return phi, at_entry[0], peak


def test_self_simulated_phi_peak(lq_spec, monkeypatch):
    cfg = SolverConfig(n_paths=8000, n_steps=50, n_bins=16, seed=1)
    unit = cfg.n_paths * (cfg.n_steps + 1) * 8
    phi, _, peak = _traced_phi(lq_spec, cfg, monkeypatch)
    assert phi.flow.n_source == cfg.n_paths
    assert peak / unit <= PEAK_BOUND_UNITS, f"traced peak {peak / unit:.2f} units"


def test_pass_starts_without_input_flow_bins(lq_spec, monkeypatch):
    cfg = SolverConfig(n_paths=8000, n_steps=50, n_bins=16, seed=1)
    unit = cfg.n_paths * (cfg.n_steps + 1) * 8
    _, at_entry, _ = _traced_phi(lq_spec, cfg, monkeypatch)
    # paths x and xc and dW: about 2.98 units; the input flow's int32 rows
    # alone would add 0.5
    assert at_entry / unit <= PASS_ENTRY_BOUND_UNITS, f"held {at_entry / unit:.2f} units"


def test_picard_mix_holds_no_weight_array(lq_spec, monkeypatch):
    # traced from the end of the loop's flow_distance to the end of its mix: the
    # new iterate's bins (int32 rows and float64 weights, 1.5 units, 1.62 with
    # their measures) and one step's temporaries, 1.68 units at the peak.
    # Blending full (n, n_steps + 1) arrays (m's and Phi(m)'s weights, their
    # two scaled copies and their sum) peaked at 3.0 units before the first
    # step was binned; one such array held through the binning adds a unit.
    cfg = SolverConfig(n_paths=8000, n_steps=50, n_bins=16, seed=1, max_iters=2, tol=1e-12)
    unit = cfg.n_paths * (cfg.n_steps + 1) * 8
    peaks = []
    distance = equilibrium_mod.flow_distance
    reweighted = ConditionalMeasureFlow.reweighted

    def tracing_distance(*args, **kwargs):
        residual = distance(*args, **kwargs)
        tracemalloc.start()
        return residual

    def traced_reweighted(self, *args, **kwargs):
        mixed = reweighted(self, *args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return mixed

    monkeypatch.setattr(equilibrium_mod, "flow_distance", tracing_distance)
    monkeypatch.setattr(ConditionalMeasureFlow, "reweighted", traced_reweighted)
    try:
        res = solve_equilibrium(lq_spec, cfg, project=False)
    finally:
        tracemalloc.stop()
    assert res.report.status == "max_iters" and len(peaks) == 1
    assert peaks[0] / unit <= MIX_BOUND_UNITS, f"traced mix peak {peaks[0] / unit:.2f} units"
