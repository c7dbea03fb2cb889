"""Peak memory of one best-response map application, of one Picard mix and
of ``exploitability``, traced by ``tracemalloc``.

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
no (n, n_steps + 1) weight array, and it drops each step of the two flows it
blends once read, after the last application's solution (log M) has gone.
``exploitability`` recomputes its best response's actions one step at a time
as the scoring pass reads them, so it holds no action array either.
"""

import tracemalloc

import cnmfg.equilibrium as equilibrium_mod
from cnmfg.equilibrium import SolverConfig, apply_phi, exploitability, solve_equilibrium
from cnmfg.flows import ConditionalMeasureFlow

PEAK_BOUND_UNITS = 6.43
PASS_ENTRY_BOUND_UNITS = 3.08
MIX_BOUND_UNITS = 7.4
EXPLOITABILITY_BOUND_UNITS = 4.3


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
    # traced from the start of the solve; the peak within the loop's one mix.
    # Held: the reference noise (1 unit), paths (2), sort orders (1), the
    # input iterate's and Phi's flows (1.5 each: int32 rows and float64
    # weights), which shrink by one step as the new iterate grows by one: 7.32
    # units.  Blending full (n, n_steps + 1) arrays peaked 3.0 units above
    # what the loop held; keeping both old flows whole through the mix adds
    # 1.62 units (8.94), keeping Phi's solution (log M) 1.0 (8.33), and both
    # 2.62 (9.94).
    cfg = SolverConfig(n_paths=8000, n_steps=50, n_bins=16, seed=1, max_iters=2, tol=1e-12)
    unit = cfg.n_paths * (cfg.n_steps + 1) * 8
    peaks = []
    reweighted = ConditionalMeasureFlow.reweighted

    def traced_reweighted(self, *args, **kwargs):
        tracemalloc.reset_peak()
        mixed = reweighted(self, *args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return mixed

    monkeypatch.setattr(ConditionalMeasureFlow, "reweighted", traced_reweighted)
    tracemalloc.start()
    try:
        res = solve_equilibrium(lq_spec, cfg, project=False)
    finally:
        tracemalloc.stop()
    assert res.report.status == "max_iters" and len(peaks) == 1
    assert peaks[0] / unit <= MIX_BOUND_UNITS, f"traced mix peak {peaks[0] / unit:.2f} units"


def test_exploitability_holds_no_action_array(lq_spec):
    # traced from before the evaluation reference is simulated from noise held
    # outside: its paths (2 units), the best response's pass and the stacked
    # scoring of 13 controls, 4.27 units at the peak.  The best response's
    # (n, n_steps) action array held through the scoring added about one unit.
    cfg = SolverConfig(n_paths=8000, n_steps=50, n_bins=16, seed=1)
    unit = cfg.n_paths * (cfg.n_steps + 1) * 8
    res = solve_equilibrium(lq_spec, cfg, project=False)
    noise = equilibrium_mod._evaluation_noise(lq_spec, cfg)
    tracemalloc.start()
    try:
        reference = equilibrium_mod._reference(lq_spec, cfg, noise)
        exploitability(lq_spec, res.flow, res.policy, cfg, eval_reference=reference)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / unit <= EXPLOITABILITY_BOUND_UNITS, f"traced peak {peak / unit:.2f} units"
