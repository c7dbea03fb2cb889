"""In-memory layer spans for cnmfg, recorded from outside the package.

The cnmfg modules import each other with ``from .x import y``, so a call goes
through the name bound in the *caller's* module.  Each layer function is
therefore wrapped at every binding its callers look up, listed in ``LAYERS``.
Spans stay in a list until the run ends; nothing is written while tracing.

A span's self time is its duration minus the time covered by its direct
child spans.  Calls are strictly nested (one thread), so the covered time is
the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

import numpy as np

# span name -> (function name, modules whose binding of it is wrapped).
# A binding absent from a module is skipped, so the span then reports 0 calls.
# problem.box_minimize_batch is wrapped only where projection binds it: inside
# problem.py it is the engine of minimize_hamiltonian_batch, whose self time
# should keep the Hamiltonian minimizer's cost.
LAYERS = {
    "sde.generate_noise": ("generate_noise", ("cnmfg.equilibrium", "cnmfg.cli")),
    "sde.simulate_driftless_state": ("simulate_driftless_state",
                                     ("cnmfg.equilibrium", "cnmfg.cli")),
    "sde.simulate_markov_sde": ("simulate_markov_sde", ("cnmfg.projection",)),
    "problem.minimize_hamiltonian_batch": ("minimize_hamiltonian_batch", ("cnmfg.bsde",)),
    "problem.box_minimize_batch": ("box_minimize_batch", ("cnmfg.projection",)),
    "bsde.solve_bsde": ("solve_bsde", ("cnmfg.equilibrium", "cnmfg.cli")),
    # cli imports objective_influence inside a function body, i.e. from cnmfg.bsde
    "bsde.objective_influence": ("objective_influence",
                                 ("cnmfg.bsde", "cnmfg.equilibrium", "cnmfg.projection")),
    "girsanov.stochastic_exponential": ("stochastic_exponential",
                                        ("cnmfg.bsde", "cnmfg.equilibrium")),
    "flows.estimate_conditional_flow": ("estimate_conditional_flow", ("cnmfg.equilibrium",)),
    "flows.mix_flows": ("mix_flows", ("cnmfg.equilibrium",)),
    "flows.flow_distance": ("flow_distance", ("cnmfg.equilibrium",)),
    "flows.lp_transport": ("lp_transport", ("cnmfg.projection", "cnmfg.cli")),
    "projection.project_control": ("project_control", ("cnmfg.equilibrium", "cnmfg.cli")),
    "projection.mimicking_check": ("mimicking_check", ("cnmfg.equilibrium", "cnmfg.cli")),
    "projection.project_cost_gap": ("project_cost_gap", ("cnmfg.cli",)),
    "equilibrium.apply_phi": ("apply_phi", ("cnmfg.equilibrium", "cnmfg.cli")),
    "equilibrium.solve_equilibrium": ("solve_equilibrium", ("cnmfg.cli",)),
    "equilibrium.exploitability": ("exploitability", ("cnmfg.cli",)),
    "cli.run_command": ("run_command", ("cnmfg.cli",)),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# rows of work per call, for the layers whose work is per path
ROWS = {
    "problem.minimize_hamiltonian_batch": lambda a, kw: len(_arg(a, kw, 2, "x")),
    "problem.box_minimize_batch": lambda a, kw: int(_arg(a, kw, 3, "n")),
}

# the weights a run's flow and projection are built from; the deviation
# candidates scored under these spans are excluded from the ESS figure
_ESS_EXCLUDED = ("equilibrium.exploitability", "projection.project_cost_gap")


def kish_ess_frac(log_m_terminal: np.ndarray) -> float:
    """Kish effective sample size of exp(log_m), divided by the path count."""
    w = np.exp(log_m_terminal - np.max(log_m_terminal))
    return float(w.sum() ** 2 / np.dot(w, w) / w.size)


class Tracer:
    """Collects spans for the layers in ``LAYERS`` once installed."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end, rows]
        self._stack = []
        self.ess_frac_terminal = 0.0
        self.bins_kept = 0
        self.bins_requested = 0

    def install(self) -> None:
        """Wraps the layer bindings for the rest of the process."""
        for name, (func, modules) in LAYERS.items():
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                original = getattr(module, func, None)
                if original is not None:
                    setattr(module, func, self._wrap(name, original))

    def _wrap(self, name, fn):
        rows_of = ROWS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    rows_of(args, kwargs) if rows_of else 0]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result) -> None:
        if name == "girsanov.stochastic_exponential":
            if not any(self.spans[i][0] in _ESS_EXCLUDED for i in self._stack):
                self.ess_frac_terminal = kish_ess_frac(result.log_m[:, -1])
        elif name == "flows.estimate_conditional_flow":
            self.bins_kept += sum(step.n_bins for step in result.steps)
            self.bins_requested += len(result.steps) * result.n_bins_requested

    def write(self, path, t0: float) -> None:
        """Writes every span as one JSON line, times in seconds from t0."""
        with open(path, "w") as fh:
            for name, parent, start, end, rows in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start_s": start - t0,
                                     "end_s": end - t0, "rows": rows}) + "\n")

    def summary(self, wall_s: float) -> dict:
        """Per-layer calls, rows, self and total seconds; uncovered wall time."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYERS}
        root_s = 0.0
        for (name, parent, start, end, rows), covered in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["rows"] += rows
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
            if parent < 0:
                root_s += end - start
        uncovered = wall_s - root_s
        self_sum = sum(entry["self_s"] for entry in out.values())
        if not math.isclose(self_sum + uncovered, wall_s, rel_tol=1e-6, abs_tol=1e-6):
            raise RuntimeError(f"span self times {self_sum} + uncovered {uncovered} "
                               f"do not add up to the traced wall time {wall_s}")
        bins_frac = self.bins_kept / self.bins_requested if self.bins_requested else 0.0
        return {"layers": out, "uncovered_s": uncovered,
                "ess_frac_terminal": self.ess_frac_terminal, "bins_kept_frac": bins_frac}
