"""Particle solver for mean field games with common noise."""

from .problem import (
    ProblemSpec,
    ValidationReport,
    make_instance,
    register_family,
    validate_spec,
)
from .sde import (
    NoiseBundle,
    PathBundle,
    TimeGrid,
    generate_noise,
    simulate_common_state,
    simulate_driftless_state,
    simulate_markov_sde,
)
from .girsanov import (
    GirsanovWeights,
    stochastic_exponential,
    weighted_conditional_values,
)
from .flows import (
    ConditionalMeasureFlow,
    EmpiricalMeasure,
    estimate_conditional_flow,
    flow_distance,
    lp_transport,
    truncation_bound_check,
    wasserstein_1d,
)
from .bsde import (
    BasisSpec,
    BsdeSolution,
    MarkovPolicy,
    extract_control,
    solve_bsde,
)
from .projection import mimicking_check, project_control, project_cost_gap
from .equilibrium import (
    EquilibriumResult,
    IterationReport,
    SolverConfig,
    apply_phi,
    exploitability,
    solve_equilibrium,
)

__version__ = "0.1.0"
