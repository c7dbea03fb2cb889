import numpy as np
import pytest
from hypothesis import settings

import cnmfg
from cnmfg.equilibrium import SolverConfig
from cnmfg.problem import point_mass_sampler, truncated_gaussian_sampler

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def lq_spec():
    """Acceptance-scale instance (family defaults)."""
    return cnmfg.make_instance("lq")


@pytest.fixture(scope="session")
def lq_unit_spec():
    """Unit-weight instance: f = a^2/2 + (x - mean)^2/2, g = (x - mean)^2/2."""
    return cnmfg.make_instance("lq", interaction=1.0, state_weight=1.0)


@pytest.fixture(scope="session")
def lq_nointeraction_spec():
    """f = a^2/2 + x^2/2, g = x^2/2; the finite-difference oracle instance."""
    return cnmfg.make_instance("lq", interaction=0.0, state_weight=1.0)


@pytest.fixture(scope="session")
def lq2_spec():
    """A 2-d state: drift (a, 0), costs on the first coordinate's gap to its mean."""
    return cnmfg.ProblemSpec(
        horizon=1.0,
        sigma=np.eye(2), sigma0=[[0.5], [0.25]], sigmac=[[1.0]],
        action_lo=[-1.0], action_hi=[1.0], drift_bound=1.0, common_drift_bound=0.0,
        drift=lambda t, x, mu, a: np.concatenate([a, np.zeros_like(a)], axis=1),
        common_drift=lambda t, xc: np.zeros_like(xc),
        running_cost=lambda t, x, mu, a: 0.5 * a[:, 0] ** 2 + 0.5 * (x[:, 0] - mu.mean[0]) ** 2,
        terminal_cost=lambda x, mu: 0.5 * (x[:, 0] - mu.mean[0]) ** 2,
        init_state_sampler=truncated_gaussian_sampler(0.0, 0.5, dim=2),
        init_common_sampler=point_mass_sampler(0.0))


@pytest.fixture(scope="session")
def small_config():
    return SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=5)


@pytest.fixture(scope="session")
def dirac0():
    return cnmfg.EmpiricalMeasure([[0.0]], [1.0])


def rng(seed=0):
    return np.random.default_rng(seed)
