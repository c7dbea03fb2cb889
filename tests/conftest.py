import numpy as np
import pytest
from hypothesis import settings

import cnmfg
from cnmfg.equilibrium import SolverConfig

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
def small_config():
    return SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=5)


@pytest.fixture(scope="session")
def dirac0():
    return cnmfg.EmpiricalMeasure([[0.0]], [1.0])


def rng(seed=0):
    return np.random.default_rng(seed)
