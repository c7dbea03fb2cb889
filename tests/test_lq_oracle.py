"""The LQ oracle (``lq_oracle.py``) on its own: a closed form, an independent
finite-difference solve, and the values recorded for its instances in
ROADMAP direction 1.  It is not compared with the solver here."""

import numpy as np
import pytest
from scipy.stats import truncnorm

import cnmfg
from hjb_oracle import clipped_gaussian_expectation, solve_hjb
from lq_oracle import clipped_normal_second_moment, solve_lq

# y0 of the w = 0.5 and w = 0.9 instances (box +-4, which never binds) as
# recorded in ROADMAP direction 1 (4,000 RK4 steps, damping 0.5).  Those values
# take E[x0^2] from the normal truncated at +-3 standard deviations; the
# family's initial law clips the normal there instead, which puts mass on the
# bounds.
RECORDED_Y0 = {0.5: 1.031654, 0.9: 0.963331}
# the same instances under the clipped initial law, and w = -0.5: with w < 0
# (repulsion from the conditional mean) the coupling is monotone in the sense
# of Lasry & Lions, so that equilibrium is unique
CLIPPED_Y0 = {-0.5: 1.261981, 0.5: 1.036268, 0.9: 0.967945}


def _instance(w):
    return cnmfg.make_instance("lq", interaction=w, action_lo=-4.0, action_hi=4.0)


@pytest.fixture(scope="module")
def solutions():
    return {w: solve_lq(_instance(w).params) for w in CLIPPED_Y0}


@pytest.mark.parametrize("w", sorted(RECORDED_Y0))
def test_reproduces_the_recorded_values(solutions, w):
    spec = _instance(w)
    truncated = spec.params["init_std"] ** 2 * truncnorm(-3.0, 3.0).var()
    assert solutions[w].mean_value(truncated) == pytest.approx(RECORDED_Y0[w], abs=1e-4)


@pytest.mark.parametrize("w", sorted(CLIPPED_Y0))
def test_y0_under_the_clipped_initial_law(solutions, w):
    sol = solutions[w]
    # E[x0^2] by quadrature (std 0.5, clipped at 3 stds)
    ex2 = clipped_gaussian_expectation(lambda x: x ** 2)
    assert sol.y0 == pytest.approx(sol.mean_value(ex2), abs=1e-7)
    assert sol.y0 == pytest.approx(CLIPPED_Y0[w], abs=1e-4)


def test_clipped_second_moment():
    assert 0.25 * clipped_normal_second_moment(3.0) == pytest.approx(
        clipped_gaussian_expectation(lambda x: x ** 2), abs=1e-8)
    draws = cnmfg.make_instance("lq").init_state_sampler(np.random.default_rng(0), 400_000)
    assert np.mean(draws ** 2) == pytest.approx(0.25 * clipped_normal_second_moment(3.0),
                                                abs=2e-3)


@pytest.mark.parametrize("w", sorted(CLIPPED_Y0))
def test_k11_solves_its_scalar_riccati_equation(solutions, w):
    # K11' = K11^2 / ca - cx with K11(T) = cg, whatever beta is: with
    # u = K11 / ca and r = sqrt(cx / ca), u = -r tanh(r (t - T) - atanh(u(T) / r))
    p = _instance(w).params
    sol = solutions[w]
    r = np.sqrt(p["state_weight"] / p["action_weight"])
    u_t = p["terminal_weight"] / p["action_weight"]
    want = -p["action_weight"] * r * np.tanh(r * (sol.t - p["horizon"]) - np.arctanh(u_t / r))
    np.testing.assert_allclose(sol.k[:, 0, 0], want, rtol=1e-10)


def test_no_interaction_matches_finite_differences():
    # w = 0: the value is x^2 K11 / 2 + S, and the control problem is the
    # finite-difference oracle's with diffusion (sigma^2 + sigma0^2) / 2
    spec = _instance(0.0)
    sol = solve_lq(spec.params, n_steps=1000)
    assert np.all(sol.k[:, 0, 1] == 0.0) and np.all(sol.k[:, 1, 1] == 0.0)
    p = spec.params
    fd = solve_hjb(diffusion=0.5 * (p["sigma"] ** 2 + p["sigma0"] ** 2), action_lo=-4.0,
                   action_hi=4.0, state_weight=p["state_weight"])
    xs = np.linspace(-1.5, 1.5, 31)
    np.testing.assert_allclose(fd.value(0.0, xs), 0.5 * sol.k[0, 0, 0] * xs ** 2 + sol.s[0],
                               atol=1e-3)
    assert clipped_gaussian_expectation(lambda x: fd.value(0.0, x)) == pytest.approx(sol.y0,
                                                                                     abs=1e-3)
