import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cnmfg
import cnmfg.problem as problem_mod
from cnmfg.problem import (
    _FAMILIES,
    EmpiricalMeasure,
    box_minimize_batch,
    hamiltonian_batch,
    make_instance,
    minimize_hamiltonian_batch,
    validate_spec,
)


def _row(v):
    return np.atleast_1d(np.asarray(v, float))[None, :]


def hamiltonian(spec, t, x, mu, a, z):
    """The reduced Hamiltonian at one point, as a one-row batch."""
    return float(hamiltonian_batch(spec, t, _row(x), mu, _row(a), _row(z))[0])


def minimize_hamiltonian(spec, t, x, mu, z):
    """(action, value) of the Hamiltonian minimizer at one point, as a one-row batch."""
    a = minimize_hamiltonian_batch(spec, t, _row(x), mu, _row(z))
    return a[0], float(hamiltonian_batch(spec, t, _row(x), mu, a, _row(z))[0])


class TestMeasureSummary:
    """The mean a measure hands the coefficients."""

    def test_moments_cached(self):
        mu = EmpiricalMeasure([[1.0], [3.0]], [0.25, 0.75])
        assert "mean" not in vars(mu)
        assert mu.mean[0] == pytest.approx(2.5)
        assert mu.mean is mu.mean                   # computed once, then cached
        with pytest.raises(ValueError, match="negative"):
            EmpiricalMeasure([[0.0], [1.0]], [-0.5, 1.5])   # validation stays eager
        with pytest.raises(ValueError, match="non-empty support"):
            EmpiricalMeasure([])

    def test_dirac(self):
        mu = EmpiricalMeasure([[2.0, 0.0]], [1.0])
        assert mu.mean.tolist() == [2.0, 0.0]


class TestHamiltonian:
    def test_all_terms_vanish(self, lq_unit_spec, dirac0):
        assert hamiltonian(lq_unit_spec, 0.0, [0.0], dirac0, [0.0], [0.0]) == pytest.approx(0.0)

    def test_hand_value(self, lq_unit_spec, dirac0):
        # 0.5*0.25 + 0.5*1 + 0.2*0.5, checked by independent scalar arithmetic
        a, z, x = 0.5, 0.2, 1.0
        expected = 0.5 * a * a + 0.5 * x * x + z * a
        got = hamiltonian(lq_unit_spec, 0.0, [x], dirac0, [a], [z])
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.725)

    def test_zero_adjoint_is_running_cost(self, lq_unit_spec):
        mu = EmpiricalMeasure([[0.3], [-0.1]])
        x = np.array([[0.7]])
        a = np.array([[0.4]])
        f = lq_unit_spec.running_cost(0.3, x, mu, a)[0]
        assert hamiltonian(lq_unit_spec, 0.3, [0.7], mu, [0.4], [0.0]) == pytest.approx(f)

    @given(z1=st.floats(-3, 3), z2=st.floats(-3, 3), x=st.floats(-2, 2), a=st.floats(-1, 1))
    def test_affine_in_adjoint(self, lq_unit_spec, dirac0, z1, z2, x, a):
        h = lambda z: hamiltonian(lq_unit_spec, 0.5, [x], dirac0, [a], [z])
        assert abs(h(z1 + z2) - h(z1) - h(z2) + h(0.0)) < 1e-10

    def test_transposed_drift_rejected(self, lq2_spec, dirac0):
        # a (2, n) drift of a 2-d state has n * 2 values but is not shaped like x
        spec = replace(lq2_spec, drift=lambda t, x, mu, a: lq2_spec.drift(t, x, mu, a).T)
        x, a, z = np.zeros((5, 2)), np.linspace(-1.0, 1.0, 5)[:, None], np.ones((5, 2))
        with pytest.raises(ValueError, match=r"^drift returned shape \(2, 5\), "
                                             r"expected \(5, 2\)$"):
            hamiltonian_batch(spec, 0.0, x, dirac0, a, z)


class TestMinimizeHamiltonian:
    def test_interior_vertex(self, lq_unit_spec, dirac0):
        a, h = minimize_hamiltonian(lq_unit_spec, 0.0, [0.0], dirac0, [0.3])
        assert a[0] == pytest.approx(-0.3, abs=1e-6)
        assert h == pytest.approx(-0.045, abs=1e-9)

    def test_clipped_to_boundary(self, lq_unit_spec, dirac0):
        a, _ = minimize_hamiltonian(lq_unit_spec, 0.0, [0.0], dirac0, [2.0])
        assert a[0] == pytest.approx(-1.0)

    def test_symmetric_minimum_at_origin(self, lq_unit_spec, dirac0):
        a, h = minimize_hamiltonian(lq_unit_spec, 0.0, [0.0], dirac0, [0.0])
        assert a[0] == pytest.approx(0.0, abs=1e-9)
        assert h == pytest.approx(0.0, abs=1e-12)

    @given(z=st.floats(-2, 2), x=st.floats(-2, 2))
    def test_minimizer_beats_sampled_actions(self, lq_unit_spec, dirac0, z, x):
        _, h = minimize_hamiltonian(lq_unit_spec, 0.2, [x], dirac0, [z])
        actions = np.linspace(-1, 1, 100)
        for a in actions:
            assert h <= hamiltonian(lq_unit_spec, 0.2, [x], dirac0, [a], [z]) + 1e-9

    def test_support_reordering_invariance(self, lq_unit_spec):
        pts = np.array([[0.4], [-0.2], [1.1]])
        w = np.array([0.5, 0.2, 0.3])
        mu1 = EmpiricalMeasure(pts, w)
        perm = [2, 0, 1]
        mu2 = EmpiricalMeasure(pts[perm], w[perm])
        a1, h1 = minimize_hamiltonian(lq_unit_spec, 0.1, [0.3], mu1, [0.7])
        a2, h2 = minimize_hamiltonian(lq_unit_spec, 0.1, [0.3], mu2, [0.7])
        # float summation order perturbs the search path; grid tolerance applies
        assert a1[0] == pytest.approx(a2[0], abs=1e-6)
        assert h1 == pytest.approx(h2, abs=1e-10)

    def test_tie_break_lexicographic(self):
        # flat objective: every grid point ties, the smallest action wins
        def flat(a):
            return np.zeros(a.shape[0])

        a, _ = box_minimize_batch(flat, [-1.0], [1.0], 1)
        assert a[0, 0] == pytest.approx(-1.0)

    def test_degenerate_box_axes_are_not_refined(self):
        # a zero-width axis and one narrower than the refinement tolerance are
        # left at their grid value; the free axis still reaches each row's minimum
        target = np.array([0.3, -0.6])
        a, h = box_minimize_batch(lambda a: (a[:, 2] - target) ** 2,
                                  [0.5, 0.0, -1.0], [0.5, 1e-14, 1.0], 2)
        np.testing.assert_array_equal(a[:, :2], [[0.5, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(a[:, 2], target, atol=1e-7)
        assert np.max(h) <= 1e-12

    def test_batch_matches_pointwise(self, lq_unit_spec, dirac0):
        z = np.array([[0.3], [-0.8], [2.0]])
        x = np.zeros((3, 1))
        a_batch = minimize_hamiltonian_batch(lq_unit_spec, 0.0, x, dirac0, z)
        h_batch = hamiltonian_batch(lq_unit_spec, 0.0, x, dirac0, a_batch, z)
        for i in range(3):
            a_single, h_single = minimize_hamiltonian(lq_unit_spec, 0.0, x[i], dirac0, z[i])
            assert a_batch[i, 0] == pytest.approx(a_single[0], abs=1e-12)
            assert h_batch[i] == pytest.approx(h_single, abs=1e-12)


class TestActionsOnly:
    @pytest.mark.parametrize("family,params", [
        ("lq", dict()), ("tanh", dict()), ("lq", dict(action_weight=0.0))])
    def test_same_actions_without_the_hamiltonian(self, family, params, monkeypatch):
        spec = make_instance(family, **params)
        rng = np.random.default_rng(13)
        x = rng.normal(0.0, 1.0, size=(300, 1))
        z = rng.uniform(-4.0, 4.0, size=(300, 1))
        mu = EmpiricalMeasure(rng.normal(0.0, 1.0, size=(7, 1)))
        a = minimize_hamiltonian_batch(spec, 0.4, x, mu, z)
        calls = []

        def counting(*args):
            calls.append(args)
            return hamiltonian_batch(*args)

        monkeypatch.setattr(problem_mod, "hamiltonian_batch", counting)
        np.testing.assert_array_equal(minimize_hamiltonian_batch(spec, 0.4, x, mu, z), a)
        # a closed-form argmin evaluates no Hamiltonian; the box search must
        assert (len(calls) == 0) == (spec.argmin_action is not None)


class TestClosedFormArgmin:
    # the box search resolves the argmin to about sqrt(ulp(H) / c_a), so the
    # sampled states keep |H| of order one, as on the solver's paths
    @pytest.mark.parametrize("family,params", [
        ("lq", dict(interaction=1.0, state_weight=1.0)),
        ("lq", dict(interaction=1.0, state_weight=1.0, sigma=0.6, action_weight=0.7)),
        ("tanh", dict()),
        ("tanh", dict(sigma=1.7, gain=0.3, action_lo=-0.5, action_hi=2.0)),
    ])
    def test_hook_matches_box_search(self, family, params):
        spec = make_instance(family, **params)
        assert spec.argmin_action is not None
        rng = np.random.default_rng(11)
        n = 400
        for t in rng.uniform(0.0, spec.horizon, size=3):
            x = rng.normal(0.0, 1.0, size=(n, 1))
            z = rng.uniform(-4.0, 4.0, size=(n, 1))
            mu = EmpiricalMeasure(rng.normal(0.0, 1.0, size=(7, 1)))
            a = minimize_hamiltonian_batch(spec, t, x, mu, z)
            a_box, h_box = box_minimize_batch(
                lambda act: hamiltonian_batch(spec, t, x, mu, act, z),
                spec.action_lo, spec.action_hi, n)
            assert np.any(a == spec.action_lo) and np.any(a == spec.action_hi)
            assert np.max(np.abs(a - a_box)) <= 1e-7
            assert np.max(hamiltonian_batch(spec, t, x, mu, a, z) - h_box) <= 1e-12

    def test_spec_without_hook_uses_box_search(self, lq_unit_spec, dirac0):
        spec = replace(lq_unit_spec, argmin_action=None)
        z = np.array([[0.3], [-0.8], [2.0]])
        x = np.zeros((3, 1))
        a = minimize_hamiltonian_batch(spec, 0.0, x, dirac0, z)
        a_box, h_box = box_minimize_batch(
            lambda act: hamiltonian_batch(spec, 0.0, x, dirac0, act, z),
            spec.action_lo, spec.action_hi, 3)
        np.testing.assert_array_equal(a, a_box)
        # the search's objective is row-separable: H at its argmin has the bits of its value
        np.testing.assert_array_equal(hamiltonian_batch(spec, 0.0, x, dirac0, a, z), h_box)

    def test_replace_keeps_hook_only_for_its_coefficients(self, lq_unit_spec, dirac0):
        assert replace(lq_unit_spec, horizon=2.0).argmin_action is lq_unit_spec.argmin_action
        assert replace(lq_unit_spec, sigma=[[2.0]]).argmin_action is None
        doubled = replace(lq_unit_spec, drift=lambda t, x, mu, a: 2.0 * a)
        assert doubled.argmin_action is None
        # H = a^2/2 + 2 z a + ...: the argmin is -2z, not the stale closed form -z
        a = minimize_hamiltonian_batch(doubled, 0.0, np.zeros((1, 1)), dirac0,
                                       np.array([[0.2]]))
        assert a[0, 0] == pytest.approx(-0.4, abs=1e-7)


class TestInvertDrift:
    @pytest.mark.parametrize("family,params", [
        ("lq", dict()),
        ("lq", dict(action_lo=-0.5, action_hi=2.0, action_weight=0.0)),
        ("tanh", dict()),
        ("tanh", dict(gain=1.3, action_lo=-0.5, action_hi=2.0)),
    ])
    def test_clipped_inverse_matches_box_search(self, family, params):
        spec = make_instance(family, **params)
        assert spec.invert_drift is not None
        rng = np.random.default_rng(12)
        n = 400
        for t in rng.uniform(0.0, spec.horizon, size=3):
            x = rng.normal(0.0, 1.5, size=(n, 1))
            target = rng.uniform(-4.0, 4.0, size=(n, 1))
            mu = EmpiricalMeasure(rng.normal(0.0, 1.0, size=(7, 1)))

            def gap(act):
                return np.sum((spec.drift(t, x, mu, act) - target) ** 2, axis=1)

            a = spec.clip_action(spec.invert_drift(t, x, mu, target))
            a_box, _ = box_minimize_batch(gap, spec.action_lo, spec.action_hi, n)
            assert np.any(a == spec.action_lo) and np.any(a == spec.action_hi)
            assert np.max(np.abs(a - a_box)) <= 1e-7

    def test_bound_to_the_drift_only(self, lq_unit_spec):
        spec = make_instance("tanh")
        assert replace(spec, horizon=2.0).invert_drift is spec.invert_drift
        assert replace(spec, drift=lambda t, x, mu, a: a).invert_drift is None
        swapped = replace(spec, running_cost=lambda t, x, mu, a: a[:, 0] ** 4)
        assert swapped.invert_drift is spec.invert_drift
        assert swapped.argmin_action is None
        assert replace(lq_unit_spec, sigma=[[2.0]]).invert_drift is lq_unit_spec.invert_drift


class TestMeanFieldDeclaration:
    @pytest.mark.parametrize("family", ["lq", "tanh"])
    def test_bound_to_the_callables_taking_mu(self, family):
        spec = make_instance(family)
        assert spec.mean_field
        assert replace(spec, horizon=2.0).mean_field is spec.mean_field
        for swap in (dict(drift=lambda t, x, mu, a: a),
                     dict(running_cost=lambda t, x, mu, a: a[:, 0] ** 2),
                     dict(terminal_cost=lambda x, mu: x[:, 0]),
                     dict(argmin_action=lambda t, x, mu, z: -z),
                     dict(invert_drift=lambda t, x, mu, target: target),
                     dict(sigma=[[2.0]])):            # drops the argmin hook with it
            assert replace(spec, **swap).mean_field is False, swap
        # declared again for the new callables
        redeclared = replace(spec, terminal_cost=lambda x, mu: x[:, 0], mean_field=True)
        assert redeclared.mean_field and redeclared.mean_field is not spec.mean_field
        assert replace(spec, mean_field=False).mean_field is False


class TestValidateSpec:
    def test_lq_passes(self, lq_spec):
        report = validate_spec(lq_spec, n_probes=128, seed=1)
        assert report.passed
        assert report.max_drift == pytest.approx(1.0)

    def test_zero_sigma_fails(self):
        spec = make_instance("lq", sigma=0.0)
        report = validate_spec(spec, n_probes=16, seed=1)
        assert not report.passed
        assert not report.sigma_ok
        assert any("singular" in n for n in report.notes)
        with pytest.raises(ValueError):
            spec.sigma_inv

    @pytest.mark.parametrize("changes, flag, note", [
        ({"drift": lambda t, x, mu, a: np.full_like(a, np.inf)}, "drift_ok",
         "non-finite drift at probe 0"),
        ({"sigmac": [[0.0]]}, "sigmac_ok", "singular sigmac"),
    ], ids=["drift-non-finite", "sigmac-singular"])
    def test_failed_check_is_noted(self, changes, flag, note):
        report = validate_spec(replace(make_instance("lq"), **changes), n_probes=16, seed=1)
        assert not report.passed and not getattr(report, flag)
        assert note in report.notes

    def test_needs_a_probe(self, lq_spec):
        with pytest.raises(ValueError, match="n_probes must be >= 1"):
            validate_spec(lq_spec, n_probes=0)

    def test_drift_bound_violation(self):
        base = make_instance("lq")
        spec = replace(base, drift=lambda t, x, mu, a: 2.0 * a, drift_bound=1.0)
        report = validate_spec(spec, n_probes=64, seed=2)
        assert not report.passed
        assert report.max_drift > 1.0 + 1e-9


class TestSpecChecks:
    @pytest.mark.parametrize("changes, message", [
        ({"horizon": 0.0}, "horizon must be finite and > 0"),
        ({"horizon": np.inf}, "horizon must be finite and > 0"),
        ({"sigma": [[np.nan]]}, "sigma must be finite"),
        ({"sigma": [[1.0, 0.0]]}, r"sigma must be a non-empty square matrix, got shape \(1, 2\)"),
        ({"sigma": np.zeros((0, 0))},
         r"sigma must be a non-empty square matrix, got shape \(0, 0\)"),
        ({"sigma0": [[0.5, 0.5]]}, "sigma0 must be d_state x d_common"),
        ({"sigmac": [[1.0], [0.0]]},
         r"sigmac must be a non-empty square matrix, got shape \(2, 1\)"),
        ({"action_lo": [], "action_hi": []}, "action box bounds must be non-empty vectors"),
        ({"action_hi": [1.0, 1.0]}, "action box bounds must be non-empty vectors of one length"),
        ({"action_lo": [1.0], "action_hi": [-1.0]}, r"empty action box \(lo > hi\)"),
    ], ids=["horizon-0", "horizon-inf", "sigma-nan", "sigma-not-square", "sigma-empty",
            "sigma0-shape", "sigmac-not-square", "box-no-axes", "box-lengths-differ",
            "box-lo-above-hi"])
    def test_rejected_inputs(self, changes, message):
        with pytest.raises(ValueError, match=message):
            replace(make_instance("lq"), **changes)

    def test_sizes_are_read_off_the_matrices(self, lq2_spec):
        assert (lq2_spec.d_state, lq2_spec.d_common, lq2_spec.d_action) == (2, 1, 1)
        spec = replace(lq2_spec, sigma=np.eye(3), sigma0=np.full((3, 2), 0.5), sigmac=np.eye(2),
                       action_lo=[-1.0] * 4, action_hi=[1.0] * 4)
        assert (spec.d_state, spec.d_common, spec.d_action) == (3, 2, 4)
        with pytest.raises(ValueError, match="d_state"):
            replace(spec, d_state=3)


class TestFamilies:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown instance family"):
            make_instance("nosuch")

    def test_registry_hook(self, monkeypatch):
        # registered in a copy of the registry, so no later test sees the family
        monkeypatch.setattr(problem_mod, "_FAMILIES", dict(_FAMILIES))
        called = {}

        def builder(**kw):
            called.update(kw)
            return make_instance("lq")

        cnmfg.register_family("custom-test", builder)
        spec = make_instance("custom-test", interaction=0.5)
        assert called == {"interaction": 0.5}
        assert spec.d_state == 1
        assert "custom-test" not in _FAMILIES

    @pytest.mark.parametrize("family", ["lq", "tanh"])
    def test_params_are_the_builder_keywords_as_floats(self, family):
        # the run manifest writes spec.params, one problem.* line per keyword
        defaults = {name: float(par.default) for name, par
                    in inspect.signature(_FAMILIES[family]).parameters.items()}
        assert make_instance(family).params == defaults
        overrides = dict(sigma=2, horizon=1.5, action_lo=-0.5, common_init_std=0.25)
        params = make_instance(family, **overrides).params
        assert params == {**defaults, **{k: float(v) for k, v in overrides.items()}}
        assert all(type(v) is float for v in params.values())

    @staticmethod
    def _observables(spec) -> dict:
        """What a run reads of a spec: its constants, its coefficients and hooks on a
        fixed probe batch under a measure of nonzero mean, and its initial draws."""
        rng = np.random.default_rng(0)
        x, z = rng.normal(0.0, 1.5, (64, 1)), rng.normal(0.0, 1.0, (64, 1))
        a = rng.uniform(-1.0, 1.0, (64, 1))
        mu = EmpiricalMeasure([[0.4], [1.0]])
        hooks = {name: getattr(spec, name) for name in ("argmin_action", "invert_drift")}
        return {
            "horizon": spec.horizon, "sigma": spec.sigma, "sigma0": spec.sigma0,
            "sigmac": spec.sigmac, "box": (spec.action_lo, spec.action_hi),
            "drift_bound": spec.drift_bound,
            "drift": spec.drift(0.3, x, mu, a),
            "running_cost": spec.running_cost(0.3, x, mu, a),
            "terminal_cost": spec.terminal_cost(x, mu),
            **{name: hook and hook(0.3, x, mu, z) for name, hook in hooks.items()},
            "init_state": spec.init_state_sampler(np.random.default_rng(1), 4096),
            "init_common": spec.init_common_sampler(np.random.default_rng(1), 4096),
        }

    @pytest.mark.parametrize("family, keyword", [
        (family, keyword) for family in ("lq", "tanh")
        for keyword in inspect.signature(_FAMILIES[family]).parameters])
    def test_every_keyword_moves_an_observable(self, family, keyword):
        # a keyword that moves none of them is a config key recorded but never read
        default = inspect.signature(_FAMILIES[family]).parameters[keyword].default
        base = self._observables(make_instance(family))
        moved = self._observables(make_instance(family, **{keyword: 1.5 * default + 0.3}))

        def same(u, v):
            return (u is None) == (v is None) and (u is None or np.array_equal(u, v))
        assert not all(same(base[name], moved[name]) for name in base), keyword

    def test_tanh_family_bound(self):
        spec = make_instance("tanh", gain=0.5)
        assert spec.drift_bound == pytest.approx(1.5)
        assert validate_spec(spec, n_probes=64, seed=3).passed
