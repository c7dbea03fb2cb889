import gc
import weakref

import numpy as np
import pytest

import cnmfg
import cnmfg.bsde as bsde_mod
import cnmfg.equilibrium as equilibrium_mod
from cnmfg.equilibrium import (
    IterationRow,
    SolverConfig,
    apply_phi,
    exploitability,
    initial_flow,
    next_damping,
    solve_equilibrium,
)
from cnmfg.flows import estimate_conditional_flow, flow_distance
from cnmfg.girsanov import stochastic_exponential
from cnmfg.problem import ProblemSpec, point_mass_sampler
from cnmfg.sde import generate_noise, simulate_driftless_state, simulate_markov_sde


class TestSolverConfig:
    def test_damping_range(self):
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    @pytest.mark.parametrize("field, value, key", [
        ("n_bins", 0, "bins"), ("n_bins", -2, "bins"),
        ("min_bin_count", 0, "min_bin_count"), ("min_bin_count", -5, "min_bin_count"),
        ("seed", -1, "seed"), ("seed", 2**64 - 99_991, "seed"), ("seed", 1.5, "seed"),
        ("max_iters", 0, "max_iters"),
    ])
    def test_binning_and_order_bounds(self, field, value, key):
        with pytest.raises(ValueError, match=key):
            SolverConfig(**{field: value})
        cfg = SolverConfig(n_bins=1, min_bin_count=1)
        assert (cfg.n_bins, cfg.min_bin_count) == (1, 1)
        # the largest seed whose evaluation seed is still a 64-bit noise seed
        assert SolverConfig(seed=2**64 - 99_992).eval_seed == 2**64 - 1

    @pytest.mark.parametrize("n_paths", [1, 0, -4])
    def test_paths_at_least_two(self, n_paths):
        # every reported stderr divides by n_paths - 1
        with pytest.raises(ValueError, match="'paths'"):
            SolverConfig(n_paths=n_paths)
        assert SolverConfig(n_paths=2).n_paths == 2

    def test_eval_seed_derived(self):
        cfg = SolverConfig(seed=5)
        assert cfg.eval_seed == 5 + 99_991


class TestApplyPhi:
    def test_deterministic(self, lq_spec, small_config):
        m0 = initial_flow(lq_spec, small_config)
        a = apply_phi(lq_spec, m0, small_config)
        b = apply_phi(lq_spec, m0, small_config)
        assert np.array_equal(a.flow.src_w, b.flow.src_w)
        assert a.solution.y0 == b.solution.y0

    def test_constant_map_without_interaction(self, small_config):
        spec = cnmfg.make_instance("lq", interaction=0.0, state_weight=1.0)
        m0 = initial_flow(spec, small_config)
        phi0 = apply_phi(spec, m0, small_config)
        # a genuinely different input flow: mix of m0 with its own reweighting
        noise = generate_noise(small_config.n_paths, small_config.grid(spec),
                               small_config.seed, 1, 1)
        paths = simulate_driftless_state(spec, noise)
        lam = np.clip(0.5 * paths.x[:, :-1, :], -1, 1)
        w = stochastic_exponential(spec, lam, noise)
        m_other = estimate_conditional_flow(paths, w, small_config.n_bins,
                                            min_bin_count=small_config.min_bin_count)
        assert not np.array_equal(m0.src_w, m_other.src_w)
        phi1 = apply_phi(spec, m_other, small_config)
        assert np.array_equal(phi0.flow.src_w, phi1.flow.src_w)
        assert np.array_equal(phi0.weights.log_m, phi1.weights.log_m)

    def test_interaction_zeroed_equals_no_interaction(self, small_config):
        spec = cnmfg.make_instance("lq", interaction=0.0)
        m0 = initial_flow(spec, small_config)
        phi0 = apply_phi(spec, m0, small_config)
        lam = np.zeros((small_config.n_paths, small_config.n_steps, 1))
        noise = generate_noise(small_config.n_paths, small_config.grid(spec),
                               small_config.seed, 1, 1)
        paths = simulate_driftless_state(spec, noise)
        w = stochastic_exponential(spec, lam, noise)
        m_other = estimate_conditional_flow(paths, w, small_config.n_bins,
                                            min_bin_count=small_config.min_bin_count)
        phi1 = apply_phi(spec, m_other, small_config)
        assert np.array_equal(phi0.flow.src_w, phi1.flow.src_w)


class TestSolveEquilibrium:
    def test_no_interaction_converges_first_iteration(self):
        spec = cnmfg.make_instance("lq", interaction=0.0, state_weight=1.0)
        cfg = SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=5)
        res = solve_equilibrium(spec, cfg, project=False)
        assert res.report.converged
        assert len(res.report.rows) == 1
        assert res.report.rows[0].residual <= cfg.tol

    def test_lq1_converges_with_decreasing_residuals(self, lq_spec):
        cfg = SolverConfig(n_paths=10_000, seed=1)
        res = solve_equilibrium(lq_spec, cfg, project=False)
        assert res.report.converged
        rs = np.asarray([r.residual for r in res.report.rows])
        assert np.all(np.diff(rs) < 0)
        assert rs[-1] <= cfg.tol
        assert res.report.rows[0].residual > cfg.tol  # the loop was exercised

    def test_status_matches_final_residual(self, lq_spec):
        cfg = SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32,
                           seed=5, max_iters=1, tol=1e-6)
        res = solve_equilibrium(lq_spec, cfg, project=False)
        assert res.report.status == "max_iters"
        assert res.report.rows[-1].residual > cfg.tol

    def test_bitwise_reproducible(self, lq_spec):
        cfg = SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=7)
        r1 = solve_equilibrium(lq_spec, cfg, project=False)
        r2 = solve_equilibrium(lq_spec, cfg, project=False)
        assert [a.residual for a in r1.report.rows] == [b.residual for b in r2.report.rows]
        assert np.array_equal(r1.flow.src_w, r2.flow.src_w)

    def test_partition_full_grid_matches_current_value_bitwise(self, lq_spec):
        base = SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=7)
        grid = base.grid(lq_spec)
        part = SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=7,
                            partition_times=tuple(grid.times.tolist()))
        r_cur = solve_equilibrium(lq_spec, base, project=False)
        r_par = solve_equilibrium(lq_spec, part, project=False)
        assert [a.residual for a in r_cur.report.rows] == [b.residual for b in r_par.report.rows]
        assert np.array_equal(r_cur.flow.src_w, r_par.flow.src_w)
        assert np.array_equal(r_cur.flow.src_key, r_par.flow.src_key)

    def test_two_dim_state_refused_before_the_first_phi(self, lq2_spec, monkeypatch):
        calls = []
        apply = equilibrium_mod.apply_phi

        def counting(*args):
            calls.append(args[1])
            return apply(*args)

        monkeypatch.setattr(equilibrium_mod, "apply_phi", counting)
        cfg = SolverConfig(n_paths=2000, n_steps=10, n_bins=4, min_bin_count=32, seed=3,
                           max_iters=3)
        with pytest.raises(NotImplementedError,
                           match="^lookup-table projection requires 1-d state and key$"):
            solve_equilibrium(lq2_spec, cfg)
        assert calls == []
        res = solve_equilibrium(lq2_spec, cfg, project=False)
        assert len(calls) == len(res.report.rows) + 1 and res.projected_policy is None

    def test_three_point_partition_converges(self, lq_spec):
        cfg = SolverConfig(n_paths=10_000, seed=1, partition_times=(0.0, 0.5, 1.0),
                           tol=0.08)
        res = solve_equilibrium(lq_spec, cfg, project=False)
        assert res.report.converged
        assert res.report.rows[-1].residual <= 0.08


class TestFixedPointConsistency:
    def test_strong_simulation_reproduces_flow(self, lq_spec):
        cfg = SolverConfig(n_paths=10_000, seed=1)
        res = solve_equilibrium(lq_spec, cfg, project=False)
        fresh = generate_noise(cfg.n_paths, cfg.grid(lq_spec), cfg.eval_seed, 1, 1)
        mk = simulate_markov_sde(lq_spec, res.policy, res.flow, fresh)
        re_flow = estimate_conditional_flow(mk, None, cfg.n_bins,
                                            min_bin_count=cfg.min_bin_count)
        assert flow_distance(re_flow, res.flow, 2.0) <= 2 * cfg.tol


class TestExploitability:
    def test_self_deviation_keeps_eps_nonnegative(self, lq_spec):
        cfg = SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=7)
        res = solve_equilibrium(lq_spec, cfg, project=False)
        eps, se = exploitability(lq_spec, res.flow, res.policy, cfg)
        assert eps >= -3 * se
        assert eps >= 0.0  # the family contains the policy itself

    def test_wrong_policy_is_exploitable(self, lq_spec):
        cfg = SolverConfig(n_paths=4000, n_steps=20, n_bins=8, min_bin_count=32, seed=7)
        res = solve_equilibrium(lq_spec, cfg, project=False)

        class Plus1:
            def actions(self, k, x, xc, key):
                return np.ones((np.atleast_2d(x).shape[0], 1))

        eps, se = exploitability(lq_spec, res.flow, Plus1(), cfg)
        assert eps >= 0.1

    def test_shared_eval_noise(self, lq_spec, monkeypatch):
        cfg = SolverConfig(n_paths=2000, n_steps=10, n_bins=4, min_bin_count=32, seed=7)
        res = solve_equilibrium(lq_spec, cfg)
        fresh = generate_noise(cfg.n_paths, cfg.grid(lq_spec), cfg.eval_seed, 1, 1)
        noise, paths = res.eval_reference
        assert noise.dw0 is None      # only the mimicking check simulates with it
        np.testing.assert_array_equal(noise.dw, fresh.dw)
        driftless = simulate_driftless_state(lq_spec, fresh)
        np.testing.assert_array_equal(paths.x, driftless.x)
        np.testing.assert_array_equal(paths.xc, driftless.xc)
        own = exploitability(lq_spec, res.flow, res.policy, cfg)
        calls = []
        for name in ("generate_noise", "simulate_driftless_state"):
            real = getattr(equilibrium_mod, name)
            monkeypatch.setattr(equilibrium_mod, name,
                                lambda *a, _real=real, **kw: calls.append(a) or _real(*a, **kw))
        shared = exploitability(lq_spec, res.flow, res.policy, cfg,
                                eval_reference=res.eval_reference)
        assert shared == own and not calls
        estimation = equilibrium_mod._reference(lq_spec, cfg)
        with pytest.raises(ValueError, match="evaluation seed"):
            exploitability(lq_spec, res.flow, res.policy, cfg, eval_reference=estimation)
        assert solve_equilibrium(lq_spec, cfg, project=False).eval_reference is None

    def test_constant_grid_spans_a_three_action_box(self, monkeypatch):
        # driftless state, cost 0.5 |a - (1, 0, 0)|^2: minimized on the a0 = hi face
        target = np.array([1.0, 0.0, 0.0])
        spec = ProblemSpec(
            horizon=1.0,
            sigma=[[1.0]], sigma0=[[0.5]], sigmac=[[1.0]],
            action_lo=[-1.0] * 3, action_hi=[1.0] * 3, drift_bound=0.0,
            common_drift_bound=0.0,
            drift=lambda t, x, mu, a: np.zeros((x.shape[0], 1)),
            common_drift=lambda t, xc: np.zeros_like(xc),
            running_cost=lambda t, x, mu, a: 0.5 * np.sum((a - target) ** 2, axis=1),
            terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
            init_state_sampler=point_mass_sampler(0.0),
            init_common_sampler=point_mass_sampler(0.0),
            argmin_action=lambda t, x, mu, z: np.tile(target, (x.shape[0], 1)))
        cfg = SolverConfig(n_paths=500, n_steps=4, n_bins=2, min_bin_count=32, seed=3)

        class Zero:
            def actions(self, k, x, xc, key):
                return np.zeros((np.atleast_2d(x).shape[0], 3))

        scored = []
        stacked = equilibrium_mod.stacked_objective_influence

        def spy(spec, flow, step_actions, paths, noise):
            scored.append(step_actions(0))
            return stacked(spec, flow, step_actions, paths, noise)

        monkeypatch.setattr(equilibrium_mod, "stacked_objective_influence", spy)
        eps, se = exploitability(spec, initial_flow(spec, cfg), Zero(), cfg)
        consts = scored[0][2:-2, 0]          # after self and best response, before shifts
        axis = np.linspace(-1.0, 1.0, 4)     # 4^3 = 64 <= 81 < 5^3
        assert consts.shape == (64, 3)
        for j in range(3):
            np.testing.assert_array_equal(np.unique(consts[:, j]), axis)
        # the zero policy pays 0.5 per unit time; the best response pays nothing
        assert eps == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("self_estimate", [1.0, 0.5])
    def test_tied_deviations_report_the_first(self, lq_spec, monkeypatch, self_estimate):
        # two deviations tie for the lowest estimate with different influences:
        # the gap is to the first of them, or to self when self ties too
        cfg = SolverConfig(n_paths=500, n_steps=4, n_bins=2, min_bin_count=32, seed=3)
        infl = np.random.default_rng(4).normal(size=(5, cfg.n_paths))
        estimates = [self_estimate, 0.8, 0.5, 0.5, 0.6]
        scores = [(j, 0.0, f) for j, f in zip(estimates, infl)]
        monkeypatch.setattr(equilibrium_mod, "stacked_objective_influence",
                            lambda *args: scores)

        class Zero:
            def actions(self, k, x, xc, key):
                return np.zeros((np.atleast_2d(x).shape[0], 1))

        eps, se = exploitability(lq_spec, initial_flow(lq_spec, cfg), Zero(), cfg)
        first = 0 if self_estimate == 0.5 else 2
        assert eps == self_estimate - 0.5
        assert se == float((infl[0] - infl[first]).std(ddof=1) / np.sqrt(cfg.n_paths))


class TestMixing:
    def test_damping_halves_on_stall(self, lq_spec):
        # a tolerance no Monte Carlo run can meet forces the stall machinery
        cfg = SolverConfig(n_paths=2000, n_steps=10, n_bins=4, min_bin_count=32,
                           seed=3, tol=1e-12, max_iters=40)
        res = solve_equilibrium(lq_spec, cfg, project=False)
        assert res.report.status in ("aborted", "max_iters")
        dampings = [r.damping for r in res.report.rows]
        assert dampings[0] == 0.5
        if res.report.status == "aborted":
            assert dampings[-1] < 0.5


def _rows(residuals, dampings=None):
    dampings = [0.5] * len(residuals) if dampings is None else dampings
    return [IterationRow(iteration=i + 1, residual=r, damping=d, y0=0.0, wall_ms=0.0)
            for i, (r, d) in enumerate(zip(residuals, dampings))]


def _stateful_rule(residuals, damping, tol, max_iters):
    """The stop rule as the loop body kept it, with its stall counter.

    Returns the status and the damping each row ran at."""
    dampings, stall, prev = [], 0, np.inf
    for it, r in enumerate(residuals, start=1):
        dampings.append(damping)
        if r <= tol:
            return "converged", dampings
        stall = stall + 1 if r >= prev - 1e-15 else 0
        if stall >= 5:
            damping, stall = damping / 2.0, 0
            if damping < 1.0 / 64.0:
                return "aborted", dampings
        if it == max_iters:
            return "max_iters", dampings
        prev = r
    return "running", dampings


class TestStopRule:
    """``next_damping`` on hand-built rows, without a solve."""

    CFG = SolverConfig(tol=0.05, max_iters=30)

    def test_first_row_at_or_below_tol_converges(self):
        assert next_damping(_rows([0.05]), self.CFG) == ("converged", 0.5)
        assert next_damping(_rows([0.0]), self.CFG) == ("converged", 0.5)
        assert next_damping(_rows([0.05000001]), self.CFG) == ("running", 0.5)

    def test_converged_wins_over_max_iters(self):
        cfg = SolverConfig(tol=0.05, max_iters=3)
        assert next_damping(_rows([0.3, 0.2, 0.04]), cfg) == ("converged", 0.5)
        assert next_damping(_rows([0.3, 0.2, 0.1]), cfg) == ("max_iters", 0.5)
        assert next_damping(_rows([0.3, 0.2]), cfg) == ("running", 0.5)

    def test_aborted_wins_over_max_iters(self):
        cfg = SolverConfig(tol=0.05, max_iters=6)
        rows = _rows([0.2] * 6, [1 / 32] + [1 / 64] * 5)
        assert next_damping(rows, cfg) == ("aborted", 1 / 128)
        # a halving on the last row that stays at or above 1/64 is max_iters
        rows = _rows([0.2] * 6, [1 / 16] + [1 / 32] * 5)
        assert next_damping(rows, cfg) == ("max_iters", 1 / 64)

    def test_four_stalls_keep_and_five_halve(self):
        # the first row follows no residual, so it never counts as a stall
        assert next_damping(_rows([0.1] * 5), self.CFG) == ("running", 0.5)
        assert next_damping(_rows([0.1] * 6), self.CFG) == ("running", 0.25)
        assert next_damping(_rows([0.3, 0.1, 0.1, 0.2, 0.2, 0.3]), self.CFG) == ("running", 0.5)
        assert next_damping(_rows([0.3, 0.3, 0.3, 0.4, 0.4, 0.5]), self.CFG) == ("running", 0.25)
        assert next_damping(_rows([0.1, 0.1, 0.1, 0.09, 0.1, 0.1]), self.CFG) == ("running", 0.5)

    @pytest.mark.parametrize("drops, damping", [
        ([1e-15] * 5, 0.25),                           # a decrease by 1e-15 counts as a tie
        ([1e-15, 1e-15, 3e-15, 1e-15, 1e-15], 0.5),    # by 3e-15 it is a decrease
        ([0.0, -1e-3, 0.0, -2e-3, 1e-16], 0.25),
    ])
    def test_decrease_within_1e_15_is_not_a_decrease(self, drops, damping):
        residuals = [1.0]
        for d in drops:
            residuals.append(residuals[-1] - d)
        assert next_damping(_rows(residuals), self.CFG) == ("running", damping)

    def test_rows_at_the_previous_damping_do_not_count(self):
        dampings = [0.5] * 6 + [0.25] * 4
        assert next_damping(_rows([0.1] * 10, dampings), self.CFG) == ("running", 0.25)
        dampings.append(0.25)
        assert next_damping(_rows([0.1] * 11, dampings), self.CFG) == ("running", 0.125)
        # the first row at a new damping is compared with the last at the old one
        residuals = [0.1] * 6 + [0.09] + [0.1] * 4
        assert next_damping(_rows(residuals, dampings), self.CFG) == ("running", 0.25)

    def test_one_sixty_fourth_continues_and_below_aborts(self):
        rows = _rows([0.1] * 6, [1 / 16] + [1 / 32] * 5)
        assert next_damping(rows, self.CFG) == ("running", 1 / 64)
        rows = _rows([0.1] * 6, [1 / 32] + [1 / 64] * 5)
        assert next_damping(rows, self.CFG) == ("aborted", 1 / 128)

    def test_reading_rows_equals_the_stall_counter(self):
        rng = np.random.default_rng(21)
        steps = np.array([-0.01, -1e-3, -3e-15, -1e-15, 0.0, 0.0, 1e-16, 1e-3, 0.01])
        seen = set()
        for _ in range(3000):
            n = int(rng.integers(1, 60))
            residuals = 0.2 + np.cumsum(rng.choice(steps, n, p=[.05, .1, .1, .15, .2, .2, .1,
                                                               .05, .05]))
            if rng.random() < 0.2:
                residuals[rng.integers(n)] = 0.0 if rng.random() < 0.5 else np.inf
            start = float(rng.choice([1.0, 0.5, 0.3, 1 / 16, 1 / 32]))
            cfg = SolverConfig(tol=0.05, max_iters=int(rng.integers(1, 50)), damping=start)
            expected = _stateful_rule(residuals.tolist(), start, cfg.tol, cfg.max_iters)
            rows, status, damping = [], "running", start
            while status == "running" and len(rows) < n:
                rows.append(IterationRow(len(rows) + 1, float(residuals[len(rows)]), damping,
                                         0.0, 0.0))
                status, damping = next_damping(rows, cfg)
            assert (status, [r.damping for r in rows]) == expected
            seen.add(status)
        assert seen == {"converged", "aborted", "max_iters", "running"}


class TestIterateLifetime:
    _CFG = dict(n_paths=2000, n_steps=10, n_bins=4, min_bin_count=32, seed=3, tol=1e-12)

    def test_each_application_runs_without_the_previous_one(self, lq_spec, monkeypatch):
        # per application: its input flow, its result's flow and its weights
        refs, alive = [], []
        apply = equilibrium_mod.apply_phi

        def recording(spec, m, config, reference=None, **kwargs):
            gc.collect()
            if len(refs) >= 2:
                alive.append([r() is not None for r in refs[-1]])
            phi = apply(spec, m, config, reference, **kwargs)
            held = [] if m is None else [weakref.ref(m)]    # the bootstrap bins its own input
            refs.append((*held, weakref.ref(phi.flow), weakref.ref(phi.weights)))
            return phi

        monkeypatch.setattr(equilibrium_mod, "apply_phi", recording)
        res = solve_equilibrium(lq_spec, SolverConfig(max_iters=4, **self._CFG), project=False)
        assert res.report.status == "max_iters"
        assert alive == [[False] * 3] * 3

    def test_apply_phi_frees_a_temporary_input_flow(self, lq_spec, monkeypatch):
        cfg = SolverConfig(**self._CFG)
        reference = equilibrium_mod._reference(lq_spec, cfg)
        held = [initial_flow(lq_spec, cfg, reference[1])]
        ref = weakref.ref(held[0])
        dead = []
        estimate = equilibrium_mod.estimate_conditional_flow

        def recording(paths, weights, *args, **kwargs):
            dead.append(ref() is None)
            return estimate(paths, weights, *args, **kwargs)

        monkeypatch.setattr(equilibrium_mod, "estimate_conditional_flow", recording)
        phi = apply_phi(lq_spec, held.pop(), cfg, reference)   # the call holds the only reference
        assert dead == [True]
        assert phi.flow.n_source == cfg.n_paths

    def test_bootstrap_frees_the_initial_flow(self, lq_spec, monkeypatch):
        refs, dead = [], []
        # the bootstrap maps m = None: its unit-weight flow is binned on read
        on_read = equilibrium_mod._flow_on_read
        estimate = equilibrium_mod.estimate_conditional_flow

        def recording_on_read(*args, **kwargs):
            m0 = on_read(*args, **kwargs)
            refs.append(weakref.ref(m0))
            return m0

        def recording_estimate(paths, weights, *args, **kwargs):
            if weights is not None:
                dead.append(refs[0]() is None)
            return estimate(paths, weights, *args, **kwargs)

        monkeypatch.setattr(equilibrium_mod, "_flow_on_read", recording_on_read)
        monkeypatch.setattr(equilibrium_mod, "estimate_conditional_flow", recording_estimate)
        solve_equilibrium(lq_spec, SolverConfig(max_iters=1, **self._CFG), project=False)
        assert dead == [True, True]

    def test_reference_keeps_no_dw0(self, lq_spec):
        cfg = SolverConfig(**self._CFG)
        noise, paths = equilibrium_mod._reference(lq_spec, cfg)
        fresh = generate_noise(cfg.n_paths, cfg.grid(lq_spec), cfg.seed, 1, 1)
        assert noise.dw0 is None     # its increments live on in paths.xc and paths.x
        np.testing.assert_array_equal(noise.dw, fresh.dw)
        np.testing.assert_array_equal(paths.x, simulate_driftless_state(lq_spec, fresh).x)

    def test_self_simulated_phi_frees_its_noise_before_binning(self, lq_spec, monkeypatch):
        cfg = SolverConfig(**self._CFG)
        refs, alive = [], []
        generate = equilibrium_mod.generate_noise

        def recording_generate(*args, **kwargs):
            noise = generate(*args, **kwargs)
            refs.append((weakref.ref(noise.dw), weakref.ref(noise.dw.base)))
            return noise

        def recording(estimate):
            def estimate_and_record(paths, weights, *args, **kwargs):
                alive.append([r() is not None for r in refs[0]])
                return estimate(paths, weights, *args, **kwargs)
            return estimate_and_record

        monkeypatch.setattr(equilibrium_mod, "generate_noise", recording_generate)
        for name in ("_flow_on_read", "estimate_conditional_flow"):
            monkeypatch.setattr(equilibrium_mod, name, recording(getattr(equilibrium_mod, name)))
        phi = apply_phi(lq_spec, None, cfg)
        assert len(refs) == 1
        # the input flow is binned (on read) while the noise lives, the output
        # after it is freed
        assert alive == [[True, True], [False, False]]
        assert phi.flow.n_source == cfg.n_paths

    def test_none_maps_the_unit_weight_flow_bitwise(self, lq_spec):
        # m None bins the input flow on read; in both conditioning modes the
        # map equals the one of the materialized unit-weight flow bit for bit
        for partition in (None, (0.0, 0.3, 0.6, 1.0)):
            cfg = SolverConfig(partition_times=partition, **self._CFG)
            reference = equilibrium_mod._reference(lq_spec, cfg)
            want = apply_phi(lq_spec, initial_flow(lq_spec, cfg, reference[1]), cfg, reference)
            for got in (apply_phi(lq_spec, None, cfg, reference), apply_phi(lq_spec, None, cfg)):
                assert (got.solution.y0, got.solution.y0_stderr) == (want.solution.y0,
                                                                     want.solution.y0_stderr)
                assert got.weights.log_m.tobytes(order="A") == want.weights.log_m.tobytes(
                    order="A")
                assert got.flow.src_w.tobytes(order="A") == want.flow.src_w.tobytes(order="A")
                assert len(got.flow.steps) == len(want.flow.steps) == cfg.n_steps + 1
                for a, b in zip(got.flow.steps, want.flow.steps):
                    for field in ("edges", "counts", "rows", "row_w"):
                        x, y = getattr(a, field), getattr(b, field)
                        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field

    @pytest.mark.parametrize("project", [False, True])
    def test_only_the_projection_allocates_an_action_array(self, lq_spec, monkeypatch,
                                                            project):
        cfg = SolverConfig(max_iters=2, **self._CFG)
        action_shape = (cfg.n_paths, cfg.n_steps, lq_spec.d_action)
        events, arrays = [], []
        for mod in (bsde_mod, equilibrium_mod):
            def recording_step_major(*shape, _real=mod.step_major, **kwargs):
                arr = _real(*shape, **kwargs)
                if shape == action_shape:
                    events.append("actions")
                    arrays.extend((weakref.ref(arr), weakref.ref(arr.base)))
                return arr
            monkeypatch.setattr(mod, "step_major", recording_step_major)
        solve, project_control = equilibrium_mod.solve_bsde, equilibrium_mod.project_control
        mimicking_check = equilibrium_mod.mimicking_check

        def recording_solve(*args, **kwargs):
            solution = solve(*args, **kwargs)
            # no field holds a per-path array (log M sits in ``weights``)
            assert all(np.ndim(v) < 2 or v.shape[0] != cfg.n_paths
                       for v in vars(solution).values())
            events.append("pass")
            return solution

        def recording_project(*args):
            events.append("projection")
            return project_control(*args)

        def recording_mimicking(*args):
            gc.collect()
            events.append(f"mimicking, {sum(r() is not None for r in arrays)} alive")
            return mimicking_check(*args)

        monkeypatch.setattr(equilibrium_mod, "solve_bsde", recording_solve)
        monkeypatch.setattr(equilibrium_mod, "project_control", recording_project)
        monkeypatch.setattr(equilibrium_mod, "mimicking_check", recording_mimicking)
        res = solve_equilibrium(lq_spec, cfg, project=project)
        exploitability(lq_spec, res.flow, res.policy, cfg, eval_reference=res.eval_reference)
        # the bootstrap, two loop applications and exploitability's best response
        assert events == ["pass"] * 3 + (["actions", "projection", "mimicking, 0 alive"]
                                         if project else []) + ["pass"]

    @pytest.mark.parametrize("project", [False, True])
    def test_loop_exit_releases_the_reference_noise_output_flow_and_orders(
            self, lq_spec, monkeypatch, project):
        refs, seen = [], []
        generate, apply = equilibrium_mod.generate_noise, equilibrium_mod.apply_phi
        project_control = equilibrium_mod.project_control

        def recording_generate(*args, **kwargs):
            noise = generate(*args, **kwargs)
            if not refs:                                  # the reference's noise
                refs.append(weakref.ref(noise.dw.base))
            return noise

        def recording_apply(*args, **kwargs):
            phi = apply(*args, **kwargs)
            refs[1:] = [weakref.ref(phi.flow)]            # the last application's flow
            return phi

        def recording_project(spec, paths, *args):
            gc.collect()
            seen.append(([r() is None for r in refs],
                         {"key_order", "state_order"} & vars(paths).keys()))
            return project_control(spec, paths, *args)

        monkeypatch.setattr(equilibrium_mod, "generate_noise", recording_generate)
        monkeypatch.setattr(equilibrium_mod, "apply_phi", recording_apply)
        monkeypatch.setattr(equilibrium_mod, "project_control", recording_project)
        res = solve_equilibrium(lq_spec, SolverConfig(max_iters=2, **self._CFG), project=project)
        gc.collect()
        assert [r() for r in refs] == [None, None]
        assert seen == ([([True, True], set())] if project else [])
        # the returned bundle holds no cached sort orders; a later binning
        # computes the same orders again
        paths = res.flow.paths
        assert not {"key_order", "state_order"} & vars(paths).keys()
        again = estimate_conditional_flow(paths, res.solution.weights, self._CFG["n_bins"],
                                          min_bin_count=self._CFG["min_bin_count"])
        want = apply_phi(lq_spec, res.flow, SolverConfig(**self._CFG)).flow
        for a, b in zip(again.steps, want.steps):
            assert a.rows.tobytes() == b.rows.tobytes()

    @pytest.mark.parametrize("max_iters", [1, 3])
    def test_max_iters_exit_pairs_the_flow_with_its_application(self, lq_spec, max_iters):
        cfg = SolverConfig(max_iters=max_iters, **self._CFG)
        res = solve_equilibrium(lq_spec, cfg, project=False)
        assert res.report.status == "max_iters"
        assert len(res.report.rows) == max_iters
        phi = apply_phi(lq_spec, res.flow, cfg)
        assert phi.solution.y0 == res.solution.y0 == res.report.rows[-1].y0
        assert np.array_equal(phi.weights.log_m, res.solution.weights.log_m)
