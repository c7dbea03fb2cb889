import csv
import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cnmfg
from cnmfg.equilibrium import SolverConfig
import cnmfg.flows as flows_mod
from cnmfg.flows import (
    ConditionalMeasureFlow,
    EmpiricalMeasure,
    StepBins,
    estimate_conditional_flow,
    flow_distance,
    flow_to_csv,
    group_rows,
    lp_transport,
    truncation_bound_check,
    wasserstein_1d,
)
from cnmfg.girsanov import GirsanovWeights, stochastic_exponential
from cnmfg.sde import (PathBundle, TimeGrid, generate_noise, simulate_driftless_state,
                       step_major)

# frozen after the first binning-stability sweep (8 vs 16 bins, 2e4 paths, seed 21)
BINNING_STABILITY_REFERENCE = 0.05912026969340029


def atoms_1d():
    # atoms on a coarse lattice: sub-tolerance gaps between atoms would probe
    # the LP solver's 1e-10 dual tolerance rather than the transport contract
    return st.lists(
        st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 3)),
        min_size=1, max_size=8,
    )


def _measure(values, weights=None):
    return EmpiricalMeasure(np.asarray(values, float), weights)


class TestWasserstein1d:
    def test_identity(self):
        mu = _measure([0.3, -1.2, 4.0])
        assert wasserstein_1d(mu, mu, 2.0) == 0.0

    def test_point_mass_translation(self):
        for q in (1.0, 2.0, 3.0):
            assert wasserstein_1d(_measure([0.0]), _measure([1.0]), q) == pytest.approx(1.0)

    def test_three_atom_hand_case(self):
        mu = _measure([0.0, 1.0, 2.0])
        nu = _measure([0.0, 0.0, 3.0])
        assert wasserstein_1d(mu, nu, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            wasserstein_1d(EmpiricalMeasure(np.zeros((2, 2))), _measure([0.0]), 1.0)

    @pytest.mark.parametrize("kind", ["measure", "flow-bin"])
    def test_sorted_1d_needs_a_1d_support(self, lq2_spec, kind):
        if kind == "measure":
            mu = EmpiricalMeasure(np.zeros((3, 2)))
        else:
            noise = generate_noise(200, TimeGrid(1.0, 3), 6, 2, 1)
            mu = estimate_conditional_flow(simulate_driftless_state(lq2_spec, noise), None,
                                           2).bins_at(1).measures[0]
        with pytest.raises(ValueError, match="sorted_1d requires 1-d support"):
            mu.sorted_1d


def _searchsorted_w1(mu, nu, q):
    """The quantile coupling as first written: two searchsorted lookups per level."""
    xa, wa = mu.sorted_1d
    xb, wb = nu.sorted_1d
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    levels = np.concatenate([[0.0], np.sort(np.concatenate([ca[:-1], cb[:-1]])), [1.0]])
    mass = np.diff(levels)
    mids = 0.5 * (levels[:-1] + levels[1:])
    ia = np.minimum(np.searchsorted(ca, mids, side="left"), xa.size - 1)
    ib = np.minimum(np.searchsorted(cb, mids, side="left"), xb.size - 1)
    cost = float(np.sum(mass * np.abs(xa[ia] - xb[ib]) ** q))
    return cost ** (1.0 / q)


def _random_1d_measure(rng):
    n = int(rng.integers(1, 13))
    x = rng.normal(size=n)
    kind = rng.integers(5)
    if kind == 0:
        w = rng.random(n) + 0.01
    elif kind == 1:
        w = np.ones(n)                                   # many tied levels
    elif kind == 2:
        w = rng.integers(0, 4, n).astype(float)          # zero weights, tied levels
        w[rng.integers(n)] += 1.0
    elif kind == 3:
        w = np.round(rng.random(n), 1)                   # levels one ulp apart
        w[0] += 0.1
    else:
        w = rng.random(n)
        w[rng.random(n) < 0.4] = 0.0                     # zero weights, possibly the last
        w[0] += 0.5
    if rng.random() < 0.3:
        x = np.round(x, 1)                               # tied atoms
    return EmpiricalMeasure(x, w)


class TestWasserstein1dMerge:
    """The running-count merge equals the searchsorted formulation bitwise."""

    def test_random_measures_bitwise(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            mu, nu = _random_1d_measure(rng), _random_1d_measure(rng)
            for q in (1.0, 2.0, 3.0):
                assert wasserstein_1d(mu, nu, q) == _searchsorted_w1(mu, nu, q)

    @pytest.mark.parametrize("xa,wa,xb,wb", [
        # levels one ulp apart whose midpoint rounds down to the lower one: the
        # same law on both sides, so any cost is the ulp interval's
        ([0.0, 1.0, 1.0], [0.1, 0.1, 0.6], [0.0, 1.0], [0.1, 0.7]),
        ([0.0, 1.0, 2.0], [1, 1, 1], [0.5, 3.0], [1, 2]),             # exactly tied levels
        ([0.0, 1.0, 2.0, 9.0], [0.1, 0.4, 0.1, 0.0], [1.0, 2.0], [0.5, 0.5]),  # a level past one
        ([0.4], [1.0], [0.0, 5.0, 1.0], [0.2, 0.0, 0.8]),  # single atom, zero weight
        ([3.0, -1.0], [0.0, 1.0], [2.0], [1.0]),
    ])
    def test_hand_cases_bitwise(self, xa, wa, xb, wb):
        mu, nu = EmpiricalMeasure(xa, wa), EmpiricalMeasure(xb, wb)
        for q in (1.0, 2.0, 3.0):
            assert wasserstein_1d(mu, nu, q) == _searchsorted_w1(mu, nu, q)
            assert wasserstein_1d(nu, mu, q) == _searchsorted_w1(nu, mu, q)

    def test_unequal_sizes_bitwise(self):
        rng = np.random.default_rng(7)
        for na, nb in ((1, 400), (400, 1), (37, 1250), (1250, 1300)):
            mu = EmpiricalMeasure(rng.normal(size=na), rng.random(na) + 0.1)
            nu = EmpiricalMeasure(rng.normal(0.4, 2.0, size=nb), rng.random(nb) + 0.1)
            for q in (1.0, 2.0, 3.0):
                assert wasserstein_1d(mu, nu, q) == _searchsorted_w1(mu, nu, q)


class TestLpTransport:
    def test_self_distance_zero(self):
        mu = _measure([0.1, 0.5, -2.0], [0.2, 0.5, 0.3])
        assert lp_transport(mu, mu, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch between measures"):
            lp_transport(_measure([0.0, 1.0]), EmpiricalMeasure(np.zeros((2, 2))))

    def test_euclidean_point_masses(self):
        mu = EmpiricalMeasure(np.array([[0.0, 0.0]]))
        nu = EmpiricalMeasure(np.array([[3.0, 4.0]]))
        assert lp_transport(mu, nu, 1.0) == pytest.approx(5.0, abs=1e-9)

    @given(
        a=atoms_1d(), b=atoms_1d(),
        wa=st.lists(st.floats(0.05, 1), min_size=8, max_size=8),
        wb=st.lists(st.floats(0.05, 1), min_size=8, max_size=8),
        q=st.sampled_from([1.0, 2.0]),
    )
    def test_oracle_equivalence_1d(self, a, b, wa, wb, q):
        mu = _measure(a, wa[: len(a)])
        nu = _measure(b, wb[: len(b)])
        assert lp_transport(mu, nu, q) == pytest.approx(wasserstein_1d(mu, nu, q), abs=1e-9)

    def test_subsampling_kicks_in(self):
        rng = np.random.default_rng(0)
        mu = EmpiricalMeasure(rng.normal(size=(600, 1)))
        nu = EmpiricalMeasure(rng.normal(1.0, 1.0, size=(500, 1)))
        d = lp_transport(mu, nu, 1.0)
        exact = wasserstein_1d(mu, nu, 1.0)
        assert abs(d - exact) < 0.15  # stratified subsample, not exact

    @pytest.mark.parametrize("dim,n", [(1, 1), (1, 7), (1, 60), (2, 7), (2, 60), (2, 256)])
    def test_uniform_equal_size_assignment_matches_lp(self, monkeypatch, dim, n):
        rng = np.random.default_rng(dim * 1000 + n)
        xa = rng.normal(size=(n, dim))
        xb = rng.normal(0.5, 1.5, size=(n, dim))
        lp_calls = []
        real_lp = flows_mod._transport_lp
        monkeypatch.setattr(flows_mod, "_transport_lp",
                            lambda *args: lp_calls.append(1) or real_lp(*args))
        uniform = np.full(n, 1.0 / n)
        for q in (1.0, 2.0):
            d = lp_transport(EmpiricalMeasure(xa), EmpiricalMeasure(xb), q)
            assert not lp_calls
            cost = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=2) ** q
            assert d == pytest.approx(real_lp(cost, uniform, uniform) ** (1.0 / q), abs=1e-9)
            if dim == 1:
                exact = wasserstein_1d(EmpiricalMeasure(xa), EmpiricalMeasure(xb), q)
                assert d == pytest.approx(exact, abs=1e-9)

    def test_non_uniform_pair_goes_through_lp(self, monkeypatch):
        def no_assignment(cost):
            raise AssertionError("assignment path taken for non-uniform weights")

        monkeypatch.setattr(flows_mod, "linear_sum_assignment", no_assignment)
        mu = _measure([0.1, 0.5, -2.0], [0.2, 0.5, 0.3])
        nu = _measure([0.0, 1.0, 2.0])
        assert lp_transport(mu, nu, 1.0) == pytest.approx(wasserstein_1d(mu, nu, 1.0),
                                                          abs=1e-9)


def _lexsort_resample(support, weights, n_out):
    """The stratified subsample with the lexicographic order from np.lexsort."""
    order = np.lexsort(support.T[::-1])
    atoms = support[order]
    cdf = np.cumsum(weights[order])
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, (np.arange(n_out) + 0.5) / n_out, side="left")
    return atoms[np.minimum(idx, atoms.shape[0] - 1)]


def _resample_cases(gen):
    for d in (1, 2, 3):
        for n in (1, 2, 3, 257, 5000, 20_000):
            x = gen.normal(size=(n, d))
            clamped = x.copy()
            clamped[:, 0] = np.clip(clamped[:, 0], -0.5, 0.5)     # clamped states tie
            rounded = np.round(x, 1)
            one_nan = x.copy()
            one_nan[gen.integers(n), 0] = np.nan
            nans = rounded.copy()
            nans[gen.random((n, d)) < 0.05] = np.nan
            zeros = rounded.copy()
            zeros[:, 0] = np.where(gen.random(n) < 0.5, 0.0, -0.0)
            for support in (x, clamped, rounded, one_nan, nans, zeros):
                for w in (np.full(n, 1.0 / n), gen.random(n) * (gen.random(n) < 0.9) + 1e-3):
                    yield support, w


class TestSystematicResample:
    def test_equals_lexsort_order(self):
        gen = np.random.default_rng(31)
        for support, w in _resample_cases(gen):
            for n_out in (1, 256):
                got = flows_mod._systematic_resample(support, w, n_out)
                want = _lexsort_resample(support, w, n_out)
                assert got.shape == want.shape == (n_out, support.shape[1])
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMetricAxioms:
    @given(a=atoms_1d(), b=atoms_1d(), q=st.sampled_from([1.0, 2.0]))
    def test_symmetry(self, a, b, q):
        mu, nu = _measure(a), _measure(b)
        assert wasserstein_1d(mu, nu, q) == pytest.approx(wasserstein_1d(nu, mu, q), abs=1e-12)

    @given(a=atoms_1d(), b=atoms_1d(), c=atoms_1d(), q=st.sampled_from([1.0, 2.0]))
    def test_triangle_inequality(self, a, b, c, q):
        mu, nu, rho = _measure(a), _measure(b), _measure(c)
        dab = wasserstein_1d(mu, nu, q)
        dac = wasserstein_1d(mu, rho, q)
        dcb = wasserstein_1d(rho, nu, q)
        assert dab <= dac + dcb + 1e-9

    @given(a=atoms_1d(), b=atoms_1d())
    def test_monotone_in_order(self, a, b):
        mu, nu = _measure(a), _measure(b)
        assert wasserstein_1d(mu, nu, 1.0) <= wasserstein_1d(mu, nu, 2.0) + 1e-9

    def test_identity_of_indiscernibles(self):
        mu = _measure([1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        nu = _measure([0.0, 1.0], [0.5, 0.5])
        assert wasserstein_1d(mu, nu, 1.0) == pytest.approx(0.0, abs=1e-12)
        ca, cwa = _canonical(mu)
        cb, cwb = _canonical(nu)
        np.testing.assert_allclose(ca, cb)
        np.testing.assert_allclose(cwa, cwb)

    @given(a=atoms_1d(), b=atoms_1d())
    def test_kr_norm_is_w1(self, a, b):
        # the Kantorovich-Rubinstein norm of mu - nu is W1 for probability measures
        mu, nu = _measure(a), _measure(b)
        assert wasserstein_1d(mu, nu, 1.0) == pytest.approx(lp_transport(mu, nu, 1.0), abs=1e-9)


def _canonical(mu):
    """Deduplicated, sorted (atoms, weights) of a measure, for identity comparisons."""
    uniq, inverse = np.unique(mu.support, axis=0, return_inverse=True)
    wsum = np.bincount(inverse.ravel(), weights=mu.weights, minlength=uniq.shape[0])
    keep = wsum > 0
    return uniq[keep], wsum[keep]


class TestTruncationBound:
    def test_within_radius_trivial(self):
        assert truncation_bound_check([0.5], [0.7], 2.0, 2.0)

    def test_direct_arithmetic_case(self):
        r = 1.3
        assert truncation_bound_check([0.0], [2.0 * r], r, 2.0)

    def test_random_batch(self):
        rng = np.random.default_rng(3)
        n = 100_000
        x = rng.normal(0, 3, size=(n, 1))
        y = rng.normal(0, 3, size=(n, 1))
        r = rng.uniform(0.1, 5.0, size=n)
        q = rng.uniform(1.0, 4.0, size=n)
        ok = truncation_bound_check(x, y, r, q)
        assert ok.shape == (n,)
        assert bool(np.all(ok))


def _constant_flow(grid, measures_per_step, key_idx=None):
    steps = [
        StepBins(edges=np.array([-1e9, 1e9]), measures=[m], counts=np.array([4]),
                 rows=np.arange(4, dtype=np.int32), row_w=np.full(4, 0.25),
                 totals=np.array([1.0]))
        for m in measures_per_step
    ]
    n_nodes = grid.n_steps + 1
    paths = PathBundle(grid=grid, x=np.zeros((4, n_nodes, 1)), xc=np.zeros((4, n_nodes, 1)),
                       label="driftless")
    return ConditionalMeasureFlow(
        paths=paths, steps=steps,
        key_idx=np.arange(n_nodes) if key_idx is None else key_idx,
        partition_times=None, n_bins_requested=1, min_bin_count=1,
    )


class TestFlowDistance:
    def test_self_zero(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 1, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        assert flow_distance(flow, flow, 2.0) == 0.0

    def test_single_step_hand_value(self):
        # single differing interior step with point masses at 0 and 1:
        # integral = dt, raised to q/2 with q=2, sqrt at the end -> sqrt(dt)
        grid = TimeGrid(1.0, 50)
        d0 = EmpiricalMeasure(np.array([0.0]))
        d1 = EmpiricalMeasure(np.array([1.0]))
        m = _constant_flow(grid, [d0] * 51)
        steps2 = [d0] * 51
        steps2[25] = d1
        m2 = _constant_flow(grid, steps2)
        assert flow_distance(m, m2, 2.0) == pytest.approx(np.sqrt(0.02), abs=1e-12)

    def test_endpoint_gets_half_weight(self):
        grid = TimeGrid(1.0, 50)
        d0 = EmpiricalMeasure(np.array([0.0]))
        d1 = EmpiricalMeasure(np.array([1.0]))
        steps2 = [d0] * 51
        steps2[50] = d1
        m = _constant_flow(grid, [d0] * 51)
        m2 = _constant_flow(grid, steps2)
        assert flow_distance(m, m2, 2.0) == pytest.approx(np.sqrt(0.01), abs=1e-12)

    def test_symmetric_same_particles(self, lq_spec, small_config):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, 2, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        lam = np.clip(0.5 * paths.x[:, :-1, :], -1, 1)
        w = stochastic_exponential(lq_spec, lam, noise)
        f1 = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        f2 = estimate_conditional_flow(paths, w, 8, min_bin_count=32)
        assert flow_distance(f1, f2, 2.0) == pytest.approx(flow_distance(f2, f1, 2.0), abs=0)

    def test_binning_stability_regression(self, lq_spec):
        cfg = SolverConfig(seed=21)
        noise = generate_noise(20_000, cfg.grid(lq_spec), 21, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        lam = np.clip(-0.5 * paths.x[:, :-1, :], -1, 1)
        w = stochastic_exponential(lq_spec, lam, noise)
        f8 = estimate_conditional_flow(paths, w, 8)
        f16 = estimate_conditional_flow(paths, w, 16)
        d = flow_distance(f8, f16, 2.0)
        assert d == pytest.approx(BINNING_STABILITY_REFERENCE, rel=0.2)

    def test_equals_pair_by_pair_value(self, lq_spec, lq2_spec, small_config):
        # a 1-d state's bins are compared by the quantile coupling, a 2-d
        # state's by lp_transport (the LP, as one flow is weighted)
        q = 2.0
        for spec, n, n_steps, distance in ((lq_spec, 4000, small_config.n_steps, wasserstein_1d),
                                           (lq2_spec, 400, 4, lp_transport)):
            grid = TimeGrid(1.0, n_steps)
            noise = generate_noise(n, grid, 19, spec.d_state, 1)
            paths = simulate_driftless_state(spec, noise)
            w = stochastic_exponential(spec, np.clip(0.5 * paths.x[:, :-1, :], -1, 1), noise)
            m = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
            m2 = estimate_conditional_flow(paths, w, 5, min_bin_count=32)
            idx = np.unique(np.linspace(0, n - 1, 2048).astype(int))
            keys = paths.xc[idx, :, 0]
            w2 = np.empty(keys.shape)
            pairs = {}                      # (step, bin, bin) -> squared distance
            for i in range(keys.shape[0]):
                for k in range(keys.shape[1]):
                    a = int(m.assign(k, keys[i:i + 1, k])[0])
                    b = int(m2.assign(k, keys[i:i + 1, k])[0])
                    if (k, a, b) not in pairs:
                        pairs[k, a, b] = distance(m.bins_at(k).measures[a],
                                                  m2.bins_at(k).measures[b], q) ** 2
                    w2[i, k] = pairs[k, a, b]
            trap_w = np.full(keys.shape[1], grid.dt)
            trap_w[0] = trap_w[-1] = 0.5 * grid.dt
            expected = float(np.mean((w2 @ trap_w) ** (q / 2.0)) ** (1.0 / q))
            assert flow_distance(m, m2, q) == expected

    def test_each_flow_keys_paths_by_its_own_key_map(self, lq_spec):
        grid = TimeGrid(1.0, 20)
        noise = generate_noise(4000, grid, 5, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        cur = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        part = estimate_conditional_flow(paths, None, 8, partition_times=[0.0, 0.5, 1.0],
                                         min_bin_count=32)
        assert not np.array_equal(cur.key_idx, part.key_idx)
        q = 2.0
        idx = np.unique(np.linspace(0, 3999, 2048).astype(int))
        xc = paths.xc[idx, :, 0]
        w2 = np.empty(xc.shape)
        for i in range(xc.shape[0]):
            for k in range(xc.shape[1]):
                a = int(cur.assign(k, xc[i:i + 1, cur.key_idx[k]])[0])
                b = int(part.assign(k, xc[i:i + 1, part.key_idx[k]])[0])
                w2[i, k] = wasserstein_1d(cur.bins_at(k).measures[a],
                                          part.bins_at(k).measures[b], q) ** 2
        trap_w = np.full(xc.shape[1], grid.dt)
        trap_w[0] = trap_w[-1] = 0.5 * grid.dt
        expected = float(np.mean((w2 @ trap_w) ** (q / 2.0)) ** (1.0 / q))
        assert flow_distance(cur, part, q) == expected

    def test_retained_caps_the_evaluation_paths(self, lq_spec, small_config):
        noise = generate_noise(2000, small_config.grid(lq_spec), 6, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        w = stochastic_exponential(lq_spec, np.clip(0.5 * paths.x[:, :-1, :], -1, 1), noise)
        m = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        m2 = estimate_conditional_flow(paths, w, 8, min_bin_count=32)
        # past the path count every path is evaluated, once
        assert flow_distance(m, m2, 2.0, retained=2000) == flow_distance(m, m2, 2.0,
                                                                         retained=5000)
        assert flow_distance(m, m2, 2.0, retained=16) != flow_distance(m, m2, 2.0)

    def test_shared_bundle_assigns_each_evaluation_path_once(self, lq_spec, small_config,
                                                             monkeypatch):
        noise = generate_noise(3000, small_config.grid(lq_spec), 7, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        w = stochastic_exponential(lq_spec, np.clip(0.5 * paths.x[:, :-1, :], -1, 1), noise)
        m = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        m2 = estimate_conditional_flow(paths, w, 8, min_bin_count=32)
        sizes = []
        assign = ConditionalMeasureFlow.assign

        def counting(self, k, keys):
            sizes.append(len(keys))
            return assign(self, k, keys)

        monkeypatch.setattr(ConditionalMeasureFlow, "assign", counting)
        for retained, n_eval in ((500, 500), (5000, 3000)):
            sizes.clear()
            flow_distance(m, m2, 2.0, retained=retained)
            assert sizes == [n_eval] * (2 * paths.grid.n_steps + 2)

    def test_grid_mismatch_rejected(self):
        d0 = EmpiricalMeasure(np.array([0.0]))
        m = _constant_flow(TimeGrid(1.0, 10), [d0] * 11)
        m2 = _constant_flow(TimeGrid(1.0, 20), [d0] * 21)
        with pytest.raises(ValueError):
            flow_distance(m, m2, 2.0)


class TestOrderCheck:
    """wasserstein_1d, lp_transport and flow_distance share one order check."""

    BAD_ORDERS = [0.5, 0.0, -1.0, np.nan, np.inf, -np.inf]

    @staticmethod
    def _flow():
        return _constant_flow(TimeGrid(1.0, 4), [EmpiricalMeasure(np.array([0.0]))] * 5)

    @pytest.mark.parametrize("q", BAD_ORDERS)
    @pytest.mark.parametrize("distance", [wasserstein_1d, lp_transport])
    def test_measure_distances_reject_order(self, distance, q):
        with pytest.raises(ValueError, match="order q must be finite and >= 1"):
            distance(_measure([0.0, 1.0]), _measure([2.0]), q)

    @pytest.mark.parametrize("q", BAD_ORDERS)
    def test_flow_distance_rejects_order(self, q):
        m = self._flow()
        with pytest.raises(ValueError, match="order q must be finite and >= 1"):
            flow_distance(m, m, q)

    @pytest.mark.parametrize("retained", [0, -5])
    def test_flow_distance_rejects_no_retained_paths(self, retained):
        m = self._flow()
        with pytest.raises(ValueError, match="retained evaluation paths must be >= 1"):
            flow_distance(m, m, 2.0, retained)

    def test_order_one_and_one_retained_path_accepted(self):
        m = self._flow()
        assert flow_distance(m, m, 1.0, 1) == 0.0
        assert wasserstein_1d(_measure([0.0]), _measure([2.0]), 1.0) == 2.0
        assert lp_transport(_measure([0.0]), _measure([2.0]), 1.0) == pytest.approx(2.0)


class TestPositiveMass:
    """A NaN or infinite total mass is rejected like a non-positive one."""

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [-1.0, 1.0], [0.0, 0.0]])
    def test_empirical_measure(self, weights):
        with pytest.raises(ValueError, match="positive total mass"):
            EmpiricalMeasure([1.0, 2.0], weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_step_bins(self, bad):
        keys = np.linspace(-1.0, 1.0, 400)
        weights = np.full(400, 1.0 / 400)
        weights[123] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="positive total mass"):
            flows_mod._make_step_bins(0, keys, np.arange(400), keys[:, None], weights, 4, 16,
                                      np.arange(400))


    def test_degenerate_weights_name_the_step_and_bin(self, lq_spec):
        # one path 800 above the others from step 1 on: exp underflows every
        # other path's scaled weight to zero, so the bins without it have no mass
        noise = generate_noise(4000, TimeGrid(1.0, 10), 9, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        log_m = np.zeros((4000, 11))
        log_m[17, 1:] = 800.0
        weights = GirsanovWeights(log_m=log_m)
        with pytest.raises(ValueError, match=r"positive total mass at step 1, bin \d+ "
                                             r"\(total weight 0\): weights degenerate"):
            estimate_conditional_flow(paths, weights, 8, min_bin_count=32)


class TestMalformedWeights:
    """Weights that describe no measure raise at construction, not inside a transport."""

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            EmpiricalMeasure([0.0, 1.0], [-0.5, 1.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            EmpiricalMeasure([0.0, 1.0, 2.0], [0.5, 0.5])


class TestEstimateFlow:
    def test_single_bin_is_unconditional_law(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 3, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 1)
        k = 10
        mu = flow.bins_at(k).measures[0]
        np.testing.assert_allclose(np.sort(mu.support[:, 0]), np.sort(paths.x[:, k, 0]))
        assert mu.weights.max() == pytest.approx(1.0 / 4000)

    def test_independent_key_makes_conditioning_vacuous(self):
        spec = cnmfg.make_instance("lq", sigma0=0.0)
        noise = generate_noise(50_000, TimeGrid(1.0, 10), 4, 1, 1)
        paths = simulate_driftless_state(spec, noise)
        flow = estimate_conditional_flow(paths, None, 8)
        k = 10
        bins = flow.bins_at(k)
        means = [m.mean[0] for m in bins.measures]
        overall_std = paths.x[:, k, 0].std()
        for b, mean in enumerate(means):
            se = overall_std / np.sqrt(bins.counts[b])
            assert abs(mean - paths.x[:, k, 0].mean()) <= 4 * se

    def test_min_bin_count_merges(self, lq_spec):
        noise = generate_noise(500, TimeGrid(1.0, 5), 5, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 7, min_bin_count=64)
        for k in range(1, 6):
            bins = flow.bins_at(k)
            assert np.all(bins.counts >= 64)

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_min_bin_count_merges_an_undersized_end_bin(self, end):
        # 40% of the mass on the 5 keys at one end: the quantile bins there
        # hold a few rows each, and the merge-nearest rule drops their edges
        n, n_bins, min_count = 1000, 10, 50
        keys = np.random.default_rng(4).normal(size=n)
        order = np.argsort(keys, kind="stable")
        weights = np.full(n, 0.6 / (n - 5))
        weights[order[:5] if end == "first" else order[-5:]] = 0.4 / 5
        qs = np.linspace(0.0, 1.0, n_bins + 1)
        cw = np.cumsum(weights[order])
        cw /= cw[-1]
        quantile_edges = np.interp(qs, cw, keys[order])[1:-1]
        raw = np.diff(np.searchsorted(keys[order], np.r_[-np.inf, quantile_edges, np.inf]))
        assert raw[0 if end == "first" else -1] < min_count
        bins = flows_mod._make_step_bins(0, keys, order, keys[:, None], weights, n_bins,
                                         min_count, order)
        assert np.all(bins.counts >= min_count) and bins.counts.sum() == n
        assert np.all(np.isin(bins.edges[1:-1], quantile_edges))
        assert bins.edges[0] == keys.min() and bins.edges[-1] == keys.max()

    def test_min_bin_count_below_one_rejected(self, lq_spec):
        paths = simulate_driftless_state(lq_spec, generate_noise(200, TimeGrid(1.0, 3), 6, 1, 1))
        with pytest.raises(ValueError, match="min_bin_count"):
            estimate_conditional_flow(paths, None, 4, min_bin_count=0)

    def test_no_bins_rejected(self, lq_spec):
        paths = simulate_driftless_state(lq_spec, generate_noise(200, TimeGrid(1.0, 3), 6, 1, 1))
        with pytest.raises(ValueError, match="n_bins must be >= 1"):
            estimate_conditional_flow(paths, None, 0)

    def test_bin_clamp_warns(self, lq_spec):
        noise = generate_noise(100, TimeGrid(1.0, 3), 6, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        with pytest.warns(UserWarning, match="clamped"):
            estimate_conditional_flow(paths, None, 64, min_bin_count=50)

    def test_weights_normalized_as_a_path_major_sum(self, lq_spec, small_config):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, 9, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        w = stochastic_exponential(lq_spec, np.clip(0.7 * paths.x[:, :-1, :], -1, 1), noise)
        # per step: exp(log M - its max), over its pairwise sum along the step
        log_m = np.ascontiguousarray(w.log_m.T)                 # (n_steps + 1, n)
        want = np.exp(log_m - log_m.max(axis=1, keepdims=True))
        want = (want / want.sum(axis=1, keepdims=True)).T
        path_major = GirsanovWeights(log_m=np.ascontiguousarray(w.log_m))
        for weights in (w, path_major):
            flow = estimate_conditional_flow(paths, weights, 8, min_bin_count=32)
            np.testing.assert_array_equal(flow.src_w, want)

    def test_overflowing_log_weight_keeps_weights_finite(self, lq_spec):
        # exp(800) overflows; normalizing in the log domain divides out each
        # step's largest weight, and the other paths, 200 lower, keep a mass
        noise = generate_noise(4000, TimeGrid(1.0, 10), 9, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        log_m = np.random.default_rng(2).normal(scale=0.1, size=(4000, 11))
        log_m[:, 0] = 0.0
        log_m[:, 3:] += 600.0
        log_m[17, 3:] = 800.0
        weights = GirsanovWeights(log_m=log_m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow = estimate_conditional_flow(paths, weights, 8, min_bin_count=32)
        assert np.all(np.isfinite(flow.src_w))
        np.testing.assert_allclose(flow.src_w.sum(axis=0), 1.0, rtol=1e-12)
        assert np.all(flow.src_w[17, 3:] > 0.99)
        for k in (2, 3, 10):
            for mu in flow.steps[k].measures:
                assert np.all(np.isfinite(mu.weights))

    def test_common_state_must_be_scalar(self, lq_spec):
        noise = generate_noise(100, TimeGrid(1.0, 3), 7, 1, 2)
        from dataclasses import replace

        spec2 = replace(lq_spec, sigma0=[[0.5, 0.0]],
                        sigmac=[[1.0, 0.0], [0.0, 1.0]],
                        init_common_sampler=cnmfg.problem.point_mass_sampler(0.0, dim=2))
        paths = simulate_driftless_state(spec2, noise)
        with pytest.raises(NotImplementedError):
            estimate_conditional_flow(paths, None, 4)


def _assert_flows_bitwise_equal(fa, fb):
    assert len(fa.steps) == len(fb.steps)
    for sa, sb in zip(fa.steps, fb.steps):
        np.testing.assert_array_equal(sa.edges, sb.edges)
        np.testing.assert_array_equal(sa.counts, sb.counts)
        assert sa.n_bins == sb.n_bins
        for ma, mb in zip(sa.measures, sb.measures):
            np.testing.assert_array_equal(ma.support, mb.support)
            np.testing.assert_array_equal(ma.weights, mb.weights)


class TestGroups:
    @staticmethod
    def _check(perm, groups, labels, n_groups):
        np.testing.assert_array_equal(np.sort(perm), np.arange(labels.size))
        nonempty = [b for b in range(n_groups) if np.any(labels == b)]
        assert [b for b, _, _ in groups] == nonempty
        for b, lo, hi in groups:
            np.testing.assert_array_equal(perm[lo:hi], np.flatnonzero(labels == b))
        assert sum(hi - lo for _, lo, hi in groups) == labels.size

    def test_matches_masks_with_out_of_range_keys(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 20, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        k = 10
        keys = np.concatenate([[1e6], paths.xc[:, k, 0], [-1e6, np.inf, -np.inf]])
        labels = flow.assign(k, keys)
        perm, groups = group_rows(labels, flow.bins_at(k).n_bins)
        assert groups[0][0] == 0 and groups[-1][0] == flow.bins_at(k).n_bins - 1
        self._check(perm, groups, labels, flow.bins_at(k).n_bins)

    def test_empty_bins_are_skipped(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 21, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        k = 10
        edges = flow.bins_at(k).edges
        keys = np.array([edges[-1], edges[0], edges[-1], 0.5 * (edges[2] + edges[3])])
        perm, groups = group_rows(flow.assign(k, keys), flow.bins_at(k).n_bins)
        last = flow.bins_at(k).n_bins - 1
        assert [b for b, _, _ in groups] == [0, 2, last]
        self._check(perm, groups, flow.assign(k, keys), last + 1)

    def test_single_bin_step(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 22, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        assert flow.bins_at(0).n_bins == 1      # point-mass initial common state
        perm, groups = group_rows(flow.assign(0, paths.xc[:, 0, 0]), flow.bins_at(0).n_bins)
        np.testing.assert_array_equal(perm, np.arange(4000))
        assert groups == [(0, 0, 4000)]

    def test_wide_labels(self):
        labels = np.random.default_rng(0).integers(0, 40_000, size=5000)
        perm, groups = group_rows(labels, 40_000)   # beyond int16: the generic sort
        assert [b for b, _, _ in groups] == np.unique(labels).tolist()
        for b, lo, hi in groups:
            np.testing.assert_array_equal(perm[lo:hi], np.flatnonzero(labels == b))
        assert sum(hi - lo for _, lo, hi in groups) == labels.size


class TestPerBin:
    """``flow.per_bin`` against a boolean-mask loop over the bins."""

    @staticmethod
    def _check(flow, k, keys, fn, *rows, mean_only=False):
        calls = []

        def recording(mu, *slices):
            calls.append((mu, [np.copy(s) for s in slices]))
            return fn(mu, *slices)

        got = flow.per_bin(k, keys, recording, *rows, mean_only=mean_only)
        labels = flow.assign(k, keys)
        bins = np.unique(labels)
        if mean_only:
            # one call on every row in path order, each row seeing its bin's mean
            ((mu, slices),) = calls
            np.testing.assert_array_equal(
                mu.mean, np.stack([flow.bins_at(k).measures[int(b)].mean for b in labels], axis=1))
            for seen, r in zip(slices, rows):
                np.testing.assert_array_equal(seen, r)
        else:
            # one call per non-empty bin, in bin order, with the bin's measure
            # itself and exactly the mask's rows in path order
            assert len(calls) == bins.size
            for (mu, slices), b in zip(calls, bins):
                assert mu is flow.bins_at(k).measures[int(b)]
                for seen, r in zip(slices, rows):
                    np.testing.assert_array_equal(seen, r[labels == b])
        single = not isinstance(got, tuple)
        got = (got,) if single else got
        want = [np.full_like(g, np.nan) for g in got]
        for b in bins:
            mask = labels == b
            res = fn(flow.bins_at(k).measures[int(b)], *(r[mask] for r in rows))
            for w, part in zip(want, (res,) if single else res):
                w[mask] = part
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        return got

    @staticmethod
    def _flow(lq_spec, small_config, seed):
        noise = generate_noise(4000, small_config.grid(lq_spec), seed, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        return paths, estimate_conditional_flow(paths, None, 8, min_bin_count=32)

    def test_single_output_out_of_range_keys(self, lq_spec, small_config):
        paths, flow = self._flow(lq_spec, small_config, 20)
        k = 10
        keys = np.concatenate([[1e6], paths.xc[:, k, 0], [-1e6, np.inf, -np.inf]])
        x = np.arange(keys.size, dtype=float)
        # a running sum depends on the row order inside each bin; a per-row
        # call takes only functions of each row on its own
        for mean_only, fn in ((False, lambda mu, x: np.cumsum(x) + mu.mean[0]),
                              (True, lambda mu, x: x * x + mu.mean[0])):
            (out,) = self._check(flow, k, keys, fn, x, mean_only=mean_only)
            assert out.shape == (keys.size,)

    def test_tuple_output_stacked_rows(self, lq_spec, small_config):
        paths, flow = self._flow(lq_spec, small_config, 21)
        k = 12
        keys = paths.xc[:, k, 0]
        x = paths.x[:, k, 0]
        a = np.random.default_rng(3).normal(size=(keys.size, 3, 2))   # (n, C, d) rows

        def fn(mu, x, a):
            run = np.cumsum(x)
            second = mu.weights @ mu.support[:, 0] ** 2   # a statistic beyond the mean
            return a * second + run[:, None, None], run * mu.mean[0]

        stacked, flat = self._check(flow, k, keys, fn, x, a)
        assert stacked.shape == (keys.size, 3, 2) and flat.shape == (keys.size,)

    def test_empty_bins_are_skipped(self, lq_spec, small_config):
        paths, flow = self._flow(lq_spec, small_config, 22)
        k = 10
        edges = flow.bins_at(k).edges
        keys = np.array([edges[-1], edges[0], edges[-1], 0.5 * (edges[2] + edges[3])])
        self._check(flow, k, keys, lambda mu, x: (np.cumsum(x), x * mu.mean[0]),
                    np.array([1.0, 2.0, 3.0, 4.0]))

    def test_single_bin_step(self, lq_spec, small_config):
        paths, flow = self._flow(lq_spec, small_config, 23)
        assert flow.bins_at(0).n_bins == 1      # point-mass initial common state
        (out,) = self._check(flow, 0, paths.xc[:, 0, 0], lambda mu, x: np.cumsum(x, axis=0),
                             paths.x[:, 0])
        np.testing.assert_array_equal(out, np.cumsum(paths.x[:, 0], axis=0))

    def test_zero_rows_name_the_step(self, lq_spec, small_config):
        paths, flow = self._flow(lq_spec, small_config, 24)
        for mean_only in (False, True):
            with pytest.raises(ValueError, match="step 3"):
                flow.per_bin(3, np.empty(0), lambda mu, x: x, np.empty((0, 1)),
                             mean_only=mean_only)

    def test_per_row_outputs_are_fresh_arrays(self, lq_spec, small_config):
        paths, flow = self._flow(lq_spec, small_config, 25)
        k = 6
        x = paths.x[:, k]
        same, view, own = flow.per_bin(
            k, paths, lambda mu, x: (x, x[:, 0], x * mu.mean[0][:, None]), x, mean_only=True)
        for out in (same, view, own):
            assert out.flags.owndata and out.flags.writeable
            assert not np.may_share_memory(out, paths.x)
        np.testing.assert_array_equal(same, x)
        np.testing.assert_array_equal(view, x[:, 0])

    @pytest.mark.parametrize("mean_only", [False, True])
    @pytest.mark.parametrize("fn", [lambda mu, x: 0.0, lambda mu, x: np.zeros(1),
                                    lambda mu, x: x[:-1]],
                             ids=["scalar", "length-1", "one-row-short"])
    def test_output_without_an_entry_per_row_rejected(self, lq_spec, small_config, fn, mean_only):
        # both paths hold every output to one leading entry per row; none is broadcast
        paths, flow = self._flow(lq_spec, small_config, 27)
        with pytest.raises(ValueError, match="per_bin at step 4: an output of shape .* has no "
                                             "leading entry per row"):
            flow.per_bin(4, paths, fn, paths.x[:, 4], mean_only=mean_only)

    def test_per_row_measure_and_output_checks(self, lq_spec, small_config):
        paths, flow = self._flow(lq_spec, small_config, 26)
        with pytest.raises(AttributeError, match="mean_field"):
            flow.per_bin(4, paths, lambda mu, x: x * mu.pth_moment, paths.x[:, 4],
                         mean_only=True)
        with pytest.raises(ValueError, match="read-only"):
            flow.per_bin(4, paths, lambda mu, x: np.add(x, 1.0, out=x), paths.x[:, 4],
                         mean_only=True)


class TestFlowOwnedCaches:
    """Bin rows and per-bin atom orders recorded at binning, against recomputing them."""

    @staticmethod
    def _flows(lq_spec, small_config, seed, x_decimals=None):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, seed, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        if x_decimals is not None:      # tied atoms inside bins
            paths = PathBundle(grid=grid, x=np.round(paths.x, x_decimals), xc=paths.xc,
                               label=paths.label)
        w = stochastic_exponential(lq_spec, np.clip(0.7 * paths.x[:, :-1, :], -1, 1), noise)
        cur = estimate_conditional_flow(paths, w, 8, min_bin_count=32)
        part = estimate_conditional_flow(paths, w, 8, min_bin_count=32,
                                         partition_times=[0.0, 0.3, 0.6, 1.0])
        # one heavy path per step crowds the weighted quantile edges between two
        # adjacent keys; the merge rule (min_bin_count 1) folds the bins between
        heavy_w = np.full((paths.n_paths, grid.n_steps + 1), 1e-12)
        heavy_w[paths.key_order[paths.n_paths // 2], np.arange(grid.n_steps + 1)] = 1.0
        heavy = estimate_conditional_flow(paths, None, 8, min_bin_count=1).reweighted(
            lambda k: heavy_w[:, k])
        blended = 0.5 * cur.src_w + 0.5 * part.src_w
        flows = {"current": cur, "partition": part,
                 "reweighted": cur.reweighted(lambda k: blended[:, k]),
                 "crowded": heavy}
        return paths, flows

    def test_cached_grouping_equals_assign(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 40)
        crowded = flows["crowded"].steps
        assert any(st.n_bins < 8 for st in crowded[1:])
        assert all(np.all(st.counts > 0) for st in crowded)
        assert flows["current"].bins_at(0).n_bins == 1     # point-mass initial common state
        for name, flow in flows.items():
            assert flow.paths is paths
            for k in range(paths.grid.n_steps + 1):
                # the step's sorted rows [lo, hi) of bin b are the rows assign puts in b
                bins = flow.bins_at(k)
                rebuilt = np.empty(paths.n_paths, dtype=np.intp)
                rebuilt[bins.rows] = np.repeat(np.arange(bins.n_bins), bins.counts)
                labels = flow.assign(k, paths)
                np.testing.assert_array_equal(labels, rebuilt, err_msg=f"{name} {k}")
                np.testing.assert_array_equal(
                    labels, flow.assign(k, flow.keys(k, paths.xc)))
        assert group_rows(flows["current"].assign(0, paths), 1)[1] == [(0, 0, paths.n_paths)]

    def test_foreign_bundle_keyed_by_its_common_state(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 42)
        twin = PathBundle(grid=paths.grid, x=paths.x.copy(), xc=paths.xc.copy(),
                          label=paths.label)
        other = simulate_driftless_state(lq_spec, generate_noise(3000, paths.grid, 43, 1, 1))
        for flow in flows.values():
            for k in (0, 7, 13, paths.grid.n_steps):
                for bundle in (twin, other):
                    keys = flow.keys(k, bundle.xc)
                    n_bins = flow.bins_at(k).n_bins
                    perm, groups = group_rows(flow.assign(k, bundle), n_bins)
                    want_perm, want_groups = group_rows(flow.assign(k, keys), n_bins)
                    np.testing.assert_array_equal(perm, want_perm)
                    assert groups == want_groups
                np.testing.assert_array_equal(flow.assign(k, twin), flow.assign(k, paths))

    def test_per_bin_on_paths_equals_per_bin_on_keys(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 44)
        a = np.random.default_rng(5).normal(size=(paths.n_paths, 2, 1))

        def fn(mu, x, a):
            run = np.cumsum(x[:, 0])          # depends on the row order inside a bin
            second = mu.weights @ mu.support[:, 0] ** 2   # a statistic beyond the mean
            return a * mu.mean[0] + run[:, None, None], run * second

        for flow in flows.values():
            for k in range(paths.grid.n_steps + 1):
                keys = flow.keys(k, paths.xc)
                got = flow.per_bin(k, paths, fn, paths.x[:, k], a)
                want = flow.per_bin(k, keys, fn, paths.x[:, k], a)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("x_decimals", [None, 1])
    def test_derived_sorted_1d_equals_argsort(self, lq_spec, small_config, x_decimals):
        paths, flows = self._flows(lq_spec, small_config, 45, x_decimals=x_decimals)
        for flow in flows.values():
            for bins in flow.steps:
                for mu in bins.measures:
                    order = np.argsort(mu.support[:, 0], kind="stable")
                    xs, ws = mu.sorted_1d
                    np.testing.assert_array_equal(xs, mu.support[order, 0])
                    np.testing.assert_array_equal(ws, mu.weights[order])
        if x_decimals is not None:
            support = flows["current"].bins_at(10).measures[2].support[:, 0]
            assert np.unique(support).size < support.size


    @pytest.mark.parametrize("x_decimals", [None, 1])
    def test_step_sorted_block_equals_argsort(self, lq_spec, small_config, x_decimals):
        paths, flows = self._flows(lq_spec, small_config, 46, x_decimals=x_decimals)
        for flow in flows.values():
            for bins in flow.steps:
                blocks = []
                for mu, count in zip(bins.measures, bins.counts):
                    order = np.argsort(mu.support[:, 0], kind="stable")
                    xs, ws = mu.sorted_1d
                    np.testing.assert_array_equal(xs, mu.support[order, 0])
                    np.testing.assert_array_equal(ws, mu.weights[order])
                    if count:
                        blocks.append(mu._rows)
                # each bin's rows are a slice of the step's one row array, in bin order
                assert all(rows.base is bins.rows for rows in blocks)
                np.testing.assert_array_equal(np.concatenate(blocks), bins.rows)


class TestKeyOrderCache:
    @pytest.mark.parametrize("mode", ["current", "partition"])
    def test_cache_warm_equals_cache_cold(self, lq_spec, small_config, mode):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, 23, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        w = stochastic_exponential(lq_spec, np.clip(0.7 * paths.x[:, :-1, :], -1, 1), noise)
        kw = dict(min_bin_count=32,
                  partition_times=[0.0, 0.3, 0.6, 1.0] if mode == "partition" else None)
        estimate_conditional_flow(paths, None, 8, **kw)      # warms the key order
        warm = estimate_conditional_flow(paths, w, 8, **kw)
        cold_paths = PathBundle(grid=grid, x=paths.x.copy(), xc=paths.xc.copy(),
                                label=paths.label)
        cold = estimate_conditional_flow(cold_paths, w, 8, **kw)
        _assert_flows_bitwise_equal(warm, cold)

    def test_bin_measures_are_the_masked_rows_in_state_order(self, lq_spec, small_config):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, 25, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        w = stochastic_exponential(lq_spec, np.clip(0.7 * paths.x[:, :-1, :], -1, 1), noise)
        flow = estimate_conditional_flow(paths, w, 8, min_bin_count=32)
        for k in range(grid.n_steps + 1):
            labels = flow.assign(k, paths.xc[:, k, 0])
            for b, mu in enumerate(flow.bins_at(k).measures):
                rows = np.flatnonzero(labels == b)
                rows = rows[np.argsort(paths.x[rows, k, 0], kind="stable")]
                np.testing.assert_array_equal(mu.support, paths.x[rows, k])
                np.testing.assert_array_equal(
                    mu.weights, EmpiricalMeasure(paths.x[rows, k], flow.src_w[rows, k]).weights)

    def test_sorted_1d_is_the_bin_support(self, lq_spec, small_config):
        noise = generate_noise(2000, small_config.grid(lq_spec), 26, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        for bins in flow.steps:
            for mu in bins.measures:
                xs, ws = mu.sorted_1d
                np.testing.assert_array_equal(xs, mu.support[:, 0])
                np.testing.assert_array_equal(ws, mu.weights)

    def test_current_mode_shares_the_cached_order(self, lq_spec, small_config):
        # the flow copies no particles: its keys are a view of the paths' common state
        noise = generate_noise(2000, small_config.grid(lq_spec), 24, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        assert flow.paths is paths
        assert np.shares_memory(flow.src_key, paths.xc)
        assert paths.key_order.dtype == np.int32


class TestStepStorage:
    """A step keeps its rows and its weights once; bins read them on access."""

    @staticmethod
    def _flows(lq_spec, small_config, seed):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, seed, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        w = stochastic_exponential(lq_spec, np.clip(0.7 * paths.x[:, :-1, :], -1, 1), noise)
        flows = {}
        for mode, times in (("current", None), ("partition", [0.0, 0.3, 0.6, 1.0])):
            for name, weights in (("unit", None), ("girsanov", w)):
                flows[mode, name] = (weights, estimate_conditional_flow(
                    paths, weights, 8, min_bin_count=32, partition_times=times))
        return paths, flows

    def test_src_w_is_the_fill_and_divide_array(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 47)
        n, n_nodes = paths.n_paths, paths.grid.n_steps + 1
        for weights, flow in flows.values():
            want = step_major(n, n_nodes)
            if weights is None:
                want.fill(1.0 / n)
            else:
                for k in range(n_nodes):
                    want[:, k] = weights.scaled(k)
                    want[:, k] /= want[:, k].sum()
            assert "src_w" not in {f.name for f in dataclasses.fields(flow)}   # derived
            got = flow.src_w
            assert got.strides == want.strides           # step-major
            assert got.tobytes(order="A") == want.tobytes(order="A")

    def test_a_step_holds_no_atoms_copy(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 48)
        n = paths.n_paths
        for _, flow in flows.values():
            for bins in flow.steps:
                arrays = [getattr(bins, f.name) for f in dataclasses.fields(bins)]
                held = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
                small = 8 * (3 * bins.n_bins + 1)                # edges, counts, totals
                assert n * (8 + 4) <= held <= n * (8 + 4) + small   # weights and rows
                for mu in bins.measures:                     # views, nothing gathered
                    assert mu._rows.base is bins.rows and mu._w.base is bins.row_w
                    assert np.shares_memory(mu._atoms, paths.x)
                    assert not any(isinstance(v, np.ndarray) and v.base is None
                                   for v in vars(mu).values())

    def test_a_unit_weight_flow_shares_one_weight_vector(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 50)
        n = paths.n_paths
        for mode in ("current", "partition"):
            steps = flows[mode, "unit"][1].steps
            shared = steps[0].row_w
            assert shared.strides == (0,) and not shared.flags.writeable
            for bins in steps:
                assert bins.row_w is shared
                # rows (int32); edges, counts and totals per bin
                arrays = [getattr(bins, f.name) for f in dataclasses.fields(bins)
                          if f.name != "row_w"]
                held = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
                assert n * 4 <= held <= n * 4 + 8 * (3 * bins.n_bins + 1)

    def test_a_unit_weight_flow_bins_the_gathered_weights_bitwise(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 51)
        n = paths.n_paths
        for mode in ("current", "partition"):
            unit = flows[mode, "unit"][1]
            full = step_major(n, len(unit.steps))
            full.fill(1.0 / n)
            gathered = unit.reweighted(lambda k: full[:, k])   # each step gathers its own weights
            assert gathered.steps[0].row_w is not gathered.steps[1].row_w
            assert unit.src_w.tobytes(order="A") == full.tobytes(order="A")
            for a, b in zip(unit.steps, gathered.steps):
                np.testing.assert_array_equal(a.rows, b.rows)
                assert a.edges.tobytes() == b.edges.tobytes()
                assert a.totals.tobytes() == b.totals.tobytes()
                for mu, nu in zip(a.measures, b.measures):
                    assert mu.weights.tobytes() == nu.weights.tobytes()
                    assert mu.sorted_1d[1].tobytes() == nu.sorted_1d[1].tobytes()
                    assert mu.mean.tobytes() == nu.mean.tobytes()

    def test_bins_are_the_old_block_slices(self, lq_spec, small_config):
        paths, flows = self._flows(lq_spec, small_config, 49)
        for _, flow in flows.values():
            src_w = flow.src_w
            for k, bins in enumerate(flow.steps):
                # the step's atoms and weights as one bin-major block, rebuilt
                labels = flow.assign(k, flow.keys(k, paths.xc))
                state_order = np.argsort(paths.x[:, k, 0], kind="stable")
                rows = state_order[np.argsort(labels[state_order], kind="stable")]
                np.testing.assert_array_equal(bins.rows, rows)
                block, w_block = paths.x[rows, k], src_w[rows, k]
                ends = np.cumsum(bins.counts)
                starts = ends - bins.counts
                totals = np.array([w_block[lo:hi].sum() for lo, hi in zip(starts, ends)])
                w_block /= np.repeat(totals, bins.counts)
                for mu, lo, hi in zip(bins.measures, starts, ends):
                    support, w = block[lo:hi], w_block[lo:hi]
                    np.testing.assert_array_equal(mu.support, support)
                    np.testing.assert_array_equal(mu.weights, w)
                    xs, ws = mu.sorted_1d
                    np.testing.assert_array_equal(xs, support[:, 0])
                    np.testing.assert_array_equal(ws, w)
                    np.testing.assert_array_equal(mu.mean, w @ support)
                    assert isinstance(mu, EmpiricalMeasure) and mu.dim == 1


class TestPartitionMode:
    def test_full_partition_reproduces_current_value_bitwise(self, lq_spec, small_config):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, 8, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        cur = estimate_conditional_flow(paths, None, 8, min_bin_count=32)
        part = estimate_conditional_flow(paths, None, 8, partition_times=grid.times.tolist(),
                                         min_bin_count=32)
        np.testing.assert_array_equal(cur.key_idx, part.key_idx)
        for k in range(grid.n_steps + 1):
            np.testing.assert_array_equal(cur.bins_at(k).edges, part.bins_at(k).edges)
            for ma, mb in zip(cur.bins_at(k).measures, part.bins_at(k).measures):
                np.testing.assert_array_equal(ma.support, mb.support)
                np.testing.assert_array_equal(ma.weights, mb.weights)

    def test_two_point_partition_differs(self, lq_spec, small_config):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, 9, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        part = estimate_conditional_flow(paths, None, 8, partition_times=[0.0, grid.horizon],
                                         min_bin_count=32)
        # before T the key freezes at time zero, after which conditioning is
        # vacuous under the point-mass initial common state
        assert part.key_idx[grid.n_steps - 1] == 0
        assert part.key_idx[grid.n_steps] == grid.n_steps
        assert part.bins_at(grid.n_steps - 1).n_bins == 1

    def test_three_point_partition_key_indices(self, lq_spec):
        grid = TimeGrid(1.0, 10)
        noise = generate_noise(1000, grid, 10, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        part = estimate_conditional_flow(paths, None, 4, partition_times=[0.0, 0.5, 1.0],
                                         min_bin_count=16)
        expected = [0, 0, 0, 0, 0, 5, 5, 5, 5, 5, 10]
        np.testing.assert_array_equal(part.key_idx, expected)


class TestLookup:
    def test_same_bin_returns_identical_object(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 11, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
        k = 10
        edges = flow.bins_at(k).edges
        mid = 0.5 * (edges[1] + edges[2])
        k = flow.grid.nearest_step(k * flow.grid.dt)
        m1 = flow.bins_at(k).measures[flow.assign(k, [mid])[0]]
        m2 = flow.bins_at(k).measures[flow.assign(k, [mid + 1e-9])[0]]
        assert m1 is m2

    def test_clamps_to_extreme_bins(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 12, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
        k = flow.grid.nearest_step(10 * flow.grid.dt)
        assert flow.bins_at(k).measures[flow.assign(k, [-1e6])[0]] is flow.bins_at(10).measures[0]
        last = flow.bins_at(10).n_bins - 1
        assert (flow.bins_at(k).measures[flow.assign(k, [1e6])[0]]
                is flow.bins_at(10).measures[last])

    def test_assign_equals_searchsorted_on_interior_edges(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 14, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        gen = np.random.default_rng(2)
        for n_bins in (1, 4, 16):
            flow = estimate_conditional_flow(paths, None, n_bins, min_bin_count=32)
            for k in (0, 5, flow.grid.n_steps):
                edges = flow.bins_at(k).edges
                keys = np.concatenate([paths.xc[:, k, 0], edges, gen.normal(size=500),
                                       [0.0, -0.0, np.inf, -np.inf, np.nan]])
                got = flow.assign(k, keys)
                np.testing.assert_array_equal(
                    got, np.searchsorted(edges[1:-1], keys, side="right"))
                assert got.dtype == np.intp

    def test_snaps_time_within_half_step(self, lq_spec, small_config):
        noise = generate_noise(4000, small_config.grid(lq_spec), 13, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
        dt = flow.grid.dt
        k1 = flow.grid.nearest_step(10 * dt + 0.4 * dt)
        k2 = flow.grid.nearest_step(10 * dt)
        m1 = flow.bins_at(k1).measures[flow.assign(k1, [0.0])[0]]
        assert m1 is flow.bins_at(k2).measures[flow.assign(k2, [0.0])[0]]


class TestMixFlows:
    """Damped Picard mixing: an axpy on the weights of one particle system, then a rebuild."""

    @staticmethod
    def _flows(lq_spec, small_config, seed, **kw):
        grid = small_config.grid(lq_spec)
        noise = generate_noise(4000, grid, seed, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        w = stochastic_exponential(lq_spec, np.clip(0.7 * paths.x[:, :-1, :], -1, 1), noise)
        return (estimate_conditional_flow(paths, None, 8, min_bin_count=32, **kw),
                estimate_conditional_flow(paths, w, 8, min_bin_count=32, **kw))

    def test_shared_particles_blend_weights(self, lq_spec, small_config):
        for times in (None, [0.0, 0.3, 0.6, 1.0]):
            f1, f2 = self._flows(lq_spec, small_config, 14, partition_times=times)
            blended = 0.75 * f1.src_w + 0.25 * f2.src_w
            mixed = f1.reweighted(lambda k: blended[:, k])
            np.testing.assert_array_equal(mixed.src_w, blended)
            assert mixed.paths is f1.paths
            assert mixed.n_source == 4000
            np.testing.assert_array_equal(mixed.key_idx, f1.key_idx)
            # the bins rebuilt independently on the blended weights, with a fresh key sort
            keys, x = f1.src_key, f1.paths.x
            steps = [flows_mod._make_step_bins(k, keys[:, k],
                                               np.argsort(keys[:, k], kind="stable"),
                                               x[:, k], blended[:, k], 8, 32,
                                               np.argsort(x[:, k, 0], kind="stable"))
                     for k in range(keys.shape[1])]
            _assert_flows_bitwise_equal(mixed, SimpleNamespace(steps=steps))

    def test_stepwise_mix_equals_the_full_array_blend_bitwise(self, lq_spec, small_config):
        # the Picard loop blends (1 - d) m + d phi one step at a time, as it bins
        # the step; the (n, n_steps + 1) blend of src_w it replaced gives the same bins
        def stepwise(m, phi, d):
            return m.reweighted(lambda k: (1.0 - d) * m.step_weights(k) + d * phi.step_weights(k))

        def whole(m, phi, d):
            blended = (1.0 - d) * m.src_w + d * phi.src_w
            return m.reweighted(lambda k: blended[:, k])

        for times in (None, [0.0, 0.3, 0.6, 1.0]):
            unit, weighted = self._flows(lq_spec, small_config, 17, partition_times=times)
            # the first mix has a unit-weight iterate, the second a mixed one
            m1 = stepwise(unit, weighted, 0.5)
            pairs = [(m1, whole(unit, weighted, 0.5)),
                     (stepwise(m1, weighted, 0.3), whole(m1, weighted, 0.3))]
            for got, want in pairs:
                assert len(got.steps) == len(want.steps) == small_config.n_steps + 1
                for a, b in zip(got.steps, want.steps):
                    for field in ("edges", "counts", "rows", "row_w", "totals"):
                        x, y = getattr(a, field), getattr(b, field)
                        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field

    def test_full_weight_recovers_target(self, lq_spec, small_config):
        f1, f2 = self._flows(lq_spec, small_config, 15)
        blended = 0.0 * f1.src_w + 1.0 * f2.src_w
        mixed = f1.reweighted(lambda k: blended[:, k])
        _assert_flows_bitwise_equal(mixed, f2)
        assert flow_distance(mixed, f2, 2.0) == 0.0

    def test_reweighted_summaries_describe_the_new_bins(self, lq_spec, small_config):
        f1, f2 = self._flows(lq_spec, small_config, 16)
        for bins in f1.steps:                      # warm f1's mean caches
            for mu in bins.measures:
                mu.mean
        blended = 0.5 * f1.src_w + 0.5 * f2.src_w
        mixed = f1.reweighted(lambda k: blended[:, k])
        for bins in mixed.steps:
            for got in bins.measures:
                support, w = got.support, got.weights
                np.testing.assert_array_equal(got.mean, w @ support)


class TestSerialization:
    def test_flow_csv_shape(self, lq_spec, small_config, tmp_path):
        noise = generate_noise(4000, small_config.grid(lq_spec), 18, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
        out = tmp_path / "flow.csv"
        flow_to_csv(flow, out)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["step", "t", "bin_index", "bin_lo", "bin_hi"]
        assert len(header) == 5 + 33
        expected_rows = sum(flow.bins_at(k).n_bins for k in range(flow.grid.n_steps + 1))
        assert len(lines) == 1 + expected_rows

    def test_two_dim_flow_csv_has_per_coordinate_quantiles(self, lq2_spec, tmp_path):
        noise = generate_noise(1000, TimeGrid(1.0, 4), 18, 2, 1)
        paths = simulate_driftless_state(lq2_spec, noise)
        paths.x[:, :, 1] = np.round(paths.x[:, :, 1], 1)          # tied atoms
        w = np.random.default_rng(3).random((1000, 5))
        w /= w.sum(axis=0)
        flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
        flow = flow.reweighted(lambda k: w[:, k])
        flow_to_csv(flow, tmp_path / "flow.csv")
        header, *rows = csv.reader((tmp_path / "flow.csv").read_text().splitlines())
        assert len(header) == 5 + 2 * 33
        assert header[5:] == [f"x{c}_q{j:02d}" for c in range(2) for j in range(33)]
        qs = np.linspace(0.0, 1.0, 33)
        i = 0
        for k, bins in enumerate(flow.steps):
            for b, mu in enumerate(bins.measures):
                want = []
                for c in range(2):
                    order = np.argsort(mu.support[:, c], kind="stable")
                    cw = np.cumsum(mu.weights[order])
                    cw /= cw[-1]
                    want.extend(np.interp(qs, cw, mu.support[order, c]))
                assert rows[i][:3] == [str(k), f"{flow.grid.times[k]:.17g}", str(b)]
                assert rows[i][5:] == [f"{v:.17g}" for v in want]
                i += 1
        assert i == len(rows)

    def test_flow_csv_quantiles_equal_per_bin_argsort(self, lq_spec, small_config, tmp_path):
        noise = generate_noise(4000, small_config.grid(lq_spec), 18, 1, 1)
        paths = simulate_driftless_state(lq_spec, noise)
        paths.x[:, :, 0] = np.round(paths.x[:, :, 0], 1)          # tied atoms
        w = np.random.default_rng(3).random((4000, small_config.n_steps + 1))
        flow = estimate_conditional_flow(paths, None, 4, min_bin_count=32)
        w /= w.sum(axis=0)
        flow = flow.reweighted(lambda k: w[:, k])
        flow_to_csv(flow, tmp_path / "flow.csv")
        qs = np.linspace(0.0, 1.0, 33)
        rows = list(csv.reader((tmp_path / "flow.csv").read_text().splitlines()))[1:]
        i = 0
        for k, bins in enumerate(flow.steps):
            for b, mu in enumerate(bins.measures):
                order = np.argsort(mu.support[:, 0], kind="stable")
                cw = np.cumsum(mu.weights[order])
                cw /= cw[-1]
                want = np.interp(qs, cw, mu.support[order, 0])
                assert rows[i][5:] == [f"{v:.17g}" for v in want]
                i += 1
        assert i == len(rows)
