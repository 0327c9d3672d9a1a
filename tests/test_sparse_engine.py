"""The lazy sparse engine (``dapd.sparse_engine``): the two-sequence
recovery, the work per row, rebases and agreement with dense SDAPD.  The
contract it shares with the other solver states is tested once, over the
table of ``test_states.py``; the compiled iteration's own case here is rows
on which only storage order gives the numpy body's bits."""

import warnings

import numpy as np
import pytest

from dapd import sparse_engine
from dapd.datasets import synth_ridge
from dapd.errors import ConfigurationError, StructuralError
from dapd.matrix import build_matrix, ordered_dot
from dapd.proxlib import (
    kl_reg,
    l1_reg,
    l2_reg,
    make_problem,
    squared_loss,
)
from dapd.sparse_engine import (
    LazyState,
    finalize_x,
    rebase,
    run_sparse,
    sparse_iterate,
)
from dapd.stochastic import (
    StochasticParams,
    StochasticState,
    params_for_problem,
    perturb_problem,
    run_sdapd,
    sdapd_iterate_dense,
)

from oracles import (
    KERNEL_REGS,
    built_without_kernels,
    grid_params,
    lazy_primal_coord,
    materialize_s,
    sampled_rows,
)
from test_states import STATES, exact


def sparse_problem(rng, n, d, density, reg, row_scale=1.0):
    triplets = []
    for i in range(n):
        k = max(1, int(round(density * d)))
        cols = rng.choice(d, size=k, replace=False)
        for j in sorted(cols):
            triplets.append((i, int(j), row_scale * rng.normal()))
    A = build_matrix(triplets, n, d)
    b = rng.normal(size=n)
    return make_problem(A, squared_loss(b), reg, "finite_sum")


def unit_params(n=1, xi=2.0):
    return StochasticParams(eta=1.0, tau=1.0, beta0=1.0, xi=xi, n=n)


def one_row_problem(d=1, reg=None):
    """The 1 x d problem with a_0 = [1, 0, ..., 0] and b = 0."""
    A = build_matrix([(0, 0, 1.0)], 1, d)
    return make_problem(A, squared_loss([0.0]), reg or l2_reg(1.0), "finite_sum")


class TestInit:
    def test_zero_dual_start(self):
        state = LazyState(one_row_problem(), unit_params())
        assert state.v[0] == 0.0 and state.w[0] == 0.0 and state.u[0] == 0.0
        assert state.y[0] == 0.0 and state.x0[0] == 0.0

    def test_invalid_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            LazyState(one_row_problem(), StochasticParams(1.0, 1.0, 1.0, 1.0, 1))

    def test_other_sample_count_rejected(self):
        with pytest.raises(ConfigurationError, match="sample count"):
            LazyState(one_row_problem(), unit_params(n=2))


class TestLemmaBaseCase:
    def test_hand_traced_first_step(self):
        # theta = 1/xi = 0.5, beta0 = eta = tau = 1, n = 1, A = [1], g = l2(1),
        # b = -0.5, x0 = 3, y0 = 0 (so u = v = w = 0):
        #   x^0 = x0 = 3 (B_{-1} = 0),  xbar^1 = prox_{eta g}(3) = 3/2,
        #   y^1 = prox_{tau f*}(y0 + tau xbar^1) = (1.5 - tau b)/(1 + tau) = 1,
        #   delta = dy/n = 1:  v1 = beta0 (n - 1/(1-theta)) delta = -1,
        #   w1 = delta/(1-theta) = 2,  s1 = v1 + beta0 w1 = 1 = (beta0/n) ybar^1
        #   x^1 = prox_{B_0 g}(x0 - s1) = (3 - 1)/(1 + 1) = 1
        A = build_matrix([(0, 0, 1.0)], 1, 1)
        prob = make_problem(A, squared_loss([-0.5]), l2_reg(1.0), "finite_sum")
        state = LazyState(prob, unit_params(), x0=np.array([3.0]))
        sparse_iterate(state, 0)
        assert state.y[0] == pytest.approx(1.0, abs=1e-15)
        assert state.v[0] == pytest.approx(-1.0, abs=1e-14)
        assert state.w[0] == pytest.approx(2.0, abs=1e-14)
        assert materialize_s(state)[0] == pytest.approx(1.0, abs=1e-14)
        assert finalize_x(state)[0] == pytest.approx(1.0, abs=1e-14)


class TestLazyRecovery:
    def test_fresh_state_identity(self):
        reg = l1_reg(0.5)
        state = LazyState(one_row_problem(2, reg), unit_params(), x0=np.array([1.5, -2.0]))
        x0_j, _ = lazy_primal_coord(state, 0)
        assert x0_j == 1.5  # B_{-1} = 0 serves x0 directly
        assert state.touch_counter == 2

    def test_out_of_range(self):
        state = LazyState(one_row_problem(), unit_params())
        with pytest.raises(StructuralError):
            lazy_primal_coord(state, 5)

    def test_matches_dense_shadow(self):
        rng = np.random.default_rng(3)
        prob = sparse_problem(rng, 8, 12, 0.4, l1_reg(0.05))
        prob = perturb_problem(prob, 0.01)
        params = params_for_problem(prob)
        dense = StochasticState(prob, params)
        lazy = LazyState(prob, params)
        rows = sampled_rows(8, 11)
        for _ in range(300):
            i = next(rows)
            sdapd_iterate_dense(dense, i)
            sparse_iterate(lazy, i)
        for j in range(12):
            x_j, _ = lazy_primal_coord(lazy, j)
            assert x_j == pytest.approx(dense.x[j], abs=1e-10)

    def test_soft_threshold_kill_zone(self):
        rng = np.random.default_rng(4)
        prob = sparse_problem(rng, 6, 10, 0.5, l1_reg(50.0))
        prob = perturb_problem(prob, 1e-3)
        params = params_for_problem(prob)
        lazy = LazyState(prob, params)
        rows = sampled_rows(6, 0)
        for _ in range(200):
            sparse_iterate(lazy, next(rows))
        assert np.all(finalize_x(lazy) == 0.0)
        assert np.any(materialize_s(lazy) != 0.0)


class TestSparseIterate:
    def test_touch_count_audit(self):
        # 3-nonzero row in a million-dimensional space: per-iteration touches
        # stay <= 8*nnz + O(1)
        d = 1_000_000
        A = build_matrix([(0, 10, 1.0), (0, 500_000, -2.0), (0, d - 1, 0.5)], 1, d)
        prob = make_problem(A, squared_loss([1.0]), l2_reg(0.1), "finite_sum")
        params = params_for_problem(prob)
        state = LazyState(prob, params)
        before = state.touch_counter
        sparse_iterate(state, 0)
        assert state.touch_counter - before <= 8 * 3 + 4

    def test_empty_row_updates_only_dual(self):
        A = build_matrix([], 1, 3)
        prob = make_problem(A, squared_loss([2.0]), l2_reg(0.3), "finite_sum")
        params = unit_params(n=1)
        state = LazyState(prob, params)
        sparse_iterate(state, 0)
        assert state.y[0] != 0.0
        assert np.all(state.v == 0) and np.all(state.w == 0) and np.all(state.u == 0)

    def test_no_writes_off_support(self):
        rng = np.random.default_rng(5)
        prob = sparse_problem(rng, 10, 30, 0.15, l2_reg(0.2))
        params = params_for_problem(prob)
        state = LazyState(prob, params)
        rows = sampled_rows(10, 9)
        for _ in range(40):
            v0, w0, u0 = state.v.copy(), state.w.copy(), state.u.copy()
            i = next(rows)
            sparse_iterate(state, i)
            cols = prob.matrix.row(i)[0]
            mask = np.ones(30, dtype=bool)
            mask[cols] = False
            assert np.array_equal(state.v[mask], v0[mask])
            assert np.array_equal(state.w[mask], w0[mask])
            assert np.array_equal(state.u[mask], u0[mask])


class TestRebase:
    def test_rebase_right_after_init_is_noop(self):
        reg = l2_reg(0.5)
        state = LazyState(one_row_problem(reg=reg), unit_params(), x0=np.array([2.0]))
        before = lazy_primal_coord(state, 0)
        rebase(state)
        assert lazy_primal_coord(state, 0) == before

    def test_recovery_unchanged_at_arbitrary_t(self):
        rng = np.random.default_rng(7)
        for reg in [l1_reg(0.1), l2_reg(0.3), kl_reg(1.0)]:
            prob = sparse_problem(rng, 8, 12, 0.4, reg)
            prob = perturb_problem(prob, 1e-3)
            params = params_for_problem(prob)
            x0 = np.ones(12) if reg.kind == "kl" else np.zeros(12)
            state = LazyState(prob, params, x0=x0)
            rows = sampled_rows(8, 3)
            for _ in range(137):
                sparse_iterate(state, next(rows))
            before = finalize_x(state)
            coords_before = [lazy_primal_coord(state, j) for j in range(12)]
            rebase(state)
            after = finalize_x(state)
            coords_after = [lazy_primal_coord(state, j) for j in range(12)]
            assert np.allclose(after, before, rtol=1e-12, atol=1e-12)
            for (xa, xba), (xb, xbb) in zip(coords_after, coords_before):
                assert xa == pytest.approx(xb, rel=1e-12, abs=1e-12)
            assert state.rebase_count == 1

    def test_growth_factor_that_overflows_keeps_the_recovery(self):
        # beta0 = 1e-200 grown to about 1e120: beta / beta0 is not a double
        reg = l2_reg(0.3)
        prob = sparse_problem(np.random.default_rng(5), 4, 6, 0.5, reg)
        params = StochasticParams(eta=0.5, tau=0.5, beta0=1e-200, xi=1e10, n=4)
        state = LazyState(prob, params)
        rows = sampled_rows(4, 2)
        for _ in range(32):
            sparse_iterate(state, next(rows))
        assert state.beta_hat / params.beta0 > 1e308
        before = finalize_x(state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rebase(state)
        assert np.isfinite(state.log_scale) and state.beta_hat == params.beta0
        assert state.beta_prev_hat == pytest.approx(params.beta0 * state.theta, rel=1e-12)
        assert np.allclose(finalize_x(state), before, rtol=1e-12, atol=1e-300)
        assert state.B_hat > 0

    def test_threshold_triggers_and_values_stay_finite(self, monkeypatch):
        monkeypatch.setattr(sparse_engine, "RESCALE_THRESHOLD", 1e6)
        rng = np.random.default_rng(8)
        prob = sparse_problem(rng, 6, 8, 0.5, l2_reg(0.5))
        params = params_for_problem(prob)
        res = run_sparse(prob, params, 4000, seed=1)
        assert res.resolved["rebase_count"] >= 1
        assert np.isfinite(res.x).all()

    def test_long_run_stress_never_goes_nonfinite(self, monkeypatch):
        # slow geometric growth (xi = 1.001) over a horizon long enough that
        # the accumulated scale exp(log_scale) overflows any double and
        # inv_scale underflows to exactly 0; every stored quantity and every
        # recovery must stay finite throughout
        rng = np.random.default_rng(12)
        prob = sparse_problem(rng, 4, 5, 0.6, l2_reg(0.3))
        params = StochasticParams(eta=0.5, tau=0.5, beta0=0.5, xi=1.001, n=4)
        monkeypatch.setattr(sparse_engine, "RESCALE_THRESHOLD", 1e20)
        state = LazyState(prob, params)
        checkpoints = {200_000, 400_000, 800_000}
        rows = sampled_rows(4, 6)
        for t in range(800_000):
            sparse_iterate(state, next(rows))
            if t + 1 in checkpoints:
                x = finalize_x(state)
                assert np.isfinite(x).all()
                assert np.isfinite(state.v).all() and np.isfinite(state.w).all()
        assert state.rebase_count >= 10
        assert state.inv_scale == 0.0  # deep-scale regime really was exercised
        assert np.isfinite(finalize_x(state)).all()


class TestFinalize:
    def test_t0_identity(self):
        state = LazyState(one_row_problem(2, l1_reg(0.5)), unit_params(),
                          x0=np.array([0.7, -0.2]))
        assert np.array_equal(finalize_x(state), [0.7, -0.2])

    def test_matches_dense_last_iterate(self):
        rng = np.random.default_rng(9)
        prob = sparse_problem(rng, 12, 20, 0.3, l1_reg(0.02))
        prob = perturb_problem(prob, 1e-3)
        params = params_for_problem(prob)
        dense = run_sdapd(prob, params, 600, seed=17)
        sparse = run_sparse(prob, params, 600, seed=17)
        assert np.abs(sparse.x - dense.x).max() <= 1e-8

    def test_kl_from_the_default_start(self):
        # x0 = 0: the first recovery, prox_{0 g}(x0), is the identity
        data, _ = synth_ridge(30, 12, seed=6)
        problem = make_problem(data.matrix, squared_loss(data.labels), kl_reg(0.5), "finite_sum")
        problem = perturb_problem(problem, 1e-3)
        params = params_for_problem(problem)
        dense = run_sdapd(problem, params, 30 * 20, seed=1)
        sparse = run_sparse(problem, params, 30 * 20, seed=1)
        for res in (dense, sparse):
            assert res.trace[0].primal_value == pytest.approx(123.568, rel=1e-5)
            assert res.trace[-1].primal_value == pytest.approx(7.3983, rel=1e-4)
            assert np.all(res.x > 0)
        for a, b in zip(dense.trace, sparse.trace):
            assert b.primal_value == pytest.approx(a.primal_value, rel=1e-13)
        assert np.allclose(sparse.x, dense.x, rtol=1e-13, atol=0)

    def test_kl_regularizer_supported(self):
        rng = np.random.default_rng(10)
        prob = sparse_problem(rng, 6, 9, 0.5, kl_reg(0.8))
        prob = perturb_problem(prob, 1e-2)
        params = params_for_problem(prob)
        x0 = np.ones(9)
        dense = run_sdapd(prob, params, 400, seed=23, x0=x0)
        sparse = run_sparse(prob, params, 400, seed=23, x0=x0)
        assert np.all(sparse.x > 0)
        assert np.abs(sparse.x - dense.x).max() <= 1e-9

    def test_l1_support_matches_reference(self):
        rng = np.random.default_rng(11)
        prob = sparse_problem(rng, 20, 10, 0.6, l1_reg(0.05), row_scale=1.0)
        prob_p = perturb_problem(prob, 1e-7)
        params = params_for_problem(prob_p)
        res = run_sparse(prob_p, params, 60_000, seed=2)
        # high-accuracy dense reference on the same perturbed problem
        ref = run_sdapd(prob_p, params, 200_000, seed=5)
        support = np.abs(res.x) > 1e-12
        ref_support = np.abs(ref.x) > 1e-12
        assert np.array_equal(support, ref_support)


# ---------------------------------------------------------------------------
# the compiled iteration (lazy_iterate in kernels.c) against the numpy body;
# the cases every row kernel shares are in test_states.py
# ---------------------------------------------------------------------------


class TestCompiledIteration:
    def test_long_cancelling_rows_same_bits_as_numpy(self, compiled):
        # rows of 150 entries spread over six decades with both signs, so
        # that a sum in any order other than storage order changes the bits
        rng = np.random.default_rng(7)
        n, d, k = 6, 200, 150
        triplets = [
            (i, int(j), float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)))
            for i in range(n)
            for j in sorted(rng.choice(d, size=k, replace=False))
        ]
        problem = make_problem(build_matrix(triplets, n, d), squared_loss(rng.normal(size=n)),
                               KERNEL_REGS["l2"], "finite_sum")
        w = rng.normal(size=d)
        rows = [problem.matrix.row(i) for i in range(n)]
        assert any(ordered_dot(vals, w[cols]) != ordered_dot(vals[::-1], w[cols][::-1])
                   for cols, vals in rows)
        params = grid_params(problem)
        fast = LazyState(problem, params)
        slow = built_without_kernels(LazyState, problem, params)
        rows, written = sampled_rows(n, 5), STATES["lazy"].written
        for t in range(300):
            i = next(rows)
            sparse_iterate(fast, i)
            sparse_iterate(slow, i)
            assert exact(fast, written) == exact(slow, written), f"iteration {t}, row {i}"
        assert finalize_x(fast).tobytes() == finalize_x(slow).tobytes()
        assert np.all(np.isfinite(finalize_x(fast)))
