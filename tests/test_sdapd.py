"""Dense SDAPD (``dapd.stochastic``): its steps, the perturbation, the
iterate identities and the driver.  The contract it shares with the other
solver states (no rebinding, the start point's shape, row bounds, the same
bits as the numpy bodies, the fallback, divergence, rescales) is tested
once, over the table of ``test_states.py``; the theorem's expected-distance
bound is acceptance criterion 3."""

import numpy as np
import pytest

from dapd.deterministic import IterateState, dapd_iterate
from dapd.errors import ConfigurationError, DivergenceError
from dapd.matrix import build_matrix, matvec
from dapd.proxlib import (
    l1_reg,
    l2_reg,
    make_problem,
    problem_constants,
    prox_conjugate,
    prox_reg,
    squared_loss,
    svm_problem,
)
from dapd.stochastic import (
    StochasticParams,
    StochasticState,
    params_for_problem,
    perturb_problem,
    run_sdapd,
    sdapd_iterate_dense,
    sdapd_params,
)

from oracles import geometric_schedule, ridge_problem, sampled_rows


def finite_sum_ridge(rng, n, d, mu, row_scale=1.0):
    triplets = [(i, j, row_scale * rng.normal() / np.sqrt(d)) for i in range(n) for j in range(d)]
    A = build_matrix(triplets, n, d)
    b = rng.normal(size=n)
    prob = ridge_problem(A, b, mu)
    dense = A.to_dense()
    x_star = np.linalg.solve(dense.T @ dense / n + mu * np.eye(d), dense.T @ b / n)
    y_star = dense @ x_star - b
    return prob, x_star, y_star


class TestParams:
    def test_unit_instance(self):
        p = sdapd_params(1, 1.0, 1.0, 1.0)
        assert (p.eta, p.tau) == (1.0, 1.0)
        assert p.xi == pytest.approx(1.5)
        assert p.beta0 == p.eta

    def test_hundred_samples(self):
        p = sdapd_params(100, 1.0, 0.01, 1.0)
        assert p.eta == pytest.approx(1.0)
        assert p.tau == pytest.approx(1.0)
        # n + rbar*sqrt(n/(mu*gamma)) = 100 + sqrt(10^4) = 200
        assert p.xi == pytest.approx(1.0 + 1.0 / 200.0)

    @pytest.mark.parametrize("n,gamma,mu,rbar", [(3, 0.5, 0.2, 1.3), (17, 2.0, 0.01, 0.4)])
    def test_step_product_identity(self, n, gamma, mu, rbar):
        p = sdapd_params(n, gamma, mu, rbar)
        assert p.eta * p.tau == pytest.approx(1.0 / rbar**2, rel=1e-15)

    def test_degenerate_constants_rejected(self):
        with pytest.raises(ConfigurationError, match="perturb_problem"):
            sdapd_params(5, 0.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="perturb_problem"):
            sdapd_params(5, 1.0, 0.0, 1.0)


class TestPerturb:
    def test_regular_problem_unchanged(self):
        rng = np.random.default_rng(0)
        prob, _, _ = finite_sum_ridge(rng, 4, 3, mu=0.5)
        assert perturb_problem(prob, 0.01) is prob

    def test_hinge_l1_perturbed(self):
        A = build_matrix([(0, 0, 1.0), (1, 0, -1.0)], 2, 1)
        prob = svm_problem(A, np.array([1.0, -1.0]), l1_reg(0.1))
        pert = perturb_problem(prob, 0.01, c1=1.0, c2=1.0)
        gamma, mu, _, _, _ = problem_constants(pert)
        assert gamma == pytest.approx(0.01)
        assert mu == pytest.approx(0.01)

    def test_bad_epsilon(self):
        rng = np.random.default_rng(1)
        prob, _, _ = finite_sum_ridge(rng, 4, 3, mu=0.5)
        with pytest.raises(ConfigurationError):
            perturb_problem(prob, 0.0)


def one_d_unit_problem():
    A = build_matrix([(0, 0, 1.0)], 1, 1)
    return make_problem(A, squared_loss([1.0]), l2_reg(1.0), "finite_sum")


class TestSingleSample:
    def test_first_iterate_matches_dapd(self):
        prob = one_d_unit_problem()
        params = sdapd_params(1, 1.0, 1.0, 1.0)
        state = StochasticState(prob, params)
        sdapd_iterate_dense(state, 0)  # the only row
        assert state.xbar[0] == 0.0
        assert state.y[0] == pytest.approx(-0.5, abs=0)
        assert state.x[0] == pytest.approx(0.25, abs=0)

    def test_trajectory_equals_dapd_with_matched_steps(self):
        prob = one_d_unit_problem()
        params = sdapd_params(1, 1.0, 1.0, 1.0)
        sched = geometric_schedule(params.eta, params.tau, params.beta0, params.xi)
        s_state = StochasticState(prob, params)
        d_state = IterateState(prob, sched)
        for _ in range(60):
            sdapd_iterate_dense(s_state, 0)
            dapd_iterate(d_state)
            assert s_state.x[0] == pytest.approx(d_state.x[0], abs=1e-15)
            assert s_state.y[0] == pytest.approx(d_state.y[0], abs=1e-15)


    def test_params_for_another_sample_count_rejected(self):
        prob = one_d_unit_problem()
        with pytest.raises(ConfigurationError, match="sample count"):
            StochasticState(prob, sdapd_params(2, 1.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError, match="sample count"):
            run_sdapd(prob, sdapd_params(2, 1.0, 1.0, 1.0), 5, seed=0)


class TestIterate:
    def test_u_matches_from_scratch(self):
        rng = np.random.default_rng(4)
        prob, _, _ = finite_sum_ridge(rng, 12, 6, mu=0.2)
        params = params_for_problem(prob)
        state = StochasticState(prob, params)
        rows = sampled_rows(prob.n, 7)
        for _ in range(1000):
            sdapd_iterate_dense(state, next(rows))
        fresh = matvec(prob.matrix, state.y, transpose=True) / prob.n
        assert np.allclose(state.u, fresh, rtol=1e-10, atol=1e-12)

    def test_per_iteration_cost_bound(self):
        rng = np.random.default_rng(5)
        prob, _, _ = finite_sum_ridge(rng, 10, 8, mu=0.3)
        params = params_for_problem(prob)
        state = StochasticState(prob, params)
        d = prob.dim
        rows = sampled_rows(prob.n, 1)
        for _ in range(50):
            before = state.touch_counter
            i = next(rows)
            sdapd_iterate_dense(state, i)
            nnz_row = prob.matrix.row(i)[1].size
            delta = state.touch_counter - before
            assert delta <= 10 * (d + nnz_row)
            assert delta >= d

    def test_extrapolation_unbiasedness(self):
        # averaging ybar over all n outcomes of i_t equals the full
        # coordinatewise dual prox vector
        rng = np.random.default_rng(6)
        prob, _, _ = finite_sum_ridge(rng, 5, 3, mu=0.4)
        params = params_for_problem(prob)
        state = StochasticState(prob, params)
        rows = sampled_rows(prob.n, 2)
        for _ in range(3):
            sdapd_iterate_dense(state, next(rows))
        n = prob.n
        xbar = prox_reg(prob.reg, params.eta, state.x - params.eta * state.u)
        ax = matvec(prob.matrix, xbar)
        tilde = np.array(
            [
                prox_conjugate(prob.loss, i, params.tau, state.y[i] + params.tau * ax[i])
                for i in range(n)
            ]
        )
        mean_ybar = np.zeros(n)
        for i in range(n):
            ybar = state.y.copy()
            ybar[i] = state.y[i] + n * (tilde[i] - state.y[i])
            mean_ybar += ybar / n
        assert np.allclose(mean_ybar, tilde, rtol=1e-12, atol=1e-12)

    def test_geometric_beta_exact_until_rebase(self):
        rng = np.random.default_rng(7)
        prob, _, _ = finite_sum_ridge(rng, 6, 4, mu=0.5)
        params = params_for_problem(prob)
        state = StochasticState(prob, params)
        prev = state.beta_hat
        rows = sampled_rows(prob.n, 0)
        for _ in range(100):
            sdapd_iterate_dense(state, next(rows))
            assert state.beta_hat / prev == pytest.approx(params.xi, rel=1e-15)
            prev = state.beta_hat


class TestRun:
    def test_seeded_determinism(self):
        rng = np.random.default_rng(8)
        prob, x_star, _ = finite_sum_ridge(rng, 9, 5, mu=0.2)
        ref = None
        a = run_sdapd(prob, params_for_problem(prob), 200, seed=42, wall_clock=False)
        b = run_sdapd(prob, params_for_problem(prob), 200, seed=42, wall_clock=False)
        assert np.array_equal(a.x, b.x)
        assert a.trace == b.trace

    def test_zero_iterations_rejected(self):
        rng = np.random.default_rng(10)
        prob, _, _ = finite_sum_ridge(rng, 5, 3, mu=0.2)
        with pytest.raises(ConfigurationError):
            run_sdapd(prob, params_for_problem(prob), 0, seed=0)

    def test_divergence_reported_with_iteration(self):
        rng = np.random.default_rng(11)
        prob, _, _ = finite_sum_ridge(rng, 5, 3, mu=0.2)
        from dapd.stochastic import StochasticParams

        bad = StochasticParams(eta=200.0, tau=200.0, beta0=1.0, xi=1.5, n=5)
        with pytest.raises(DivergenceError) as info:
            run_sdapd(prob, bad, 5000, seed=0)
        # x stays finite, but its objective is not at the end of epoch 709
        assert (info.value.epoch, info.value.iteration) == (709, None)

    def test_epoch_trace_alignment(self):
        rng = np.random.default_rng(12)
        prob, _, _ = finite_sum_ridge(rng, 6, 4, mu=0.2)
        res = run_sdapd(prob, params_for_problem(prob), 6 * 4, seed=1)
        assert [r.epoch for r in res.trace] == [1, 2, 3, 4]
        partial = run_sdapd(prob, params_for_problem(prob), 15, seed=1)
        assert [r.epoch for r in partial.trace] == [1, 2, 3]
