import numpy as np
import pytest

from dapd import stochastic
from dapd.deterministic import IterateState, dapd_iterate
from dapd.errors import ConfigurationError, DivergenceError, StructuralError
from dapd.matrix import build_matrix, matvec
from dapd.proxlib import (
    huber_reg,
    kl_reg,
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

from oracles import (
    KERNEL_REGS,
    ROW_PATHS,
    built_on,
    built_without_kernels,
    geometric_schedule,
    grid_params,
    ragged_problem,
    ridge_problem,
    saddle_value,
    sampled_rows,
)


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


# ---------------------------------------------------------------------------
# the compiled row (sdapd_dense_* in kernels.c) against its numpy body
# ---------------------------------------------------------------------------


def snapshot(state):
    """Everything an iteration writes, as exact values."""
    return (
        *(getattr(state, name).tobytes()
          for name in ("x", "xbar", "y", "u", "s_hat", "ergodic_x")),
        state.beta_hat, state.B_hat, state.log_scale, state.inv_scale, state.t,
        state.touch_counter,
    )


class TestCompiledRow:
    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("threshold", [None, 1e3], ids=["no_rescale", "rescale_1e3"])
    @pytest.mark.parametrize("epsilon", [None, 1e-3], ids=["unperturbed", "eps_1e-3"])
    @pytest.mark.parametrize("reg", list(KERNEL_REGS))
    @pytest.mark.parametrize("loss", ["squared", "hinge"])
    def test_same_bits_as_numpy_after_every_row(self, compiled, monkeypatch, loss, reg,
                                                  epsilon, threshold, seed):
        if threshold is not None:
            monkeypatch.setattr(stochastic, "RESCALE_THRESHOLD", threshold)
        problem = ragged_problem(loss, KERNEL_REGS[reg])
        params = grid_params(problem)
        if epsilon is not None:
            problem = perturb_problem(problem, epsilon)
        fast = StochasticState(problem, params)
        slow = built_without_kernels(StochasticState, problem, params)
        assert fast._kernel[1] is not None and slow._kernel[1] is None
        rows = sampled_rows(problem.n, seed)
        for t in range(900):
            i = next(rows)
            sdapd_iterate_dense(fast, i)
            sdapd_iterate_dense(slow, i)
            assert snapshot(fast) == snapshot(slow), f"iteration {t}, row {i}"
        # beta reaches 1e3 at iteration 462 (grid_params)
        assert (fast.log_scale > 0) == (threshold is not None)

    @pytest.mark.parametrize("start", ["inf_x0", "divergent_steps"])
    def test_divergence_at_the_same_iteration(self, compiled, start):
        if start == "inf_x0":
            problem = ragged_problem("squared", KERNEL_REGS["l2"])
            params, x0 = grid_params(problem), np.zeros(problem.dim)
            x0[3] = np.inf
        else:  # as in TestRun.test_divergence_reported_with_iteration
            problem, _, _ = finite_sum_ridge(np.random.default_rng(11), 5, 3, mu=0.2)
            params = StochasticParams(eta=200.0, tau=200.0, beta0=1.0, xi=1.5, n=5)
            x0 = None
        states = [StochasticState(problem, params, x0=x0),
                  built_without_kernels(StochasticState, problem, params, x0=x0)]
        failed = []
        for state in states:
            rows = sampled_rows(problem.n, 3)
            with pytest.raises(DivergenceError) as err:
                for _ in range(5000):
                    sdapd_iterate_dense(state, next(rows))
            failed.append(err.value.iteration)
        assert failed[0] == failed[1] == states[0].t
        assert (failed[0] > 0) == (start == "divergent_steps")
        assert snapshot(states[0]) == snapshot(states[1])

    @pytest.mark.parametrize("reg, x0", [(huber_reg(0.1, 0.5), 0.0), (kl_reg(0.5), 1.0),
                                         (l2_reg(0.3), 0.0)], ids=["huber", "kl", "l2"])
    def test_only_huber_and_kl_run_the_numpy_body(self, compiled, monkeypatch, reg, x0):
        problem = perturb_problem(ragged_problem("squared", reg), 1e-3)
        params = grid_params(problem)
        x0 = np.full(problem.dim, x0)
        want = run_sdapd(problem, params, 120, seed=4, x0=x0, wall_clock=False)
        calls = []
        for name in ("_xbar_dot_numpy", "_update_numpy"):
            body = getattr(stochastic, name)
            monkeypatch.setattr(stochastic, name,
                                lambda *args, body=body: calls.append(1) or body(*args))
        got = run_sdapd(problem, params, 120, seed=4, x0=x0, wall_clock=False)
        assert len(calls) == (0 if reg.kind == "l2" else 240)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.x_ergodic.tobytes() == want.x_ergodic.tobytes()
        assert got.y.tobytes() == want.y.tobytes() and got.trace == want.trace

    @pytest.mark.parametrize("name", ["params", "x0", "x", "xbar", "y", "u", "s_hat",
                                      "ergodic_x"])
    def test_bound_attributes_cannot_be_rebound(self, name):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        state = StochasticState(problem, grid_params(problem))
        value = getattr(state, name)
        with pytest.raises(AttributeError):
            setattr(state, name, np.zeros(3))
        assert getattr(state, name) is value

    @pytest.mark.parametrize("row", [-1, 12, 2**40])
    def test_row_out_of_range_writes_nothing(self, row):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        state = StochasticState(problem, grid_params(problem))
        for i in range(problem.n):
            sdapd_iterate_dense(state, i)
        before = snapshot(state)
        with pytest.raises(StructuralError, match="out of range"):
            sdapd_iterate_dense(state, row)
        assert snapshot(state) == before

    def test_x0_of_another_dimension_rejected(self):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        with pytest.raises(StructuralError):
            StochasticState(problem, grid_params(problem), x0=np.zeros(problem.dim + 1))


def step_scalars(state):
    """The scalars ``sdapd_dense_update`` advances, with the scale."""
    return (state.t, state.touch_counter, state.B_hat, state.beta_hat, state.inv_scale,
            state.log_scale)


class TestStepScalars:
    @pytest.mark.parametrize("path", ROW_PATHS)
    @pytest.mark.parametrize("where", ["dual_step", "update"])
    def test_divergence_leaves_the_scalars_as_they_were(self, path, where):
        # x0 is +inf on one column.  A first row that holds it has an
        # infinite dot product; a first row that does not gives an infinite
        # x in the update.  Either way no step scalar advances (the
        # divergence contract of kernels.c)
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        params = grid_params(problem)
        i = 3
        cols = problem.matrix.row(i)[0]
        x0 = np.zeros(problem.dim)
        held, not_held = cols[0], np.setdiff1d(np.arange(problem.dim), cols)[0]
        x0[held if where == "dual_step" else not_held] = np.inf
        state = built_on(path, StochasticState, problem, params, x0=x0)
        with pytest.raises(DivergenceError) as err:
            sdapd_iterate_dense(state, i)
        assert err.value.iteration == 0
        assert step_scalars(state) == (0, 0, 0.0, params.beta0, 1.0, 0.0)

    @pytest.mark.parametrize("path", ROW_PATHS)
    def test_threshold_patched_after_the_state_is_built_rescales_at_the_next_row(
            self, monkeypatch, path):
        problem = ragged_problem("hinge", KERNEL_REGS["elastic_net"])
        params = grid_params(problem)
        state = built_on(path, StochasticState, problem, params)
        rows = sampled_rows(problem.n, 5)
        for _ in range(10):
            sdapd_iterate_dense(state, next(rows))
        assert state.beta_hat <= stochastic.RESCALE_THRESHOLD and state.log_scale == 0.0
        monkeypatch.setattr(stochastic, "RESCALE_THRESHOLD", state.beta_hat)
        sdapd_iterate_dense(state, next(rows))
        assert state.beta_hat == params.beta0 and state.t == 11
        assert state.log_scale > 0 and state.inv_scale < 1.0


def theorem_bound_delta0(problem, params, x_star, y_star, x0, y0):
    """Constant in E||xhat - x*||^2 <= Delta0/(xi^T - 1), assembled from the
    final inequality of the linear-convergence proof."""
    gamma, mu, _, _, _ = problem_constants(problem)
    n = problem.n
    alpha = 1.0 + (n - 1) * gamma * params.tau / n
    c = problem.loss_scale
    f_at_star = saddle_value(problem, x_star, c * y_star)
    f_at_y0 = saddle_value(problem, x_star, c * y0)
    total = 0.5 * np.sum((x0 - x_star) ** 2)
    total += (alpha * params.beta0 / (2 * params.tau)) * np.sum((y0 - y_star) ** 2)
    total += (n - 1) * params.beta0 * (f_at_star - f_at_y0)
    return 2.0 * (params.xi - 1.0) / (mu * params.beta0) * total


class TestTheoremBound:
    def test_expected_distance_bound(self):
        rng = np.random.default_rng(13)
        prob, x_star, y_star = finite_sum_ridge(rng, 30, 10, mu=0.2)
        params = params_for_problem(prob)
        x0 = np.zeros(10)
        y0 = np.zeros(30)
        delta0 = theorem_bound_delta0(prob, params, x_star, y_star, x0, y0)
        n = prob.n
        for T in (n, 5 * n):
            dists = []
            for seed in range(20):
                res = run_sdapd(prob, params, T, seed=seed)
                dists.append(np.sum((res.x_ergodic - x_star) ** 2))
            bound = delta0 / (params.xi**T - 1.0)
            assert np.mean(dists) <= 1.1 * bound
