"""Deterministic DAPD (``dapd.deterministic``): hand iterations, the
scaled dual-averaging bookkeeping, rescales and the driver.  The checks it
shares with the other solver states (no rebinding, the start point's shape)
are in the table of ``test_states.py``, and the run-level contract it
shares with every method (budgets, seeds, the trace schema, refusals) in
the table of ``test_methods.py``; the theorem's saddle-gap and distance
bounds are acceptance criteria 1 and 2."""

import warnings

import numpy as np
import pytest

from dapd.deterministic import (
    IterateState,
    dapd_iterate,
    make_schedule,
    run_dapd,
    schedule_for_problem,
    validate_schedule,
)
from dapd.errors import DivergenceError
from dapd.matrix import build_matrix, matvec
from dapd.proxlib import l2_reg, make_problem, prox_conjugate, prox_reg, squared_loss

from oracles import geometric_schedule, one_d_ridge


def random_ridge(rng, n, d, mu):
    """Deterministic-scaled ridge 0.5||Ax-b||^2 + mu/2 ||x||^2 with closed-form
    saddle point."""
    triplets = [(i, j, rng.normal() / np.sqrt(d)) for i in range(n) for j in range(d)]
    A = build_matrix(triplets, n, d)
    b = rng.normal(size=n)
    prob = make_problem(A, squared_loss(b), l2_reg(mu), "deterministic")
    dense = A.to_dense()
    x_star = np.linalg.solve(dense.T @ dense + mu * np.eye(d), dense.T @ b)
    y_star = dense @ x_star - b
    return prob, x_star, y_star


class TestIterate:
    def test_one_d_hand_iteration(self):
        prob = one_d_ridge()
        sched = make_schedule(gamma=1.0, mu=1.0, R=1.0)
        state = IterateState(prob, sched)
        dapd_iterate(state)
        assert state.xbar[0] == 0.0
        assert state.y[0] == pytest.approx(-0.5, abs=0)
        assert state.x[0] == pytest.approx(0.25, abs=0)

    def test_zero_matrix_decouples(self):
        A = build_matrix([], 2, 3)
        prob = make_problem(
            A, squared_loss([1.0, -1.0]), l2_reg(0.5), "deterministic"
        )
        sched = geometric_schedule(eta=1.0, tau=1.0, beta0=1.0, xi=2.0)
        x0 = np.array([1.0, -2.0, 3.0])
        state = IterateState(prob, sched, x0=x0)
        dapd_iterate(state)
        # dual decouples to a pure conjugate prox, primal to a g-prox of x0
        want_y = [prox_conjugate(prob.loss, i, 1.0, 0.0) for i in range(2)]
        assert np.allclose(state.y, want_y, atol=0)
        assert np.allclose(state.x, prox_reg(prob.reg, 1.0, x0), atol=0)

    def test_incremental_grad_sum_matches_recomputation(self):
        rng = np.random.default_rng(8)
        prob, _, _ = random_ridge(rng, 6, 4, mu=0.3)
        sched = schedule_for_problem(prob)
        state = IterateState(prob, sched)
        ys = []
        for _ in range(40):
            dapd_iterate(state)
            ys.append(state.y.copy())
        recomputed = np.zeros(4)
        for k, y in enumerate(ys):
            recomputed += sched.beta(k) * matvec(prob.matrix, y, transpose=True)
        stored = state.s_hat / state.inv_scale
        assert np.allclose(stored, recomputed, rtol=1e-12, atol=1e-12)

    def test_primal_recovery_invariant(self):
        rng = np.random.default_rng(9)
        prob, _, _ = random_ridge(rng, 5, 3, mu=0.2)
        sched = schedule_for_problem(prob)
        state = IterateState(prob, sched)
        from dapd.proxlib import recover_primal

        for _ in range(25):
            dapd_iterate(state)
            again = recover_primal(prob.reg, state.x0, state.s_hat, state.B_hat, state.inv_scale)
            assert np.allclose(state.x, again, atol=0)

    def test_divergence_leaves_the_scalars_as_they_were(self):
        # x0 is +inf on one coordinate, so the first x is not finite; no
        # step scalar advances (the divergence contract of kernels.c)
        prob, _, _ = random_ridge(np.random.default_rng(9), 5, 3, mu=0.2)
        sched = schedule_for_problem(prob)
        state = IterateState(prob, sched, x0=[np.inf, 0.0, 0.0])
        with pytest.raises(DivergenceError) as err:
            dapd_iterate(state)
        assert (err.value.iteration, err.value.epoch) == (0, None)
        assert (state.t, state.touch_counter, state.B_hat, state.beta_hat, state.inv_scale,
                state.log_scale) == (0, 0, 0.0, sched.beta0, 1.0, 0.0)

    def test_weight_ratio_that_overflows_moves_into_the_scale(self):
        # sc_smooth with beta0 = 3.9e159 and xi = 1.96e159: beta0 * xi is not
        # a double, so each step's growth reaches log_scale without forming it
        A = build_matrix([(0, 0, 3e-160), (1, 1, 1e-160), (1, 0, 2e-160)], 2, 2)
        prob = make_problem(
            A, squared_loss([1.0, -1.0]), l2_reg(0.5), "deterministic"
        )
        sched = schedule_for_problem(prob)
        xi = sched.params["xi"]
        assert sched.regime == "sc_smooth" and sched.beta0 > np.finfo(float).max / xi
        state = IterateState(prob, sched)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                dapd_iterate(state)
        assert state.log_scale == pytest.approx(3 * np.log(xi), rel=1e-15)
        assert state.beta_hat == sched.beta0
        # B = beta0 (1 + xi + xi^2), stored divided by exp(log_scale) = xi^3
        assert state.B_hat == pytest.approx(sched.beta0 / xi * (1 + (1 + 1 / xi) / xi),
                                            rel=1e-12)

    def test_rescale_factor_that_overflows_is_taken_in_steps(self):
        # sc_smooth with beta0 = 2.74e-16 and xi = 2.74e154: the second
        # iteration stores beta = 2.06e293, over the threshold, and
        # beta / beta0 is not a double
        A = build_matrix([(0, 0, 3e-70), (1, 1, 1e-70), (1, 0, 2e-70)], 2, 2)
        prob = make_problem(A, squared_loss([1.0, -1.0]), l2_reg(1e170), "deterministic")
        sched = schedule_for_problem(prob)
        xi = sched.params["xi"]
        assert sched.regime == "sc_smooth"
        state = IterateState(prob, sched)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(4):
                dapd_iterate(state)
        # each pair of iterations grows beta by xi^2 = beta0 xi^2 / beta0
        assert state.log_scale == pytest.approx(4 * np.log(xi), rel=1e-12)
        assert np.isfinite(state.log_scale) and state.beta_hat == sched.beta0
        assert 0 < state.B_hat < np.inf and np.isfinite(state.s_hat).all()


class TestRun:
    def test_ergodic_matches_offline_average(self):
        rng = np.random.default_rng(10)
        prob, _, _ = random_ridge(rng, 6, 4, mu=0.4)
        sched = schedule_for_problem(prob)
        state = IterateState(prob, sched)
        xbars, betas = [], []
        for t in range(30):
            dapd_iterate(state)
            xbars.append(state.xbar.copy())
            betas.append(sched.beta(t))
        betas = np.array(betas)
        offline = (betas[:, None] * np.array(xbars)).sum(axis=0) / betas.sum()
        assert np.allclose(state.ergodic_x, offline, atol=1e-14, rtol=1e-13)

    def test_returns_last_iterate_and_ergodic_average(self):
        rng = np.random.default_rng(12)
        prob, _, _ = random_ridge(rng, 6, 4, mu=0.4)
        sched = schedule_for_problem(prob)
        state = IterateState(prob, sched)
        for _ in range(10):
            dapd_iterate(state)
        res = run_dapd(prob, sched, iterations=10)
        assert res.x.tobytes() == state.x.tobytes()
        assert res.x_ergodic.tobytes() == state.ergodic_x.tobytes()
        assert not np.array_equal(res.x, res.x_ergodic)

    def test_divergence_detected(self):
        rng = np.random.default_rng(11)
        prob, _, _ = random_ridge(rng, 5, 3, mu=0.2)
        # grossly infeasible steps: eta*tau*R^2 >> 1
        bad = geometric_schedule(eta=50.0, tau=50.0, beta0=1.0, xi=2.0)
        assert validate_schedule(bad, 1.0, 0.2, prob.stats.spectral_norm, 3)
        # after 148 iterations x is still finite but its objective is not: the
        # run fails there too instead of tracing an infinite primal value
        for iterations in (2000, 148):
            with pytest.raises(DivergenceError) as info:
                run_dapd(prob, bad, iterations=iterations)
            assert (info.value.epoch, info.value.iteration) == (148, None)


class TestTheoremBounds:
    def test_case_i_beta_growth_exact(self):
        sched = make_schedule(gamma=0.7, mu=0.2, R=2.0)
        xi = 1.0 + np.sqrt(0.7 * 0.2) / 2.0
        for t in range(6):
            assert sched.beta(t + 1) / sched.beta(t) == pytest.approx(xi, rel=1e-15)
