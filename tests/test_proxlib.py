import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dapd.errors import StructuralError
from dapd.matrix import build_matrix
from dapd.proxlib import (
    _unit_clip,
    composite_gamma,
    dual_objective,
    dual_prox,
    elastic_net_reg,
    feasible_dual_point,
    fold_labels,
    hinge_loss,
    huber_reg,
    kl_reg,
    l1_reg,
    l2_reg,
    make_problem,
    primal_objective,
    problem_constants,
    prox_conjugate,
    prox_reg,
    recover_primal,
    squared_loss,
    svm_problem,
)

from oracles import (
    assert_spectral_bound,
    hinge_conj,
    huber_fn,
    lasso_problem,
    one_d_ridge,
    prox_oracle,
    prox_reg_coord,
    ridge_problem,
    saddle_value,
)

STEP_GRID = [0.01, 0.5, 1.0, 10.0, 1000.0]


def replace(obj, **kw):
    import dataclasses

    return dataclasses.replace(obj, **kw)


class TestProxConjugate:
    def test_squared_hand(self):
        loss = squared_loss([1.0])
        assert prox_conjugate(loss, 0, 1.0, 3.0) == pytest.approx(1.0, abs=0)

    def test_hinge_hand(self):
        loss = hinge_loss([1.0])
        assert prox_conjugate(loss, 0, 0.5, 0.3) == pytest.approx(-0.2, abs=1e-15)

    def test_hinge_boundary_clamps(self):
        loss = replace(hinge_loss([1.0]), dual_perturbation=0.1)
        for v, lo_hi in [(2.0, None), (-3.0, None)]:
            got = prox_conjugate(loss, 0, 0.5, v)
            want = prox_oracle(hinge_conj(0.1), 0.5, v, -1.0, 0.0)
            assert got == pytest.approx(want, abs=1e-6)
        assert prox_conjugate(loss, 0, 0.5, 2.0) == 0.0
        assert prox_conjugate(loss, 0, 0.5, -3.0) == -1.0

    def test_bad_tau(self):
        with pytest.raises(StructuralError):
            prox_conjugate(squared_loss([0.0]), 0, 0.0, 1.0)

    # signed zeros, NaNs of both signs, infinities, the bounds, and the
    # nearest doubles on either side of each bound
    CLIP_INPUTS = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, -1.0,
                   np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0),
                   np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0), 0.5, -7.25)

    @pytest.mark.parametrize("u", CLIP_INPUTS)
    def test_unit_clip_bits(self, u):
        want = np.float64(np.clip(u, -1.0, 0.0))
        for arg in (float(u), np.float64(u)):
            got = _unit_clip(arg)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("delta1", [0.0, 0.1])
    @pytest.mark.parametrize("v", CLIP_INPUTS)
    def test_hinge_step_bits(self, v, delta1):
        # the numpy expression the hinge branch once returned
        loss = replace(hinge_loss([1.0]), dual_perturbation=delta1)
        for tau in (0.5, 1.0):
            want = np.float64(np.clip((v - tau) / (1.0 + tau * delta1), -1.0, 0.0))
            got = np.float64(prox_conjugate(loss, 0, tau, v))
            assert got.tobytes() == want.tobytes()


class TestProxReg:
    def test_l1_hand(self):
        reg = l1_reg(1.0)
        assert prox_reg_coord(reg, 0, 1.0, 2.0) == pytest.approx(1.0, abs=0)
        assert prox_reg_coord(reg, 0, 1.0, 0.5) == 0.0

    def test_kl_hand(self):
        reg = kl_reg(1.0)
        assert prox_reg_coord(reg, 0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_huber_paper_parameters(self):
        reg = huber_reg(1e-4, 1.0)
        assert prox_reg_coord(reg, 0, 1.0, 1e-5) == pytest.approx(1e-5 / 3.0, rel=1e-12)
        assert prox_reg_coord(reg, 0, 1.0, 1.0) == pytest.approx(0.9999, rel=1e-12)
        for v in (1e-5, 1.0, -0.3):
            want = prox_oracle(huber_fn(1e-4, 1.0), 1.0, v, -abs(v) - 1, abs(v) + 1)
            assert prox_reg_coord(reg, 0, 1.0, v) == pytest.approx(want, abs=1e-6)

    def test_vector_prox_matches_coordinates(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=7)
        for reg in [l1_reg(0.4), l2_reg(0.2), elastic_net_reg(0.3, 0.1), huber_reg(0.5, 0.7)]:
            full = prox_reg(reg, 2.5, v)
            each = [prox_reg_coord(reg, j, 2.5, v[j]) for j in range(7)]
            assert np.allclose(full, each, rtol=0, atol=0)

    def test_kl_at_zero_weight_is_the_identity(self):
        # B = 0, as in the lazy engine's first recovery: x0 = 0 used to give 0/0
        z = np.array([0.0, 2.5, 1e-300, -1.0])
        for inv_scale in (1.0, 0.25):
            got = recover_primal(kl_reg(0.5), z, np.zeros(4), 0.0, inv_scale)
            assert got.tobytes() == (z * inv_scale / inv_scale).tobytes()

    def test_kl_vector_weights(self):
        w = np.array([0.5, 1.5, 2.0])
        reg = kl_reg(w)
        v = np.array([-1.0, 0.2, 3.0])
        full = prox_reg(reg, 1.7, v)
        each = [prox_reg_coord(reg, j, 1.7, v[j]) for j in range(3)]
        assert np.allclose(full, each, rtol=0, atol=0)

    def test_bad_step(self):
        with pytest.raises(StructuralError):
            prox_reg_coord(l1_reg(1.0), 0, 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["squared", "hinge", "l1", "l2", "elastic_net", "huber", "kl"]),
    st.floats(-20, 20, allow_nan=False),
    st.floats(-20, 20, allow_nan=False),
    st.sampled_from(STEP_GRID),
)
def test_nonexpansiveness(kind, v1, v2, step):
    if kind == "squared":
        loss = squared_loss([0.3])
        p = lambda v: prox_conjugate(loss, 0, step, v)
    elif kind == "hinge":
        loss = hinge_loss([1.0])
        p = lambda v: prox_conjugate(loss, 0, step, v)
    else:
        reg = {
            "l1": l1_reg(0.6),
            "l2": l2_reg(0.4),
            "elastic_net": elastic_net_reg(0.5, 0.3),
            "huber": huber_reg(0.7, 0.5),
            "kl": kl_reg(1.1),
        }[kind]
        p = lambda v: prox_reg_coord(reg, 0, step, v)
    assert abs(p(v1) - p(v2)) <= abs(v1 - v2) + 1e-12


class TestObjective:
    def test_one_d_ridge(self):
        prob = one_d_ridge()
        assert primal_objective(prob, np.array([0.5])) == pytest.approx(0.25, abs=0)

    def test_hinge_at_zero(self):
        rng = np.random.default_rng(5)
        A = build_matrix(
            [(i, j, rng.normal()) for i in range(4) for j in range(3)], 4, 3
        )
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        prob = svm_problem(A, labels, l1_reg(0.5))
        assert primal_objective(prob, np.zeros(3)) == pytest.approx(1.0, abs=1e-15)

    def test_against_naive_dense(self):
        rng = np.random.default_rng(11)
        A = build_matrix(
            [(i, j, rng.normal()) for i in range(6) for j in range(4) if rng.random() < 0.8],
            6,
            4,
        )
        b = rng.normal(size=6)
        x = rng.normal(size=4)
        prob = lasso_problem(A, b, 0.3)
        dense = A.to_dense()
        naive = np.mean(0.5 * (dense @ x - b) ** 2) + 0.3 * np.sum(np.abs(x))
        assert primal_objective(prob, x) == pytest.approx(naive, rel=1e-12)

    def test_kl_domain_sentinel(self):
        A = build_matrix([(0, 0, 1.0)], 1, 2)
        prob = make_problem(A, squared_loss([0.0]), kl_reg(1.0), "finite_sum")
        assert primal_objective(prob, np.array([1.0, -0.5])) == np.inf
        assert primal_objective(prob, np.array([1.0, 0.0])) == np.inf

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(13)
        A = build_matrix(
            [(i, j, rng.normal()) for i in range(5) for j in range(3)], 5, 3
        )
        b = rng.normal(size=5)
        for reg in [l1_reg(0.2), l2_reg(0.5), huber_reg(0.4, 0.8)]:
            prob = make_problem(A, squared_loss(b), reg, "finite_sum")
            for _ in range(20):
                x1, x2 = rng.normal(size=3), rng.normal(size=3)
                mid = primal_objective(prob, 0.5 * x1 + 0.5 * x2)
                avg = 0.5 * primal_objective(prob, x1) + 0.5 * primal_objective(prob, x2)
                assert mid <= avg + 1e-12


class TestConstants:
    def test_ridge_constants(self):
        rng = np.random.default_rng(2)
        A = build_matrix([(i, j, rng.normal()) for i in range(4) for j in range(3)], 4, 3)
        prob = ridge_problem(A, rng.normal(size=4), 0.25)
        gamma, mu, L, R, rbar = problem_constants(prob)
        assert gamma == 1.0 and mu == 0.25
        assert_spectral_bound(R, A)
        assert rbar == pytest.approx(np.linalg.norm(A.to_dense(), axis=1).max())

    def test_hinge_l1_constants(self):
        A = build_matrix([(0, 0, 1.0), (1, 0, -1.0)], 2, 1)
        prob = svm_problem(A, np.array([1.0, -1.0]), l1_reg(0.1))
        gamma, mu, L, _, _ = problem_constants(prob)
        assert (gamma, mu, L) == (0.0, 0.0, 1.0)

    def test_perturbed_constants(self):
        A = build_matrix([(0, 0, 1.0)], 1, 1)
        loss = replace(hinge_loss([1.0]), dual_perturbation=0.01)
        reg = replace(l1_reg(0.1), primal_perturbation=0.01)
        prob = make_problem(A, loss, reg, "finite_sum")
        gamma, mu, _, _, _ = problem_constants(prob)
        assert gamma == pytest.approx(0.01) and mu == pytest.approx(0.01)

    def test_composite_gamma_scales(self):
        rng = np.random.default_rng(3)
        A = build_matrix([(i, 0, rng.normal()) for i in range(5)], 5, 1)
        prob = ridge_problem(A, rng.normal(size=5), 0.1, "finite_sum")
        assert composite_gamma(prob) == pytest.approx(5.0)


class TestDualSide:
    def test_dual_prox_matches_scalar_at_unit_scale(self):
        loss = squared_loss(np.array([0.2, -1.0, 0.5]))
        v = np.array([1.0, -2.0, 0.3])
        got = dual_prox(loss, 1.0, 0.7, v)
        want = [prox_conjugate(loss, i, 0.7, v[i]) for i in range(3)]
        assert np.allclose(got, want, rtol=0, atol=0)

    def test_dual_prox_scaling_identity(self):
        # prox_{tau (c f)*}(v) = c * prox_{(tau/c) f*}(v / c)
        loss = squared_loss(np.array([0.4]))
        c, tau, v = 0.2, 0.9, 1.7
        got = dual_prox(loss, c, tau, np.array([v]))[0]
        want = c * prox_conjugate(loss, 0, tau / c, v / c)
        assert got == pytest.approx(want, rel=1e-14)
        hinge = hinge_loss([1.0])
        got = dual_prox(hinge, c, tau, np.array([v]))[0]
        want = c * prox_conjugate(hinge, 0, tau / c, v / c)
        assert got == pytest.approx(want, rel=1e-14)

    def test_weak_duality(self):
        rng = np.random.default_rng(21)
        A = build_matrix(
            [(i, j, rng.normal()) for i in range(6) for j in range(4)], 6, 4
        )
        b = rng.normal(size=6)
        prob = lasso_problem(A, b, 0.8)
        x = rng.normal(size=4)
        y = feasible_dual_point(prob, rng.normal(size=6) * 0.1)
        assert dual_objective(prob, y) <= primal_objective(prob, x) + 1e-12

    def test_hinge_feasibility_clamps(self):
        A = build_matrix([(0, 0, 1.0), (1, 0, -0.5)], 2, 1)
        prob = svm_problem(A, np.array([1.0, -1.0]), l1_reg(10.0))
        y = feasible_dual_point(prob, np.array([5.0, -5.0]))
        c = prob.loss_scale
        assert np.all(y <= 0) and np.all(y >= -c)
        assert np.isfinite(dual_objective(prob, y))


class TestFolding:
    def test_fold_labels(self):
        A = build_matrix([(0, 0, 2.0), (1, 1, 3.0)], 2, 2)
        folded = fold_labels(A, np.array([-1.0, 1.0]))
        assert np.array_equal(folded.to_dense(), [[-2.0, 0.0], [0.0, 3.0]])

    def test_fold_labels_shares_the_structure(self):
        rng = np.random.default_rng(2)
        A = build_matrix([(i, j, rng.normal()) for i in range(5) for j in range(4)
                          if (i + j) % 3], 5, 4)
        labels = rng.normal(size=5)
        folded = fold_labels(A, labels)
        assert folded.row_offsets is A.row_offsets and folded.col_indices is A.col_indices
        rows = np.repeat(np.arange(5), np.diff(A.row_offsets))
        assert folded.values.tobytes() == (A.values * labels[rows]).tobytes()

    def test_saddle_consistency_with_primal(self):
        # sup_y F(x, y) = P(x) for smooth f: evaluate at the maximizing y
        prob = one_d_ridge()
        x = np.array([0.3])
        u = np.array([0.3])
        y_star = u - prob.loss.targets  # gradient of 0.5 (u - b)^2
        assert saddle_value(prob, x, y_star) == pytest.approx(
            primal_objective(prob, x), rel=1e-14
        )
