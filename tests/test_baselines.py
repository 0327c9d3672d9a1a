import numpy as np
import pytest

from dapd.baselines import BASELINE_METHODS, BaselineConfig, run_baseline
from dapd.errors import ConfigurationError
from dapd.matrix import build_matrix
from dapd.proxlib import (
    l1_reg,
    l2_reg,
    make_problem,
    primal_objective,
    squared_loss,
    svm_problem,
)
from dapd.stochastic import perturb_problem

from oracles import ridge_problem


def one_d_ridge():
    A = build_matrix([(0, 0, 1.0)], 1, 1)
    return make_problem(A, squared_loss([1.0]), l2_reg(1.0), "deterministic", loss_scale=1.0)


def well_conditioned_ridge(rng, n=20, d=20, lam=1.0):
    triplets = [(i, j, rng.normal() / np.sqrt(d)) for i in range(n) for j in range(d)]
    A = build_matrix(triplets, n, d)
    b = rng.normal(size=n)
    prob = ridge_problem(A, b, lam)
    dense = A.to_dense()
    x_star = np.linalg.solve(dense.T @ dense / n + lam * np.eye(d), dense.T @ b / n)
    return prob, primal_objective(prob, x_star)


class TestExamples:
    def test_apgm_one_d_ridge(self):
        prob = one_d_ridge()
        res = run_baseline(BaselineConfig("apgm", epochs=200), prob)
        assert primal_objective(prob, res.x) - 0.25 <= 1e-10
        assert abs(res.x[0] - 0.5) <= 1e-5

    def test_proxsgd_deterministic_traces(self):
        rng = np.random.default_rng(0)
        prob, _ = well_conditioned_ridge(rng, n=8, d=5)
        a = run_baseline(BaselineConfig("proxsgd", epochs=5, seed=3), prob, wall_clock=False)
        b = run_baseline(BaselineConfig("proxsgd", epochs=5, seed=3), prob, wall_clock=False)
        assert a.trace == b.trace
        assert np.array_equal(a.x, b.x)

    def test_spdc_single_sample_ridge(self):
        prob = one_d_ridge()
        res = run_baseline(BaselineConfig("spdc", epochs=400, seed=0), prob)
        assert abs(res.x[0] - 0.5) <= 1e-8


class TestApplicability:
    def setup_method(self):
        rng = np.random.default_rng(1)
        A = build_matrix(
            [(i, j, rng.normal()) for i in range(6) for j in range(4)], 6, 4
        )
        labels = np.where(rng.random(6) < 0.5, -1.0, 1.0)
        self.hinge_l1 = svm_problem(A, labels, l1_reg(0.1))

    def test_apgm_rejects_nonsmooth(self):
        with pytest.raises(ConfigurationError):
            run_baseline(BaselineConfig("apgm", epochs=5), self.hinge_l1)

    def test_proxsvrg_rejects_nonsmooth(self):
        with pytest.raises(ConfigurationError):
            run_baseline(BaselineConfig("proxsvrg", epochs=5), self.hinge_l1)

    def test_spdc_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            run_baseline(BaselineConfig("spdc", epochs=5), self.hinge_l1)

    def test_spdc_accepts_perturbed(self):
        prob = perturb_problem(self.hinge_l1, 0.1)
        res = run_baseline(BaselineConfig("spdc", epochs=3, seed=0), prob)
        assert np.isfinite(res.x).all()

    def test_pdhg_and_subgradient_methods_accept_nonsmooth(self):
        for method in ("pdhg", "da", "proxsgd", "rda"):
            res = run_baseline(BaselineConfig(method, epochs=3, seed=0), self.hinge_l1)
            assert np.isfinite(res.x).all()

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig("adam", epochs=5)


class TestBudgets:
    """Each method reaches a rate-appropriate target within 10x its
    theoretical budget on a well-conditioned ridge instance."""

    def setup_method(self):
        rng = np.random.default_rng(2)
        self.prob, self.ref = well_conditioned_ridge(rng)

    @pytest.mark.parametrize(
        "method,epochs,target",
        [
            ("pdhg", 400, 1e-6),
            ("apgm", 400, 1e-6),
            ("proxsvrg", 40, 1e-6),
            ("spdc", 40, 1e-6),
            ("da", 20_000, 1e-2),
            ("rda", 2_000, 1e-2),
            ("proxsgd", 2_000, 1e-3),
        ],
    )
    def test_reaches_target(self, method, epochs, target):
        res = run_baseline(BaselineConfig(method, epochs=epochs, seed=1), self.prob)
        assert primal_objective(self.prob, res.x) - self.ref <= target

    def test_shared_trace_schema(self):
        for method in BASELINE_METHODS:
            res = run_baseline(
                BaselineConfig(method, epochs=3, seed=0), self.prob, reference_value=self.ref
            )
            assert [r.epoch for r in res.trace][:3] == [1, 2, 3]
            for rec in res.trace:
                assert rec.suboptimality >= -1e-9 * (1 + abs(self.ref))
                assert rec.touches > 0
