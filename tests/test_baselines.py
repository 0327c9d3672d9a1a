"""The baseline methods (``dapd.baselines``): examples, applicability,
iteration budgets, and SPDC's compiled epoch against its numpy body after
every epoch.  The row contract SPDC shares with the other solver states is
tested once, over the table of ``test_states.py``."""

import numpy as np
import pytest

from dapd.baselines import (
    BASELINE_METHODS,
    BaselineConfig,
    SpdcState,
    run_baseline,
    spdc_epoch,
    spdc_steps,
)
from dapd.errors import ConfigurationError, StructuralError
from dapd.matrix import build_matrix
from dapd.proxlib import (
    kl_reg,
    l1_reg,
    l2_reg,
    make_problem,
    primal_objective,
    squared_loss,
    svm_problem,
)
from dapd.stochastic import perturb_problem
from dapd.traces import epoch_rows

from oracles import KERNEL_REGS, built_without_kernels, ragged_problem, ridge_problem
from test_states import STATES, exact


def one_d_ridge():
    A = build_matrix([(0, 0, 1.0)], 1, 1)
    return make_problem(A, squared_loss([1.0]), l2_reg(1.0), "deterministic")


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

    @pytest.mark.parametrize("method", ["da", "proxsvrg"])
    def test_kl_refused_where_the_run_starts_outside_its_domain(self, method):
        A = build_matrix([(i, j, 1.0 + i + j) for i in range(3) for j in range(2)], 3, 2)
        prob = make_problem(A, squared_loss([1.0, 2.0, 3.0]), kl_reg(0.5), "finite_sum")
        with pytest.raises(ConfigurationError, match=f"{method} cannot run on kl"):
            run_baseline(BaselineConfig(method, epochs=3, seed=0), prob)


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


# ---------------------------------------------------------------------------
# the compiled SPDC epoch (spdc_epoch in kernels.c) against its numpy body;
# the cases every row kernel shares are in test_states.py
# ---------------------------------------------------------------------------


def spdc_pair(problem):
    """A compiled and a numpy SpdcState on ``problem``, with the steps of
    the problem perturbed by 1e-3."""
    steps = spdc_steps(perturb_problem(problem, 1e-3))
    return (SpdcState(problem, *steps),
            built_without_kernels(SpdcState, problem, *steps))


class TestCompiledSpdcRow:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("epsilon", [None, 1e-3], ids=["unperturbed", "eps_1e-3"])
    @pytest.mark.parametrize("reg", list(KERNEL_REGS))
    @pytest.mark.parametrize("loss", ["squared", "hinge"])
    def test_same_bits_as_numpy_after_every_epoch(self, compiled, loss, reg, epsilon, seed):
        problem = ragged_problem(loss, KERNEL_REGS[reg])
        if epsilon is not None:
            problem = perturb_problem(problem, epsilon)
        fast, slow = spdc_pair(problem)
        written = STATES["spdc"].written
        for epoch, rows in epoch_rows(problem.n, 75 * problem.n, seed):
            spdc_epoch(fast, rows)
            spdc_epoch(slow, rows)
            assert exact(fast, written) == exact(slow, written), f"epoch {epoch}"
        assert fast.t == 75 * problem.n

    @pytest.mark.parametrize("rows", [np.array([1.0, 2.0]), np.zeros((2, 2), dtype=np.int64)],
                             ids=["float", "2-d"])
    def test_rows_that_are_not_a_1d_integer_array_are_refused(self, rows):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        state = spdc_pair(problem)[0]
        with pytest.raises(StructuralError, match="1-d integer array"):
            spdc_epoch(state, rows)
        assert state.t == 0

    def test_non_positive_sigma_is_refused(self):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        with pytest.raises(ConfigurationError, match="sigma"):
            SpdcState(problem, 0.5, 0.0, 0.5)

