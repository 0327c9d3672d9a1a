import numpy as np
import pytest

from dapd import baselines, kernels
from dapd.baselines import (
    BASELINE_METHODS,
    BaselineConfig,
    SpdcState,
    run_baseline,
    spdc_epoch,
    spdc_steps,
)
from dapd.datasets import synth_ridge
from dapd.errors import ConfigurationError, DivergenceError, StructuralError
from dapd.matrix import build_matrix
from dapd.proxlib import (
    huber_reg,
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

from oracles import (
    KERNEL_REGS,
    ROW_PATHS,
    built_on,
    built_without_kernels,
    ragged_problem,
    ridge_problem,
    sampled_rows,
    spdc_row,
)


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
# the compiled SPDC epoch (spdc_epoch in kernels.c) against its numpy body
# ---------------------------------------------------------------------------


def snapshot(state):
    """Everything an iteration writes, as exact values."""
    return (*(getattr(state, name).tobytes() for name in ("x", "x_ext", "y", "u")),
            state.t, state.touch_counter)


def spdc_pair(problem):
    """A compiled and a numpy SpdcState on ``problem``, with the steps of
    the problem perturbed by 1e-3."""
    steps = spdc_steps(perturb_problem(problem, 1e-3))
    return (SpdcState(problem, *steps),
            built_without_kernels(SpdcState, problem, *steps))


class TestCompiledSpdcRow:
    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("epsilon", [None, 1e-3], ids=["unperturbed", "eps_1e-3"])
    @pytest.mark.parametrize("reg", list(KERNEL_REGS))
    @pytest.mark.parametrize("loss", ["squared", "hinge"])
    def test_same_bits_as_numpy_after_every_row(self, compiled, loss, reg, epsilon, seed):
        problem = ragged_problem(loss, KERNEL_REGS[reg])
        if epsilon is not None:
            problem = perturb_problem(problem, epsilon)
        fast, slow = spdc_pair(problem)
        assert fast._kernel[1] is not None and slow._kernel[1] is None
        rows = sampled_rows(problem.n, seed)
        for t in range(900):
            i = next(rows)
            spdc_row(fast, i)
            spdc_row(slow, i)
            assert snapshot(fast) == snapshot(slow), f"iteration {t}, row {i}"

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("epsilon", [None, 1e-3], ids=["unperturbed", "eps_1e-3"])
    @pytest.mark.parametrize("reg", list(KERNEL_REGS))
    @pytest.mark.parametrize("loss", ["squared", "hinge"])
    def test_same_bits_as_numpy_after_every_epoch(self, compiled, loss, reg, epsilon, seed):
        problem = ragged_problem(loss, KERNEL_REGS[reg])
        if epsilon is not None:
            problem = perturb_problem(problem, epsilon)
        fast, slow = spdc_pair(problem)
        for epoch, rows in epoch_rows(problem.n, 75 * problem.n, seed):
            spdc_epoch(fast, rows)
            spdc_epoch(slow, rows)
            assert snapshot(fast) == snapshot(slow), f"epoch {epoch}"
        assert fast.t == 75 * problem.n

    @pytest.mark.parametrize("reg", [huber_reg(0.1, 0.5), kl_reg(0.5), l2_reg(0.3)],
                             ids=["huber", "kl", "l2"])
    def test_only_huber_and_kl_run_the_numpy_body(self, compiled, monkeypatch, reg):
        problem = perturb_problem(ragged_problem("squared", reg), 1e-3)
        epochs = [rows for _, rows in epoch_rows(problem.n, 10 * problem.n, 4)]
        want = SpdcState(problem, *spdc_steps(problem))
        for rows in epochs:
            spdc_epoch(want, rows)
        calls = []
        body = baselines._spdc_epoch_numpy
        monkeypatch.setattr(baselines, "_spdc_epoch_numpy",
                            lambda *args: calls.append(1) or body(*args))
        got = SpdcState(problem, *spdc_steps(problem))
        for rows in epochs:
            spdc_epoch(got, rows)
        assert len(calls) == (0 if reg.kind == "l2" else 10)
        assert snapshot(got) == snapshot(want)

    def test_divergence_at_the_same_iteration(self, compiled):
        data, _ = synth_ridge(200, 50)
        problem = ridge_problem(data.matrix, data.labels, 0.1)
        # (tau, sigma, theta): x overflows at row 1365, mid-way through epoch 7
        steps = (0.9, 0.5, 0.1)
        states = [SpdcState(problem, *steps), built_without_kernels(SpdcState, problem, *steps)]
        failed = []
        for state in states:
            with pytest.raises(DivergenceError) as err:
                for _, rows in epoch_rows(problem.n, 25 * problem.n, 0):
                    start = state.t
                    spdc_epoch(state, rows)
            # the rows before the diverging one, in every epoch so far
            done = np.concatenate([r for _, r in epoch_rows(problem.n, start, 0)]
                                  + [rows[:state.t - start]])
            assert state.touch_counter == sum(
                4 * problem.dim + 3 * problem.matrix.row(i)[0].size for i in done.tolist())
            failed.append(err.value.iteration)
        assert failed[0] == failed[1] == states[0].t == states[1].t == 1365
        assert snapshot(states[0]) == snapshot(states[1])

    def test_run_same_bits_without_kernels(self, compiled, monkeypatch):
        problem = perturb_problem(ragged_problem("hinge", KERNEL_REGS["elastic_net"]), 1e-3)
        config = BaselineConfig("spdc", epochs=30, seed=2)
        want = run_baseline(config, problem, wall_clock=False)
        monkeypatch.setattr(kernels, "library", lambda: None)
        got = run_baseline(config, problem, wall_clock=False)
        assert got.x.tobytes() == want.x.tobytes() and got.trace == want.trace

    @pytest.mark.parametrize("name", ["tau", "sigma", "theta", "x", "x_ext", "y", "u"])
    def test_bound_attributes_cannot_be_rebound(self, name):
        state = spdc_pair(ragged_problem("squared", KERNEL_REGS["l2"]))[0]
        value = getattr(state, name)
        with pytest.raises(AttributeError):
            setattr(state, name, np.zeros(3))
        assert getattr(state, name) is value

    @pytest.mark.parametrize("at", [0, 5, 11])
    @pytest.mark.parametrize("row", [-1, 12, 2**40])
    @pytest.mark.parametrize("path", ROW_PATHS)
    def test_row_out_of_range_writes_nothing(self, path, row, at):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        state = built_on(path, SpdcState, problem, *spdc_steps(perturb_problem(problem, 1e-3)))
        spdc_epoch(state, np.arange(problem.n))
        before = snapshot(state)
        rows = np.arange(problem.n)
        rows[at] = row
        with pytest.raises(StructuralError, match="out of range"):
            spdc_epoch(state, rows)
        assert snapshot(state) == before

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
