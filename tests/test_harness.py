import gc
import json
import math
import re
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dapd import harness, matrix
from dapd.cli import main as cli_main
from dapd.datasets import synth_ridge, synth_sparse_classification
from dapd.deterministic import IterateState, dapd_iterate, run_dapd, schedule_for_problem
from dapd.errors import CertificationError, ConfigurationError, StructuralError
from dapd.harness import (
    ALL_METHODS,
    PERTURBATION_METHODS,
    REFERENCE_CHECKPOINTS,
    RunConfig,
    build_problem,
    _duality_gap,
    compute_reference,
    run_experiment,
)
from dapd.matrix import build_matrix, matvec
from dapd.proxlib import (
    dual_objective,
    feasible_dual_point,
    huber_reg,
    kl_reg,
    l1_reg,
    l2_reg,
    make_problem,
    primal_objective,
    squared_loss,
    svm_problem,
)
from dapd.traces import TraceRecord, epoch_rows, read_trace, write_trace

from oracles import cvxpy_reference, lasso_problem, ridge_problem
from test_matrix import sparse_matrices


def one_d_ridge():
    A = build_matrix([(0, 0, 1.0)], 1, 1)
    return make_problem(A, squared_loss([1.0]), l2_reg(1.0), "deterministic")


def random_ridge_problem(rng, n=20, d=20, lam=0.1):
    triplets = [(i, j, rng.normal() / np.sqrt(d)) for i in range(n) for j in range(d)]
    A = build_matrix(triplets, n, d)
    return ridge_problem(A, rng.normal(size=n), lam)


def small_lasso_problem():
    """The lasso problem of ``test_lasso_reference_certified``."""
    rng = np.random.default_rng(2)
    triplets = [(i, j, rng.normal()) for i in range(12) for j in range(6)]
    return lasso_problem(build_matrix(triplets, 12, 6), rng.normal(size=12), 0.3)


def small_hinge_problem():
    """The hinge+l1 problem of ``test_hinge_reference_certified``."""
    rng = np.random.default_rng(3)
    triplets = [(i, j, rng.normal()) for i in range(14) for j in range(5)]
    A = build_matrix(triplets, 14, 5)
    labels = np.where(rng.random(14) < 0.5, -1.0, 1.0)
    return svm_problem(A, labels, l1_reg(0.05))


def golden_hinge_l2_problem():
    """The problem of the golden ``hinge_l2`` case (``sc_only`` regime)."""
    data = synth_sparse_classification(12, 6, 0.5, seed=4)
    return svm_problem(data.matrix, data.labels, l2_reg(0.1))


def golden_huber_problem():
    """The problem of the golden ``huber`` case (``smooth_only`` regime)."""
    data, _ = synth_ridge(50, 20, seed=2)
    return make_problem(data.matrix, squared_loss(data.labels), huber_reg(0.1, 0.5),
                        "finite_sum")


def _dual_candidate(problem, x, y):
    """The dual point the native reference certifies ``x`` with."""
    if problem.loss.kind == "squared":
        return problem.loss_scale * (matvec(problem.matrix, x) - problem.loss.targets)
    return y


def _record_runs(monkeypatch):
    """Count the reference's ``dapd_iterate`` calls, and record the count at
    which each of its DAPD runs starts."""
    calls, starts = [], []

    def counted(state):
        calls.append(state)
        return dapd_iterate(state)

    def recorded(*args, **kwargs):
        starts.append(len(calls))
        return IterateState(*args, **kwargs)

    monkeypatch.setattr("dapd.harness.dapd_iterate", counted)
    monkeypatch.setattr("dapd.harness.IterateState", recorded)
    return calls, starts


class TestReference:
    def test_one_d_closed_form(self):
        ref = compute_reference(one_d_ridge(), 1e-12)
        assert ref.value == pytest.approx(0.25, abs=1e-12)
        assert ref.x[0] == pytest.approx(0.5, abs=1e-12)
        assert ref.method == "direct_solve"

    def test_direct_matches_solver_reference(self):
        rng = np.random.default_rng(0)
        prob = random_ridge_problem(rng)
        direct = compute_reference(prob, 1e-12, method="direct")
        via_solver = compute_reference(prob, 1e-9, method="solver")
        assert via_solver.value == pytest.approx(direct.value, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices(), st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.3, 2.0]))
    def test_solver_reference_agrees_with_direct(self, drawn, seed, lam):
        A, n, _ = drawn
        prob = ridge_problem(A, np.random.default_rng(seed).normal(size=n), lam)
        # about half the draws have spectral norm 0, where the solver
        # reference certifies x = 0 without running DAPD
        direct = compute_reference(prob, 1e-9, method="direct")
        via_solver = compute_reference(prob, 1e-9, method="solver")
        assert via_solver.certified_gap <= 1e-9
        # both values are at least P*, and each within its certified gap of
        # it, so they differ by at most the gaps (plus rounding in P)
        rounding = 8 * np.spacing(abs(direct.value))
        difference = via_solver.value - direct.value
        assert -direct.certified_gap - rounding <= difference
        assert difference <= via_solver.certified_gap + rounding

    def test_cvxpy_matches_direct_on_ridge(self):
        pytest.importorskip("cvxpy")
        rng = np.random.default_rng(1)
        prob = random_ridge_problem(rng, n=10, d=6)
        direct = compute_reference(prob, 1e-12, method="direct")
        via_cvxpy = cvxpy_reference(prob, 1e-7)
        assert via_cvxpy.value == pytest.approx(direct.value, abs=1e-7)

    def test_lasso_reference_certified(self):
        pytest.importorskip("cvxpy")
        prob = small_lasso_problem()
        ref = compute_reference(prob, 1e-7)
        assert ref.certified_gap <= 1e-7
        # certified optimum is a lower bound for any feasible point
        assert primal_objective(prob, np.zeros(6)) >= ref.value - 1e-9
        assert ref.value == pytest.approx(cvxpy_reference(prob, 1e-7).value, abs=1e-7)

    def test_hinge_reference_certified(self):
        pytest.importorskip("cvxpy")
        prob = small_hinge_problem()
        ref = compute_reference(prob, 1e-6)
        assert ref.certified_gap <= 1e-6
        assert ref.value == pytest.approx(cvxpy_reference(prob, 1e-6).value, abs=1e-6)

    @pytest.mark.parametrize(
        "build, accuracy", [(small_lasso_problem, 1e-7), (small_hinge_problem, 1e-6)]
    )
    def test_auto_is_native_whether_or_not_cvxpy_imports(self, monkeypatch, build, accuracy):
        class Unusable(types.ModuleType):
            def __getattr__(self, name):
                raise AssertionError(f"the reference used cvxpy.{name}")

        monkeypatch.setitem(sys.modules, "cvxpy", None)  # makes `import cvxpy` fail
        hidden = compute_reference(build(), accuracy)
        monkeypatch.setitem(sys.modules, "cvxpy", Unusable("cvxpy"))  # imports, unusable
        importable = compute_reference(build(), accuracy)
        assert hidden.method == importable.method == "dapd_run"
        assert hidden.certified_gap <= accuracy
        assert importable.value == hidden.value
        assert importable.x.tobytes() == hidden.x.tobytes()

    def test_reference_checkpoints_are_geometric(self):
        grid = REFERENCE_CHECKPOINTS
        assert grid[0] <= 50 and grid[-1] == 256_000 and len(grid) <= 40
        assert all(a < b and 4 * b <= 5 * a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("build", [golden_hinge_l2_problem, golden_huber_problem])
    def test_native_reference_counts_its_iterations(self, monkeypatch, build):
        calls, starts = _record_runs(monkeypatch)
        ref = compute_reference(build(), 1e-9, method="solver")
        assert len(calls) == ref.iterations
        assert len(starts) == ref.restarts + 1 and ref.restarts > 0
        assert starts[0] == 0 and set(starts[1:]) <= set(REFERENCE_CHECKPOINTS)

    @pytest.mark.parametrize("build", [golden_hinge_l2_problem, golden_huber_problem])
    def test_native_reference_replays_as_restarted_runs(self, monkeypatch, build):
        problem = build()
        with monkeypatch.context() as patched:
            _, starts = _record_runs(patched)
            ref = compute_reference(problem, 1e-9, method="solver")
        schedule = schedule_for_problem(problem)
        state = IterateState(problem, schedule)
        for start, stop in zip(starts, [*starts[1:], ref.iterations]):
            if start:
                state = IterateState(problem, schedule, x0=state.x, y0=state.y)
            for _ in range(stop - start):
                dapd_iterate(state)
        value = primal_objective(problem, state.x)
        y = feasible_dual_point(problem, _dual_candidate(problem, state.x, state.y))
        assert (ref.value, ref.certified_gap) == (value, value - dual_objective(problem, y))
        assert ref.x.tobytes() == state.x.tobytes()

    def test_zero_y0_is_the_default_start(self):
        problem = golden_hinge_l2_problem()
        schedule = schedule_for_problem(problem)
        default = IterateState(problem, schedule)
        zero = IterateState(problem, schedule, y0=np.zeros(problem.n))
        for _ in range(40):
            dapd_iterate(default)
            dapd_iterate(zero)
        for name in ("x", "xbar", "y", "s_hat", "ergodic_x"):
            assert getattr(zero, name).tobytes() == getattr(default, name).tobytes(), name
        assert (zero.B_hat, zero.beta_hat, zero.log_scale) == (
            default.B_hat, default.beta_hat, default.log_scale
        )

    def test_non_finite_gap_neither_restarts_nor_sets_the_base(self, monkeypatch):
        # inf, then 1.0 (the base), 0.6 (more than half of it), 0.4 (a
        # restart) and a certified gap; an inf base, or a restart at inf,
        # would restart more than once
        gaps = iter([np.inf, 1.0, 0.6, 0.4, 1e-12])
        monkeypatch.setattr("dapd.harness._duality_gap", lambda *args: (0.0, next(gaps)))
        _, starts = _record_runs(monkeypatch)
        ref = compute_reference(golden_hinge_l2_problem(), 1e-9, method="solver")
        assert (ref.restarts, ref.iterations, ref.certified_gap) == (
            1, REFERENCE_CHECKPOINTS[4], 1e-12
        )
        assert starts == [0, REFERENCE_CHECKPOINTS[3]]

    def test_certification_error_names_the_total_iteration_count(self, monkeypatch):
        grid = REFERENCE_CHECKPOINTS[:4]
        monkeypatch.setattr("dapd.harness.REFERENCE_CHECKPOINTS", grid)
        calls, starts = _record_runs(monkeypatch)
        with pytest.raises(CertificationError,
                           match=re.escape(f"after {grid[-1]} iterations (smooth_only regime)")):
            compute_reference(golden_huber_problem(), 1e-15, method="solver")
        assert len(calls) == grid[-1] and len(starts) > 1

    def test_golden_huber_certifies_the_default_accuracy(self, monkeypatch):
        # one long run reached only 5.8e-7 after 256,000 iterations; the
        # restarted reference certifies 1e-9 within the first 1,000
        grid = (*(t for t in REFERENCE_CHECKPOINTS if t < 1000), 1000)
        monkeypatch.setattr("dapd.harness.REFERENCE_CHECKPOINTS", grid)
        ref = compute_reference(golden_huber_problem(), 1e-9)
        assert ref.method == "dapd_run" and ref.certified_gap <= 1e-9

    def test_native_reference_frees_its_problem(self):
        # the gap checks raise nothing, so no traceback cycle keeps the
        # problem (and the DAPD state) alive until a full collection
        problem = small_hinge_problem()
        alive = weakref.ref(problem)
        gc.disable()
        try:
            compute_reference(problem, 0.05283, method="solver")  # 24th checkpoint
            del problem
            assert alive() is None
        finally:
            gc.enable()

    def test_native_reference_raises_after_its_last_checkpoint(self, monkeypatch):
        problem, grid, accuracy = small_hinge_problem(), (10, 20, 30), 1e-12
        fresh = run_dapd(problem, schedule_for_problem(problem), grid[-1])
        gap = primal_objective(problem, fresh.x) - dual_objective(
            problem, feasible_dual_point(problem, fresh.y)
        )
        iterations, gap_checks = [], []

        def counted(calls, fn):
            return lambda *args: calls.append(args) or fn(*args)

        monkeypatch.setattr("dapd.harness.REFERENCE_CHECKPOINTS", grid)
        monkeypatch.setattr("dapd.harness.dapd_iterate", counted(iterations, dapd_iterate))
        monkeypatch.setattr("dapd.harness.dual_objective", counted(gap_checks, dual_objective))
        message = (f"dapd_run reference certified only to gap {gap:.3e} > {accuracy:.3e}"
                   f" after {grid[-1]} iterations (neither regime)")
        with pytest.raises(CertificationError, match=re.escape(message)):
            compute_reference(problem, accuracy, method="solver")
        assert (len(iterations), len(gap_checks)) == (grid[-1], len(grid))

    def test_cvxpy_method_refused(self):
        with pytest.raises(ConfigurationError, match="unknown reference method 'cvxpy'"):
            compute_reference(small_lasso_problem(), 1e-7, method="cvxpy")

    @pytest.mark.parametrize("method", ["solver", "auto"])
    def test_native_kl_reference_refused_before_iterating(self, monkeypatch, method):
        def never(*args, **kwargs):
            raise AssertionError("an uncertifiable kl problem was solved")

        monkeypatch.setattr("dapd.harness.dapd_iterate", never)
        A = build_matrix([(0, 0, 1.0), (1, 1, 2.0)], 2, 2)
        prob = make_problem(A, squared_loss([1.0, 1.0]), kl_reg(0.5), "finite_sum")
        with pytest.raises(CertificationError, match="no feasible dual point exists for kl"):
            compute_reference(prob, 1e-6, method=method)

    def test_direct_refuses_non_ridge_form(self):
        # a lasso is not ridge-form; the direct solve would ignore its l1 term
        rng = np.random.default_rng(5)
        triplets = [(i, j, rng.normal()) for i in range(30) for j in range(10)]
        prob = lasso_problem(build_matrix(triplets, 30, 10), rng.normal(size=30), 0.5)
        with pytest.raises(ConfigurationError, match="ridge-form"):
            compute_reference(prob, 1e-9, method="direct")

    def test_zero_accuracy_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_reference(one_d_ridge(), 0.0)

    @pytest.mark.parametrize("accuracy", [np.nan, np.inf])
    def test_non_finite_accuracy_rejected(self, monkeypatch, accuracy):
        def never(*args, **kwargs):
            raise AssertionError("a reference ran to a non-finite accuracy")

        monkeypatch.setattr("dapd.harness.dapd_iterate", never)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            compute_reference(golden_hinge_l2_problem(), accuracy)

    def test_rounding_never_certifies_a_negative_gap(self, monkeypatch):
        # P(x) - D(y) rounds to -2.2e-16 at this problem's first checkpoint
        gaps = []

        def recorded(*args):
            value, gap = _duality_gap(*args)
            gaps.append(gap)
            return value, gap

        monkeypatch.setattr("dapd.harness._duality_gap", recorded)
        A = build_matrix([(0, 0, 1e-8), (1, 0, 2e-8), (1, 1, -1e-8)], 2, 2)
        ref = compute_reference(ridge_problem(A, np.array([1.0, -2.0]), 0.3), 1e-9,
                                method="solver")
        assert gaps[-1] < 0.0 and ref.certified_gap == 0.0

    @pytest.mark.parametrize("entry, build", [
        (0.0, lambda A: ridge_problem(A, np.array([1.0, -2.0]), 0.3)),
        (0.0, lambda A: svm_problem(A, np.array([1.0, -1.0]), l2_reg(0.3))),
        (0.0, lambda A: lasso_problem(A, np.array([1.0, -2.0]), 0.3)),
        (1e-200, lambda A: ridge_problem(A, np.array([1.0, -2.0]), 0.3)),
    ], ids=["ridge", "hinge", "l1", "ridge_underflow"])
    def test_zero_matrix_certifies_the_start(self, monkeypatch, entry, build):
        # a zero matrix, or one whose spectral norm estimate underflows to 0
        def never(*args, **kwargs):
            raise AssertionError("DAPD ran on a matrix whose spectral norm is 0")

        monkeypatch.setattr("dapd.harness.dapd_iterate", never)
        problem = build(build_matrix([(0, 0, entry), (1, 1, entry)] if entry else [], 2, 2))
        assert problem.stats.spectral_norm == 0
        ref = compute_reference(problem, 1e-9, method="solver")
        assert (ref.method, ref.iterations, ref.restarts) == ("dapd_run", 0, 0)
        assert np.array_equal(ref.x, np.zeros(2))
        assert ref.value == primal_objective(problem, ref.x)
        assert 0.0 <= ref.certified_gap <= 1e-9

    def test_zero_matrix_refused_when_its_gap_is_too_large(self, monkeypatch):
        monkeypatch.setattr("dapd.harness._duality_gap", lambda *args: (0.5, 1e-3))
        problem = lasso_problem(build_matrix([], 2, 2), np.array([1.0, -2.0]), 0.3)
        with pytest.raises(CertificationError, match="spectral norm is 0"):
            compute_reference(problem, 1e-9, method="solver")


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        records = [
            TraceRecord(1, 0.123456789012345678, 1e-9, 0.5, 42, 0.001),
            TraceRecord(2, -1.5e-300, float("nan"), 1.0, 99, 0.002),
        ]
        path = tmp_path / "t.csv"
        write_trace(records, path)
        back = read_trace(path)
        assert back[0] == records[0]
        assert back[1].primal_value == records[1].primal_value
        assert np.isnan(back[1].suboptimality)

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_trace([TraceRecord(1, 1.0, 0.1, 1.0, 5, 0.0)], path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(StructuralError):
            write_trace([], tmp_path / "empty.csv")

    def test_monotone_envelope_extractable(self, tmp_path):
        records = [TraceRecord(i + 1, 1.0 / (i + 1), 1.0 / (i + 1), 1.0, i, 0.0) for i in range(5)]
        path = tmp_path / "m.csv"
        write_trace(records, path)
        subopts = [r.suboptimality for r in read_trace(path)]
        envelope = np.minimum.accumulate(subopts)
        assert np.all(np.diff(envelope) <= 0)


class TestEpochRows:
    @pytest.mark.parametrize("n", [1, 7, 5000])
    @pytest.mark.parametrize("shape", ["one", "n_minus_1", "n", "3n_plus_5"])
    def test_same_stream_as_scalar_draws(self, n, shape):
        iterations = {"one": 1, "n_minus_1": max(n - 1, 1), "n": n, "3n_plus_5": 3 * n + 5}[shape]
        epochs = list(epoch_rows(n, iterations, 13))
        assert [e for e, _ in epochs] == list(range(1, -(-iterations // n) + 1))
        assert all(len(rows) == n for _, rows in epochs[:-1])
        assert all(rows.dtype == np.int64 for _, rows in epochs)
        rng = np.random.default_rng(13)
        scalar = [int(rng.integers(n)) for _ in range(iterations)]
        assert [i for _, rows in epochs for i in rows] == scalar


def base_config(tmp_path, methods, seeds, epochs=3):
    return {
        "name": "t",
        "problem": {
            "source": {"kind": "synth_ridge", "n": 12, "d": 6, "noise_sigma": 0.1, "seed": 4},
            "loss": "squared",
            "regularizer": {"kind": "l2", "lam": 0.5},
            "scaling": "finite_sum",
        },
        "solver": {"methods": methods, "epochs": epochs, "seeds": seeds},
        "output": {"dir": str(tmp_path / "out"), "reference_accuracy": 1e-10,
                   "wall_clock": False},
    }


HINGE_L2 = {
    "source": {"kind": "synth_sparse_classification", "n": 12, "d": 6, "density": 0.5, "seed": 4},
    "loss": "hinge",
    "regularizer": {"kind": "l2", "lam": 0.5},
}


class TestRunExperiment:
    # every method runs once per seed, or once when deterministic; hinge + l2
    # is neither smooth nor perturbed without epsilon, so exactly the methods
    # that get the perturbed problem fail then
    @pytest.mark.parametrize(
        "problem, methods, seeds, epsilon, traces, failed",
        [
            ({}, ["sdapd", "proxsgd"], [1, 2, 3], None, 6, set()),
            (HINGE_L2, ALL_METHODS, [1, 2], 1e-3, 4 + 6 * 2, set()),
            (HINGE_L2, ALL_METHODS, [1, 2], None, 3 + 2 * 2, set(PERTURBATION_METHODS)),
        ],
        ids=["ridge", "all_methods", "all_methods_unperturbed"],
    )
    def test_cell_counts(self, tmp_path, problem, methods, seeds, epsilon, traces, failed):
        cfg = base_config(tmp_path, list(methods), seeds=seeds)
        cfg["problem"].update(problem)
        cfg["solver"]["epsilon"] = epsilon
        result = run_experiment(RunConfig.from_dict(cfg))
        assert {cell.split("_seed")[0] for cell in result.failures} == failed
        assert result.ok == (not failed)
        assert len(result.trace_paths) == traces
        assert result.manifest_path.exists()

    def test_deterministic_ignores_seed_list(self, tmp_path):
        cfg = base_config(tmp_path, ["dapd"], seeds=[1, 2, 3])
        result = run_experiment(RunConfig.from_dict(cfg))
        assert len(result.trace_paths) == 1

    def test_manifest_records_resolved_constants(self, tmp_path):
        cfg = base_config(tmp_path, ["sdapd"], seeds=[7])
        result = run_experiment(RunConfig.from_dict(cfg))
        manifest = result.manifest_path.read_text()
        for key in ("problem.R=", "problem.Rbar=", "problem.spectral_norm_products=",
                    "reference.value=", "matrix.backend=", "cell.sdapd_seed7.eta=",
                    "cell.sdapd_seed7.xi=", "reference.iterations=0\n",
                    "reference.restarts=0\n", "problem.spectral_norm_rel_tol=1e-06\n",
                    "problem.spectral_norm_margin=0.0002\n"):
            assert key in manifest

    def test_manifest_records_the_native_reference_work(self, tmp_path):
        cfg = {**base_config(tmp_path, ["dapd"], seeds=[1]), "problem": HINGE_L2}
        config = RunConfig.from_dict(cfg)
        ref = compute_reference(build_problem(config), 1e-10)
        manifest = run_experiment(config).manifest_path.read_text()
        assert ref.method == "dapd_run" and ref.restarts > 0
        assert f"reference.iterations={ref.iterations}\n" in manifest
        assert f"reference.restarts={ref.restarts}\n" in manifest

    def test_reproducible_traces(self, tmp_path):
        cfg = base_config(tmp_path, ["sdapd", "rda"], seeds=[5])
        first = run_experiment(RunConfig.from_dict(cfg))
        cfg["output"]["dir"] = str(tmp_path / "b")
        second = run_experiment(RunConfig.from_dict(cfg))
        for p1, p2 in zip(first.trace_paths, second.trace_paths):
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", 0.1), ("overrides", {"pdhg": {"tau": 0.5}}), ("c1", 0.2),
         ("c2", 0.2), ("case_iv_tau", 0.5)],
        ids=["learning_rate", "overrides", "c1", "c2", "case_iv_tau"],
    )
    def test_unknown_keys_rejected(self, tmp_path, key, value):
        cfg = base_config(tmp_path, ["dapd"], seeds=[0])
        cfg["solver"][key] = value
        with pytest.raises(ConfigurationError, match="unknown key"):
            RunConfig.from_dict(cfg)

    @pytest.mark.parametrize(
        "key, value, match",
        [("epochs", 0, "epochs"), ("epochs", -2, "epochs"), ("epochs", 2.5, "epochs"),
         ("epochs", "3", "epochs"), ("epochs", True, "epochs"), ("seeds", [], "seeds"),
         ("seeds", 3, "seeds"), ("seeds", [1, "x"], "seeds"), ("seeds", [1.0], "seeds")],
        ids=["epochs_0", "epochs_negative", "epochs_float", "epochs_str", "epochs_bool",
             "seeds_empty", "seeds_scalar", "seeds_str", "seeds_float"],
    )
    def test_invalid_epochs_and_seeds_rejected(self, tmp_path, key, value, match):
        cfg = base_config(tmp_path, ["dapd"], seeds=[0])
        cfg["solver"][key] = value
        with pytest.raises(ConfigurationError, match=f"solver.{match} must be"):
            RunConfig.from_dict(cfg)

    def test_defaults_filled_in_and_not_shared(self, tmp_path):
        cfg = base_config(tmp_path, ["sdapd"], seeds=[1])
        del cfg["solver"]["seeds"]
        first, second = RunConfig.from_dict(cfg), RunConfig.from_dict(cfg)
        first.solver["seeds"].append(5)
        assert second.solver["seeds"] == [0]
        assert first.problem["source"] == {**cfg["problem"]["source"], "cov": "identity",
                                           "ar1_r": 0.5}
        assert (second.solver["epochs"], second.solver["epsilon"]) == (3, None)

    def test_unknown_method_rejected(self, tmp_path):
        cfg = base_config(tmp_path, ["adamw"], seeds=[0])
        with pytest.raises(ConfigurationError, match=r"solver.methods must be .* not \['adamw'\]"):
            RunConfig.from_dict(cfg)

    def test_data_dir_env_var(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "datasets"
        data_dir.mkdir()
        (data_dir / "toy.libsvm").write_text("1 1:1\n-1 1:-1\n-1 2:0.5\n")
        monkeypatch.setenv("DAPD_DATA_DIR", str(data_dir))
        monkeypatch.chdir(tmp_path)
        cfg = base_config(tmp_path, ["dapd"], seeds=[0])
        cfg["problem"]["source"] = {"kind": "libsvm", "path": "toy.libsvm"}
        result = run_experiment(RunConfig.from_dict(cfg))
        assert result.ok

    def test_kl_runs_without_a_reference(self, tmp_path, capsys):
        """No certified reference exists for kl, so its cells run without
        one: suboptimality is nan and the manifest names no reference."""
        cfg = base_config(tmp_path, ["dapd", "pdhg"], seeds=[1])
        cfg["problem"]["regularizer"] = {"kind": "kl", "kl_weight": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        for cell in ("dapd", "pdhg"):
            records = read_trace(out / f"{cell}.csv")
            assert len(records) == 3 and all(np.isnan(r.suboptimality) for r in records)
        manifest = (out / "manifest.txt").read_text()
        assert "reference.method=none\n" in manifest and "reference.value=" not in manifest

    def test_suboptimality_nonnegative_in_traces(self, tmp_path):
        cfg = base_config(tmp_path, ["dapd", "sdapd"], seeds=[1], epochs=10)
        result = run_experiment(RunConfig.from_dict(cfg))
        for path in result.trace_paths:
            for rec in read_trace(path):
                assert rec.suboptimality >= -1e-9


class TestCli:
    def write_config(self, tmp_path):
        cfg = base_config(tmp_path, ["dapd", "sdapd"], seeds=[1], epochs=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_verb(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(self.write_config(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "manifest:" in out and "trace:" in out

    def test_validate_verb(self, tmp_path, capsys):
        rc = cli_main(
            ["validate", "--config", str(self.write_config(tmp_path)), "--horizon", "500"]
        )
        assert rc == 0
        assert "feasible" in capsys.readouterr().out

    def test_reference_verb(self, tmp_path, capsys):
        rc = cli_main(["reference", "--config", str(self.write_config(tmp_path))])
        assert rc == 0
        out_dir = tmp_path / "out"
        payload = json.loads((out_dir / "reference.json").read_text())
        assert (payload["method"], payload["iterations"], payload["restarts"]) == (
            "direct_solve", 0, 0
        )
        assert (out_dir / "reference_x.npy").exists()

    def test_reference_accuracy_flag_overrides_the_config(self, tmp_path):
        path = self.write_config(tmp_path)
        rc = cli_main(["reference", "--config", str(path), "--accuracy", "1e-6"])
        assert rc == 0
        assert json.loads((tmp_path / "out" / "reference.json").read_text())["accuracy"] == 1e-6

    @pytest.mark.parametrize("accuracy", ["0", "-1", "nan", "inf"])
    def test_reference_accuracy_must_be_positive_and_finite(self, tmp_path, capsys, accuracy):
        path = self.write_config(tmp_path)
        rc = cli_main(["reference", "--config", str(path), "--accuracy", accuracy])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "reference.json").exists()

    def test_stats_verb(self, tmp_path, capsys):
        data = tmp_path / "toy.libsvm"
        data.write_text("1 1:1\n-1 2:1\n")
        rc = cli_main(["stats", "--data", str(data)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spectral_norm" in out and "density" in out and "matrix.backend" in out
        # the identity's Gram matrix: the first Lanczos step ends the run
        assert "spectral_norm_products: 1\n" in out
        assert "spectral_norm_rel_tol: 1e-06\nspectral_norm_margin: 0.0002\n" in out
        assert out.count(".backend: ") == 1
        assert f"matrix.backend: {matrix.backend()}\n" in out
        assert "datasets.parser: " in out

    @pytest.mark.parametrize(
        "content, flags, message",
        [(b"1 1:0.5\n-1 2:\xe9\n", [], "error: line 2: not UTF-8"),
         (b"1\n-1\n", ["--expected-dim", "-3"], "error: expected_dim must be at least 1"),
         (b"1 100000000000000000000:1\n", [], "error: line 1: feature index"),
         (None, [], "error: [Errno")],
        ids=["not_utf8", "expected_dim_negative", "index_beyond_int64", "directory"],
    )
    def test_stats_bad_data_is_one_error_line(self, tmp_path, capsys, content, flags, message):
        data = tmp_path / "data.libsvm"
        if content is None:
            data.mkdir()
        else:
            data.write_bytes(content)
        rc = cli_main(["stats", "--data", str(data), *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(message) and err.count("\n") == 1

    def test_run_on_non_utf8_data_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "data.libsvm"
        data.write_bytes(b"1 1:0.5\n-1 2:\xe9\n")
        cfg = base_config(tmp_path, ["dapd"], seeds=[1])
        cfg["problem"]["source"] = {"kind": "libsvm", "path": str(data)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli_main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: line 2: not UTF-8") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [["--method", "bogus"], ["--seeds", "1,x"], ["--epochs", "0"], ["--seeds", "-1"],
         ["--seeds", "2,2"], ["--seeds", ""], ["--out", ""]],
        ids=["method", "seeds", "epochs", "seed_negative", "seeds_repeated", "seeds_empty",
             "out_empty"],
    )
    def test_bad_override_refused_before_running(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)  # where an empty --out would write
        rc = cli_main(["run", "--config", str(self.write_config(tmp_path)), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.rglob("manifest.txt"))

    @pytest.mark.parametrize(
        "problem, message",
        [({"source": {"kind": "libsvm", "path": "missing.libsvm"}}, "error: [Errno"),
         ({"loss": "hinge"}, "error: hinge loss requires +-1 labels")],
        ids=["libsvm_missing", "hinge_on_real_labels"],
    )
    def test_data_error_writes_nothing(self, tmp_path, capsys, monkeypatch, problem, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DAPD_DATA_DIR", raising=False)
        cfg = base_config(tmp_path, ["dapd"], seeds=[1])
        cfg["problem"].update(problem)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli_main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        assert cli_main(["run", "--config", str(bad)]) == 2


def _edit(section, key, value):
    """A config edit that sets (or, for ``None``, deletes) one key."""

    def apply(cfg):
        target = cfg
        for name in section:
            target = target[name]
        if value is None:
            del target[key]
        else:
            target[key] = value
        return json.dumps(cfg)

    return apply


def _kl_with(method):
    """The config on a kl problem, solved by ``method`` alone."""

    def apply(cfg):
        cfg["problem"]["regularizer"] = {"kind": "kl", "kl_weight": 1.0}
        cfg["solver"]["methods"] = [method]
        return json.dumps(cfg)

    return apply


# config files that ``dapd run`` must refuse as they are parsed: the text
# of the file, or an edit of the base config
BAD_CONFIGS = {
    "not_json": lambda cfg: json.dumps(cfg)[:40],
    "top_level_list": lambda cfg: "[]",
    "section_list": _edit((), "output", []),
    "regularizer_without_lam": _edit(("problem", "regularizer"), "lam", None),
    "source_without_n": _edit(("problem", "source"), "n", None),
    "lam_not_a_number": _edit(("problem", "regularizer"), "lam", "abc"),
    "lam_negative": _edit(("problem", "regularizer"), "lam", -0.5),
    "epsilon_not_a_number": _edit(("solver",), "epsilon", "abc"),
    "epsilon_zero": _edit(("solver",), "epsilon", 0),
    "epsilon_negative": _edit(("solver",), "epsilon", -1e-3),
    "mode_unknown": _edit(("output",), "mode", "last"),  # not a key: runs return both points
    "wall_clock_string": _edit(("output",), "wall_clock", "no"),
    "reference_accuracy_zero": _edit(("output",), "reference_accuracy", 0),
    "reference_accuracy_negative": _edit(("output",), "reference_accuracy", -1e-9),
    "reference_accuracy_nan": _edit(("output",), "reference_accuracy", float("nan")),
    "reference_accuracy_inf": _edit(("output",), "reference_accuracy", float("inf")),
    "regularizer_key_of_another_kind": _edit(("problem", "regularizer"), "lam2", 0.1),
    "cov_unknown": _edit(("problem", "source"), "cov", "bogus"),
    "expected_dim_zero": _edit(("problem",), "source",
                               {"kind": "libsvm", "path": "x.libsvm", "expected_dim": 0}),
    "expected_dim_negative": _edit(("problem",), "source",
                                   {"kind": "libsvm", "path": "x.libsvm", "expected_dim": -3}),
    "expected_dim_beyond_int32": _edit(
        ("problem",), "source", {"kind": "libsvm", "path": "x.libsvm", "expected_dim": 2**31}
    ),
    "case_iv_tau": _edit(("solver",), "case_iv_tau", 0.5),
    "kl_with_da": _kl_with("da"),
    "kl_with_proxsvrg": _kl_with("proxsvrg"),
    "solver_seed_negative": _edit(("solver",), "seeds", [1, -1]),
    "source_seed_negative": _edit(("problem", "source"), "seed", -3),
    "methods_repeated": _edit(("solver",), "methods", ["sdapd", "sdapd"]),
    "seeds_repeated": _edit(("solver",), "seeds", [1, 1]),
    "hinge_deterministic": _edit((), "problem", {**HINGE_L2, "scaling": "deterministic"}),
    "ar1_r_without_ar1": _edit(("problem", "source"), "ar1_r", 0.3),
    "ar1_r_one": _edit(("problem",), "source",
                       {"kind": "synth_ridge", "n": 12, "d": 6, "cov": "ar1", "ar1_r": 1.0}),
    "n_zero": _edit(("problem", "source"), "n", 0),
    "d_zero": _edit(("problem", "source"), "d", 0),
    "noise_sigma_negative": _edit(("problem", "source"), "noise_sigma", -0.1),
    "density_zero": _edit(("problem",), "source", {**HINGE_L2["source"], "density": 0}),
    "density_above_one": _edit(("problem",), "source", {**HINGE_L2["source"], "density": 1.5}),
    "density_below_one_over_d": _edit(("problem",), "source",
                                      {**HINGE_L2["source"], "density": 0.1}),
    "source_kind_a_list": _edit(("problem", "source"), "kind", []),
    # json.dumps writes inf as Infinity, which json.load reads back
    "lam_inf": _edit(("problem", "regularizer"), "lam", math.inf),
    "lam2_inf": _edit(("problem",), "regularizer",
                      {"kind": "elastic_net", "lam": 0.1, "lam2": math.inf}),
    "huber_mu_inf": _edit(("problem",), "regularizer",
                          {"kind": "huber", "lam": 0.1, "huber_mu": math.inf}),
    "kl_weight_inf": _edit(("problem",), "regularizer", {"kind": "kl", "kl_weight": math.inf}),
    "noise_sigma_inf": _edit(("problem", "source"), "noise_sigma", math.inf),
    "epsilon_inf": _edit(("solver",), "epsilon", math.inf),
    "dir_empty": _edit(("output",), "dir", ""),
}


def test_readme_names_every_config_key():
    """README.md names every key of every config table in backticks, and
    every source and regularizer kind."""
    tables = [harness._TOP_KEYS, harness._PROBLEM_KEYS, harness._SOLVER_KEYS,
              harness._OUTPUT_KEYS, *harness._SOURCE_KEYS.values(),
              *(keys for _, keys in harness._REGULARIZERS.values())]
    names = {"kind", *harness._SOURCE_KEYS, *harness._REGULARIZERS,
             *(key for table in tables for key in table)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert sorted(name for name in names if f"`{name}`" not in readme) == []


@pytest.mark.parametrize("make_text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_refused_at_parse_time(tmp_path, capsys, monkeypatch, make_text):
    """One ``error:`` line and exit 2, before any data is loaded."""

    def no_load(source):
        raise AssertionError("data loaded before the config was checked")

    monkeypatch.setattr("dapd.harness._load_dataset", no_load)
    path = tmp_path / "cfg.json"
    path.write_text(make_text(base_config(tmp_path, ["dapd", "sdapd"], seeds=[1])))
    rc = cli_main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
