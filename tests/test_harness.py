import gc
import json
import re
import sys
import weakref

import numpy as np
import pytest

from dapd import sparse_engine
from dapd.cli import main as cli_main
from dapd.deterministic import dapd_iterate, run_dapd, schedule_for_problem
from dapd.errors import CertificationError, ConfigurationError, StructuralError
from dapd.harness import (
    ALL_METHODS,
    PERTURBATION_METHODS,
    REFERENCE_CHECKPOINTS,
    ReferenceSolution,
    RunConfig,
    build_problem,
    compute_reference,
    run_experiment,
)
from dapd.matrix import build_matrix
from dapd.proxlib import (
    dual_objective,
    feasible_dual_point,
    kl_reg,
    l1_reg,
    l2_reg,
    make_problem,
    primal_objective,
    squared_loss,
    svm_problem,
)
from dapd.traces import TraceRecord, epoch_rows, read_trace, write_trace

from oracles import lasso_problem, ridge_problem


def one_d_ridge():
    A = build_matrix([(0, 0, 1.0)], 1, 1)
    return make_problem(A, squared_loss([1.0]), l2_reg(1.0), "deterministic", loss_scale=1.0)


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

    def test_cvxpy_matches_direct_on_ridge(self):
        pytest.importorskip("cvxpy")
        rng = np.random.default_rng(1)
        prob = random_ridge_problem(rng, n=10, d=6)
        direct = compute_reference(prob, 1e-12, method="direct")
        via_cvxpy = compute_reference(prob, 1e-7, method="cvxpy")
        assert via_cvxpy.value == pytest.approx(direct.value, abs=1e-7)

    def test_lasso_reference_certified(self):
        pytest.importorskip("cvxpy")
        rng = np.random.default_rng(2)
        triplets = [(i, j, rng.normal()) for i in range(12) for j in range(6)]
        A = build_matrix(triplets, 12, 6)
        prob = lasso_problem(A, rng.normal(size=12), 0.3)
        ref = compute_reference(prob, 1e-7)
        assert ref.certified_gap <= 1e-7
        # certified optimum is a lower bound for any feasible point
        assert primal_objective(prob, np.zeros(6)) >= ref.value - 1e-9

    def test_hinge_reference_certified(self):
        pytest.importorskip("cvxpy")
        rng = np.random.default_rng(3)
        triplets = [(i, j, rng.normal()) for i in range(14) for j in range(5)]
        A = build_matrix(triplets, 14, 5)
        labels = np.where(rng.random(14) < 0.5, -1.0, 1.0)
        prob = svm_problem(A, labels, l1_reg(0.05))
        ref = compute_reference(prob, 1e-6)
        assert ref.certified_gap <= 1e-6

    @pytest.mark.parametrize(
        "build, accuracy", [(small_lasso_problem, 1e-7), (small_hinge_problem, 1e-6)]
    )
    def test_auto_falls_back_to_native_without_cvxpy(self, monkeypatch, build, accuracy):
        monkeypatch.setitem(sys.modules, "cvxpy", None)  # makes `import cvxpy` fail
        ref = compute_reference(build(), accuracy)
        assert ref.method == "dapd_run"
        assert ref.certified_gap <= accuracy

    def test_reference_checkpoints_are_geometric(self):
        grid = REFERENCE_CHECKPOINTS
        assert grid[0] <= 50 and grid[-1] == 256_000 and len(grid) <= 40
        assert all(a < b and 4 * b <= 5 * a for a, b in zip(grid, grid[1:]))

    def test_native_reference_continues_one_run(self, monkeypatch):
        # the certified gap is 0.052843 after 2,690 iterations and 0.052822
        # after 3,362, the next checkpoint, so this accuracy is met at 3,362
        problem, accuracy = small_hinge_problem(), 0.05283
        restarted = run_dapd(problem, schedule_for_problem(problem), 3362)
        value = primal_objective(problem, restarted.x)
        gap = value - dual_objective(problem, feasible_dual_point(problem, restarted.y))
        calls = []

        def counted(*args):
            calls.append(args)
            return dapd_iterate(*args)

        monkeypatch.setattr("dapd.harness.dapd_iterate", counted)
        ref = compute_reference(problem, accuracy, method="solver")
        assert len(calls) == 3362
        assert (ref.value, ref.certified_gap) == (value, gap)
        assert np.array_equal(ref.x, restarted.x)

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
        message = f"dapd_run reference certified only to gap {gap:.3e} > {accuracy:.3e}"
        with pytest.raises(CertificationError, match=re.escape(message)):
            compute_reference(problem, accuracy, method="solver")
        assert (len(iterations), len(gap_checks)) == (grid[-1], len(grid))

    def test_explicit_cvxpy_without_cvxpy_refused(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cvxpy", None)
        with pytest.raises(CertificationError, match="cvxpy is not installed"):
            compute_reference(small_lasso_problem(), 1e-7, method="cvxpy")

    @pytest.mark.parametrize("method", ["solver", "cvxpy", "auto"])
    def test_native_kl_reference_refused_before_iterating(self, monkeypatch, method):
        def never(*args, **kwargs):
            raise AssertionError("an uncertifiable kl problem was solved")

        monkeypatch.setattr("dapd.harness.dapd_iterate", never)
        monkeypatch.setattr("dapd.harness._cvxpy_reference", never)
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
                    "cell.sdapd_seed7.xi="):
            assert key in manifest

    def test_reproducible_traces(self, tmp_path):
        cfg = base_config(tmp_path, ["sdapd", "rda"], seeds=[5])
        first = run_experiment(RunConfig.from_dict(cfg), base_dir=tmp_path / "a")
        second = run_experiment(RunConfig.from_dict(cfg), base_dir=tmp_path / "b")
        for p1, p2 in zip(first.trace_paths, second.trace_paths):
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", 0.1), ("overrides", {"pdhg": {"tau": 0.5}}), ("c1", 0.2),
         ("c2", 0.2)],
        ids=["learning_rate", "overrides", "c1", "c2"],
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

    def test_unknown_method_rejected(self, tmp_path):
        cfg = base_config(tmp_path, ["adamw"], seeds=[0])
        with pytest.raises(ConfigurationError, match="unknown method"):
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
        assert (out_dir / "reference.json").exists()
        assert (out_dir / "reference_x.npy").exists()

    def test_stats_verb(self, tmp_path, capsys):
        data = tmp_path / "toy.libsvm"
        data.write_text("1 1:1\n-1 2:1\n")
        rc = cli_main(["stats", "--data", str(data)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spectral_norm" in out and "density" in out and "matrix.backend" in out
        # the identity's Gram matrix: the first Lanczos step ends the run
        assert "spectral_norm_products: 1\n" in out
        assert f"sparse_engine.backend: {sparse_engine.backend()}" in out

    @pytest.mark.parametrize(
        "flags",
        [["--method", "bogus"], ["--seeds", "1,x"], ["--epochs", "0"]],
        ids=["method", "seeds", "epochs"],
    )
    def test_bad_override_refused_before_running(self, tmp_path, capsys, flags):
        rc = cli_main(["run", "--config", str(self.write_config(tmp_path)), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "manifest.txt").exists()

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
    "mode_unknown": _edit(("output",), "mode", "bogus"),
    "wall_clock_string": _edit(("output",), "wall_clock", "no"),
    "reference_accuracy_zero": _edit(("output",), "reference_accuracy", 0),
    "reference_accuracy_negative": _edit(("output",), "reference_accuracy", -1e-9),
    "regularizer_key_of_another_kind": _edit(("problem", "regularizer"), "lam2", 0.1),
    "cov_unknown": _edit(("problem", "source"), "cov", "bogus"),
}


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
