"""Benchmark for dapd: the steps of ``dapd run`` on one workload.

    python3 perfbench/run.py --workload sparse_hinge --seed 1 --seconds 45 --trace 0

Runs the workload's pipeline (load, build problem with matrix stats, certified
reference, every (method, seed) cell with its trace file) again and again for
``--seconds``, one pass after another in this process, and reports medians
over the passes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics from
call-boundary spans (see ``tracing.py``) plus the tracing overhead.

Every pass checks its outputs: the reference must be certified and each
cell's final objective must be finite and not below P* - certified_gap.  Once
per run, untimed, same-seed sdapd and sdapd_sparse must reach the same
objective on the workload's problem.  The last line of standard output is one
JSON object; the exit code is 1 when a check failed.
Workloads, metrics and the reasoning behind them are in perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"

# every run makes at least MIN_PASSES passes (so set-up is timed more than
# once); a further pass starts only while fewer than --seconds have gone by,
# and only if a pass as long as the previous one would end within
# OVERRUN x --seconds (and within HARD_CAP_S), so a run stays near its budget
MIN_PASSES = 2
OVERRUN = 1.4
HARD_CAP_S = 120.0
# relative agreement required of same-seed sdapd and sdapd_sparse objectives,
# compared after min(n, ENGINE_CHECK_ITERATIONS) iterations
SAME_SEED_RTOL = 1e-9
ENGINE_CHECK_ITERATIONS = 500
# relative slack on the certified lower bound P* - gap
LOWER_BOUND_RTOL = 1e-12
# baselines whose per-epoch time is a layer metric
LAYER_BASELINES = ("pdhg", "apgm", "spdc", "proxsgd")
# per-epoch trace evaluation: these spans, when called by a runner
TRACE_EVAL = ("proxlib.primal_objective", "traces.nnz_fraction", "sparse_engine.finalize_x")
NATIVE_RUNNERS = ("deterministic.run_dapd", "stochastic.run_sdapd", "sparse_engine.run_sparse")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="dapd benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, workload) -> dict:
    import numpy as np

    return {
        "workload": workload.name,
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cvxpy_importable": importlib.util.find_spec("cvxpy") is not None,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# one pass of the pipeline
# ---------------------------------------------------------------------------


def _cell_name(method, seed):
    return method if seed is None else f"{method}_seed{seed}"


def run_cell(dapd, method, seed, problem, epochs, reference_value):
    """One runner call, dispatched the way ``harness.run_experiment`` does."""
    deterministic, stochastic = dapd["deterministic"], dapd["stochastic"]
    proxlib = dapd["proxlib"]
    if method == "dapd":
        schedule = deterministic.schedule_for_problem(problem)
        violations = deterministic.validate_schedule(
            schedule, proxlib.composite_gamma(problem), proxlib.problem_constants(problem)[1],
            problem.stats.spectral_norm, horizon=min(epochs, 1000),
        )
        if violations:
            raise dapd["errors"].ConfigurationError(f"schedule infeasible: {violations[:3]}")
        return deterministic.run_dapd(problem, schedule, epochs, reference_value=reference_value)
    if method in ("sdapd", "sdapd_sparse"):
        params = stochastic.params_for_problem(problem)
        runner = stochastic.run_sdapd if method == "sdapd" else dapd["sparse_engine"].run_sparse
        return runner(problem, params, epochs * problem.n, seed or 0,
                      reference_value=reference_value)
    baselines = dapd["baselines"]
    return baselines.run_baseline(
        baselines.BaselineConfig(method, epochs=epochs, seed=seed or 0), problem,
        reference_value=reference_value,
    )


def _cell_problem(dapd, method, problem, perturbed):
    if perturbed is not None and method in dapd["harness"].PERTURBATION_METHODS:
        return perturbed
    return problem


def run_pass(dapd, workload, inputs, seed, tracer):
    """Time each phase of one pipeline pass; return its record."""
    errors = dapd["errors"]
    failures = (errors.DivergenceError, errors.ConfigurationError, errors.CertificationError)
    phase = tracer.in_phase if tracer is not None else (lambda name: contextlib.nullcontext())
    record = {"traced": tracer is not None, "cells": []}

    t0 = perf_counter()
    with phase("load"):
        dataset = workload.load(inputs)
    record["load_s"] = perf_counter() - t0
    dataset = workload.reorder(dataset, seed)  # input preparation, not timed
    t0 = perf_counter()
    with phase("build"):
        problem = workload.build(dataset)
    record["build_s"] = perf_counter() - t0
    record["setup_s"] = record["load_s"] + record["build_s"]

    t0 = perf_counter()
    try:
        with phase("reference"):
            ref = dapd["harness"].compute_reference(
                problem, workload.accuracy, method=workload.reference_method
            )
    except (errors.CertificationError, errors.ConfigurationError) as exc:
        record["reference_error"] = str(exc)
        record["cells"] = [
            {"cell": _cell_name(method, cell_seed), "method": method, "ok": False,
             "error": f"no certified reference: {exc}"}
            for method, cell_seed in workload.cells
        ]
        return record, problem, None
    record["reference_s"] = perf_counter() - t0
    record["reference"] = {"method": ref.method, "value": ref.value,
                           "certified_gap": ref.certified_gap}

    outdir = OUT_DIR / "traces" / workload.name
    outdir.mkdir(parents=True, exist_ok=True)
    t_solve = perf_counter()
    with phase("solve"):
        perturbed = None
        if workload.epsilon is not None:
            perturbed = dapd["stochastic"].perturb_problem(problem, workload.epsilon, 0.1, 0.1)
        for method, cell_seed in workload.cells:
            cell = _cell_name(method, cell_seed)
            t0 = perf_counter()
            try:
                res = run_cell(dapd, method, cell_seed,
                               _cell_problem(dapd, method, problem, perturbed),
                               workload.epochs, ref.value)
                dapd["traces"].write_trace(res.trace, outdir / f"{cell}.csv")
            except failures as exc:
                record["cells"].append({"cell": cell, "method": method, "error": str(exc)})
                continue
            entry = {"cell": cell, "method": method, "seed": cell_seed,
                     "solve_s": perf_counter() - t0,
                     "primal_final": res.trace[-1].primal_value,
                     "touches": res.trace[-1].touches,
                     "iterations": res.resolved.get("iterations"),
                     "rebase_count": res.resolved.get("rebase_count")}
            record["cells"].append(entry)
    record["solve_s"] = perf_counter() - t_solve
    record["run_s"] = record["setup_s"] + record["reference_s"] + record["solve_s"]
    check_cells(record, ref)
    return record, problem, perturbed


def check_cells(record, ref):
    """Mark each cell ok or failed against the certified reference."""
    floor = max(ref.certified_gap, math.ulp(abs(ref.value)))
    lower = ref.value - ref.certified_gap - LOWER_BOUND_RTOL * abs(ref.value)
    for entry in record["cells"]:
        if "error" in entry:
            entry["ok"] = False
            continue
        value = entry["primal_final"]
        entry["ok"] = math.isfinite(value) and value >= lower
        if not entry["ok"]:
            entry["error"] = f"final objective {value!r} below P* - gap = {lower!r}"
        entry["subopt_final"] = max(value - ref.value, floor)


def check_engines_agree(dapd, problem, perturbed, seed=1):
    """Same-seed dense SDAPD and the lazy sparse engine follow the same
    iterates, so their objectives must agree."""
    p = _cell_problem(dapd, "sdapd", problem, perturbed)
    params = dapd["stochastic"].params_for_problem(p)
    iterations = min(p.n, ENGINE_CHECK_ITERATIONS)
    a = dapd["stochastic"].run_sdapd(p, params, iterations, seed).trace[-1].primal_value
    b = dapd["sparse_engine"].run_sparse(p, params, iterations, seed).trace[-1].primal_value
    ok = abs(a - b) <= SAME_SEED_RTOL * max(abs(a), abs(b))
    return {"cell": f"engine_check_seed{seed}", "iterations": iterations, "ok": ok,
            "sdapd": a, "sdapd_sparse": b,
            **({} if ok else {"error": f"sdapd {a!r} vs sdapd_sparse {b!r}"})}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(passes) -> dict:
    digits = [
        statistics.fmean(-math.log10(c["subopt_final"]) for c in p["cells"] if "subopt_final" in c)
        for p in passes if any("subopt_final" in c for c in p["cells"])
    ]
    values = {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "reference_s": _median([p["reference_s"] for p in passes]),
        "solve_s": _median([p["solve_s"] for p in passes]),
        "run_s": _median([p["run_s"] for p in passes]),
        "subopt_digits": _median(digits),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values


def _timeit(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return samples


def run_probes(dapd, workload, inputs, tracer, problem, perturbed, reference_value):
    """Layer calls the workload's own pipeline does not make, run on its
    problem so every layer metric exists on every workload.  Returns the
    untraced kernel timings and the probe runs' results."""
    import numpy as np

    out = {"sparse_runs": []}
    A = problem.matrix
    # recover_primal on a support the size of the workload's mean row
    k = max(1, round(A.nnz / A.n_rows))
    rng = np.random.default_rng(0)
    cols = np.sort(rng.choice(A.n_cols, size=k, replace=False))
    x0, s_hat = np.zeros(k), rng.standard_normal(k)
    recover = dapd["proxlib"].recover_primal
    out["recover_primal_s"] = _timeit(
        lambda: recover(problem.reg, x0, s_hat, 1.0, 1.0, coords=cols), 2000
    )
    if inputs is not None:  # the load step parses this file
        out["parse_bytes"] = inputs.stat().st_size
    else:  # time a LIBSVM parse of the workload's own rows
        rows = max(1, min(A.n_rows, 250_000 // k))
        end = A.row_offsets[rows]
        head = dapd["matrix"].SparseRowMatrix(
            rows, A.n_cols, A.row_offsets[:rows + 1].copy(), A.col_indices[:end].copy(),
            A.values[:end].copy(),
        )
        sub = dapd["datasets"].Dataset(head, np.ones(rows), {})
        text = dapd["datasets"].serialize_libsvm(sub)
        parse = dapd["datasets"].parse_libsvm
        out["parse_bytes"] = len(text)
        out["parse_s"] = _timeit(lambda: parse(text), 3)

    def cell(method):
        return _cell_problem(dapd, method, problem, perturbed)

    with tracer.installed(), tracer.in_phase("probe"):
        if not tracer.count("deterministic.validate_schedule"):
            p = cell("dapd")
            schedule = dapd["deterministic"].schedule_for_problem(p)
            gamma = dapd["proxlib"].composite_gamma(p)
            mu = dapd["proxlib"].problem_constants(p)[1]
            for _ in range(5):
                dapd["deterministic"].validate_schedule(
                    schedule, gamma, mu, p.stats.spectral_norm, horizon=min(workload.epochs, 1000)
                )
        if not tracer.count("sparse_engine.sparse_iterate"):
            p = cell("sdapd_sparse")
            res = dapd["sparse_engine"].run_sparse(
                p, dapd["stochastic"].params_for_problem(p), p.n, 1,
                reference_value=reference_value,
            )
            out["sparse_runs"].append(
                (res.trace[-1].touches, res.resolved["iterations"], res.resolved["rebase_count"])
            )
        if not tracer.count("stochastic.sdapd_iterate_dense"):
            p = cell("sdapd")
            dapd["stochastic"].run_sdapd(
                p, dapd["stochastic"].params_for_problem(p), min(p.n, 200), 1,
                reference_value=reference_value,
            )
        for method in LAYER_BASELINES:
            if not tracer.count(f"baselines.{method}", phase="solve"):
                run_cell(dapd, method, 1, cell(method), 1, reference_value)
    return out


def layer_metrics(tracer, workload, passes, probes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def med(name, scale=1.0, **where):
        return _median(tracer.durations(name, **where)) * scale

    load_s = _median([p["load_s"] for p in traced])
    parse_s = _median(probes["parse_s"]) if "parse_s" in probes else load_s

    stats_calls = tracer.count("matrix.stats")
    stats_matvecs = (
        tracer.count("matrix.matvec", parent="matrix.power_iteration")
        + tracer.count("matrix.rmatvec", parent="matrix.power_iteration")
    ) / max(stats_calls, 1)

    solve_total = tracer.total("phase.solve")
    trace_eval = sum(
        edge.total for (phase, parent, name), edge in tracer.edges.items()
        if phase == "solve" and name in TRACE_EVAL
        and (parent in NATIVE_RUNNERS or parent.startswith("baselines."))
    )

    last = traced[-1]
    # sparse-engine runs of the last traced pass, else the probe run
    sparse_runs = [
        (c["touches"], c["iterations"], c["rebase_count"])
        for c in last["cells"] if c.get("method") == "sdapd_sparse" and "touches" in c
    ] or probes["sparse_runs"]
    # each iteration adds 6 touches per row nonzero plus 2 (sparse_iterate)
    nnz_per_iter = (sum((t - 2 * it) / 6.0 for t, it, _ in sparse_runs)
                    / sum(it for _, it, _ in sparse_runs))
    iter_us = med("sparse_engine.sparse_iterate", 1e6)

    def baseline_epoch_s(method):
        in_solve = tracer.durations(f"baselines.{method}", phase="solve")
        if in_solve:
            return _median(in_solve) / workload.epochs
        return _median(tracer.durations(f"baselines.{method}", phase="probe"))

    values = {
        "datasets.load_s": load_s,
        "datasets.parse_mb_per_s": probes["parse_bytes"] / 1e6 / parse_s,
        "matrix.stats_s": med("matrix.stats"),
        "matrix.stats_matvecs": stats_matvecs,
        "matrix.matvec_ms": med("matrix.matvec", 1e3),
        "matrix.rmatvec_ms": med("matrix.rmatvec", 1e3),
        "deterministic.iter_ms": med("deterministic.dapd_iterate", 1e3),
        "deterministic.validate_schedule_ms": med("deterministic.validate_schedule", 1e3),
        "harness.reference_s": med("harness.compute_reference"),
        "harness.reference_gap": last["reference"]["certified_gap"],
        "harness.trace_eval_share": trace_eval / solve_total if solve_total else float("nan"),
        "sparse_engine.iter_us": iter_us,
        "sparse_engine.ns_per_nnz": iter_us * 1e3 / nnz_per_iter,
        "sparse_engine.finalize_x_ms": med("sparse_engine.finalize_x", 1e3),
        "sparse_engine.touches": sum(t for t, _, _ in sparse_runs),
        "sparse_engine.rebase_count": sum(r for _, _, r in sparse_runs),
        "proxlib.recover_primal_us": _median(probes["recover_primal_s"]) * 1e6,
        "proxlib.prox_conjugate_us": med("proxlib.prox_conjugate", 1e6),
        "proxlib.primal_objective_ms": med("proxlib.primal_objective", 1e3),
        "stochastic.iter_us": med("stochastic.sdapd_iterate_dense", 1e6),
        **{f"baselines.{m}.epoch_s": baseline_epoch_s(m) for m in LAYER_BASELINES},
        "traces.write_ms": med("traces.write_trace", 1e3),
        "cells.solve_s": _median([p["solve_s"] for p in plain]),
        "trace.overhead_s": (_median([p["run_s"] for p in traced])
                             - _median([p["run_s"] for p in plain])),
    }
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_report(env, passes, checks, metrics, units, attempted, failures):
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "plain"
        if "run_s" not in p:
            print(f"# pass {i} ({kind}) reference FAILED: {p.get('reference_error')}")
            continue
        print(f"# pass {i} ({kind}): load {p['load_s']:.3f}s build {p['build_s']:.3f}s "
              f"reference {p['reference_s']:.3f}s solve {p['solve_s']:.3f}s "
              f"run {p['run_s']:.3f}s  reference.method={p['reference']['method']} "
              f"gap={p['reference']['certified_gap']:.3e}")
    last = passes[-1]
    for c in last["cells"]:
        if "solve_s" in c:
            print(f"# cell.{c['cell']}.solve_s={c['solve_s']:.4f} s  "
                  f"cell.{c['cell']}.subopt_final={c.get('subopt_final', float('nan')):.6e}  "
                  f"ok={c['ok']}")
        else:
            print(f"# cell.{c['cell']} FAILED: {c['error']}")
    for name, value in metrics.items():
        # solve_s is printed but not a bounded metric (see README)
        print(f"# {name} = {value:.6g} {units.get(name, 's')}")
    print(f"# cell_fail_ratio = {failures}/{attempted} = {failures / max(attempted, 1):.3g}")
    check = passes[-1].get("engine_check")
    if check is not None and "sdapd" in check:
        print(f"# engine check ({check['iterations']} iterations, seed 1): "
              f"sdapd {check['sdapd']!r} sdapd_sparse {check['sdapd_sparse']!r} ok={check['ok']}")
    for c in checks:
        if not c["ok"]:
            print(f"FAILED {c['cell']}: {c.get('error')}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dapd
        from tracing import MODULES, Tracer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if Path(dapd.__file__).resolve().parent != ROOT / "src" / "dapd":
        print(f"dapd imported from {dapd.__file__}, not from this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    dapd_mods = {m: importlib.import_module(f"dapd.{m}") for m in MODULES + ("errors",)}
    workload = WORKLOADS[args.workload]
    env = environment(args.seed, workload)
    inputs = workload.prepare(args.seed)
    tracer = Tracer() if args.trace else None

    passes = []
    start = perf_counter()
    while True:
        problem = perturbed = None  # the previous pass's problem would raise the peak RSS
        pass_start = perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            with tracer.installed():
                record, problem, perturbed = run_pass(dapd_mods, workload, inputs, args.seed,
                                                      tracer)
        else:
            record, problem, perturbed = run_pass(dapd_mods, workload, inputs, args.seed, None)
        passes.append(record)
        if "run_s" not in record:
            break
        now = perf_counter()
        elapsed, last = now - start, now - pass_start
        if len(passes) >= MIN_PASSES and (elapsed >= args.seconds
                       or elapsed + last > min(OVERRUN * args.seconds, HARD_CAP_S)):
            break

    checks = [c for p in passes for c in p["cells"]]
    metrics = {}
    if "run_s" in passes[-1]:
        errors = dapd_mods["errors"]
        try:
            checks.append(check_engines_agree(dapd_mods, problem, perturbed))
        except (errors.DivergenceError, errors.ConfigurationError) as exc:
            checks.append({"cell": "engine_check", "ok": False, "error": str(exc)})
        passes[-1]["engine_check"] = checks[-1]
        if args.trace:
            probes = run_probes(dapd_mods, workload, inputs, tracer, problem, perturbed,
                                passes[-1]["reference"]["value"])
            metrics = layer_metrics(tracer, workload, passes, probes)
        else:
            metrics = end_to_end_metrics(passes)
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"BENCHMARK.json metrics {sorted(missing)} are not computed")
    attempted = len(checks)
    failures = sum(1 for c in checks if not c["ok"])
    correct = failures == 0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    side = OUT_DIR / f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    side.write_text(json.dumps({
        "env": env, "passes": passes, "metrics": metrics,
        "spans": tracer.table() if tracer is not None else [],
    }, indent=1, default=str))
    _print_report(env, passes, checks, metrics, units, attempted, failures)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                    if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
