"""Golden traces: the config set, its environment record, and the writer.

Running this file regenerates ``tests/golden/`` from the current code:

    PYTHONPATH=src python tests/make_golden.py

Every case writes its files with ``wall_clock=False``, so two runs of the
same code on the same machine give the same bytes.  ``test_golden.py``
checks the committed files against a fresh run.  A change that claims to
leave traces unchanged regenerates nothing; one that changes them on
purpose regenerates the files and says why, per case.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from dapd import matrix, sparse_engine
from dapd.baselines import BaselineConfig, run_baseline
from dapd.datasets import serialize_libsvm, synth_ridge, synth_sparse_classification
from dapd.deterministic import run_dapd, schedule_for_problem
from dapd.harness import ALL_METHODS, RunConfig, run_experiment
from dapd.proxlib import elastic_net_reg, kl_reg, make_problem, squared_loss
from dapd.sparse_engine import run_sparse
from dapd.stochastic import params_for_problem, perturb_problem, run_sdapd
from dapd.traces import write_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ENVIRONMENT_FILE = "environment.json"

# baselines that run on the kl case (da and proxsvrg start at x = 0, where kl
# is infinite, and refuse it; spdc needs the perturbed problem)
KL_BASELINES = ("pdhg", "apgm", "rda", "proxsgd")


def experiment_config(name, source, loss, regularizer, methods, epochs, seeds, epsilon=None,
                      accuracy=1e-9) -> dict:
    """A ``dapd run`` config, with ``wall_clock`` off."""
    return {
        "name": name,
        "problem": {"source": source, "loss": loss, "regularizer": regularizer},
        "solver": {"methods": list(methods), "epochs": epochs, "seeds": seeds,
                   "epsilon": epsilon},
        "output": {"reference_accuracy": accuracy, "wall_clock": False},
    }


def _experiment(*args, **kwargs):
    """A case that runs ``dapd run``'s experiment on
    ``experiment_config(*args, **kwargs)``."""
    config = experiment_config(*args, **kwargs)

    def write(outdir: Path) -> None:
        run_experiment(RunConfig.from_dict(
            {**config, "output": {**config["output"], "dir": str(outdir)}}
        ))

    return write


def _libsvm_labels(outdir: Path) -> None:
    """A 30-row LIBSVM file with two label-only lines, under hinge and
    squared loss."""
    data = synth_sparse_classification(30, 12, 0.25, seed=3)
    lines = serialize_libsvm(data).splitlines()
    lines[4] = lines[4].split()[0]
    lines[17] = lines[17].split()[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.libsvm"
        path.write_text("\n".join(lines) + "\n")
        source = {"kind": "libsvm", "path": str(path)}
        for loss, reg in (("hinge", "l2"), ("squared", "l1")):
            _experiment(f"libsvm_{loss}", source, loss, {"kind": reg, "lam": 0.05},
                        ALL_METHODS, 4, [1, 2], epsilon=1e-3)(outdir / loss)


def _write_resolved(resolved: dict, path: Path) -> None:
    with open(path, "w") as fh:
        for key in sorted(resolved):
            fh.write(f"{key}={resolved[key]}\n")


def _sparse_rebase(outdir: Path) -> None:
    """``run_sparse`` with a low rescale threshold, so it rebases many times."""
    data, _ = synth_ridge(12, 8, seed=5)
    problem = make_problem(data.matrix, squared_loss(data.labels),
                           elastic_net_reg(0.05, 20.0), "finite_sum")
    with mock.patch.object(sparse_engine, "RESCALE_THRESHOLD", 1e3):
        res = run_sparse(problem, params_for_problem(problem), 12 * 300 + 7, 3,
                         wall_clock=False)
    outdir.mkdir(parents=True)
    write_trace(res.trace, outdir / "sdapd_sparse.csv")
    _write_resolved(res.resolved, outdir / "manifest.txt")


def _kl(outdir: Path) -> None:
    """A kl problem: no certified reference exists, so the solvers run
    directly, without one (suboptimality is nan).  SDAPD and the lazy engine
    solve it perturbed, as ``dapd run`` would, from x0 = 1, inside the kl
    domain; the default x0 = 0 also runs, since their first recovery,
    prox_{0 g}(x0), is the identity."""
    data, _ = synth_ridge(30, 12, seed=6)
    problem = make_problem(data.matrix, squared_loss(data.labels), kl_reg(0.5), "finite_sum")
    perturbed = perturb_problem(problem, 1e-3)
    params = params_for_problem(perturbed)
    x0 = np.ones(problem.dim)
    runs = {
        "dapd": lambda: run_dapd(problem, schedule_for_problem(problem), 30, wall_clock=False),
        "sdapd": lambda: run_sdapd(perturbed, params, 30 * 10, 1, x0=x0, wall_clock=False),
        "sdapd_sparse": lambda: run_sparse(perturbed, params, 30 * 10, 1, x0=x0,
                                           wall_clock=False),
        **{
            method: lambda method=method: run_baseline(
                BaselineConfig(method, 10, 1), problem, wall_clock=False
            )
            for method in KL_BASELINES
        },
    }
    outdir.mkdir(parents=True)
    resolved = {}
    for cell, run in runs.items():
        res = run()
        write_trace(res.trace, outdir / f"{cell}.csv")
        resolved.update({f"cell.{cell}.{k}": v for k, v in res.resolved.items()})
    _write_resolved(resolved, outdir / "manifest.txt")


README_SOURCE = {"kind": "synth_ridge", "n": 200, "d": 200, "noise_sigma": 0.1, "seed": 7}
# the README's example config
README_CASE = ("ridge-sweep", README_SOURCE, "squared", {"kind": "l2", "lam": 1e-3},
               ("dapd", "sdapd", "sdapd_sparse", "proxsgd"), 10, [1, 2, 3])

CASES = {
    "readme": _experiment(*README_CASE),
    "hinge_l2": _experiment(
        "hinge-l2", {"kind": "synth_sparse_classification", "n": 12, "d": 6,
                     "density": 0.5, "seed": 4},
        "hinge", {"kind": "l2", "lam": 0.1}, ALL_METHODS, 20, [1, 2], epsilon=1e-3,
    ),
    "hinge_elastic_net": _experiment(
        "hinge-elastic-net", {"kind": "synth_sparse_classification", "n": 500, "d": 2000,
                              "density": 0.01},
        "hinge", {"kind": "elastic_net", "lam": 1e-4, "lam2": 1e-2}, ALL_METHODS, 2, [1],
        epsilon=1e-3,
    ),
    "l1": _experiment(
        "l1", {"kind": "synth_ridge", "n": 60, "d": 30}, "squared",
        {"kind": "l1", "lam": 0.1}, ALL_METHODS, 7, [1, 2], epsilon=1e-3,
    ),
    "huber": _experiment(
        "huber", {"kind": "synth_ridge", "n": 50, "d": 20, "seed": 2}, "squared",
        {"kind": "huber", "lam": 0.1, "huber_mu": 0.5}, ALL_METHODS, 7, [1], epsilon=1e-3,
    ),
    "libsvm_labels": _libsvm_labels,
    "sparse_rebase": _sparse_rebase,
    "kl": _kl,
}


def environment() -> dict:
    """What decides the bits of a trace besides the code: numpy, its BLAS,
    the SIMD features numpy dispatches on, and the matvec backend."""
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "matrix_backend": matrix.backend(),
    }


def write_all(outdir: Path) -> None:
    """Run every case into ``outdir/<case>/``."""
    for name, write in CASES.items():
        write(Path(outdir) / name)


def main() -> int:
    if GOLDEN_DIR.exists():
        for path in sorted(GOLDEN_DIR.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
    write_all(GOLDEN_DIR)
    (GOLDEN_DIR / ENVIRONMENT_FILE).write_text(json.dumps(environment(), indent=1) + "\n")
    print(f"wrote {sum(1 for p in GOLDEN_DIR.rglob('*') if p.is_file())} files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
