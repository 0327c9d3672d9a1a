"""Experiment driver: config parsing, reference solutions, trace emission.

Runs (method x seed) cells over one problem, writing one trace CSV per cell
plus a flat key=value manifest holding every resolved constant (matrix norms,
step sizes, perturbations, seeds), so any curve can be re-derived from the
manifest alone.

Suboptimality is always reported against the *unperturbed* objective, even
for methods that solve a perturbed problem; epsilon-accuracy means accuracy
on the original problem.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baselines import BASELINES, BaselineConfig, check_regularizer, run_baseline
from .datasets import Dataset, load_libsvm, synth_ridge, synth_sparse_classification
from .deterministic import (
    IterateState,
    dapd_iterate,
    run_dapd,
    schedule_for_problem,
    validate_schedule,
)
from .errors import CertificationError, ConfigurationError, DivergenceError
from .matrix import MAX_COLS, SPECTRAL_NORM_MARGIN, SPECTRAL_NORM_REL_TOL, backend, matvec
from .proxlib import (
    CompositeProblem,
    SCALINGS,
    composite_gamma,
    dual_objective,
    elastic_net_reg,
    feasible_dual_point,
    huber_reg,
    kl_reg,
    l1_reg,
    l2_reg,
    loss_grads,
    make_problem,
    primal_objective,
    problem_constants,
    squared_loss,
    svm_problem,
)
from .sparse_engine import run_sparse
from .stochastic import params_for_problem, perturb_problem, run_sdapd
from .traces import write_trace

DATA_DIR_ENV = "DAPD_DATA_DIR"


@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    value: float
    method: str
    certified_gap: float
    iterations: int = 0  # DAPD iterations of a native reference, over all its restarts
    restarts: int = 0


def _is_ridge_form(problem: CompositeProblem) -> bool:
    return (
        problem.loss.kind == "squared"
        and problem.reg.kind == "l2"
        and problem.loss.dual_perturbation == 0.0
        and problem.reg.primal_perturbation == 0.0
    )


def _dual_candidate(problem: CompositeProblem, x, y=None):
    """The dual point y(x) = c * f'(A x) made from x, or ``y`` itself when
    it is given and the loss is not squared."""
    if y is not None and problem.loss.kind != "squared":
        return y
    return problem.loss_scale * loss_grads(problem.loss, matvec(problem.matrix, x))


def _duality_gap(problem, x, y_candidate):
    """P(x) and its gap to the feasible dual point made from ``y_candidate``."""
    value = primal_objective(problem, x)
    return value, value - dual_objective(problem, feasible_dual_point(problem, y_candidate))


def _certify(x, value, gap, accuracy, method, where="", **work):
    """The reference at x, or ``CertificationError`` when its gap is not
    finite or exceeds ``accuracy``.  Weak duality makes the true gap
    nonnegative, so a negative computed gap is rounding and is recorded as
    0."""
    if not np.isfinite(gap) or gap > accuracy:
        raise CertificationError(
            f"{method} reference certified only to gap {gap:.3e} > {accuracy:.3e}{where}"
        )
    return ReferenceSolution(x=x, value=value, method=method, certified_gap=max(float(gap), 0.0),
                             **work)


def _direct_ridge_reference(problem: CompositeProblem, accuracy: float) -> ReferenceSolution:
    if not _is_ridge_form(problem):
        raise ConfigurationError(
            "the direct reference solves ridge-form problems only "
            "(squared loss, l2 regularizer, no perturbation)"
        )
    dense = problem.matrix.to_dense()
    c = problem.loss_scale
    lam = problem.reg.lam
    d = problem.dim
    x = np.linalg.solve(c * dense.T @ dense + lam * np.eye(d), c * dense.T @ problem.loss.targets)
    grad = c * matvec(
        problem.matrix, matvec(problem.matrix, x) - problem.loss.targets, transpose=True
    ) + lam * x
    gap = float(grad @ grad) / (2.0 * lam)  # strong-convexity suboptimality bound
    return _certify(x, primal_objective(problem, x), gap, accuracy, "direct_solve")


# iteration counts of the native reference's gap checks: 50, x1.25 rounded down, 256,000
REFERENCE_CHECKPOINTS = (*accumulate(range(38), lambda t, _: t * 5 // 4, initial=50), 256_000)


def _solver_reference(problem: CompositeProblem, accuracy: float) -> ReferenceSolution:
    """High-accuracy run of the native deterministic solver, duality-gap
    certified: the reference of every problem that is not ridge-form.

    The gap is checked once the run's total iteration count reaches each of
    ``REFERENCE_CHECKPOINTS``, and the first point certified to ``accuracy``
    is returned.  At a check whose gap is at most half the gap at the last
    restart, DAPD restarts from the current (x, y): t, and with it every
    step schedule that grows or shrinks with t, starts again from 0.  The
    first finite gap is the first such base; a non-finite gap neither
    restarts nor sets the base.  A run that has not certified by the last
    checkpoint raises ``CertificationError`` naming its gap, total iteration
    count and schedule regime.

    DAPD's steps need a positive spectral norm.  When the estimate is 0 (a
    zero matrix, or entries small enough that the estimate underflows),
    the run's start x = 0, which minimises every regularizer a reference
    accepts, is certified after 0 iterations instead, against the dual
    point the loss's gradient at A x = 0 gives."""
    if problem.stats.spectral_norm == 0:
        x = np.zeros(problem.dim)
        value, gap = _duality_gap(problem, x, _dual_candidate(problem, x))
        return _certify(x, value, gap, accuracy, "dapd_run",
                        " at x = 0 (the matrix's spectral norm is 0)")
    schedule = schedule_for_problem(problem)
    state = IterateState(problem, schedule)
    done = restarts = 0  # iterations before the current run's start; restarts so far
    base = None
    for checkpoint in REFERENCE_CHECKPOINTS:
        while done + state.t < checkpoint:
            dapd_iterate(state)
        value, gap = _duality_gap(problem, state.x, _dual_candidate(problem, state.x, state.y))
        if not np.isfinite(gap):
            continue
        if gap <= accuracy:
            break
        if base is None:
            base = gap
        elif gap <= 0.5 * base:
            base = gap
            done += state.t
            restarts += 1
            state = IterateState(problem, schedule, x0=state.x, y0=state.y)
    iterations = done + state.t
    return _certify(state.x, value, gap, accuracy, "dapd_run",
                    f" after {iterations} iterations ({schedule.regime} regime)",
                    iterations=iterations, restarts=restarts)


def compute_reference(
    problem: CompositeProblem, accuracy: float, method: str = "auto"
) -> ReferenceSolution:
    """Certified optimal value.

    ``method="auto"`` chooses from the problem alone: a direct linear solve
    (``"direct"``) for ridge-form problems, and a native high-accuracy DAPD
    run (``"solver"``) for every other.  Both are certified by a duality
    gap, so ``dapd run`` and ``dapd reference`` work on hinge/l1 configs
    with numpy alone.  ``method="direct"`` accepts ridge-form problems only.
    ``kl`` problems cannot be certified (``feasible_dual_point`` rejects
    them), so every method refuses them before solving anything."""
    if not 0 < accuracy < math.inf:
        raise ConfigurationError(f"accuracy must be positive and finite, not {accuracy!r}")
    if problem.reg.kind == "kl":
        raise CertificationError(
            "no feasible dual point exists for kl; a kl reference cannot be certified"
        )
    if method == "auto":
        method = "direct" if _is_ridge_form(problem) else "solver"
    solvers = {
        "direct": _direct_ridge_reference,
        "solver": _solver_reference,
    }
    if method not in solvers:
        raise ConfigurationError(f"unknown reference method {method!r}")
    return solvers[method](problem, accuracy)


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def checked_schedule(problem: CompositeProblem, horizon: int):
    """``(schedule, violations)``: the problem's DAPD schedule
    (``schedule_for_problem``) and its feasibility violations for
    t = 0..horizon (``validate_schedule``)."""
    schedule = schedule_for_problem(problem)
    _, mu, _, R, _ = problem_constants(problem)
    return schedule, validate_schedule(schedule, composite_gamma(problem), mu, R, horizon)


# Cell runners: runner(problem, epochs, seed, reference_value=..., wall_clock=...).
# Each looks its solver up by this module's global name when called, so a
# wrapper installed on that name sees the call.


def _run_dapd_cell(problem, epochs, seed, **trace):
    if epochs < 1:  # the budget, before the schedule check that takes it as horizon
        raise ConfigurationError("epochs must be at least 1")
    schedule, violations = checked_schedule(problem, min(epochs, 1000))
    if violations:
        raise ConfigurationError(f"schedule infeasible: {violations[:3]}")
    return run_dapd(problem, schedule, epochs, **trace)


def _run_sdapd_cell(problem, epochs, seed, **trace):
    params = params_for_problem(problem)
    return run_sdapd(problem, params, epochs * problem.n, seed, **trace)


def _run_sparse_cell(problem, epochs, seed, **trace):
    params = params_for_problem(problem)
    return run_sparse(problem, params, epochs * problem.n, seed, **trace)


def _run_baseline_cell(method, problem, epochs, seed, **trace):
    return run_baseline(BaselineConfig(method, epochs, seed), problem, **trace)


class MethodSpec(NamedTuple):
    runner: Callable
    seeded: bool  # one cell per configured seed; otherwise one cell in all
    perturbed: bool  # solves the perturbed problem when solver.epsilon is set


METHODS = {
    "dapd": MethodSpec(_run_dapd_cell, seeded=False, perturbed=False),
    "sdapd": MethodSpec(_run_sdapd_cell, seeded=True, perturbed=True),
    "sdapd_sparse": MethodSpec(_run_sparse_cell, seeded=True, perturbed=True),
    **{
        name: MethodSpec(partial(_run_baseline_cell, name), seeded, perturbed)
        for name, (_, seeded, perturbed) in BASELINES.items()
    },
}
ALL_METHODS = tuple(METHODS)
PERTURBATION_METHODS = tuple(name for name, spec in METHODS.items() if spec.perturbed)


@dataclass
class ExperimentResult:
    manifest_path: Path
    trace_paths: list
    failures: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(config: RunConfig) -> ExperimentResult:
    """Execute every (method, seed) cell; one CSV per cell plus a manifest,
    in ``output.dir``, made only once the problem, its reference and its
    perturbation are built.  A kl problem has no certified reference
    (``compute_reference``), so its cells run without one."""
    problem = build_problem(config)
    gamma, mu, L, R, rbar = problem_constants(problem)
    manifest = {
        "experiment.name": config.name,
        "problem.n": problem.n,
        "problem.d": problem.dim,
        "problem.loss": problem.loss.kind,
        "problem.regularizer": problem.reg.kind,
        "problem.scaling": problem.scaling,
        "problem.R": R,
        "problem.Rbar": rbar,
        "problem.density": problem.stats.density,
        "problem.gamma": gamma,
        "problem.mu": mu,
        "problem.spectral_norm_converged": problem.stats.spectral_norm_converged,
        "problem.spectral_norm_products": problem.stats.spectral_norm_products,
        "problem.spectral_norm_rel_tol": SPECTRAL_NORM_REL_TOL,
        "problem.spectral_norm_margin": SPECTRAL_NORM_MARGIN,
        "matrix.backend": backend(),
    }
    reference_value = None
    if problem.reg.kind == "kl":
        manifest["reference.method"] = "none"
    else:
        reference = compute_reference(problem, config.output["reference_accuracy"])
        reference_value = reference.value
        manifest["reference.value"] = reference.value
        manifest["reference.method"] = reference.method
        manifest["reference.certified_gap"] = reference.certified_gap
        manifest["reference.iterations"] = reference.iterations
        manifest["reference.restarts"] = reference.restarts

    epsilon = config.solver["epsilon"]
    perturbed = None
    if epsilon is not None:
        perturbed = perturb_problem(problem, float(epsilon))
        manifest["perturbation.epsilon"] = epsilon
        manifest["perturbation.delta1"] = perturbed.loss.dual_perturbation
        manifest["perturbation.delta2"] = perturbed.reg.primal_perturbation

    outdir = Path(config.output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    epochs = int(config.solver["epochs"])
    wall_clock = bool(config.output["wall_clock"])
    trace_paths = []
    failures = {}
    for method in config.solver["methods"]:
        spec = METHODS[method]
        seeds = config.solver["seeds"] if spec.seeded else [None]
        cell_problem = perturbed if perturbed is not None and spec.perturbed else problem
        for seed in seeds:
            cell = method if seed is None else f"{method}_seed{seed}"
            try:
                res = spec.runner(cell_problem, epochs, seed or 0,
                                  reference_value=reference_value, wall_clock=wall_clock)
            except (DivergenceError, ConfigurationError) as exc:
                failures[cell] = str(exc)
                manifest[f"cell.{cell}.error"] = str(exc)
                continue
            path = outdir / f"{cell}.csv"
            write_trace(res.trace, path)
            trace_paths.append(path)
            for key, value in sorted(res.resolved.items()):
                manifest[f"cell.{cell}.{key}"] = value
    manifest_path = outdir / "manifest.txt"
    with open(manifest_path, "w") as fh:
        for key in sorted(manifest):
            fh.write(f"{key}={manifest[key]}\n")
    return ExperimentResult(manifest_path, trace_paths, failures)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that the file must set


class _Key(NamedTuple):
    """One key of a config object: the type(s) its value must have, its
    default, and the range a value set in the file must lie in, as
    ``(test(value, the object with its defaults filled in), words)``.  Null
    is in every range."""

    kinds: type | tuple
    default: object = _REQUIRED
    range: tuple | None = None


_POSITIVE = (lambda value, _: 0 < value < math.inf, "positive and finite")
_NONNEGATIVE = (lambda value, _: 0 <= value < math.inf, "nonnegative and finite")


def _distinct(item_ok: Callable, items: str) -> tuple:
    """The range of a nonempty list of distinct items that pass ``item_ok``."""
    return (lambda values, _: bool(values) and all(map(item_ok, values))
            and len(set(values)) == len(values), f"a nonempty list of distinct {items}")


_COUNT = _Key(int, range=_POSITIVE)
_SEED = _Key(int, 0, _NONNEGATIVE)
_LAM = _Key(float, range=_NONNEGATIVE)
# every key of each config object, checked in table order; the ``kind`` of a
# source or a regularizer picks its table
_SOURCE_KEYS = {
    "synth_ridge": {
        "n": _COUNT,
        "d": _COUNT,
        "cov": _Key(str, "identity", (lambda cov, _: cov in ("identity", "ar1"),
                                      "'identity' or 'ar1'")),
        "ar1_r": _Key(float, 0.5, (lambda r, source: source["cov"] == "ar1" and 0 <= r < 1,
                                   "in [0, 1), and set only with cov 'ar1'")),
        "noise_sigma": _Key(float, 0.1, _NONNEGATIVE),
        "seed": _SEED,
    },
    "synth_sparse_classification": {
        "n": _COUNT,
        "d": _COUNT,
        "density": _Key(float, range=(lambda rho, source: 0 < rho <= 1 and rho * source["d"] >= 1,
                                      "in (0, 1] and at least 1/d")),
        "seed": _SEED,
    },
    "libsvm": {
        "path": _Key(str),
        "expected_dim": _Key((int, type(None)), None,
                             (lambda d, _: 1 <= d <= MAX_COLS, f"in [1, {MAX_COLS}]")),
    },
}
# each regularizer kind's builder, and its constants in the builder's argument order
_REGULARIZERS = {
    "l2": (l2_reg, {"lam": _LAM}),
    "l1": (l1_reg, {"lam": _LAM}),
    "elastic_net": (elastic_net_reg, {"lam": _LAM, "lam2": _LAM}),
    "huber": (huber_reg, {"lam": _LAM, "huber_mu": _Key(float, range=_POSITIVE)}),
    "kl": (kl_reg, {"kl_weight": _Key(float, 1.0, _POSITIVE)}),
}
_PROBLEM_KEYS = {
    "source": _Key(dict),
    "loss": _Key(str, range=(lambda loss, _: loss in ("squared", "hinge"),
                             "'squared' or 'hinge'")),
    "regularizer": _Key(dict),
    "scaling": _Key(str, "finite_sum", (  # ``svm_problem`` fixes finite_sum
        lambda scaling, problem: scaling in SCALINGS
        and (scaling == "finite_sum" or problem["loss"] == "squared"),
        f"one of {list(SCALINGS)}, and 'finite_sum' with the hinge loss",
    )),
}
_SOLVER_KEYS = {
    "methods": _Key(list, range=_distinct(lambda m: m in ALL_METHODS,
                                          f"methods from {list(ALL_METHODS)}")),
    "epochs": _Key(int, 50, _POSITIVE),
    "seeds": _Key(list, [0], _distinct(lambda s: _is_int(s) and s >= 0, "nonnegative integers")),
    "epsilon": _Key((float, type(None)), None, _POSITIVE),
}
_OUTPUT_KEYS = {
    # an empty path would write into the working directory
    "dir": _Key(str, "traces", (lambda path, _: path != "", "a nonempty path")),
    "reference_accuracy": _Key(float, 1e-9, _POSITIVE),
    "wall_clock": _Key(bool, True),
}
_TOP_KEYS = {"name": _Key(str, "experiment"), "problem": _Key(dict), "solver": _Key(dict),
             "output": _Key(dict, {})}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               list: "a list", dict: "a JSON object", type(None): "null"}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_a(value, kind) -> bool:
    if kind is int:
        return _is_int(value)
    if kind is float:
        return _is_int(value) or isinstance(value, (float, np.floating))
    return isinstance(value, kind)


def _config_object(section, keys: dict, where: str) -> dict:
    """A copy of the config object ``section`` with its defaults filled in,
    refused unless it is a JSON object that sets only keys of ``keys``, and
    every required one, to values of their types in their ranges."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object, not {section!r}")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [key for key, spec in keys.items()
               if spec.default is _REQUIRED and key not in section]
    if missing:
        raise ConfigurationError(f"missing key(s) {missing} in {where}")
    for key, value in section.items():
        kinds = keys[key].kinds if isinstance(keys[key].kinds, tuple) else (keys[key].kinds,)
        if not any(_is_a(value, kind) for kind in kinds):
            expected = " or ".join(_TYPE_NAMES[kind] for kind in kinds)
            raise ConfigurationError(f"{where}.{key} must be {expected}, not {value!r}")
    resolved = {key: copy.copy(spec.default) for key, spec in keys.items()
                if spec.default is not _REQUIRED}
    resolved.update(section)
    for key, spec in keys.items():
        value = section.get(key)
        if value is not None and spec.range:
            in_range, words = spec.range
            if not in_range(value, resolved):
                raise ConfigurationError(f"{where}.{key} must be {words}, not {value!r}")
    return resolved


def _kind_object(section, kinds: dict, where: str) -> dict:
    """``_config_object`` with the keys that ``kinds`` gives the section's ``kind``."""
    kind = section.get("kind") if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"{where}.kind must be one of {sorted(kinds)}, not {kind!r}")
    return _config_object(section, {"kind": _Key(str), **kinds[kind]}, where)


@dataclass
class RunConfig:
    """Validated experiment configuration; see ``RunConfig.from_dict``."""

    name: str
    problem: dict
    solver: dict
    output: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Check every key, type and value that can be checked without the
        data, and fill in the defaults."""
        raw = _config_object(raw, _TOP_KEYS, "config")
        problem = _config_object(raw["problem"], _PROBLEM_KEYS, "problem")
        problem["source"] = _kind_object(problem["source"], _SOURCE_KEYS, "problem.source")
        problem["regularizer"] = _kind_object(
            problem["regularizer"], {kind: keys for kind, (_, keys) in _REGULARIZERS.items()},
            "problem.regularizer",
        )
        solver = _config_object(raw["solver"], _SOLVER_KEYS, "solver")
        for method in solver["methods"]:
            check_regularizer(method, problem["regularizer"]["kind"])
        output = _config_object(raw["output"], _OUTPUT_KEYS, "output")
        return cls(raw["name"], problem, solver, output)


def _load_dataset(source: dict) -> Dataset:
    kind = source["kind"]
    if kind == "synth_ridge":
        cov = ("ar1", float(source["ar1_r"])) if source["cov"] == "ar1" else "identity"
        ds, _ = synth_ridge(int(source["n"]), int(source["d"]), cov=cov,
                            noise_sigma=float(source["noise_sigma"]), seed=int(source["seed"]))
        return ds
    if kind == "synth_sparse_classification":
        return synth_sparse_classification(int(source["n"]), int(source["d"]),
                                           float(source["density"]), seed=int(source["seed"]))
    path = Path(source["path"])
    if not path.exists():
        data_dir = os.environ.get(DATA_DIR_ENV)
        if data_dir and (Path(data_dir) / path).exists():
            path = Path(data_dir) / path
    return load_libsvm(path, expected_dim=source["expected_dim"])


def build_problem(config: RunConfig) -> CompositeProblem:
    dataset = _load_dataset(config.problem["source"])
    spec = config.problem["regularizer"]
    build, keys = _REGULARIZERS[spec["kind"]]
    reg = build(*(float(spec[key]) for key in keys))
    if config.problem["loss"] == "hinge":
        labels = dataset.labels
        if not set(np.unique(labels)) <= {-1.0, 1.0}:
            raise ConfigurationError("hinge loss requires +-1 labels")
        return svm_problem(dataset.matrix, labels, reg)
    return make_problem(
        dataset.matrix, squared_loss(dataset.labels), reg, config.problem["scaling"]
    )
