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

import os
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baselines import BASELINE_METHODS, STOCHASTIC_METHODS, BaselineConfig, run_baseline
from .datasets import Dataset, load_libsvm, synth_ridge, synth_sparse_classification
from .deterministic import (
    IterateState,
    dapd_iterate,
    run_dapd,
    schedule_for_problem,
    validate_schedule,
)
from .errors import CertificationError, ConfigurationError, DivergenceError
from .matrix import backend, matvec
from .proxlib import (
    CompositeProblem,
    SCALINGS,
    Regularizer,
    composite_gamma,
    dual_objective,
    elastic_net_reg,
    feasible_dual_point,
    huber_reg,
    kl_reg,
    l1_reg,
    l2_reg,
    make_problem,
    primal_objective,
    problem_constants,
    squared_loss,
    svm_problem,
)
from .sparse_engine import run_sparse
from .stochastic import params_for_problem, perturb_problem, run_sdapd
from .traces import check_output_mode, write_trace

DATA_DIR_ENV = "DAPD_DATA_DIR"


@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    value: float
    method: str
    certified_gap: float


def _is_ridge_form(problem: CompositeProblem) -> bool:
    return (
        problem.loss.kind == "squared"
        and problem.reg.kind == "l2"
        and problem.loss.dual_perturbation == 0.0
        and problem.reg.primal_perturbation == 0.0
    )


def _duality_gap(problem, x, y_candidate):
    """P(x) and its gap to the feasible dual point made from ``y_candidate``."""
    value = primal_objective(problem, x)
    return value, value - dual_objective(problem, feasible_dual_point(problem, y_candidate))


def _certify(x, value, gap, accuracy, method):
    if not np.isfinite(gap) or gap > accuracy:
        raise CertificationError(
            f"{method} reference certified only to gap {gap:.3e} > {accuracy:.3e}"
        )
    return ReferenceSolution(x=x, value=value, method=method, certified_gap=float(gap))


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


def _cvxpy_reference(problem: CompositeProblem, accuracy: float) -> ReferenceSolution:
    try:
        import cvxpy as cp
    except ImportError as exc:
        raise CertificationError("cvxpy is not installed; install dapd[reference]") from exc
    dense = problem.matrix.to_dense()
    c = problem.loss_scale
    n, d = problem.n, problem.dim
    x = cp.Variable(d)
    u = dense @ x
    constraints = []
    hinge_cons = None
    if problem.loss.kind == "squared":
        loss_expr = c * 0.5 * cp.sum_squares(u - problem.loss.targets)
    else:
        t = cp.Variable(n)
        hinge_cons = 1.0 - u - t <= 0
        constraints += [t >= 0, hinge_cons]
        loss_expr = c * cp.sum(t)
    reg = problem.reg
    if reg.kind == "l2":
        reg_expr = 0.5 * reg.lam * cp.sum_squares(x)
    elif reg.kind == "l1":
        reg_expr = reg.lam * cp.norm1(x)
    elif reg.kind == "elastic_net":
        reg_expr = reg.lam * cp.norm1(x) + 0.5 * reg.lam2 * cp.sum_squares(x)
    elif reg.kind == "huber":
        reg_expr = reg.huber_mu * cp.sum(cp.huber(x, reg.lam / (2.0 * reg.huber_mu)))
    else:  # kl
        w = reg.weight() * np.ones(d)
        reg_expr = cp.sum(cp.multiply(w, np.log(w)) - cp.multiply(w, cp.log(x)))
    prob = cp.Problem(cp.Minimize(loss_expr + reg_expr), constraints)
    solved = False
    for solver_kw in ({"solver": "CLARABEL"}, {"solver": "ECOS"}, {}):
        try:
            prob.solve(**solver_kw)
        except (cp.error.SolverError, ValueError):
            continue
        if prob.status in ("optimal", "optimal_inaccurate"):
            solved = True
            break
    if not solved:
        raise CertificationError(f"cvxpy failed to solve the reference problem ({prob.status})")
    x_val = np.asarray(x.value, dtype=np.float64).reshape(d)
    if problem.loss.kind == "squared":
        y_candidate = c * (dense @ x_val - problem.loss.targets)
    else:
        # duals of (1 - u - t <= 0) are the negated saddle duals
        y_candidate = -np.asarray(hinge_cons.dual_value, dtype=np.float64).reshape(n)
    return _certify(x_val, *_duality_gap(problem, x_val, y_candidate), accuracy, "cvxpy")


# iteration counts of the native reference's gap checks: 50, x1.25 rounded down, 256,000
REFERENCE_CHECKPOINTS = (*accumulate(range(38), lambda t, _: t * 5 // 4, initial=50), 256_000)


def _solver_reference(problem: CompositeProblem, accuracy: float) -> ReferenceSolution:
    """High-accuracy run of the native deterministic solver, duality-gap
    certified.  Used when cvxpy is unavailable.

    One run is continued, its gap checked after each of ``REFERENCE_CHECKPOINTS``
    iterations, and the first point certified to ``accuracy`` returned; DAPD is
    deterministic, so it is the point a fresh run of that length would return."""
    state = IterateState(problem, schedule_for_problem(problem))
    for checkpoint in REFERENCE_CHECKPOINTS:
        while state.t < checkpoint:
            dapd_iterate(state, problem)
        if problem.loss.kind == "squared":
            u = matvec(problem.matrix, state.x)
            y_candidate = problem.loss_scale * (u - problem.loss.targets)
        else:
            y_candidate = state.y
        value, gap = _duality_gap(problem, state.x, y_candidate)
        if np.isfinite(gap) and gap <= accuracy:
            break
    return _certify(state.x, value, gap, accuracy, "dapd_run")


def compute_reference(
    problem: CompositeProblem, accuracy: float, method: str = "auto"
) -> ReferenceSolution:
    """Certified optimal value.

    ``method="auto"`` uses a direct linear solve for ridge-form problems.
    Any other problem is solved by cvxpy when it can be imported, and
    otherwise by a native high-accuracy DAPD run; either result is certified
    by the same feasible-dual-point duality gap, so ``dapd run`` and
    ``dapd reference`` work on hinge/l1 configs with numpy alone.
    ``method="direct"`` accepts ridge-form problems only.  ``kl`` problems
    cannot be certified (``feasible_dual_point`` rejects them), so every
    method refuses them before solving anything."""
    if accuracy <= 0:
        raise ConfigurationError("accuracy must be positive")
    if problem.reg.kind == "kl":
        raise CertificationError(
            "no feasible dual point exists for kl; a kl reference cannot be certified"
        )
    if method == "auto":
        if _is_ridge_form(problem):
            method = "direct"
        else:
            try:
                import cvxpy  # noqa: F401
            except ImportError:
                method = "solver"
            else:
                method = "cvxpy"
    solvers = {
        "direct": _direct_ridge_reference,
        "cvxpy": _cvxpy_reference,
        "solver": _solver_reference,
    }
    if method not in solvers:
        raise ConfigurationError(f"unknown reference method {method!r}")
    return solvers[method](problem, accuracy)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# every key of each config object, with the type its value must have
_NULLABLE_FLOAT = (float, type(None))
_SOURCE_KEYS = {
    "synth_ridge": {"kind": str, "n": int, "d": int, "cov": str, "ar1_r": float,
                    "noise_sigma": float, "seed": int},
    "synth_sparse_classification": {"kind": str, "n": int, "d": int, "density": float,
                                    "seed": int},
    "libsvm": {"kind": str, "path": str, "expected_dim": (int, type(None))},
}
_SOURCE_REQUIRED = {
    "synth_ridge": ("n", "d"),
    "synth_sparse_classification": ("n", "d", "density"),
    "libsvm": ("path",),
}
# the constants of each regularizer kind: all required but kl_weight, all
# nonnegative, and positive where the regularizer divides by them
_REG_KEYS = {
    "l2": ("lam",),
    "l1": ("lam",),
    "elastic_net": ("lam", "lam2"),
    "huber": ("lam", "huber_mu"),
    "kl": ("kl_weight",),
}
_REG_POSITIVE = ("huber_mu", "kl_weight")
_PROBLEM_KEYS = {"source": dict, "loss": str, "regularizer": dict, "scaling": str}
_SOLVER_KEYS = {"methods": list, "epochs": int, "seeds": list, "epsilon": _NULLABLE_FLOAT,
                "case_iv_tau": _NULLABLE_FLOAT}
_OUTPUT_KEYS = {"dir": str, "mode": str, "reference_accuracy": float, "wall_clock": bool}
_TOP_KEYS = {"name": str, "problem": dict, "solver": dict, "output": dict}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               list: "a list", dict: "a JSON object", type(None): "null"}


def _is_a(value, kind) -> bool:
    if kind is int:
        return _is_int(value)
    if kind is float:
        return _is_int(value) or isinstance(value, (float, np.floating))
    return isinstance(value, kind)


def _config_object(section, spec: dict, where: str, required=()) -> dict:
    """A copy of the config object ``section``, refused unless it is a JSON
    object whose keys are in ``spec``, include ``required``, and hold values
    of the types ``spec`` gives them."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object, not {section!r}")
    unknown = set(section) - set(spec)
    if unknown:
        raise ConfigurationError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigurationError(f"missing key(s) {missing} in {where}")
    for key, value in section.items():
        kinds = spec[key] if isinstance(spec[key], tuple) else (spec[key],)
        if not any(_is_a(value, kind) for kind in kinds):
            expected = " or ".join(_TYPE_NAMES[kind] for kind in kinds)
            raise ConfigurationError(f"{where}.{key} must be {expected}, not {value!r}")
    return dict(section)


def _check_positive(section: dict, key: str, where: str, strict: bool = True):
    value = section.get(key)
    if value is not None and not (value > 0 if strict else value >= 0):
        sign = "positive" if strict else "nonnegative"
        raise ConfigurationError(f"{where}.{key} must be {sign}, not {value!r}")


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
        problem = _config_object(raw.get("problem", {}), _PROBLEM_KEYS, "problem")
        solver = _config_object(raw.get("solver", {}), _SOLVER_KEYS, "solver")
        output = _config_object(raw.get("output", {}), _OUTPUT_KEYS, "output")
        source = problem.get("source", {})
        kind = source.get("kind") if isinstance(source, dict) else None
        if kind not in _SOURCE_KEYS:
            raise ConfigurationError(f"problem.source.kind must be one of {sorted(_SOURCE_KEYS)}")
        problem["source"] = _config_object(source, _SOURCE_KEYS[kind], "problem.source",
                                          _SOURCE_REQUIRED[kind])
        if source.get("cov", "identity") not in ("identity", "ar1"):
            raise ConfigurationError("problem.source.cov must be 'identity' or 'ar1'")
        if problem.get("loss") not in ("squared", "hinge"):
            raise ConfigurationError("problem.loss must be 'squared' or 'hinge'")
        regspec = problem.get("regularizer", {})
        kind = regspec.get("kind") if isinstance(regspec, dict) else None
        if kind not in _REG_KEYS:
            raise ConfigurationError(
                f"problem.regularizer.kind must be one of {sorted(_REG_KEYS)}"
            )
        consts = _REG_KEYS[kind]
        problem["regularizer"] = _config_object(
            regspec, {"kind": str, **dict.fromkeys(consts, float)}, "problem.regularizer",
            [key for key in consts if key != "kl_weight"],
        )
        for key in consts:
            _check_positive(regspec, key, "problem.regularizer", key in _REG_POSITIVE)
        problem.setdefault("scaling", "finite_sum")
        if problem["scaling"] not in SCALINGS:
            raise ConfigurationError(f"problem.scaling must be one of {list(SCALINGS)}")
        methods = solver.get("methods", [])
        for m in methods:
            if m not in ALL_METHODS:
                raise ConfigurationError(f"unknown method {m!r}; known: {ALL_METHODS}")
        if not methods:
            raise ConfigurationError("solver.methods must be a nonempty list")
        solver.setdefault("epochs", 50)
        solver.setdefault("seeds", [0])
        if solver["epochs"] < 1:
            raise ConfigurationError(
                f"solver.epochs must be a positive integer, not {solver['epochs']!r}"
            )
        seeds = solver["seeds"]
        if not seeds or not all(_is_int(s) for s in seeds):
            raise ConfigurationError(
                f"solver.seeds must be a nonempty list of integers, not {seeds!r}"
            )
        solver.setdefault("epsilon", None)
        solver.setdefault("case_iv_tau", None)
        _check_positive(solver, "epsilon", "solver")
        _check_positive(solver, "case_iv_tau", "solver")
        output.setdefault("dir", "traces")
        output.setdefault("mode", "last")
        output.setdefault("reference_accuracy", 1e-9)
        output.setdefault("wall_clock", True)
        check_output_mode(output["mode"])
        _check_positive(output, "reference_accuracy", "output")
        return cls(raw.get("name", "experiment"), problem, solver, output)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _build_regularizer(spec: dict) -> Regularizer:
    kind = spec.get("kind")
    if kind == "l2":
        return l2_reg(float(spec["lam"]))
    if kind == "l1":
        return l1_reg(float(spec["lam"]))
    if kind == "elastic_net":
        return elastic_net_reg(float(spec["lam"]), float(spec["lam2"]))
    if kind == "huber":
        return huber_reg(float(spec["lam"]), float(spec["huber_mu"]))
    if kind == "kl":
        return kl_reg(float(spec.get("kl_weight", 1.0)))
    raise ConfigurationError(f"unknown regularizer kind {kind!r}")


def _load_dataset(source: dict) -> Dataset:
    kind = source["kind"]
    if kind == "synth_ridge":
        cov = source.get("cov", "identity")
        if cov == "ar1":
            cov = ("ar1", float(source.get("ar1_r", 0.5)))
        ds, _ = synth_ridge(
            int(source["n"]),
            int(source["d"]),
            cov=cov,
            noise_sigma=float(source.get("noise_sigma", 0.1)),
            seed=int(source.get("seed", 0)),
        )
        return ds
    if kind == "synth_sparse_classification":
        return synth_sparse_classification(
            int(source["n"]), int(source["d"]),
            float(source["density"]), seed=int(source.get("seed", 0)),
        )
    path = Path(source["path"])
    if not path.exists():
        data_dir = os.environ.get(DATA_DIR_ENV)
        if data_dir and (Path(data_dir) / path).exists():
            path = Path(data_dir) / path
    return load_libsvm(path, expected_dim=source.get("expected_dim"))


def build_problem(config: RunConfig) -> CompositeProblem:
    dataset = _load_dataset(config.problem["source"])
    reg = _build_regularizer(config.problem["regularizer"])
    if config.problem["loss"] == "hinge":
        labels = dataset.labels
        if not set(np.unique(labels)) <= {-1.0, 1.0}:
            raise ConfigurationError("hinge loss requires +-1 labels")
        return svm_problem(dataset.matrix, labels, reg)
    return make_problem(
        dataset.matrix, squared_loss(dataset.labels), reg, config.problem["scaling"]
    )


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


# Cell runners: runner(method, problem, epochs, seed, solver, output_mode,
# reference_value=..., wall_clock=...) with ``solver`` the config's solver
# section.


def _run_dapd_cell(method, problem, epochs, seed, solver, output_mode, **trace):
    schedule = schedule_for_problem(problem, case_iv_tau=solver["case_iv_tau"])
    violations = validate_schedule(
        schedule,
        composite_gamma(problem),
        problem_constants(problem)[1],
        problem.stats.spectral_norm,
        horizon=min(epochs, 1000),
    )
    if violations:
        raise ConfigurationError(f"schedule infeasible: {violations[:3]}")
    return run_dapd(problem, schedule, epochs, output=output_mode, **trace)


def _run_sdapd_cell(method, problem, epochs, seed, solver, output_mode, **trace):
    params = params_for_problem(problem)
    return run_sdapd(problem, params, epochs * problem.n, seed, output=output_mode, **trace)


def _run_sparse_cell(method, problem, epochs, seed, solver, output_mode, **trace):
    # the lazy engine returns the last iterate whatever the output mode
    params = params_for_problem(problem)
    return run_sparse(problem, params, epochs * problem.n, seed, **trace)


def _run_baseline_cell(method, problem, epochs, seed, solver, output_mode, **trace):
    return run_baseline(BaselineConfig(method, epochs, seed), problem, **trace)


class MethodSpec(NamedTuple):
    runner: Callable
    seeded: bool  # one cell per configured seed; otherwise one cell in all
    perturbed: bool  # solves the perturbed problem when solver.epsilon is set


# baselines that need smoothness and strong convexity (``perturb_problem``)
_PERTURBED_BASELINES = ("apgm", "proxsvrg", "spdc")

METHODS = {
    "dapd": MethodSpec(_run_dapd_cell, seeded=False, perturbed=False),
    "sdapd": MethodSpec(_run_sdapd_cell, seeded=True, perturbed=True),
    "sdapd_sparse": MethodSpec(_run_sparse_cell, seeded=True, perturbed=True),
    **{
        name: MethodSpec(
            _run_baseline_cell, name in STOCHASTIC_METHODS, name in _PERTURBED_BASELINES
        )
        for name in BASELINE_METHODS
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


def run_experiment(config: RunConfig, base_dir=None) -> ExperimentResult:
    """Execute every (method, seed) cell; one CSV per cell plus a manifest."""
    if not isinstance(config, RunConfig):
        config = RunConfig.from_dict(config)
    outdir = Path(base_dir) if base_dir is not None else Path(config.output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
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
        "matrix.backend": backend(),
    }
    reference = compute_reference(problem, config.output["reference_accuracy"])
    manifest["reference.value"] = reference.value
    manifest["reference.method"] = reference.method
    manifest["reference.certified_gap"] = reference.certified_gap

    epsilon = config.solver["epsilon"]
    perturbed = None
    if epsilon is not None:
        perturbed = perturb_problem(problem, float(epsilon))
        manifest["perturbation.epsilon"] = epsilon
        manifest["perturbation.delta1"] = perturbed.loss.dual_perturbation
        manifest["perturbation.delta2"] = perturbed.reg.primal_perturbation

    epochs = int(config.solver["epochs"])
    wall_clock = bool(config.output["wall_clock"])
    output_mode = config.output["mode"]
    trace_paths = []
    failures = {}
    for method in config.solver["methods"]:
        spec = METHODS[method]
        seeds = config.solver["seeds"] if spec.seeded else [None]
        cell_problem = perturbed if perturbed is not None and spec.perturbed else problem
        for seed in seeds:
            cell = method if seed is None else f"{method}_seed{seed}"
            try:
                res = spec.runner(
                    method, cell_problem, epochs, seed or 0, config.solver, output_mode,
                    reference_value=reference.value, wall_clock=wall_clock,
                )
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
