"""Command-line interface.

Verbs:
  run        execute an experiment config, writing trace CSVs + manifest
  validate   step-size feasibility report for the config's problem
  reference  compute and cache the certified optimal value
  stats      matrix norm / density report for a dataset file

Flags override the corresponding config fields; see README for the config
schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import matrix
from .datasets import load_libsvm
from .errors import CertificationError, ConfigurationError, DivergenceError, ParseError
from .harness import RunConfig, build_problem, checked_schedule, compute_reference, run_experiment
from .matrix import stats as matrix_stats
from .proxlib import composite_gamma, problem_constants


def _load_config(args) -> RunConfig:
    """The config file with the flag overrides applied, validated as one."""
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigurationError(f"{args.config} is not valid JSON: {exc}") from None
    overrides = {"solver": {}, "output": {}}
    if args.epochs is not None:
        overrides["solver"]["epochs"] = args.epochs
    if args.seeds is not None:
        try:
            overrides["solver"]["seeds"] = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigurationError(
                f"--seeds must be comma-separated integers, not {args.seeds!r}"
            ) from None
    if args.method is not None:
        overrides["solver"]["methods"] = args.method
    if args.out is not None:
        overrides["output"]["dir"] = args.out
    if vars(args).get("accuracy") is not None:  # ``dapd reference`` alone has the flag
        overrides["output"]["reference_accuracy"] = args.accuracy
    if isinstance(raw, dict):  # anything else is refused by ``from_dict``
        for name, values in overrides.items():
            section = raw.get(name, {})
            if values and isinstance(section, dict):
                raw[name] = {**section, **values}
    return RunConfig.from_dict(raw)


def _cmd_run(args) -> int:
    config = _load_config(args)
    result = run_experiment(config)
    print(f"manifest: {result.manifest_path}")
    for path in result.trace_paths:
        print(f"trace: {path}")
    for cell, error in result.failures.items():
        print(f"FAILED {cell}: {error}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_validate(args) -> int:
    config = _load_config(args)
    problem = build_problem(config)
    schedule, violations = checked_schedule(problem, args.horizon)
    gamma_f = composite_gamma(problem)
    _, mu, _, R, _ = problem_constants(problem)
    print(f"regime: {schedule.regime}")
    print(f"composite gamma: {gamma_f:.6g}  mu: {mu:.6g}  R: {R:.6g}")
    if not violations:
        print(f"feasible over t <= {args.horizon}")
        return 0
    for v in violations[:20]:
        print(f"violation t={v.t} {v.condition}: lhs={v.lhs:.12g} rhs={v.rhs:.12g}")
    print(f"{len(violations)} violation(s)")
    return 1


def _cmd_reference(args) -> int:
    config = _load_config(args)
    problem = build_problem(config)
    accuracy = config.output["reference_accuracy"]
    ref = compute_reference(problem, accuracy)
    outdir = Path(config.output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    np.save(outdir / "reference_x.npy", ref.x)
    payload = {
        "value": ref.value,
        "method": ref.method,
        "certified_gap": ref.certified_gap,
        "accuracy": accuracy,
        "iterations": ref.iterations,
        "restarts": ref.restarts,
    }
    with open(outdir / "reference.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"P* = {ref.value:.17g} ({ref.method}, certified gap {ref.certified_gap:.3e})")
    print(f"cached in {outdir}")
    return 0


def _cmd_stats(args) -> int:
    dataset = load_libsvm(args.data, expected_dim=args.expected_dim)
    st = matrix_stats(dataset.matrix)
    print(f"file: {args.data}")
    print(f"n: {dataset.n}")
    print(f"d: {dataset.dim}")
    print(f"nnz: {dataset.matrix.nnz}")
    print(f"density: {st.density:.6g}")
    print(f"spectral_norm (R): {st.spectral_norm:.12g}")
    print(f"max_row_norm (Rbar): {st.max_row_norm:.12g}")
    print(f"spectral_norm_products: {st.spectral_norm_products}")
    print(f"spectral_norm_rel_tol: {matrix.SPECTRAL_NORM_REL_TOL:g}")
    print(f"spectral_norm_margin: {matrix.SPECTRAL_NORM_MARGIN:g}")
    print(f"datasets.parser: {dataset.meta['parser']}")
    print(f"matrix.backend: {matrix.backend()}")
    if not st.spectral_norm_converged:
        print("warning: Lanczos did not converge; R is a best estimate")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dapd", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--epochs", type=int, help="override solver.epochs")
        p.add_argument("--seeds", help="override solver.seeds, comma separated")
        p.add_argument("--method", action="append", help="override solver.methods (repeatable)")
        p.add_argument("--out", help="override output.dir")

    p_run = sub.add_parser("run", help="execute an experiment")
    add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="schedule feasibility report")
    add_config_flags(p_val)
    p_val.add_argument("--horizon", type=int, default=10_000)
    p_val.set_defaults(func=_cmd_validate)

    p_ref = sub.add_parser("reference", help="compute and cache the optimal value")
    add_config_flags(p_ref)
    p_ref.add_argument("--accuracy", type=float, help="override output.reference_accuracy")
    p_ref.set_defaults(func=_cmd_reference)

    p_stats = sub.add_parser("stats", help="dataset R / Rbar / density report")
    p_stats.add_argument("--data", required=True, help="LIBSVM file (.gz ok)")
    p_stats.add_argument("--expected-dim", type=int, dest="expected_dim")
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ParseError, CertificationError, DivergenceError,
            OSError) as exc:  # OSError: a config or data path that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
