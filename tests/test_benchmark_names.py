"""The names the benchmark under ``perfbench/`` looks up in ``dapd``.

The benchmark reaches into the package by name (it wraps functions for
tracing and calls runners through module attributes), so removing or
renaming one of them, or trimming a parameter it passes, would break it
without failing any other test.  These tests read ``perfbench/`` and change
nothing there.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names perfbench/run.py reaches through local module aliases, which the
# ``dapd["module"].name`` scan below does not see
ALIASED_NAMES = (
    ("baselines", "BaselineConfig"),
    ("harness", "PERTURBATION_METHODS"),
    ("deterministic", "run_dapd"),
    ("stochastic", "run_sdapd"),
    ("sparse_engine", "run_sparse"),
    ("deterministic", "validate_schedule"),
)


# the argument shapes of the calls perfbench/run.py makes:
# (module, callable, positional argument count, keyword arguments)
CALL_SHAPES = (
    ("stochastic", "run_sdapd", 4, ("reference_value",)),
    ("sparse_engine", "run_sparse", 4, ("reference_value",)),
    ("stochastic", "perturb_problem", 4, ()),
    ("baselines", "BaselineConfig", 1, ("epochs", "seed")),
    ("baselines", "run_baseline", 2, ("reference_value",)),
    ("deterministic", "run_dapd", 3, ("reference_value",)),
    ("deterministic", "validate_schedule", 4, ("horizon",)),
    ("proxlib", "recover_primal", 5, ("coords",)),
    ("harness", "compute_reference", 2, ("method",)),
)


def _missing(pairs):
    return sorted(
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"dapd.{module}"), name)
    )


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(module, func) for module, funcs in tracing.TRACED_FUNCTIONS for func in funcs]
    assert pairs
    assert _missing(pairs) == []


def test_run_script_names_resolve():
    text = (PERFBENCH / "run.py").read_text()
    pairs = set(re.findall(r'dapd\["(\w+)"\]\.(\w+)', text)) | set(ALIASED_NAMES)
    assert all(name in text for _, name in ALIASED_NAMES)
    assert _missing(pairs) == []


@pytest.mark.parametrize(
    "module, name, positional, keywords", CALL_SHAPES,
    ids=[f"{module}.{name}" for module, name, _, _ in CALL_SHAPES],
)
def test_run_script_call_shapes_bind(module, name, positional, keywords):
    text = (PERFBENCH / "run.py").read_text()
    assert name in text and all(f"{k}=" in text for k in keywords)
    fn = getattr(importlib.import_module(f"dapd.{module}"), name)
    inspect.signature(fn).bind(*range(positional), **dict.fromkeys(keywords))
