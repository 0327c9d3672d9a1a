"""The benchmark's output contract: ``perfbench/run.py`` ends its stdout with
one JSON result line, and that line is strict JSON.

A run is reported as malformed when anything reaches stdout after the
result line (C stdio buffers flush at exit, after Python's) or when the line
holds ``NaN`` or ``Infinity``, which ``json.dumps`` writes and JSON does not
allow.  The run here is the smallest workload, on a copy of ``perfbench/``,
``BENCHMARK.json`` and ``src/`` so that the checkout's ``perfbench/.out`` is
not touched.  It reads ``perfbench/`` and changes nothing there.

Both modes are run: ``--trace 0`` must report every end-to-end metric of
``BENCHMARK.json``, ``--trace 1`` every per-layer metric, each one finite.
A per-layer metric is the median of the spans of a function, so it turns
NaN when the program stops calling that function.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600


def _refuse(constant):
    raise ValueError(f"{constant} is not valid JSON")


def _check_run(tmp_path, trace: int, metrics: str) -> None:
    """Run the workload with ``--trace trace``; its result line must be strict
    JSON with ``correct: true`` and every ``metrics`` entry of BENCHMARK.json
    present and finite."""
    ignore = shutil.ignore_patterns(".out", ".cache", "__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme_ridge", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines, "no output on stdout"
    result = json.loads(lines[-1], parse_constant=_refuse)
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec[metrics]:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]


def test_run_ends_with_a_strict_json_result(tmp_path):
    _check_run(tmp_path, 0, "end_to_end")


def test_traced_run_reports_every_layer_metric(tmp_path):
    _check_run(tmp_path, 1, "per_layer")
