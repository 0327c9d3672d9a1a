"""Golden traces: the committed files under ``tests/golden/`` against a
fresh run of the same cases (``make_golden.py``).

On the machine the files were written on (same numpy, BLAS, SIMD features
and matvec backend, as recorded in ``environment.json``) the files must be
byte-identical.  Every matvec and row dot product is summed in storage
order by the package itself, but three computations still leave their
last bits to the BLAS build and the CPU: Lanczos's ``q @ w`` in
``matrix.power_iteration`` (and through R every step size), the
``np.linalg.solve`` of the direct reference, and numpy's SIMD dispatch of
exp/log.  So ``environment.json`` records the BLAS, and elsewhere the
comparison is tolerant instead: relative 1e-9 on values, exact on
``epoch``, ``touches`` and every non-numeric manifest value.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import make_golden
from dapd import kernels
from dapd.traces import read_trace

GOLDEN = make_golden.GOLDEN_DIR
REL_TOL = 1e-9
ABS_TOL = 1e-300  # values that are zero must stay zero (to underflow)
# the manifest key that names the matvec backend; environment.json holds it
BACKEND_KEY = "matrix.backend"
SRC = Path(kernels.__file__).resolve().parents[1]
RUN_TIMEOUT_S = 300


def _files(root):
    return sorted(
        p.relative_to(root) for p in root.rglob("*")
        if p.is_file() and p.name != make_golden.ENVIRONMENT_FILE
    )


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _manifest(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if line.strip())


def _mismatch_exact(expected, actual):
    want, got = expected.read_text().splitlines(), actual.read_text().splitlines()
    for lineno, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            return f"line {lineno}: {a!r} != {b!r}"
    return None if len(want) == len(got) else f"{len(want)} lines != {len(got)}"


def _mismatch_tolerant(expected, actual):
    if expected.suffix == ".csv":
        want, got = read_trace(expected), read_trace(actual)
        if len(want) != len(got):
            return f"{len(want)} records != {len(got)}"
        for a, b in zip(want, got):
            if (a.epoch, a.touches) != (b.epoch, b.touches):
                return f"epoch/touches {a.epoch}/{a.touches} != {b.epoch}/{b.touches}"
            for field in ("primal_value", "suboptimality", "nnz_fraction", "elapsed_seconds"):
                if not _close(getattr(a, field), getattr(b, field)):
                    return f"epoch {a.epoch} {field}: {getattr(a, field)!r} != {getattr(b, field)!r}"
        return None
    want, got = _manifest(expected), _manifest(actual)
    want.pop(BACKEND_KEY, None)
    got.pop(BACKEND_KEY, None)
    if want.keys() != got.keys():
        return f"keys differ: {sorted(want.keys() ^ got.keys())}"
    for key, a in want.items():
        b = got[key]
        try:
            same = _close(float(a), float(b))
        except ValueError:
            same = a == b
        if not same:
            return f"{key}: {a!r} != {b!r}"
    return None


def mismatch(expected, actual, exact: bool):
    """None when ``actual`` matches ``expected``, else what differs first."""
    return (_mismatch_exact if exact else _mismatch_tolerant)(expected, actual)


def _without_backend(text: str) -> str:
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith(BACKEND_KEY))


def _recorded_environment_matches() -> bool:
    recorded = json.loads((GOLDEN / make_golden.ENVIRONMENT_FILE).read_text())
    return recorded == make_golden.environment()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    make_golden.write_all(out)
    return out


def test_same_files(fresh):
    assert _files(GOLDEN), "tests/golden is empty; run tests/make_golden.py"
    assert _files(fresh) == _files(GOLDEN)


@pytest.mark.parametrize("case", list(make_golden.CASES))
def test_case_matches_golden(fresh, case):
    exact = _recorded_environment_matches()
    for rel in _files(GOLDEN / case):
        problem = mismatch(GOLDEN / case / rel, fresh / case / rel, exact)
        assert problem is None, f"{case}/{rel} ({'bytes' if exact else 'tolerant'}): {problem}"


def test_tolerant_comparison(fresh, tmp_path):
    """The comparison used on another machine: the golden files pass it,
    and a change beyond its tolerance, or of a count, fails it."""
    for rel in _files(GOLDEN):
        assert mismatch(GOLDEN / rel, fresh / rel, exact=False) is None, rel

    trace = GOLDEN / "l1" / "dapd.csv"
    header, first, *rest = trace.read_text().splitlines()
    epoch, primal, subopt, nnz, touches, elapsed = first.split(",")

    def variant(**changes):
        fields = {"epoch": epoch, "primal": primal, "subopt": subopt, "nnz": nnz,
                  "touches": touches, "elapsed": elapsed, **changes}
        path = tmp_path / "variant.csv"
        path.write_text("\n".join([header, ",".join(fields.values()), *rest]) + "\n")
        return mismatch(trace, path, exact=False)

    assert variant(primal=repr(float(primal) * (1 + 1e-12))) is None
    assert variant(primal=repr(float(primal) * (1 + 1e-7))) is not None
    assert variant(touches=str(int(touches) + 1)) is not None
    assert variant(epoch=str(int(epoch) + 1)) is not None

    manifest = GOLDEN / "l1" / "manifest.txt"
    changed = tmp_path / "manifest.txt"
    changed.write_text(manifest.read_text().replace("regime=", "regime=x", 1))
    assert mismatch(manifest, changed, exact=False) is not None


def test_numpy_matvec_gives_the_same_bytes(fresh, tmp_path, monkeypatch):
    """Hiding the compiled kernels forces both numpy bodies, ``matvec_numpy``
    and the lazy engine's ``_iterate_numpy``; that changes no byte of any
    file, apart from the manifest line that names the matvec backend."""
    monkeypatch.setattr(kernels, "library", lambda: None)
    make_golden.write_all(tmp_path)
    for rel in _files(fresh):
        want, got = (fresh / rel).read_text(), (tmp_path / rel).read_text()
        if rel.name == "manifest.txt":
            want, got = _without_backend(want), _without_backend(got)
        assert want == got, rel


def test_numpy_only_machine(tmp_path):
    """``dapd run`` on the ``readme`` case's config, with no C compiler on
    PATH and an empty kernel cache, runs on numpy alone: the manifest names
    the numpy backend, and every file matches the golden ones apart from
    that line."""
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(make_golden.experiment_config(*make_golden.README_CASE)))
    for name in ("bin", "cache"):
        (tmp_path / name).mkdir()
    env = {**os.environ, "PATH": str(tmp_path / "bin"),
           "XDG_CACHE_HOME": str(tmp_path / "cache"), "PYTHONPATH": str(SRC)}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "dapd.cli", "run", "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    golden = GOLDEN / "readme"
    assert _files(out) == _files(golden)
    manifest = (out / "manifest.txt").read_text()
    assert f"{BACKEND_KEY}=numpy\n" in manifest.splitlines(True)
    (out / "manifest.txt").write_text(_without_backend(manifest))
    want = tmp_path / "golden_manifest.txt"
    want.write_text(_without_backend((golden / "manifest.txt").read_text()))
    exact = _recorded_environment_matches()
    for rel in _files(golden):
        expected = want if rel.name == "manifest.txt" else golden / rel
        assert mismatch(expected, out / rel, exact) is None, rel
