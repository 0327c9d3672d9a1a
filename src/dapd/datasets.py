"""Data ingestion (LIBSVM text format) and synthetic problem generators.

Generators are pure functions of their arguments including the seed, so a
dataset is fully reproducible from its recipe.  Parsed and generated
datasets are immutable and shareable.
"""

from __future__ import annotations

import ctypes
import gzip
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigurationError, ParseError
from .matrix import MAX_COLS, SparseRowMatrix, build_matrix, matvec


@dataclass(frozen=True, eq=False)
class Dataset:
    """A matrix, one label per row, and ``meta``: ``"parser"`` for a parsed
    dataset (which reader ran) and ``"plant"`` for a sparse classification
    one (its planted hyperplane)."""

    matrix: SparseRowMatrix
    labels: np.ndarray
    meta: dict

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def dim(self) -> int:
        return self.matrix.n_cols


def parse_libsvm(source: str, expected_dim: int | None = None) -> Dataset:
    """Parse LIBSVM text: ``<label> <index>:<value> ...`` per line.

    Indices are 1-based, at most ``matrix.MAX_COLS`` (2**31 - 1, so the
    column indices fit int32) and strictly increasing within a line, and
    labels and values must be finite; the dimension is inferred as the
    maximum index unless ``expected_dim`` (also at most ``MAX_COLS``) is
    given, which also catches truncated files.  Blank lines are skipped.

    The compiled reader (``kernels.libsvm_parse``) takes the text when it
    can; any text outside its grammar goes to ``_parse_python``, which gives
    the same bits on the texts both accept and raises every ``ParseError``.
    ``meta["parser"]`` records which of the two ran.
    """
    _check_expected_dim(expected_dim)
    parsed = _parse_compiled(source.encode("ascii")) if source.isascii() else None
    if parsed is None:
        return _dataset(_parse_python(source), "python", expected_dim)
    return _dataset(parsed, "compiled", expected_dim)


def _dataset(parsed, parser: str, expected_dim) -> Dataset:
    """The dataset from ``parsed`` = (labels, offsets, cols, values,
    max_index), as the reader ``parser`` returned them."""
    labels, offsets, cols, values, max_index = parsed
    rows = labels.size
    dim = max_index
    if expected_dim is not None:
        if max_index > expected_dim:
            raise ParseError(
                f"feature index {max_index} exceeds the declared dimension {expected_dim}"
            )
        dim = expected_dim
    return Dataset(SparseRowMatrix(rows, dim, offsets, cols, values), labels, {"parser": parser})


def _check_expected_dim(expected_dim) -> None:
    if expected_dim is None:
        return
    if expected_dim < 1:
        raise ConfigurationError(f"expected_dim must be at least 1, not {expected_dim!r}")
    if expected_dim > MAX_COLS:
        raise ConfigurationError(
            f"expected_dim {expected_dim} does not fit in int32 (at most {MAX_COLS})"
        )


def _parse_compiled(data: bytes):
    """(labels, offsets, cols, values, max_index) from the compiled reader,
    or None when there is no compiled reader, the text is outside its
    grammar (non-ASCII bytes included), or it holds no sample (the Python
    body raises for that)."""
    lib = kernels.library()
    if lib is None:
        return None
    counts = np.empty(2, dtype=np.int64)
    lib.libsvm_count(data, len(data), counts.ctypes.data)
    lines = int(counts[0]) + (not data.endswith(b"\n"))
    nnz = int(counts[1])  # in the grammar, every ':' ends an index
    labels = np.empty(lines)
    offsets = np.empty(lines + 1, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int32)
    values = np.empty(nnz)
    max_index = ctypes.c_int64()
    rows = lib.libsvm_parse(data, len(data), labels.ctypes.data, offsets.ctypes.data,
                            cols.ctypes.data, values.ctypes.data, ctypes.byref(max_index))
    if rows <= 0:
        return None
    if rows < lines:  # blank lines: keep exact-size arrays, not views
        labels, offsets = labels[:rows].copy(), offsets[:rows + 1].copy()
    return labels, offsets, cols, values, max_index.value


def _parse_python(source: str):
    """The reference body of ``parse_libsvm``, and the only one that raises.

    Lines arrive in row order with increasing indices, so they are appended
    straight into CSR arrays: int32 column indices, int64 offsets.
    """
    labels = array("d")
    offsets = array("q", [0])
    col_indices = array("i")
    values = array("d")
    max_index = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"non-numeric label {tokens[0]!r}", line=lineno) from None
        if not math.isfinite(label):
            raise ParseError(f"non-finite label {tokens[0]!r}", line=lineno)
        labels.append(label)
        prev_index = 0
        for tok in tokens[1:]:
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}", line=lineno) from None
            if idx <= 0:
                raise ParseError(f"nonpositive feature index {idx}", line=lineno)
            if idx > MAX_COLS:
                raise ParseError(f"feature index {idx} does not fit in int32", line=lineno)
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {tok!r}", line=lineno)
            if idx <= prev_index:
                raise ParseError(
                    f"feature index {idx} not increasing after {prev_index}", line=lineno
                )
            prev_index = idx
            col_indices.append(idx - 1)
            values.append(val)
        max_index = max(max_index, prev_index)
        offsets.append(len(values))
    if not labels:
        raise ParseError("empty dataset: no samples found")
    return (np.array(labels), np.array(offsets), np.array(col_indices), np.array(values),
            max_index)


def load_libsvm(path, expected_dim: int | None = None) -> Dataset:
    """Read a UTF-8 LIBSVM file, transparently decompressing ``.gz``.

    The compiled reader takes the file's bytes as they are; they are
    decoded only for the Python body, as ``parse_libsvm`` would parse them.
    """
    _check_expected_dim(expected_dim)
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_compiled(data)
    if parsed is not None:
        return _dataset(parsed, "compiled", expected_dim)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        # the line numbering of the Python body (str.splitlines)
        line = len((data[:exc.start].decode() + "x").splitlines())
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x}", line=line) from None
    del data  # the text alone while parsing
    return _dataset(_parse_python(text), "python", expected_dim)


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of parse_libsvm (17-significant-digit values)."""
    out = []
    for i in range(dataset.n):
        cols, vals = dataset.matrix.row(i)
        parts = [f"{dataset.labels[i]:.17g}"]
        parts.extend(f"{c + 1}:{v:.17g}" for c, v in zip(cols, vals))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def synth_ridge(n: int, d: int, cov="identity", noise_sigma: float = 0.1, seed: int = 0):
    """Linear-model data: rows a_i ~ N(0, Sigma), b_i = <x_true, a_i> + eps_i.

    ``cov`` is "identity" or ("ar1", r) for the AR(1) covariance with unit
    marginal variance and correlation r between adjacent features (stresses
    conditioning).  Returns (dataset, x_true).
    """
    if n < 1 or d < 1:
        raise ConfigurationError("n and d must be at least 1")
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(d)
    # the same stream as standard_normal((n, d)), row-major
    values = rng.standard_normal(n * d)
    if cov != "identity":
        kind, r = cov
        if kind != "ar1" or not 0 <= r < 1:
            raise ConfigurationError(f"unknown covariance spec {cov!r}")
        # in place, left to right: column j still holds its draw when read
        rows = values.reshape(n, d)
        scale = np.sqrt(1.0 - r * r)
        for j in range(1, d):
            rows[:, j] = r * rows[:, j - 1] + scale * rows[:, j]
    noise = noise_sigma * rng.standard_normal(n)
    # every entry stored, in row-major order: the arrays build_matrix makes
    # from the n*d triplets (i, j, rows[i, j]), without building them; the
    # matrix takes ``values`` over without a copy
    matrix = SparseRowMatrix(
        n,
        d,
        np.arange(n + 1, dtype=np.int64) * d,
        np.tile(np.arange(d, dtype=np.int32), n),
        values,
    )
    # evaluate the model through the same kernel solvers use, so the
    # zero-noise residual is exactly zero
    b = matvec(matrix, x_true) + noise
    return Dataset(matrix, b, {}), x_true


def synth_sparse_classification(n: int, d: int, density: float, seed: int = 0) -> Dataset:
    """Sparse rows with ~density*d nonzeros and labels from a planted sparse
    hyperplane, separable by construction (rows with tiny margin are
    redrawn)."""
    if not 0 < density <= 1:
        raise ConfigurationError("density must be in (0, 1]")
    if density * d < 1:
        raise ConfigurationError("density*d must be at least 1")
    rng = np.random.default_rng(seed)
    k = max(1, int(round(density * d)))
    plant_nnz = max(1, d // 20)
    plant = np.zeros(d)
    plant_support = rng.choice(d, size=plant_nnz, replace=False)
    plant[plant_support] = rng.standard_normal(plant_nnz)
    triplets = []
    labels = np.empty(n)
    margin_floor = 1e-3
    for i in range(n):
        while True:
            cols = np.sort(rng.choice(d, size=k, replace=False))
            vals = rng.standard_normal(k)
            margin = float(plant[cols] @ vals)
            if abs(margin) >= margin_floor:
                break
        labels[i] = 1.0 if margin > 0 else -1.0
        triplets.extend((i, int(c), float(v)) for c, v in zip(cols, vals))
    plant.setflags(write=False)
    return Dataset(build_matrix(triplets, n, d), labels, {"plant": plant})
