"""Row-compressed sparse matrix storage and the linear-algebra kernels.

All values are double precision.  Matrices are immutable after construction
and safe to share across concurrent solver runs; the kernels are
single-threaded and deterministic.  ``matvec`` costs O(nnz).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import StructuralError

POWER_ITERATION_SEED = 20


@dataclass(frozen=True, eq=False)
class SparseRowMatrix:
    """CSR layout: row i owns ``values[row_offsets[i]:row_offsets[i+1]]``.

    Within each row column indices are strictly increasing.  Stored zeros
    are permitted and do not change any operation's result.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    row_ids: np.ndarray = field(init=False, repr=False)
    _pointers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # the compiled kernels index without bounds checks; these invariants,
        # checked once here, are what makes that safe
        if self.n_rows < 0 or self.n_cols < 0:
            raise StructuralError("matrix dimensions must be nonnegative")
        offsets = _owned(self.row_offsets, np.int64, "row_offsets")
        cols = _owned(self.col_indices, np.int64, "col_indices")
        values = _owned(self.values, np.float64, "values")
        nnz = values.size
        if values.ndim != 1 or cols.shape != values.shape:
            raise StructuralError(
                f"col_indices {cols.shape} and values {values.shape} must be 1-D and of "
                "equal length"
            )
        if (
            offsets.shape != (self.n_rows + 1,)
            or offsets[0] != 0
            or offsets[-1] != nnz
            or (np.diff(offsets) < 0).any()
        ):
            raise StructuralError(
                f"row_offsets must have {self.n_rows + 1} entries, start at 0, never "
                f"decrease and end at nnz={nnz}"
            )
        if nnz and (cols.min() < 0 or cols.max() >= self.n_cols):
            bad = cols[(cols < 0) | (cols >= self.n_cols)][0]
            raise StructuralError(f"column index {bad} out of range for {self.n_cols} columns")
        if nnz > 1:
            # compare views, not a diff, so no nnz-sized int64 temporary;
            # pairs that straddle a row boundary are masked
            increasing = cols[1:] > cols[:-1]
            starts = offsets[1:-1]
            increasing[starts[(starts > 0) & (starts < nnz)] - 1] = True
            if not increasing.all():
                k = int(np.argmin(increasing))
                row = int(np.searchsorted(offsets, k + 1, side="right")) - 1
                raise StructuralError(
                    f"column indices must strictly increase within a row: row {row} has "
                    f"column {cols[k + 1]} after {cols[k]}"
                )
        row_ids = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(offsets))
        for name, arr in (("row_offsets", offsets), ("col_indices", cols), ("values", values),
                          ("row_ids", row_ids)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # raw addresses for the kernels; the arrays are frozen and owned
        object.__setattr__(
            self, "_pointers", (offsets.ctypes.data, cols.ctypes.data, values.ctypes.data)
        )

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def row(self, i: int):
        """Column indices and values of row i (views, not copies)."""
        if not 0 <= i < self.n_rows:
            raise StructuralError(f"row index {i} out of range for {self.n_rows} rows")
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every row."""
        sq = np.bincount(self.row_ids, weights=self.values**2, minlength=self.n_rows)
        return np.sqrt(sq)

    def to_dense(self) -> np.ndarray:
        """Dense copy; verification oracle only, never on the solver path."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_ids, self.col_indices] = self.values
        return out


def _owned(arr, dtype, name: str) -> np.ndarray:
    """``arr`` as a C-contiguous array of ``dtype`` that owns its data,
    copied unless it already is one."""
    arr = np.asarray(arr)
    if dtype is np.int64 and arr.size and arr.dtype.kind not in "iu":
        raise StructuralError(f"{name} must hold integers, not {arr.dtype}")
    if arr.dtype != dtype or not arr.flags.c_contiguous or not arr.flags.owndata:
        arr = np.array(arr, dtype=dtype, order="C")
    return arr


@dataclass(frozen=True)
class MatrixStats:
    """Operator norm, max row norm, and nonzero proportion of a matrix.

    ``spectral_norm_converged`` records whether power iteration met its
    tolerance; schedule builders shrink step sizes when it did not.
    """

    spectral_norm: float
    max_row_norm: float
    density: float
    spectral_norm_converged: bool = True


def build_matrix(triplets, n_rows: int, n_cols: int) -> SparseRowMatrix:
    """Build a SparseRowMatrix from (row, col, value) triplets.

    Duplicate (row, col) pairs are rejected rather than summed: duplicates
    in the ingestion formats we accept signal corrupt data.
    """
    if n_rows < 0 or n_cols < 0:
        raise StructuralError("matrix dimensions must be nonnegative")
    triplets = list(triplets)
    if not triplets:
        return SparseRowMatrix(
            n_rows,
            n_cols,
            np.zeros(n_rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
    rows = np.array([t[0] for t in triplets], dtype=np.int64)
    cols = np.array([t[1] for t in triplets], dtype=np.int64)
    vals = np.array([t[2] for t in triplets], dtype=np.float64)
    if rows.min() < 0 or rows.max() >= n_rows:
        bad = rows[(rows < 0) | (rows >= n_rows)][0]
        raise StructuralError(f"row index {bad} out of range for {n_rows} rows")
    # columns are range-checked, and duplicates refused, by SparseRowMatrix
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(offsets, rows + 1, 1)
    np.cumsum(offsets, out=offsets)
    return SparseRowMatrix(n_rows, n_cols, offsets, cols, vals)


def backend() -> str:
    """"compiled" when ``matvec`` runs the C kernels of ``kernels.c``, "numpy"
    when they could not be built or loaded in this process."""
    return "numpy" if kernels.library() is None else "compiled"


def matvec(A: SparseRowMatrix, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Sparse product A @ v, or A.T @ v when ``transpose``.

    Runs the compiled kernels when they are available (see ``backend``) and
    ``matvec_numpy`` otherwise; both return the same bits.
    """
    v = np.asarray(v, dtype=np.float64)
    expect = A.n_rows if transpose else A.n_cols
    if v.shape != (expect,):
        raise StructuralError(
            f"vector of length {v.shape} incompatible with "
            f"{'transposed ' if transpose else ''}{A.n_rows}x{A.n_cols} matrix"
        )
    lib = kernels.library()
    if lib is None:
        return matvec_numpy(A, v, transpose)
    v = np.ascontiguousarray(v)
    offsets, cols, values = A._pointers
    if transpose:
        out = np.empty(A.n_cols)
        lib.csr_rmatvec(A.n_rows, A.n_cols, offsets, cols, values, v.ctypes.data,
                        out.ctypes.data)
    else:
        out = np.empty(A.n_rows)
        lib.csr_matvec(A.n_rows, offsets, cols, values, v.ctypes.data, out.ctypes.data)
    return out


def matvec_numpy(A: SparseRowMatrix, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``matvec`` in numpy alone: the fallback and the kernels' test oracle.

    ``np.bincount`` adds the products into each output entry one at a time,
    in storage order, starting from +0.0; the kernels keep that order.
    ``v`` must already have the right shape.
    """
    if transpose:
        prod = A.values * v[A.row_ids]
        return np.bincount(A.col_indices, weights=prod, minlength=A.n_cols)
    prod = A.values * v[A.col_indices]
    return np.bincount(A.row_ids, weights=prod, minlength=A.n_rows)


def power_iteration(A: SparseRowMatrix, rel_tol: float = 1e-9, max_iter: int = 5000):
    """Largest singular value via power iteration on A.T @ A.

    Starts from a fixed-seed random vector; returns ``(estimate, converged)``.
    The estimate is sqrt(||A.T A v||) for the final unit v, which upper-bounds
    the plain Rayleigh quotient.  On non-convergence the best estimate is
    still returned with ``converged=False``.
    """
    if rel_tol <= 0:
        raise StructuralError("rel_tol must be positive")
    if A.nnz == 0:
        return 0.0, True
    rng = np.random.default_rng(POWER_ITERATION_SEED)
    v = rng.standard_normal(A.n_cols)
    v /= np.linalg.norm(v)
    sigma_prev = np.inf
    sigma = 0.0
    for _ in range(max_iter):
        w = matvec(A, matvec(A, v), transpose=True)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        sigma = float(np.sqrt(nw))
        if abs(sigma - sigma_prev) <= rel_tol * sigma:
            return sigma, True
        v = w / nw
        sigma_prev = sigma
    return sigma, False


def stats(A: SparseRowMatrix) -> MatrixStats:
    """Spectral norm, max row norm, and density of A.

    The spectral estimate is clamped from below by the exact max row and
    column norms (both are true lower bounds of the operator norm, computed
    in O(nnz)), so max_row_norm <= spectral_norm holds by construction and a
    stalled power iteration can never understate the norm past them.
    """
    value, converged = power_iteration(A)
    max_row = float(A.row_norms().max()) if A.n_rows else 0.0
    if A.nnz:
        col_sq = np.bincount(A.col_indices, weights=A.values**2, minlength=A.n_cols)
        max_col = float(np.sqrt(col_sq.max()))
    else:
        max_col = 0.0
    dens = A.nnz / (A.n_rows * A.n_cols) if A.n_rows and A.n_cols else 0.0
    return MatrixStats(
        spectral_norm=max(value, max_row, max_col),
        max_row_norm=max_row,
        density=dens,
        spectral_norm_converged=converged,
    )
