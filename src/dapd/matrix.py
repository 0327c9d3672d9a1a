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
# Lanczos steps between two looks at the top Ritz pair
LANCZOS_CHECK = 8


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

    ``spectral_norm_converged`` records whether the Lanczos run behind
    ``spectral_norm`` met its stopping rule; schedule builders shrink step
    sizes when it did not.  ``spectral_norm_products`` is the number of Gram
    products that run used (each is one product with A and one with A.T).
    """

    spectral_norm: float
    max_row_norm: float
    density: float
    spectral_norm_converged: bool = True
    spectral_norm_products: int = 0


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


class SpectralEstimate(tuple):
    """What ``power_iteration`` returns: the pair ``(estimate, converged)``,
    which unpacks as before, and ``products``, the Gram products it used."""

    def __new__(cls, estimate: float, converged: bool, products: int):
        self = super().__new__(cls, (estimate, converged))
        self.products = products
        return self


def power_iteration(A: SparseRowMatrix, rel_tol: float = 1e-13, max_iter: int = 1000):
    """Largest singular value of A by the Lanczos process on its Gram matrix.

    The name is kept from the power iteration this replaced, because callers
    and the benchmark's tracing find the spectral-norm estimate by it.  The
    process runs on A.T @ A when A has no more columns than rows and on
    A @ A.T otherwise, from a fixed-seed random start, with the three-term
    recurrence alone: no basis is stored, so memory is O(min(n, d)).
    Without reorthogonalization the extreme Ritz values stay accurate
    (Paige, 1980).

    Every ``LANCZOS_CHECK`` steps the top Ritz value theta of the
    tridiagonal matrix and its residual r = beta_k |s_k| are taken; the run
    stops once r <= rel_tol * theta.  Some eigenvalue of the Gram matrix lies
    within r of theta (up to rounding), so the returned sqrt(theta + r)
    bounds it from above.
    ``max_iter`` caps the Gram products (each look solves a dense k x k
    eigenproblem, so the cap is 1000, not the old 5000); when they run out
    first the last estimate is returned with ``converged=False``.  The
    result unpacks as ``(estimate, converged)`` and carries the product
    count in ``products``.
    """
    if rel_tol <= 0:
        raise StructuralError("rel_tol must be positive")
    if A.nnz == 0:
        return SpectralEstimate(0.0, True, 0)
    wide = A.n_cols > A.n_rows
    dim = A.n_rows if wide else A.n_cols
    rng = np.random.default_rng(POWER_ITERATION_SEED)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    q_prev = np.zeros(dim)
    alphas, betas = [], []
    beta = 0.0
    theta = r = 0.0
    for k in range(1, max_iter + 1):
        if wide:
            w = matvec(A, matvec(A, q, transpose=True))
        else:
            w = matvec(A, matvec(A, q), transpose=True)
        w -= beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        # look also where the Krylov space is exhausted: at k == dim, or
        # earlier where beta is (near) zero; T's top eigenvalue is at least
        # max(alphas), so such a beta meets the rule before it is divided by
        if (k % LANCZOS_CHECK == 0 or k in (dim, max_iter)
                or beta <= rel_tol * max(alphas)):
            theta, r = _top_ritz(alphas, betas)
            if r <= rel_tol * theta:
                return SpectralEstimate(float(np.sqrt(theta + r)), True, k)
        q_prev, q = q, w / beta
    return SpectralEstimate(float(np.sqrt(max(theta + r, 0.0))), False, max_iter)


def _top_ritz(alphas: list, betas: list):
    """Top eigenvalue theta of the Lanczos tridiagonal matrix and the
    residual beta_k |s_k| of its Ritz vector."""
    T = np.diag(alphas)
    off = np.arange(len(alphas) - 1)
    T[off, off + 1] = T[off + 1, off] = betas[:-1]
    values, vectors = np.linalg.eigh(T)
    return float(values[-1]), betas[-1] * abs(float(vectors[-1, -1]))


def stats(A: SparseRowMatrix) -> MatrixStats:
    """Spectral norm, max row norm, and density of A.

    The spectral norm is ``power_iteration``'s Lanczos estimate, which
    bounds the top singular value from above once it has converged.  It is
    clamped from below by the exact max row and column norms (both are true
    lower bounds of the operator norm, computed in O(nnz)), so max_row_norm
    <= spectral_norm holds by construction, converged or not.
    """
    estimate = power_iteration(A)
    value, converged = estimate
    squares = A.values**2
    row_sq = np.bincount(A.row_ids, weights=squares, minlength=A.n_rows)
    col_sq = np.bincount(A.col_indices, weights=squares, minlength=A.n_cols)
    max_row = float(np.sqrt(row_sq.max())) if A.n_rows else 0.0
    max_col = float(np.sqrt(col_sq.max())) if A.n_cols else 0.0
    dens = A.nnz / (A.n_rows * A.n_cols) if A.n_rows and A.n_cols else 0.0
    return MatrixStats(
        spectral_norm=max(value, max_row, max_col),
        max_row_norm=max_row,
        density=dens,
        spectral_norm_converged=converged,
        spectral_norm_products=estimate.products,
    )
