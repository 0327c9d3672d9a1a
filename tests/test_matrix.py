import ctypes
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dapd import kernels, matrix
from dapd.datasets import synth_ridge
from dapd.errors import StructuralError
from dapd.matrix import (
    SparseRowMatrix,
    backend,
    build_matrix,
    matvec,
    matvec_numpy,
    ordered_dot,
    power_iteration,
    stats,
)

from oracles import assert_spectral_bound, clustered_matrix, row_dot, skip_unless_compiled


def random_matrix(rng, n_rows, n_cols, density=0.6):
    mask = rng.random((n_rows, n_cols)) < density
    triplets = [
        (i, j, rng.normal()) for i in range(n_rows) for j in range(n_cols) if mask[i, j]
    ]
    return build_matrix(triplets, n_rows, n_cols)


@st.composite
def sparse_matrices(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    positions = draw(
        st.sets(
            st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
            max_size=n_rows * n_cols,
        )
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=len(positions),
            max_size=len(positions),
        )
    )
    triplets = [(r, c, v) for (r, c), v in zip(sorted(positions), values)]
    return build_matrix(triplets, n_rows, n_cols), n_rows, n_cols


# finite values of every size, subnormals and both zeros included
FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def csr_matrices(draw):
    """Matrices with empty rows and columns, nnz == 0 and stored zeros."""
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7))
    cells = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    stored = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    values = draw(st.lists(st.one_of(FLOATS, st.just(0.0), st.just(-0.0)),
                           min_size=len(cells), max_size=len(cells)))
    triplets = [(i, j, val) for (i, j), keep, val in zip(cells, stored, values) if keep]
    return build_matrix(triplets, n_rows, n_cols)


@st.composite
def vectors(draw, length):
    """A float64 vector, a strided view of one, or an integer vector."""
    kind = draw(st.sampled_from(["contiguous", "strided", "integer"]))
    if kind == "integer":
        return np.array(draw(st.lists(st.integers(-1000, 1000), min_size=length,
                                      max_size=length)), dtype=np.int64)
    values = np.array(draw(st.lists(FLOATS, min_size=2 * length, max_size=2 * length)))
    return values[::2] if kind == "strided" else values[:length].copy()


@pytest.fixture
def fresh_backend(monkeypatch, tmp_path):
    """The backend is decided again in the test, with an empty kernel cache
    under tmp_path, and again after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    kernels.library.cache_clear()
    yield tmp_path / "cache" / "dapd"
    kernels.library.cache_clear()


class TestCompiledKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_numpy(self, compiled, data):
        A = data.draw(csr_matrices())
        for transpose, length in ((False, A.n_cols), (True, A.n_rows)):
            v = data.draw(vectors(length))
            expected = matvec_numpy(A, np.asarray(v, dtype=np.float64), transpose)
            # raw bytes, so that -0.0 and +0.0 differ
            assert matvec(A, v, transpose).tobytes() == expected.tobytes()
        # each row's dot product, summed as the row kernels sum it, gives
        # the bits of that row's matvec entry
        x = np.asarray(data.draw(vectors(A.n_cols)), dtype=np.float64)
        rows = [ordered_dot(vals, x[cols]) for cols, vals in map(A.row, range(A.n_rows))]
        assert np.array(rows, dtype=np.float64).tobytes() == matvec(A, x).tobytes()

    def test_cold_build_into_private_cache(self, fresh_backend):
        skip_unless_compiled()
        assert backend() == "compiled"
        names = [p.name for p in fresh_backend.iterdir()]
        assert names == [kernels._library_name(kernels._find_compiler(), kernels.FLAGS)]
        assert stat.S_IMODE(fresh_backend.stat().st_mode) == 0o700

    def test_stale_libraries_removed(self, fresh_backend, monkeypatch):
        compiler = kernels._find_compiler()
        if compiler is None:
            pytest.skip("no C compiler")
        fresh_backend.mkdir(mode=0o700, parents=True)
        stale = ["kernels-0123456789abcdef0123.so", "kernels-old.so"]
        others = ["notes.txt", ".build-x1y2.so", "kernels-old.so.bak", "libother.so"]
        for name in stale + others:
            (fresh_backend / name).write_text("")

        def refuse(*args, **kwargs):
            raise OSError("cannot load")

        # a load that fails deletes nothing
        with monkeypatch.context() as mp:
            mp.setattr(ctypes, "CDLL", refuse)
            assert backend() == "numpy"
        loaded = kernels._library_name(compiler, kernels.FLAGS)
        assert sorted(p.name for p in fresh_backend.iterdir()) == sorted(
            stale + others + [loaded])
        kernels.library.cache_clear()
        assert backend() == "compiled"
        assert sorted(p.name for p in fresh_backend.iterdir()) == sorted(others + [loaded])

    def test_compiler_that_rejects_loop_alignment(self, fresh_backend, tmp_path, monkeypatch):
        real = kernels._find_compiler()
        if real is None:
            pytest.skip("no C compiler")
        wrapper = tmp_path / "cc"
        wrapper.write_text(f'#!/bin/sh\nfor a in "$@"; do [ "$a" = {kernels.ALIGN_LOOPS} ] '
                           f'&& exit 1; done\nexec {real} "$@"\n')
        wrapper.chmod(0o755)
        monkeypatch.setattr(kernels, "_find_compiler", lambda: str(wrapper))
        assert backend() == "compiled"
        plain = tuple(flag for flag in kernels.FLAGS if flag != kernels.ALIGN_LOOPS)
        names = [p.name for p in fresh_backend.iterdir()]
        assert names == [kernels._library_name(str(wrapper), plain)]
        # the next process loads that library without building again
        kernels.library.cache_clear()
        monkeypatch.setattr(kernels, "_build", None)
        assert backend() == "compiled"

    @pytest.mark.parametrize(
        "failure", ["no_compiler", "compile_error", "unwritable_cache", "shared_cache", "load_error"]
    )
    def test_numpy_fallback(self, fresh_backend, monkeypatch, failure):
        rng = np.random.default_rng(5)
        A = build_matrix([(i, j, rng.normal()) for i in range(6) for j in range(4)
                          if (i * j) % 3], 6, 4)
        v, w = rng.normal(size=4), rng.normal(size=6)
        expected = [matvec(A, v).tobytes(), matvec(A, w, transpose=True).tobytes()]
        kernels.library.cache_clear()
        if failure == "no_compiler":
            monkeypatch.setenv("PATH", str(fresh_backend.parent.parent))
        elif failure == "compile_error":
            monkeypatch.setattr(kernels, "FLAGS", kernels.FLAGS + ("-no-such-flag",))
        elif failure == "unwritable_cache":
            blocker = fresh_backend.parent.parent / "file"
            blocker.write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        elif failure == "shared_cache":
            fresh_backend.mkdir(parents=True, exist_ok=True)
            os.chmod(fresh_backend, 0o777)
        else:
            def refuse(*args, **kwargs):
                raise OSError("cannot load")
            monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert backend() == "numpy"
        assert [matvec(A, v).tobytes(), matvec(A, w, transpose=True).tobytes()] == expected
        if failure == "compile_error":
            # the failed build leaves no temporary file behind
            assert not list(fresh_backend.glob(".build-*"))


INF, NAN = float("inf"), float("nan")
# factors of every size, both zeros, both infinities and NaN
FACTORS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, INF, -INF, NAN]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FACTORS, FACTORS), max_size=12))
@example([])
@example([(3.0, -0.5)])
@example([(-0.0, 1.0), (0.0, -2.0), (-1.0, 0.0)])
@example([(1.0, INF), (-1.0, INF), (2.0, 3.0)])
@example([(1e308, 10.0), (1e308, -10.0)])
@example([(NAN, 1.0), (1.0, 2.0)])
def test_ordered_dot_is_a_left_to_right_sum(pairs):
    """``ordered_dot`` gives the bits of s = 0.0; s += a * b over the row in
    order: -0.0 products sum to +0.0, and an overflow or inf - inf is NaN
    (any NaN: the hardware may pick either operand's payload)."""
    total = 0.0
    for a, b in pairs:
        total += a * b
    values = np.array([a for a, _ in pairs], dtype=np.float64)
    w = np.array([b for _, b in pairs], dtype=np.float64)
    got = ordered_dot(values, w)
    assert type(got) is float
    if np.isnan(total):
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(total).tobytes()


class TestConstruction:
    def parts(self):
        # 2 x 3: row 0 holds columns 0 and 2, row 1 column 1
        return [np.array([0, 2, 3]), np.array([0, 2, 1]), np.array([1.0, 2.0, 3.0])]

    @pytest.mark.parametrize(
        "index, bad",
        [
            (1, np.array([0, 3, 1])),  # column out of range
            (1, np.array([0, -1, 1])),  # negative column
            (1, np.array([0.0, 2.0, 1.0])),  # columns not integers
            (0, np.array([1, 2, 3])),  # offsets do not start at 0
            (0, np.array([0, 2, 2])),  # offsets do not end at nnz
            (0, np.array([0, 3, 2, 3])),  # wrong length
            (0, np.array([0, 4, 3])),  # offsets decrease
            (2, np.array([1.0, 2.0])),  # values shorter than columns
            (1, np.array([2, 2, 1])),  # column repeated within a row
            (1, np.array([2, 0, 1])),  # columns decrease within a row
        ],
    )
    def test_invalid_structure_rejected(self, index, bad):
        parts = self.parts()
        parts[index] = bad
        with pytest.raises(StructuralError):
            SparseRowMatrix(2, 3, *parts)

    def test_arrays_owned_and_frozen(self):
        offsets, cols, values = self.parts()
        base = np.zeros(6)
        base[::2] = values
        A = SparseRowMatrix(2, 3, offsets.astype(np.int32), cols, base[::2])
        base[:] = 9.0
        assert A.row_offsets.dtype == np.int64 and A.values.flags.c_contiguous
        assert np.array_equal(A.to_dense(), [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        for arr in (A.row_offsets, A.col_indices, A.values):
            assert arr.flags.owndata and not arr.flags.writeable


class TestStorage:
    def test_twelve_bytes_per_nonzero_and_eight_per_row(self):
        A = random_matrix(np.random.default_rng(4), 9, 7)
        arrays = {name: value for name, value in vars(A).items()
                  if isinstance(value, np.ndarray)}
        assert {name: a.dtype for name, a in arrays.items()} == {
            "row_offsets": np.int64, "col_indices": np.int32, "values": np.float64}
        assert sum(a.nbytes for a in arrays.values()) == 12 * A.nnz + 8 * (A.n_rows + 1)
        assert not hasattr(A, "row_ids")

    def test_the_largest_column_is_kept(self):
        A = SparseRowMatrix(1, matrix.MAX_COLS, [0, 2], np.array([0, 2**31 - 2]), [1.0, 2.0])
        assert A.col_indices.dtype == np.int32
        assert A.col_indices.tolist() == [0, 2**31 - 2]

    @pytest.mark.parametrize("column", [2**31 - 1, 2**31, 2**32, 2**32 + 1, 2**63 - 1])
    def test_columns_beyond_int32_never_wrap(self, column):
        for dtype in (np.int64, np.uint64):
            with pytest.raises(StructuralError, match=f"column index {column} out of range"):
                SparseRowMatrix(1, matrix.MAX_COLS, [0, 1], np.array([column], dtype), [1.0])
        with pytest.raises(StructuralError, match=f"column index {column} out of range"):
            build_matrix([(0, column, 1.0)], 1, matrix.MAX_COLS)

    def test_more_columns_than_int32_refused(self):
        with pytest.raises(StructuralError, match="must fit int32"):
            SparseRowMatrix(1, 2**31, [0, 1], np.array([0]), [1.0])
        with pytest.raises(StructuralError, match="must fit int32"):
            build_matrix([(0, 0, 1.0)], 1, 2**31)
        with pytest.raises(StructuralError, match="must fit int32"):
            build_matrix([], 1, 2**31)


class TestBuild:
    def test_empty_matrix(self):
        A = build_matrix([], 2, 2)
        assert A.nnz == 0
        assert np.array_equal(matvec(A, np.ones(2)), np.zeros(2))

    def test_identity(self):
        A = build_matrix([(0, 0, 1.0), (1, 1, 1.0)], 2, 2)
        assert np.array_equal(A.to_dense(), np.eye(2))

    def test_row_layout(self):
        A = build_matrix([(0, 2, -2.0), (0, 0, 0.5), (1, 1, 1.0)], 2, 3)
        assert np.array_equal(A.to_dense(), [[0.5, 0.0, -2.0], [0.0, 1.0, 0.0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            build_matrix([(2, 0, 1.0)], 2, 2)
        with pytest.raises(StructuralError):
            build_matrix([(0, -1, 1.0)], 2, 2)

    def test_duplicate_rejected(self):
        with pytest.raises(StructuralError):
            build_matrix([(0, 0, 1.0), (0, 0, 2.0)], 2, 2)


class TestMatvec:
    def test_identity(self):
        A = build_matrix([(0, 0, 1.0), (1, 1, 1.0)], 2, 2)
        assert np.array_equal(matvec(A, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_hand_product(self):
        A = build_matrix([(0, 0, 0.5), (0, 2, -2.0), (1, 1, 1.0)], 2, 3)
        assert np.allclose(matvec(A, np.array([2.0, 1.0, 1.0])), [-1.0, 1.0], rtol=0, atol=0)

    def test_against_dense(self):
        rng = np.random.default_rng(1)
        A = random_matrix(rng, 6, 5)
        v = rng.normal(size=5)
        w = rng.normal(size=6)
        dense = A.to_dense()
        assert np.allclose(matvec(A, v), dense @ v, rtol=1e-15, atol=1e-14)
        assert np.allclose(matvec(A, w, transpose=True), dense.T @ w, rtol=1e-15, atol=1e-14)

    def test_dimension_mismatch(self):
        A = build_matrix([(0, 0, 1.0)], 2, 3)
        with pytest.raises(StructuralError):
            matvec(A, np.ones(2))
        with pytest.raises(StructuralError):
            matvec(A, np.ones(3), transpose=True)

    def test_insertion_order_irrelevant(self):
        rng = np.random.default_rng(7)
        triplets = [(i, j, rng.normal()) for i in range(4) for j in range(4) if (i + j) % 2]
        v = rng.normal(size=4)
        A = build_matrix(triplets, 4, 4)
        B = build_matrix(triplets[::-1], 4, 4)
        assert np.array_equal(matvec(A, v), matvec(B, v))


class TestRowDot:
    def test_empty_row(self):
        A = build_matrix([(0, 0, 1.0)], 2, 3)
        assert row_dot(A, 1, np.ones(3)) == 0.0

    def test_hand_value(self):
        A = build_matrix([(0, 0, 0.5), (0, 2, -2.0)], 1, 3)
        assert row_dot(A, 0, np.array([2.0, 9.0, 1.0])) == pytest.approx(-1.0, abs=0)

    def test_against_dense(self):
        rng = np.random.default_rng(3)
        A = random_matrix(rng, 5, 8, density=0.4)
        v = rng.normal(size=8)
        dense = A.to_dense()
        for i in range(5):
            assert row_dot(A, i, v) == pytest.approx(dense[i] @ v, rel=1e-15, abs=1e-15)

    def test_index_out_of_range(self):
        A = build_matrix([], 2, 2)
        with pytest.raises(StructuralError):
            row_dot(A, 2, np.ones(2))


@st.composite
def oriented_matrices(draw, wide):
    """Dense-ish random matrices, wide (n < d, Lanczos on A A^T) or tall
    (n >= d, on A^T A), with some entries dropped."""
    short = draw(st.integers(1, 8))
    long = draw(st.integers(short + 1 if wide else short, 16))
    n_rows, n_cols = (short, long) if wide else (long, short)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random((n_rows, n_cols)) < draw(st.sampled_from((0.3, 0.7, 1.0)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e4)))
    triplets = [
        (i, j, scale * rng.normal()) for i in range(n_rows) for j in range(n_cols) if keep[i, j]
    ]
    return build_matrix(triplets, n_rows, n_cols)


@st.composite
def clustered_matrices(draw):
    """``clustered_matrix`` with hypothesis-drawn shape, cluster and scale:
    two or more top singular values within a relative 1e-12 to 1e-1."""
    short = draw(st.integers(2, 8))
    return clustered_matrix(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), short,
        draw(st.integers(short, 16)), draw(st.booleans()), draw(st.integers(2, short)),
        10.0 ** draw(st.integers(-12, -1)), draw(st.sampled_from((1e-3, 1.0, 1e4))))


def assert_top_singular_value(A):
    result = power_iteration(A)
    assert result.converged
    assert_spectral_bound(result.estimate, A)


class TestSpectralNorm:
    def test_diagonal(self):
        assert_top_singular_value(build_matrix([(0, 0, 3.0), (1, 1, 1.0)], 2, 2))

    def test_zero_matrix(self):
        assert power_iteration(build_matrix([], 4, 4))[0] == 0.0

    def test_shear(self):
        A = build_matrix([(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)], 2, 2)
        expected = np.linalg.svd(A.to_dense(), compute_uv=False)[0]
        assert expected == pytest.approx(1.618034, abs=1e-5)
        assert_top_singular_value(A)

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_svd(self, wide, data):
        assert_top_singular_value(data.draw(oriented_matrices(wide)))

    @settings(max_examples=200, deadline=None)
    @given(clustered_matrices())
    def test_clustered_top_singular_values(self, A):
        assert_top_singular_value(A)

    def test_rank_deficient_stops_when_exhausted(self):
        # 8 x 7 of rank 4: from a start with a null-space part, the Krylov
        # space of A^T A is exhausted after 5 products
        rng = np.random.default_rng(0)
        M = rng.standard_normal((8, 4)) @ rng.standard_normal((4, 7))
        A = build_matrix([(i, j, M[i, j]) for i in range(8) for j in range(7)], 8, 7)
        assert power_iteration(A).products <= 5
        assert_top_singular_value(A)

    @pytest.mark.parametrize(
        "triplets,n_rows,n_cols",
        [
            ([(0, 0, -2.5)], 1, 1),
            ([(3, 5, 0.75)], 7, 9),
            # rank one, u v^T, tall and wide
            ([(i, j, (i + 1.0) * v) for i in range(5) for j, v in enumerate((1, -2, 3))], 5, 3),
            ([(j, i, (i + 1.0) * v) for i in range(5) for j, v in enumerate((1, -2, 3))], 3, 5),
            # the identity: its top singular value is repeated
            ([(i, i, 1.0) for i in range(6)], 6, 6),
            # rows 0, 2, 4 and columns 1, 3 empty
            ([(1, 0, 2.0), (1, 2, -1.0), (3, 4, 0.5), (5, 2, 3.0)], 6, 5),
        ],
        ids=["1x1", "single-nonzero", "rank-one-tall", "rank-one-wide", "identity",
             "empty-rows-and-columns"],
    )
    def test_edge_cases(self, triplets, n_rows, n_cols):
        assert_top_singular_value(build_matrix(triplets, n_rows, n_cols))

    def test_nonconvergence_flag(self):
        # two identical singular values: the estimate stabilizes immediately,
        # so force non-convergence with max_iter=0 semantics instead
        rng = np.random.default_rng(4)
        A = random_matrix(rng, 8, 8)
        assert not power_iteration(A, rel_tol=1e-15, max_iter=1).converged

    def test_bad_tolerance(self):
        with pytest.raises(StructuralError):
            power_iteration(build_matrix([], 2, 2), rel_tol=0.0)


class TestStats:
    def test_identity(self):
        A = build_matrix([(i, i, 1.0) for i in range(3)], 3, 3)
        s = stats(A)
        assert_spectral_bound(s.spectral_norm, A)
        assert s.max_row_norm == 1.0
        assert s.density == pytest.approx(1 / 3)

    def test_all_ones(self):
        A = build_matrix([(i, j, 1.0) for i in range(2) for j in range(2)], 2, 2)
        s = stats(A)
        assert_spectral_bound(s.spectral_norm, A)
        assert s.max_row_norm == pytest.approx(np.sqrt(2.0))
        assert s.density == 1.0

    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices())
    def test_norm_sandwich(self, drawn):
        A, n_rows, _ = drawn
        if A.nnz == 0:
            return
        s = stats(A)
        # the estimate is at most a relative (1 + rel_tol) (1 + margin) above
        # the top singular value; the lower clamp makes the first inequality
        # exact
        bound = (1 + matrix.SPECTRAL_NORM_REL_TOL) * (1 + matrix.SPECTRAL_NORM_MARGIN)
        assert s.max_row_norm <= s.spectral_norm
        assert s.spectral_norm <= np.sqrt(n_rows) * s.max_row_norm * bound

    def test_spectral_work_count(self):
        """Matvecs inside ``stats`` on a fixed AR(1) matrix (500 x 200, 0.5
        correlation).  The power iteration this replaced used 1,464 of them
        here; Lanczos used 96 at a 1e-13 tolerance and uses 64 at 1e-6, two
        per Gram product."""
        data, _ = synth_ridge(500, 200, cov=("ar1", 0.5), seed=0)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix, "matvec", lambda *a, **k: calls.append(1) or matvec(*a, **k))
            s = stats(data.matrix)
        assert s.spectral_norm_converged
        assert len(calls) == 2 * s.spectral_norm_products
        assert len(calls) <= 64
        # the run stops long before its Krylov space is exhausted, so here
        # the stopping rule, not exhaustion, sets the estimate's accuracy
        assert_top_singular_value(data.matrix)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(), st.integers(0, 2**32 - 1))
def test_adjoint_identity(drawn, seed):
    A, n_rows, n_cols = drawn
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n_cols)
    w = rng.normal(size=n_rows)
    lhs = matvec(A, v) @ w
    rhs = v @ matvec(A, w, transpose=True)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
