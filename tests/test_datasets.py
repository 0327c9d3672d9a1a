import gzip

import numpy as np
import pytest

from dapd.datasets import (
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
    synth_ridge,
    synth_sparse_classification,
)
from dapd.errors import ConfigurationError, ParseError
from dapd.matrix import build_matrix, matvec


class TestParseLibsvm:
    def test_basic(self):
        ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:1\n")
        assert (ds.n, ds.dim) == (2, 3)
        assert ds.matrix.nnz == 3
        assert np.array_equal(ds.labels, [1.0, -1.0])
        assert np.array_equal(ds.matrix.to_dense(), [[0.5, 0.0, -2.0], [0.0, 1.0, 0.0]])

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("1 1:1\n\n\n-1 1:2\n")
        assert ds.n == 2

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_libsvm("")

    def test_non_increasing_index(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("1 2:1 1:1")

    def test_nonpositive_index(self):
        with pytest.raises(ParseError, match="nonpositive"):
            parse_libsvm("1 0:1")

    def test_non_numeric_label(self):
        with pytest.raises(ParseError, match="label"):
            parse_libsvm("spam 1:1")

    def test_malformed_token_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("1 1:1\n1 1:one\n")

    @pytest.mark.parametrize(
        "text",
        ["1 1:1\nnan 1:1 2:1\n", "1 1:1\n-1 1:1 2:inf\n", "1 1:1\n-1 1:-inf\n",
         "1 1:1\n1 1:nan 2:1\n"],
        ids=["label_nan", "value_inf", "value_minus_inf", "value_nan"],
    )
    def test_non_finite_rejected_with_line_number(self, text):
        with pytest.raises(ParseError, match="line 2: non-finite"):
            parse_libsvm(text)

    def test_label_only_line_is_an_empty_row(self):
        ds = parse_libsvm("1 2:0.5 4:-1\n-1\n1 1:2\n")
        assert ds.n == 3 and ds.dim == 4
        assert ds.matrix.row(1)[0].size == 0
        built = build_matrix([(0, 1, 0.5), (0, 3, -1.0), (2, 0, 2.0)], 3, 4)
        for name in ("row_offsets", "col_indices", "values"):
            got, want = getattr(ds.matrix, name), getattr(built, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_expected_dim(self):
        ds = parse_libsvm("1 1:1\n", expected_dim=5)
        assert ds.dim == 5
        with pytest.raises(ParseError, match="exceeds"):
            parse_libsvm("1 7:1\n", expected_dim=5)

    def test_round_trip(self):
        text = "1 1:0.5 3:-2.25\n-1 2:1e-07\n0.5 1:3 2:4 3:5\n"
        ds = parse_libsvm(text)
        again = parse_libsvm(serialize_libsvm(ds))
        assert np.array_equal(ds.labels, again.labels)
        assert np.array_equal(ds.matrix.to_dense(), again.matrix.to_dense())

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "toy.libsvm.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("1 1:0.5\n-1 2:1\n")
        ds = load_libsvm(path)
        assert ds.n == 2 and ds.dim == 2


class TestSynthRidge:
    def test_zero_noise_exact_model(self):
        for cov in ("identity", ("ar1", 0.5)):
            ds, x_true = synth_ridge(8, 5, cov=cov, noise_sigma=0.0, seed=3)
            residual = ds.labels - matvec(ds.matrix, x_true)
            assert np.abs(residual).max() == 0.0
            # the matrix build_matrix makes from the dense rows
            dense = ds.matrix.to_dense()
            expected = build_matrix(
                [(i, j, dense[i, j]) for i in range(8) for j in range(5)], 8, 5
            )
            for name in ("row_offsets", "col_indices", "values"):
                assert np.array_equal(getattr(ds.matrix, name), getattr(expected, name))

    def test_seed_determinism(self):
        a, xa = synth_ridge(6, 4, seed=11)
        b, xb = synth_ridge(6, 4, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.matrix.values, b.matrix.values)
        assert np.array_equal(xa, xb)
        c, _ = synth_ridge(6, 4, seed=12)
        assert not np.array_equal(a.labels, c.labels)

    def test_paper_scale_fast(self):
        import time

        t0 = time.perf_counter()
        ds, _ = synth_ridge(1000, 1000, seed=0)
        assert time.perf_counter() - t0 < 2.0
        assert (ds.n, ds.dim) == (1000, 1000)

    def test_ar1_covariance(self):
        ds, _ = synth_ridge(4000, 3, cov=("ar1", 0.5), noise_sigma=0.0, seed=5)
        rows = ds.matrix.to_dense()
        corr = np.corrcoef(rows[:, 0], rows[:, 1])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.05)
        var = rows.var(axis=0)
        assert np.allclose(var, 1.0, atol=0.15)


class TestSynthSparse:
    def test_dense_when_rho_one(self):
        ds = synth_sparse_classification(5, 6, 1.0, seed=0)
        assert ds.matrix.nnz == 30

    def test_density_within_ten_percent(self):
        ds = synth_sparse_classification(1000, 10_000, 1e-3, seed=1)
        nnz = ds.matrix.nnz
        assert abs(nnz - 10_000) <= 1000

    def test_planted_separability(self):
        ds = synth_sparse_classification(200, 50, 0.2, seed=2)
        plant = ds.meta["plant"]
        margins = matvec(ds.matrix, plant) * ds.labels
        assert np.all(margins > 0)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_rho_d_guard(self):
        with pytest.raises(ConfigurationError):
            synth_sparse_classification(5, 100, 1e-3, seed=0)

    def test_seed_determinism(self):
        a = synth_sparse_classification(20, 30, 0.3, seed=9)
        b = synth_sparse_classification(20, 30, 0.3, seed=9)
        assert np.array_equal(a.matrix.values, b.matrix.values)
        assert np.array_equal(a.labels, b.labels)
