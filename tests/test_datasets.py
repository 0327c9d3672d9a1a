import decimal
import gzip
import locale
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dapd import kernels
from dapd.datasets import (
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
    synth_ridge,
    synth_sparse_classification,
)
from dapd.errors import ConfigurationError, ParseError
from dapd.matrix import MAX_COLS, build_matrix, matvec


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

    def test_crlf_tabs_and_padding(self):
        ds = parse_libsvm(" \t+1\t1:0.5  3:-2 \r\n\r\n-1 2:1\t\r\n")
        assert (ds.n, ds.dim) == (2, 3)
        assert np.array_equal(ds.matrix.to_dense(), [[0.5, 0.0, -2.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("index", [2**31, 2**32 + 1, 2**63])
    def test_index_beyond_int32_rejected_with_line_number(self, index):
        with pytest.raises(ParseError, match=f"line 2: feature index {index} does not fit in "
                                             "int32"):
            parse_libsvm(f"1 1:1\n1 {index}:1\n")
        ds = parse_libsvm("1 2147483647:1\n")
        assert ds.dim == 2**31 - 1 and ds.matrix.col_indices[0] == 2**31 - 2
        assert ds.matrix.col_indices.dtype == np.int32

    def test_round_trip_at_the_largest_column(self):
        text = "1 1:0.5 2147483647:-2\n-1 2147483646:3\n"
        ds = parse_libsvm(text)
        assert ds.dim == MAX_COLS
        assert serialize_libsvm(ds) == text
        again = parse_libsvm(serialize_libsvm(ds))
        for name in ("row_offsets", "col_indices", "values"):
            assert getattr(again.matrix, name).tobytes() == getattr(ds.matrix, name).tobytes()

    def test_expected_dim_beyond_int32_refused(self, tmp_path):
        path = tmp_path / "labels.libsvm"
        path.write_text("1 1:1\n")
        assert parse_libsvm("1 1:1\n", expected_dim=MAX_COLS).dim == MAX_COLS
        with pytest.raises(ConfigurationError, match="expected_dim 2147483648 does not fit"):
            parse_libsvm("1 1:1\n", expected_dim=MAX_COLS + 1)
        with pytest.raises(ConfigurationError, match="expected_dim 2147483648 does not fit"):
            load_libsvm(path, expected_dim=MAX_COLS + 1)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_expected_dim_below_one_refused(self, tmp_path, dim):
        path = tmp_path / "labels.libsvm"
        path.write_text("1\n-1\n")
        with pytest.raises(ConfigurationError, match="expected_dim must be at least 1"):
            parse_libsvm("1\n-1\n", expected_dim=dim)
        with pytest.raises(ConfigurationError, match="expected_dim must be at least 1"):
            load_libsvm(path, expected_dim=dim)

    def test_non_utf8_file_names_the_line(self, tmp_path):
        path = tmp_path / "latin1.libsvm"
        path.write_bytes(b"1 1:0.5\r\n-1 2:\xe9\n")
        with pytest.raises(ParseError, match="line 2: not UTF-8: byte 0xe9"):
            load_libsvm(path)

    def test_parser_recorded(self):
        want = "python" if kernels.library() is None else "compiled"
        assert parse_libsvm("1 1:1\n").meta["parser"] == want


class TestParseLibsvmWithoutCompiler(TestParseLibsvm):
    """The parser tests again with ``kernels.library`` forced to None, as on
    a machine without a C compiler: the Python body alone."""

    @pytest.fixture(autouse=True)
    def _no_compiler(self, monkeypatch):
        monkeypatch.setattr(kernels, "library", lambda: None)


def _outcome(text, use_kernels):
    """``parse_libsvm(text)``, or the text of its ``ParseError``; with
    ``use_kernels`` false, the Python body alone."""
    with pytest.MonkeyPatch.context() as mp:
        if not use_kernels:
            mp.setattr(kernels, "library", lambda: None)
        try:
            return parse_libsvm(text)
        except ParseError as exc:
            return str(exc)


def _assert_same_bits(got, want):
    assert (got.n, got.dim) == (want.n, want.dim)
    for a, b in ((got.labels, want.labels),
                 *((getattr(got.matrix, name), getattr(want.matrix, name))
                   for name in ("row_offsets", "col_indices", "values"))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_as_python(text, parser):
    """The outcome of ``parse_libsvm`` equals the Python body's: the same
    ``ParseError`` text, or the same bits, read by ``parser``."""
    got, want = _outcome(text, True), _outcome(text, False)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.meta["parser"] == parser
        _assert_same_bits(got, want)


_DIGITS = "0123456789"
# values at the edges of double precision, and the short forms of the grammar
_SPECIAL_NUMBERS = (
    "-0", "+0", "0.0e0", ".5", "5.", "-.5", "+5.", "1E5", "1e+05", "1e-0005",
    "4.9e-324", "2.4703282292062328e-324", "2e-324", "1e-400", "-1e-400",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1.7976931348623158e308", "1.7976931348623159e308", "1e400", "-1e400",
)


def _cut_midpoints(x: float) -> list:
    """The midpoint of ``x`` and the next double up, cut to 19 significant
    digits, and that cut one unit higher in its last digit: the two tokens
    closest to the midpoint, one on each side, that the exact reader
    converts."""
    exact = decimal.Context(prec=800)
    up = decimal.Decimal(math.nextafter(x, math.inf))
    mid = exact.divide(exact.add(decimal.Decimal(x), up), 2)
    below = decimal.Context(prec=19, rounding=decimal.ROUND_DOWN).plus(mid)
    above = below.next_plus(decimal.Context(prec=19))
    return [format(below, "e"), format(above, "e")]


# the edges of the compiled reader's exact window: significand w of at most
# 19 digits and decimal exponent e with -27 <= e <= 19; strtod takes the rest
_WINDOW_EDGES = (
    # e = -27 and -28
    "1e-27", "9999999999999999999e-27", "0.000000000000000000000000001",
    "7.450580596923828125e-09", "1e-28", "9999999999999999999e-28",
    # e = 19 and 20
    "1e19", "9999999999999999999e19", "1.5e20", "1e20", "9999999999999999999e20",
    # 19 and 20 significant digits
    "1234567890123456789", "9999999999999999999", "0.1234567890123456789",
    "0000.0001234567890123456789", "12345678901234567890", "18446744073709551615",
    "18446744073709551616", "0.12345678901234567891", "1.000000000000000000",
    # ties: 2^53 + 1 on the positive path, halves and quarters on the negative
    "9007199254740993", "-9007199254740993", "9007199254740995", "4503599627370496.5",
    "4503599627370497.5", "2251799813685248.25", "2251799813685248.75",
    # exact binary values
    "0.5", "-0.5", "0.125", "0.75", "1.5", "9.5367431640625e-07", "0.0009765625",
    "5e-1", "50e-2",
    *(token for x in (1.0, 0.1, math.pi, 1e-5, 123456.789, 2.0**-60, 1.7e18)
      for token in _cut_midpoints(x)),
)
# the lengths of digit run that cross the compiled reader's 8-digit chunks
_RUNS = (7, 8, 9, 16, 17)


@st.composite
def _numbers(draw):
    """A number token: a formatted double (subnormals included), a 17- to
    30-digit mantissa with an exponent that may underflow or overflow, a
    short one (1 to 19 significant digits, leading zeros, runs of
    ``_RUNS`` digits) around the compiled reader's exact window, or one of
    ``_SPECIAL_NUMBERS``."""
    kind = draw(st.sampled_from(("double", "long", "short", "special")))
    if kind == "double":
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        return format(x, draw(st.sampled_from(("", ".17g", ".6e", ".3g"))))
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL_NUMBERS))
    if kind == "short":
        size = draw(st.one_of(st.integers(1, 19), st.sampled_from(_RUNS)))
        run = "0" * draw(st.integers(0, 3)) + draw(st.text(_DIGITS, min_size=size, max_size=size))
        point = draw(st.sampled_from((None, 0, len(run), draw(st.integers(0, len(run))))))
        text = run if point is None else run[:point] + "." + run[point:]
        if draw(st.booleans()):
            text += draw(st.sampled_from("eE")) + str(draw(st.integers(-50, 40)))
        return draw(st.sampled_from(("", "+", "-"))) + text
    mantissa = draw(st.text(_DIGITS, min_size=17, max_size=30))
    point = draw(st.integers(0, len(mantissa)))
    text = draw(st.sampled_from(("", "+", "-"))) + mantissa[:point] + "." + mantissa[point:]
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + f"{draw(st.integers(-360, 330)):+04d}"
    return text


@st.composite
def _libsvm_texts(draw):
    """In-grammar LIBSVM texts: rows, label-only rows and blank lines, with
    tabs and runs of blanks, leading zeros on indices, LF or CRLF."""
    blank = st.sampled_from((" ", "\t", "  ", " \t "))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("row", "row", "label_only", "blank")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", " ", "\t "))))
            continue
        tokens = [draw(_numbers())]
        if kind == "row":
            indices = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=5)))
            tokens += [
                "0" * draw(st.integers(0, 2)) + f"{i}:{draw(_numbers())}" for i in indices
            ]
        line = "".join(tok + draw(blank) for tok in tokens[:-1]) + tokens[-1]
        lines.append(draw(st.sampled_from(("", " ", "\t"))) + line
                     + draw(st.sampled_from(("", " ", "\t"))))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@pytest.mark.usefixtures("compiled")
class TestCompiledReader:
    """The compiled reader against the Python body, which stays the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_libsvm_texts())
    def test_same_bits_as_python(self, text):
        _assert_same_as_python(text, "compiled")

    @pytest.mark.parametrize("token", _WINDOW_EDGES)
    def test_window_edges_have_the_same_bits_as_python(self, token):
        _assert_same_as_python(f"{token} 1:{token} 2:-{token.lstrip('-')}\n", "compiled")

    @pytest.mark.parametrize("exponent", ["1000000", "-1000000", "100001", "100000", "99999"])
    @pytest.mark.parametrize("line", ["{} 1:1\n", "1 1:{}\n"], ids=["label", "value"])
    def test_long_fraction_against_a_large_exponent(self, exponent, line):
        """99,999 zeros after the point cancel all but a little of an
        exponent the reader stops accumulating: 1e900000 (not finite, an
        error), 0, 10, 1 and 0.1, never the exponent cut short."""
        _assert_same_as_python(line.format("0." + "0" * 99_999 + "1e" + exponent), "compiled")

    @pytest.mark.parametrize(
        "text",
        ["1 1:1_0\n", "1_0 1:1\n", "1 1_0:1\n", "1 1:inf\n", "inf 1:1\n", "1 1:nan\n",
         "1 +3:1\n", "1 1:1\f-1 2:1\n", "1 1:1\v-1 2:1\n", "1 1:1\r-1 2:1\n", "1 1:1\r2:1\n",
         "1 1:1\r", "1 1:1\r\r\n",
         "1 1:1\x1c-1 2:1\n", "1 1:1\n\xa0\n", "1 \u0663:1\n", "1 1:\u0661\n",
         "1 1:0x10\n", "0x1p3 1:1\n", "1 1:1e400\n", "1 0:1\n", "1 2:1 1:1\n",
         "1 2:1 2:1\n", "1 99999999999999999999:1\n", "1 1:1e\n", "1 1:.\n", "1 1:1.5.2\n",
         "1 1:\n", "1 :1\n", "1 1:1:1\n", "1 1:1 # note\n", "1 1:1x\n", "1x 1:1\n",
         "1 1:1\x00\n", "", " \n\t\r\n"],
    )
    def test_out_of_grammar_goes_to_python(self, text):
        _assert_same_as_python(text, "python")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(b"\n:1 \xe9"), max_size=70).map(bytes))
    def test_count_as_bytes_count(self, data):
        """``libsvm_count`` sizes the arrays ``libsvm_parse`` writes: a
        short count would let the reader write past their ends."""
        counts = np.full(2, -1, dtype=np.int64)
        kernels.library().libsvm_count(data, len(data), counts.ctypes.data)
        assert counts.tolist() == [data.count(b"\n"), data.count(b":")]

    def test_comma_decimal_locale_goes_to_python(self):
        saved = locale.setlocale(locale.LC_NUMERIC)
        for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"):
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
            except locale.Error:
                continue
            try:
                _assert_same_as_python("1 1:0.5 2:-1.25e3\n", "python")
            finally:
                locale.setlocale(locale.LC_NUMERIC, saved)
            return
        pytest.skip("no locale with a comma decimal point is installed")

    def test_benchmark_shaped_file_is_read_compiled(self, tmp_path):
        """Rows of ``.17g`` values, as ``perfbench/prepare.py`` writes them:
        a silent fall back to the Python body would hide the speed-up."""
        data = synth_sparse_classification(200, 4000, 1.25e-2, seed=1)
        path = tmp_path / "sparse.libsvm"
        path.write_text(serialize_libsvm(data))
        ds = load_libsvm(path, expected_dim=4000)
        assert ds.meta["parser"] == "compiled"
        _assert_same_bits(ds, data)


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

    @pytest.mark.parametrize("cov", ["identity", ("ar1", 0.7)])
    def test_values_are_the_rows_built_from_the_draws(self, cov):
        ds, _ = synth_ridge(7, 5, cov=cov, seed=4)
        rng = np.random.default_rng(4)
        rng.standard_normal(5)  # x_true
        z = rng.standard_normal((7, 5))
        rows = z.copy()
        if cov != "identity":
            r = cov[1]
            for j in range(1, 5):
                rows[:, j] = r * rows[:, j - 1] + np.sqrt(1.0 - r * r) * z[:, j]
        assert ds.matrix.values.tobytes() == rows.tobytes()
        assert ds.matrix.col_indices.dtype == np.int32

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
