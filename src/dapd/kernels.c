/* CSR matrix-vector kernels for dapd.matrix.matvec.
 *
 * Each output entry is accumulated in storage order, one rounded product at
 * a time, starting from +0.0: the order np.bincount uses in the numpy path,
 * so both paths return the same bits.  Build without -ffast-math and with
 * -ffp-contract=off so the compiler neither reorders the sums nor fuses a
 * product into an addition.
 *
 * No bounds checks: SparseRowMatrix guarantees offsets[0] == 0,
 * non-decreasing offsets ending at nnz, and every column in [0, n_cols).
 */

#include <stdint.h>

/* out[i] = sum over k in row i of values[k] * v[cols[k]] */
void csr_matvec(int64_t n_rows, const int64_t *offsets, const int64_t *cols,
                const double *values, const double *v, double *out)
{
    for (int64_t i = 0; i < n_rows; ++i) {
        double s = 0.0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k)
            s += values[k] * v[cols[k]];
        out[i] = s;
    }
}

/* out[j] = sum over stored (i, j) of values[k] * y[i], scattered in storage
 * order */
void csr_rmatvec(int64_t n_rows, int64_t n_cols, const int64_t *offsets,
                 const int64_t *cols, const double *values, const double *y,
                 double *out)
{
    for (int64_t j = 0; j < n_cols; ++j)
        out[j] = 0.0;
    for (int64_t i = 0; i < n_rows; ++i) {
        const double yi = y[i];
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k)
            out[cols[k]] += values[k] * yi;
    }
}
