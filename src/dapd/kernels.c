/* Compiled kernels for dapd: the CSR matrix-vector products of
 * dapd.matrix.matvec, one iteration of the lazy sparse engine, and the
 * LIBSVM reader of dapd.datasets.parse_libsvm.
 *
 * Each matvec output entry is accumulated in storage order, one rounded
 * product at a time, starting from +0.0: the order np.bincount uses in the
 * numpy path, so both paths return the same bits.  Build without
 * -ffast-math and with -ffp-contract=off so the compiler neither reorders
 * the sums nor fuses a product into an addition.
 *
 * No bounds checks: SparseRowMatrix guarantees offsets[0] == 0,
 * non-decreasing offsets ending at nnz, and every column in [0, n_cols).
 */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* One lazy SDAPD iteration on row i (dapd.sparse_engine.sparse_iterate).
 *
 * Every expression is the numpy body's, in its order, so the results are
 * the same bits: the two recoveries of proxlib.recover_primal, the dot
 * product, proxlib.prox_conjugate and the support updates.  The dot product
 * is not summed here: OpenBLAS picks a ddot kernel, and with it a summation
 * order, per CPU, so the kernel calls the CBLAS ddot that numpy's dot calls,
 * as numpy does (numpy_dot).
 *
 * Returns the row's nonzero count, or -1 without writing y, u, v or w when
 * the dot product or the new dual coordinate is not finite.  The caller
 * checks 0 <= i < n; the addresses in lazy_problem are those of arrays that
 * its owner keeps alive and never rebinds.
 */

#define NPY_CBLAS_CHUNK ((int64_t)1 << 30) /* for 32-bit BLAS integers */

typedef double (*ddot64_fn)(int64_t, const double *, int64_t, const double *, int64_t);
typedef double (*ddot32_fn)(int, const double *, int, const double *, int);

enum { LOSS_SQUARED = 0, LOSS_HINGE = 1 };
enum { REG_L2 = 0, REG_L1 = 1 }; /* REG_L1 also serves elastic net */

/* mirrored field for field by dapd.kernels.LazyProblem */
struct lazy_problem {
    const int64_t *offsets;
    const int64_t *cols;
    const double *values;
    const double *targets; /* squared loss */
    const double *x0;
    double *y, *u, *v, *w;
    double *xbar;          /* scratch, as long as the longest row */
    void *ddot;
    int64_t ddot_ilp64;
    int64_t n, loss, reg;
    double eta, tau, theta, d1, lam, lam2, d2;
};

/* recover_primal for l2, l1 and elastic net: prox_{B g~}(z / inv) with
 * B = b / inv */
static double recover(const struct lazy_problem *p, double z, double b, double inv)
{
    if (p->reg == REG_L2)
        return z / (inv + b * (p->lam + p->d2));
    const double m = fabs(z) - b * p->lam;
    if (!(m > 0))
        return 0.0;
    return (z > 0 ? m : -m) / (inv + b * (p->lam2 + p->d2));
}

/* numpy's DOUBLE_dot: 0.0 plus one ddot per chunk of NPY_CBLAS_CHUNK
 * entries, the largest power of two below the BLAS integer's maximum; with
 * 64-bit BLAS integers the whole row is one chunk */
static double numpy_dot(const struct lazy_problem *p, int64_t k, const double *x,
                        const double *y)
{
    double sum = 0.0;
    if (p->ddot_ilp64) {
        if (k > 0)
            sum += ((ddot64_fn)p->ddot)(k, x, 1, y, 1);
        return sum;
    }
    while (k > 0) {
        const int64_t chunk = k < NPY_CBLAS_CHUNK ? k : NPY_CBLAS_CHUNK;
        sum += ((ddot32_fn)p->ddot)((int)chunk, x, 1, y, 1);
        x += chunk;
        y += chunk;
        k -= chunk;
    }
    return sum;
}

int64_t lazy_iterate(const struct lazy_problem *p, int64_t i, double beta_hat,
                     double beta_prev_hat, double b_hat, double inv_scale)
{
    const int64_t lo = p->offsets[i], k = p->offsets[i + 1] - lo;
    const int64_t *cols = p->cols + lo;
    const double *vals = p->values + lo;

    for (int64_t m = 0; m < k; ++m) {
        const int64_t j = cols[m];
        /* x^t_j = prox_{B_{t-1} g_j}(x^0_j - s^t_j), then xbar^{t+1}_j */
        const double s_hat = p->v[j] + beta_prev_hat * p->w[j];
        const double x = recover(p, p->x0[j] * inv_scale - s_hat, b_hat, inv_scale);
        p->xbar[m] = recover(p, x - p->eta * p->u[j], p->eta, 1.0);
    }
    const double dot = numpy_dot(p, k, vals, p->xbar);

    const double yi = p->y[i], arg = yi + p->tau * dot;
    double y_new;
    if (p->loss == LOSS_SQUARED) {
        y_new = (arg - p->tau * p->targets[i]) / (1.0 + p->tau * (1.0 + p->d1));
    } else {
        /* np.clip to [-1, 0]: keeps the sign of a zero and passes NaN */
        y_new = (arg - p->tau) / (1.0 + p->tau * p->d1);
        if (y_new < -1.0)
            y_new = -1.0;
        else if (y_new > 0.0)
            y_new = 0.0;
    }
    if (!isfinite(dot) || !isfinite(y_new))
        return -1;

    const double step = (y_new - yi) / (double)p->n;
    const double v_coef = beta_hat * ((double)p->n - 1.0 / (1.0 - p->theta));
    p->y[i] = y_new;
    for (int64_t m = 0; m < k; ++m) {
        const int64_t j = cols[m];
        const double delta = step * vals[m];
        p->u[j] += delta;
        p->v[j] += v_coef * delta;
        p->w[j] += delta / (1.0 - p->theta);
    }
    return k;
}

/* LIBSVM text into CSR arrays and labels (dapd.datasets.parse_libsvm).
 *
 * Reads a strict ASCII subset of what the Python body accepts and returns
 * -1 on anything else, so the Python body parses that input again and
 * raises its own errors:
 *   - lines end in '\n', optionally preceded by '\r'; blanks are ' ' and
 *     '\t', and a line holds only blanks, or a label followed by
 *     blank-separated <index>:<value> tokens;
 *   - a label or value is [+-]?(digits[.[digits]] | .digits) with an
 *     optional [eE][+-]?digits; strtod, correctly rounded like Python's
 *     float(), converts it, must stop where the grammar stops, and must
 *     return a finite value;
 *   - an index is decimal digits, at most INT64_MAX, and the indices of a
 *     line increase strictly from 1.
 * It also returns -1 when the locale's decimal point is not '.', since
 * strtod would then read another one.
 *
 * The caller sizes labels and offsets for every line (the count of '\n',
 * plus one for an unterminated last line; offsets has one entry more) and
 * cols and values for every ':'.  buf[len] must be readable and must not
 * continue a number: strtod looks at the byte after the last token (Python
 * puts a NUL after the data of a bytes object).  Returns the row count and
 * sets *max_index to the largest index, 0 when there is none.
 */

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static const char *skip_digits(const char *p, const char *end)
{
    while (p < end && is_digit(*p))
        ++p;
    return p;
}

/* the number at *p into *out, and *p past it; 0 when there is none, or
 * when it is not finite */
static int read_number(const char **p, const char *end, double *out)
{
    const char *const s = *p;
    const char *q = s;
    if (q < end && (*q == '+' || *q == '-'))
        ++q;
    const char *const int_end = skip_digits(q, end);
    int digits = int_end > q;
    q = int_end;
    if (q < end && *q == '.') {
        const char *const frac = q + 1;
        q = skip_digits(frac, end);
        digits |= q > frac;
    }
    if (!digits)
        return 0;
    if (q < end && (*q == 'e' || *q == 'E')) {
        const char *e = q + 1;
        if (e < end && (*e == '+' || *e == '-'))
            ++e;
        const char *const e_end = skip_digits(e, end);
        if (e_end == e)
            return 0;
        q = e_end;
    }
    char *stop;
    const double v = strtod(s, &stop);
    if (stop != q || !isfinite(v))
        return 0;
    *out = v;
    *p = q;
    return 1;
}

int64_t libsvm_parse(const char *buf, int64_t len, double *labels, int64_t *offsets,
                     int64_t *cols, double *values, int64_t *max_index)
{
    if (strcmp(localeconv()->decimal_point, ".") != 0)
        return -1;
    const char *p = buf;
    const char *const end = buf + len;
    int64_t rows = 0, nnz = 0, widest = 0;
    offsets[0] = 0;
    while (p < end) {
        int64_t prev = -1; /* -1 before the label, then the last index (0: none) */
        for (;;) {
            const char *const gap = p;
            while (p < end && (*p == ' ' || *p == '\t'))
                ++p;
            if (p == end)
                break;
            if (*p == '\r') {
                if (p + 1 == end || p[1] != '\n')
                    return -1; /* a lone '\r' */
                ++p;
            }
            if (*p == '\n') {
                ++p;
                break;
            }
            if (prev < 0) {
                if (!read_number(&p, end, &labels[rows]))
                    return -1;
                prev = 0;
                continue;
            }
            if (p == gap)
                return -1; /* no blank after the last token */
            int64_t idx = 0;
            const char *const digits = p;
            for (; p < end && is_digit(*p); ++p) {
                const int d = *p - '0';
                if (idx > (INT64_MAX - d) / 10)
                    return -1;
                idx = 10 * idx + d;
            }
            if (p == digits || p == end || *p != ':' || idx <= prev)
                return -1;
            ++p;
            if (!read_number(&p, end, &values[nnz]))
                return -1;
            cols[nnz++] = idx - 1;
            prev = idx;
        }
        if (prev >= 0) {
            if (prev > widest)
                widest = prev;
            offsets[++rows] = nnz;
        }
    }
    *max_index = widest;
    return rows;
}
