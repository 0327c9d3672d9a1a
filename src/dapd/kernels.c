/* Compiled kernels for dapd: the CSR matrix-vector products of
 * dapd.matrix.matvec, the row kernels (one iteration of the lazy sparse
 * engine, the O(d) vector work of one dense SDAPD row and a whole epoch of
 * SPDC rows, each advancing its state's step scalars), and the LIBSVM
 * reader of dapd.datasets.parse_libsvm.
 *
 * Every sum of products here, a matvec output entry or a row kernel's dot
 * product, is accumulated in storage order, one rounded product at a time,
 * starting from +0.0: the order np.bincount uses in the numpy path
 * (dapd.matrix.matvec_numpy and dapd.matrix.ordered_dot), so both paths
 * return the same bits on every machine.  Build without -ffast-math and
 * with -ffp-contract=off so the compiler neither reorders the sums nor
 * fuses a product into an addition.
 *
 * The CSR arrays are int64 offsets (nnz may pass 2^31), int32 column
 * indices and double values: 12 bytes per nonzero.  No bounds checks:
 * SparseRowMatrix guarantees offsets[0] == 0, non-decreasing offsets
 * ending at nnz, and every column in [0, n_cols) with n_cols <= INT32_MAX.
 */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* sum over k in [lo, hi) of values[k] * v[cols[k]], in storage order from
 * +0.0: the inner loop of csr_matvec and the row kernels' dot product.
 * Inline, like every helper but read_number (see row_dot). */
static inline double row_sum(const int32_t *cols, const double *values, const double *v,
                             int64_t lo, int64_t hi)
{
    double s = 0.0;
    for (int64_t k = lo; k < hi; ++k)
        s += values[k] * v[cols[k]];
    return s;
}

/* out[i] = sum over k in row i of values[k] * v[cols[k]] */
void csr_matvec(int64_t n_rows, const int64_t *offsets, const int32_t *cols,
                const double *values, const double *v, double *out)
{
    for (int64_t i = 0; i < n_rows; ++i)
        out[i] = row_sum(cols, values, v, offsets[i], offsets[i + 1]);
}

/* out[j] = sum over stored (i, j) of values[k] * y[i], scattered in storage
 * order */
void csr_rmatvec(int64_t n_rows, int64_t n_cols, const int64_t *offsets,
                 const int32_t *cols, const double *values, const double *y,
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

/* The row kernels (lazy_iterate, sdapd_dense_*, spdc_epoch) evaluate the
 * numpy bodies' expressions in their order, so the results are the same
 * bits.  A row's dot product is summed in storage order from +0.0, as
 * csr_matvec sums (row_sum) and as the numpy bodies sum
 * (dapd.matrix.ordered_dot); no BLAS routine is called, so those bits do
 * not depend on the BLAS build or the CPU.  All four take one struct
 * row_problem, which a solver state binds once, to the problem it is built
 * on and holds (no step takes another); the state checks 0 <= i < n for
 * every row before it calls a kernel, since no kernel checks bounds, and
 * keeps the struct's arrays and scalar block alive, never rebound.
 *
 * The divergence contract, kept also by the numpy bodies and by
 * dapd.deterministic.dapd_iterate: a row whose result is not finite
 * returns -1 (spdc_epoch: the number of rows completed before it) and
 * leaves every step scalar (beta, B, t and the touch count) as it was.
 * Vectors it has written stay written; the run is abandoned.
 *
 * Everything from here on sits after csr_matvec and csr_rmatvec, so a
 * change to the row kernels does not move those two in the library.
 */

enum { LOSS_SQUARED = 0, LOSS_HINGE = 1 };
enum { REG_L2 = 0, REG_L1 = 1 }; /* REG_L1 also serves elastic net */

/* l2, l1 or elastic net with the delta2 perturbation; mirrored by
 * dapd.kernels.SepReg */
struct sep_reg {
    int64_t kind;
    double lam, lam2, d2;
};

/* A solver state's step scalars, which its row kernel advances after each
 * row it completes; mirrored by dapd.kernels.RowScalars, whose fields the
 * states expose as attributes.  beta_hat, beta_prev_hat (the lazy engine's
 * beta_{t-1}) and B_hat (B_{t-1}) are stored divided by the state's scale,
 * and inv_scale is that scale's inverse; SPDC uses only t and
 * touch_counter. */
struct row_scalars {
    double beta_hat, beta_prev_hat, B_hat, inv_scale;
    int64_t t, touch_counter;
};

/* recover_primal for l2, l1 and elastic net: prox_{B g~}(z / inv) with
 * B = b / inv.  Inline: a call per coordinate would cost the row kernels
 * more than the arithmetic does. */
static inline double recover(const struct sep_reg *g, double z, double b, double inv)
{
    if (g->kind == REG_L2)
        return z / (inv + b * (g->lam + g->d2));
    const double m = fabs(z) - b * g->lam;
    if (!(m > 0))
        return 0.0;
    return (z > 0 ? m : -m) / (inv + b * (g->lam2 + g->d2));
}

/* The row kernels' one struct, mirrored field for field by
 * dapd.kernels.RowProblem.  Each kernel reads the fields marked for it;
 * the others are NULL or 0. */
struct row_problem {
    const int64_t *offsets;
    const int32_t *cols;
    const double *values;
    const double *targets;   /* lazy, squared loss */
    const double *x0;        /* lazy and SDAPD */
    double *x, *xbar, *u, *y; /* SPDC's x_ext is xbar; lazy uses only u, y */
    double *s_hat, *ergodic; /* SDAPD */
    double *v, *w;           /* lazy */
    struct row_scalars *scalars;
    struct sep_reg g;
    int64_t n, d, loss;      /* loss: lazy and SPDC */
    /* step: eta, or SPDC's tau; tau, d1: dual_step's step (lazy's tau,
     * SPDC's sigma) and perturbation; theta: lazy's 1/xi, SPDC's
     * extrapolation; xi: SDAPD's beta growth */
    double step, tau, theta, xi, d1;
};

/* proxlib.prox_conjugate for squared and hinge loss: the new dual
 * coordinate of row i from y_i and the row's dot product, with the step
 * p->tau and the perturbation p->d1 (targets: squared loss only) */
static inline double dual_step(const struct row_problem *p, int64_t i, double yi, double dot)
{
    const double tau = p->tau, arg = yi + tau * dot;
    if (p->loss == LOSS_SQUARED)
        return (arg - tau * p->targets[i]) / (1.0 + tau * (1.0 + p->d1));
    /* np.clip to [-1, 0]: keeps the sign of a zero and passes NaN */
    const double y = (arg - tau) / (1.0 + tau * p->d1);
    if (y < -1.0)
        return -1.0;
    if (y > 0.0)
        return 0.0;
    return y;
}

/* One lazy SDAPD iteration on row i (dapd.sparse_engine.sparse_iterate):
 * the two recoveries of proxlib.recover_primal, the dot product, the dual
 * step, the support updates and the scalars: B and the two betas move one
 * step (beta divided by theta), t counts the row and the touch count grows
 * by 6 per nonzero plus 2.  Returns the row's
 * nonzero count, or -1 without writing anything when the dot product or
 * the new dual coordinate is not finite.  The rebase stays with the
 * caller. */
int64_t lazy_iterate(const struct row_problem *p, int64_t i)
{
    struct row_scalars *const sc = p->scalars;
    const double beta_hat = sc->beta_hat, beta_prev_hat = sc->beta_prev_hat;
    const double b_hat = sc->B_hat, inv_scale = sc->inv_scale;
    const int64_t lo = p->offsets[i], k = p->offsets[i + 1] - lo;
    const int32_t *cols = p->cols + lo;
    const double *vals = p->values + lo;

    /* <a_i, xbar^{t+1}>, summed in storage order as each xbar_j is recovered */
    double dot = 0.0;
    for (int64_t m = 0; m < k; ++m) {
        const int64_t j = cols[m];
        /* x^t_j = prox_{B_{t-1} g_j}(x^0_j - s^t_j), then xbar^{t+1}_j */
        const double s_hat = p->v[j] + beta_prev_hat * p->w[j];
        const double x = recover(&p->g, p->x0[j] * inv_scale - s_hat, b_hat, inv_scale);
        dot += vals[m] * recover(&p->g, x - p->step * p->u[j], p->step, 1.0);
    }

    const double yi = p->y[i], y_new = dual_step(p, i, yi, dot);
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
    sc->B_hat = b_hat + beta_hat;
    sc->beta_prev_hat = beta_hat;
    sc->beta_hat = beta_hat / p->theta;
    sc->t += 1;
    /* 2 recoveries + row read + 3 support writes per coordinate */
    sc->touch_counter += 6 * k + 2;
    return k;
}

/* The dense SDAPD row (dapd.stochastic.sdapd_iterate_dense), as two calls
 * around the dual step, which stays in Python: the first returns the row's
 * dot product, the second takes the new dual coordinate, does the rest and
 * advances the state's scalars; and an epoch of SPDC rows
 * (dapd.baselines.spdc_epoch), dual step included, in one call.  Every
 * vector is dense, of length d, and written in place.
 */

/* <a_i, xbar>, as dapd.matrix.ordered_dot(vals, xbar[cols]).
 * Inline, like every helper but read_number: gcc emits an out-of-line
 * static function ahead of csr_matvec, and in a build without
 * -falign-loops=64 (a compiler that rejects it) that can shift
 * csr_rmatvec's inner loop across a 64-byte line, which once made it 15%
 * slower on a dense 2000 x 500 matrix. */
static inline double row_dot(const struct row_problem *p, int64_t i)
{
    return row_sum(p->cols, p->values, p->xbar, p->offsets[i], p->offsets[i + 1]);
}

/* The loops below read the struct's fields into locals first: a store
 * through a double pointer could otherwise alias them, and the compiler
 * would load them again for every coordinate. */

/* SDAPD, first call: xbar = prox_{eta g}(x - eta u); returns <a_i, xbar> */
double sdapd_dense_xbar(const struct row_problem *p, int64_t i)
{
    const struct sep_reg g = p->g;
    const double eta = p->step, *x = p->x, *u = p->u;
    double *xbar = p->xbar;
    for (int64_t j = 0, d = p->d; j < d; ++j)
        xbar[j] = recover(&g, x[j] - eta * u[j], eta, 1.0);
    return row_dot(p, i);
}

/* SDAPD, second call: y_i = y_new, s_hat += beta u + beta dy a_i,
 * u += (dy/n) a_i, x = recover_primal with B_hat + beta_hat and the
 * ergodic average of xbar; then B_hat += beta_hat, beta_hat *= xi, t counts
 * the row and the touch count grows by 4 d + 3 per nonzero.  Returns the
 * row's nonzero count, or -1 when x is not finite. */
int64_t sdapd_dense_update(const struct row_problem *p, int64_t i, double y_new)
{
    const int64_t lo = p->offsets[i], k = p->offsets[i + 1] - lo, d = p->d;
    const int32_t *cols = p->cols + lo;
    const double *vals = p->values + lo, *x0 = p->x0, *xbar = p->xbar;
    double *x = p->x, *u = p->u, *s_hat = p->s_hat, *ergodic = p->ergodic;
    const struct sep_reg g = p->g;
    struct row_scalars *const sc = p->scalars;
    const double beta_hat = sc->beta_hat, b_hat = sc->B_hat + beta_hat;
    const double inv_scale = sc->inv_scale;
    const double dy = y_new - p->y[i];
    p->y[i] = y_new;

    /* (1/n) A^T ybar^{t+1} = u^t + dy a_i, using u before its own update */
    for (int64_t j = 0; j < d; ++j)
        s_hat[j] += beta_hat * u[j];
    const double s_coef = beta_hat * dy, u_coef = dy / (double)p->n;
    for (int64_t m = 0; m < k; ++m) {
        s_hat[cols[m]] += s_coef * vals[m];
        u[cols[m]] += u_coef * vals[m];
    }
    const double weight = beta_hat / b_hat;
    int finite = 1;
    for (int64_t j = 0; j < d; ++j) {
        x[j] = recover(&g, x0[j] * inv_scale - s_hat[j], b_hat, inv_scale);
        finite &= isfinite(x[j]) != 0;
        ergodic[j] += weight * (xbar[j] - ergodic[j]);
    }
    if (!finite)
        return -1;
    /* xbar prox d, grad-sum d, recovery d, ergodic d, row ops 3 nnz */
    sc->touch_counter += 4 * d + 3 * k;
    sc->B_hat = b_hat;
    sc->beta_hat = beta_hat * p->xi;
    sc->t += 1;
    return k;
}

/* One SPDC row after its dual step: y_i = y_new,
 * x = prox_{tau g}(x - tau (u + dy a_i)), x_ext = x + theta (x - x_old),
 * u += (dy/n) a_i.  Returns 0 when x is not finite.  The row's columns
 * increase, so one cursor finds them. */
static inline int spdc_primal(const struct row_problem *p, int64_t i, double y_new)
{
    const int64_t lo = p->offsets[i], k = p->offsets[i + 1] - lo, d = p->d;
    const int32_t *cols = p->cols + lo;
    const double *vals = p->values + lo;
    double *x = p->x, *x_ext = p->xbar, *u = p->u;
    const struct sep_reg g = p->g;
    const double tau = p->step, theta = p->theta;
    const double dy = y_new - p->y[i];
    p->y[i] = y_new;

    int64_t m = 0;
    int finite = 1;
    for (int64_t j = 0; j < d; ++j) {
        double grad = u[j];
        if (m < k && cols[m] == j)
            grad += dy * vals[m++];
        const double x_new = recover(&g, x[j] - tau * grad, tau, 1.0);
        finite &= isfinite(x_new) != 0;
        x_ext[j] = x_new + theta * (x_new - x[j]);
        x[j] = x_new;
    }
    const double u_coef = dy / (double)p->n;
    for (m = 0; m < k; ++m)
        u[cols[m]] += u_coef * vals[m];
    return finite;
}

/* An epoch of SPDC rows (dapd.baselines.spdc_epoch), rows[0..count) in
 * order: for each, <a_i, x_ext> (x_ext in the xbar field), the dual step
 * with sigma in the tau field, and spdc_primal; then t counts the row and
 * the touch count grows by 4 d + 3 per nonzero.  Returns the number of
 * rows completed: count, or the position of the first row whose dot
 * product, new dual coordinate or new x is not finite. */
int64_t spdc_epoch(const struct row_problem *p, const int64_t *rows, int64_t count)
{
    struct row_scalars *const sc = p->scalars;
    for (int64_t r = 0; r < count; ++r) {
        const int64_t i = rows[r];
        const double dot = row_dot(p, i);
        const double y_new = dual_step(p, i, p->y[i], dot);
        if (!isfinite(dot) || !isfinite(y_new) || !spdc_primal(p, i, y_new))
            return r;
        sc->touch_counter += 4 * p->d + 3 * (p->offsets[i + 1] - p->offsets[i]);
        sc->t += 1;
    }
    return count;
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
 *   - an index is decimal digits, at most INT32_MAX (so the column, one
 *     less, fits the int32 cols; the Python body refuses a larger one),
 *     and the indices of a line increase strictly from 1.
 * It also returns -1 when the locale's decimal point is not '.', since
 * strtod would then read another one.
 *
 * The caller sizes labels and offsets for every line (the count of '\n',
 * plus one for an unterminated last line; offsets has one entry more) and
 * cols and values for every ':', both counted by libsvm_count.  buf[len]
 * must be readable and must not continue a number: strtod looks at the
 * byte after the last token (Python puts a NUL after the data of a bytes
 * object).  Returns the row count and sets *max_index to the largest
 * index, 0 when there is none.
 */

/* the number of bytes of w equal to the byte that pattern repeats: each
 * matching byte of w ^ pattern is zero, and the sum leaves 0x80 in exactly
 * those (no carry crosses a byte: the low seven bits are added alone) */
static int64_t count_bytes(uint64_t w, uint64_t pattern)
{
    const uint64_t low7 = 0x7f7f7f7f7f7f7f7fULL, x = w ^ pattern;
    const uint64_t zero = ~(((x & low7) + low7) | x | low7);
    return (int64_t)(((zero >> 7) * 0x0101010101010101ULL) >> 56);
}

/* counts[0] = the number of '\n' in buf, counts[1] = the number of ':';
 * eight bytes at a time */
void libsvm_count(const char *buf, int64_t len, int64_t *counts)
{
    const uint64_t newline = 0x0101010101010101ULL * '\n', colon = 0x0101010101010101ULL * ':';
    int64_t lines = 0, colons = 0, k = 0;
    for (; k + 8 <= len; k += 8) {
        uint64_t w;
        memcpy(&w, buf + k, 8);
        lines += count_bytes(w, newline);
        colons += count_bytes(w, colon);
    }
    for (; k < len; ++k) {
        lines += buf[k] == '\n';
        colons += buf[k] == ':';
    }
    counts[0] = lines;
    counts[1] = colons;
}

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
                     int32_t *cols, double *values, int64_t *max_index)
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
                if (idx > (INT32_MAX - d) / 10)
                    return -1;
                idx = 10 * idx + d;
            }
            if (p == digits || p == end || *p != ':' || idx <= prev)
                return -1;
            ++p;
            if (!read_number(&p, end, &values[nnz]))
                return -1;
            cols[nnz++] = (int32_t)(idx - 1);
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
