/* Compiled kernels for dapd: the CSR matrix-vector products of
 * dapd.matrix.matvec, the row kernels (one iteration of the lazy sparse
 * engine, the O(d) vector work of one dense SDAPD row, a whole epoch of
 * SPDC rows and a whole deterministic DAPD iteration, products included,
 * each advancing its state's step scalars), and the LIBSVM reader of
 * dapd.datasets.parse_libsvm.
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

/* The row kernels (lazy_iterate, sdapd_dense_*, spdc_epoch, dapd_step)
 * evaluate the numpy bodies' expressions in their order, so the results
 * are the same bits.  A row's dot product is summed in storage order from
 * +0.0, as csr_matvec sums (row_sum) and as the numpy bodies sum
 * (dapd.matrix.ordered_dot, or dapd.matrix.matvec for DAPD); no BLAS
 * routine is called, so those bits do not depend on the BLAS build or the
 * CPU.  All five take one struct row_problem, which a solver state binds
 * once, to the problem it is built on and holds (no step takes another);
 * the state checks 0 <= i < n for every row before it calls a kernel,
 * since no kernel checks bounds, and keeps the struct's arrays and scalar
 * block alive, never rebound.
 *
 * The divergence contract, kept also by the numpy bodies: a row (dapd_step:
 * an iteration) whose result is not finite returns -1 (spdc_epoch: the
 * number of rows completed before it) and leaves every step scalar (beta,
 * B, t and the touch count) as it was.  Vectors it has written stay
 * written; the run is abandoned.
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
    /* m > 0 means z is nonzero and not NaN, so copysign gives np.sign(z) * m;
     * unlike (z > 0 ? m : -m) it compiles to no branch, which signs that
     * vary would mispredict */
    return copysign(m, z) / (inv + b * (g->lam2 + g->d2));
}

/* The row kernels' one struct, mirrored field for field by
 * dapd.kernels.RowProblem.  Each kernel reads the fields marked for it;
 * the others are NULL or 0. */
struct row_problem {
    const int64_t *offsets;
    const int32_t *cols;
    const double *values;
    const double *targets;   /* lazy, squared loss */
    const double *x0;        /* lazy, SDAPD and DAPD */
    /* SPDC's x_ext is xbar; lazy uses only u, y; u is (1/n) A^T y in SDAPD
     * and A^T y in DAPD */
    double *x, *xbar, *u, *y;
    double *s_hat, *ergodic; /* SDAPD and DAPD */
    double *v, *w;           /* lazy */
    struct row_scalars *scalars;
    struct sep_reg g;
    int64_t n, d, loss;      /* loss: lazy, SPDC and DAPD */
    /* step: eta, or SPDC's tau; tau: dual_step's step (lazy's tau, SPDC's
     * sigma); d1: the dual perturbation; theta: lazy's 1/xi, SPDC's
     * extrapolation; xi: SDAPD's beta growth; loss_scale: DAPD's c (DAPD
     * takes its steps per call) */
    double step, tau, theta, xi, d1, loss_scale;
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

/* One DAPD iteration (dapd.deterministic.dapd_iterate) with the steps eta
 * and tau of the caller's schedule; every vector is dense and written in
 * place, and A^T y is kept in the u field:
 *   xbar = prox_{eta g}(x - eta A^T y);
 *   y = prox_{tau f*}(y + tau A xbar), row by row in proxlib.dual_prox's
 *     form: the loss scale c enters as tau / c, and the hinge clips to
 *     [-c, 0] (not dual_step);
 *   A^T y of the new y (csr_rmatvec), s_hat += beta A^T y, x =
 *     recover_primal with B_hat + beta_hat, and the ergodic average of xbar;
 * then B_hat += beta_hat, t counts the iteration and the touch count grows
 * by 3 nnz + 5 d + 2 n.  Returns 0, or -1 when x or y is not finite, once
 * every vector is written, as the numpy body writes them.  beta's growth
 * and the rescale stay with the caller. */
int64_t dapd_step(const struct row_problem *p, double eta, double tau)
{
    const int64_t n = p->n, d = p->d, *offsets = p->offsets;
    const int32_t *cols = p->cols;
    const double *vals = p->values, *x0 = p->x0;
    double *x = p->x, *xbar = p->xbar, *aty = p->u, *y = p->y;
    double *s_hat = p->s_hat, *ergodic = p->ergodic;
    const struct sep_reg g = p->g;
    struct row_scalars *const sc = p->scalars;

    for (int64_t j = 0; j < d; ++j)
        xbar[j] = recover(&g, x[j] - eta * aty[j], eta, 1.0);

    const double c = p->loss_scale;
    int finite = 1;
    if (p->loss == LOSS_SQUARED) {
        const double *targets = p->targets;
        const double den = 1.0 + (tau / c) * (1.0 + p->d1);
        for (int64_t i = 0; i < n; ++i) {
            const double v = y[i] + tau * row_sum(cols, vals, xbar, offsets[i], offsets[i + 1]);
            y[i] = (v - tau * targets[i]) / den;
            finite &= isfinite(y[i]) != 0;
        }
    } else {
        const double den = 1.0 + (tau / c) * p->d1;
        for (int64_t i = 0; i < n; ++i) {
            const double v = y[i] + tau * row_sum(cols, vals, xbar, offsets[i], offsets[i + 1]);
            /* np.clip to [-c, 0]: keeps the sign of a zero and passes NaN */
            const double yi = (v - tau) / den;
            y[i] = yi < -c ? -c : (yi > 0.0 ? 0.0 : yi);
            finite &= isfinite(y[i]) != 0;
        }
    }
    csr_rmatvec(n, d, offsets, cols, vals, y, aty);

    const double beta_hat = sc->beta_hat, b_hat = sc->B_hat + beta_hat;
    const double inv_scale = sc->inv_scale, weight = beta_hat / b_hat;
    for (int64_t j = 0; j < d; ++j) {
        s_hat[j] += beta_hat * aty[j];
        x[j] = recover(&g, x0[j] * inv_scale - s_hat[j], b_hat, inv_scale);
        finite &= isfinite(x[j]) != 0;
        ergodic[j] += weight * (xbar[j] - ergodic[j]);
    }
    if (!finite)
        return -1;
    sc->B_hat = b_hat;
    sc->t += 1;
    sc->touch_counter += 3 * offsets[n] + 5 * d + 2 * n;
    return 0;
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
 *     optional [eE][+-]?digits, converted correctly rounded like Python's
 *     float(): by exact_decimal when it fits that function's window and
 *     is not a tie or near one, else by strtod, which must stop where the
 *     grammar stops and return a finite value;
 *   - an index is decimal digits, at most INT32_MAX (so the column, one
 *     less, fits the int32 cols; the Python body refuses a larger one),
 *     and the indices of a line increase strictly from 1.
 * It also returns -1 when the locale's decimal point is not '.', since
 * strtod would then read another one (exact_decimal reads only '.').
 *
 * The caller sizes labels and offsets for every line (the count of '\n',
 * plus one for an unterminated last line; offsets has one entry more) and
 * cols and values for every ':', both counted by libsvm_count.  buf[len]
 * must be readable and must not continue a number: strtod looks at the
 * byte after the last token (Python puts a NUL after the data of a bytes
 * object); the grammar scan and exact_decimal read nothing past len.
 * Returns the row count and sets *max_index to the largest index, 0 when
 * there is none.
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

/* The digits of a number token, and their exact conversion.
 *
 * A token's significand w is its digits with the point and the leading
 * zeros dropped, and e its decimal exponent once the fraction digits are
 * folded in: the token is w * 10^e.  When w has at most 19 digits (so it
 * fits a uint64) and -27 <= e <= 19, exact_decimal rounds w * 10^e to the
 * nearest double, ties to even, in integer arithmetic, but for e < 0 leaves
 * a tie or near-tie to strtod, which converts every other token too. */

/* the window: the significant digits a uint64 holds, and e's bounds */
enum { MAX_DIGITS = 19, MIN_EXP10 = -27, MAX_EXP10 = 19 };

/* read_number stops accumulating an exponent's digits once its magnitude
 * reaches this, and strtod then reads the token: e is not known, since a
 * long fraction may cancel any part of the exponent ("0." with 99,999
 * zeros and "1e100000" is 1) */
#define EXP_CAP 100000

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
/* whether the 8 bytes of chunk, in memory order, are all ASCII digits:
 * adding 0x46 carries into bit 7 of a byte above '9', and subtracting 0x30
 * borrows into it from a byte below '0' */
static inline int eight_digits(uint64_t chunk)
{
    return !(((chunk + 0x4646464646464646ULL) | (chunk - 0x3030303030303030ULL))
             & 0x8080808080808080ULL);
}

/* the value of the 8 digits of chunk, the first in the lowest byte: each
 * even byte first takes its pair's two-digit value (10 * byte + the next),
 * then two masked multiplies weight the four pairs by 10^6, 10^4, 10^2 and
 * 1 and sum them in bits 32 to 63 */
static inline uint64_t eight_digit_value(uint64_t chunk)
{
    const uint64_t mask = 0x000000ff000000ffULL;
    chunk -= 0x3030303030303030ULL;
    chunk = chunk * 10 + (chunk >> 8);
    return ((chunk & mask) * 0x000f424000000064ULL
            + ((chunk >> 16) & mask) * 0x0000271000000001ULL) >> 32;
}
#define CHUNKED_DIGITS 1
#endif

/* The digits from p on: returns the end of the run.  Each significant digit
 * (from the token's first nonzero one on) counts in *digits and, while
 * *digits is at most MAX_DIGITS, is appended to *w; eight at a time where
 * eight are there. */
static inline const char *scan_digits(const char *p, const char *end, uint64_t *w,
                                      int64_t *digits)
{
    if (*digits == 0)
        while (p < end && *p == '0')
            ++p;
#ifdef CHUNKED_DIGITS
    while (*digits <= MAX_DIGITS - 8 && end - p >= 8) {
        uint64_t chunk;
        memcpy(&chunk, p, 8);
        if (!eight_digits(chunk))
            break;
        *w = *w * 100000000 + eight_digit_value(chunk);
        *digits += 8;
        p += 8;
    }
#endif
    for (; p < end && is_digit(*p); ++p) {
        if (*digits < MAX_DIGITS)
            *w = 10 * *w + (uint64_t)(*p - '0');
        ++*digits;
    }
    return p;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* POW5[k] = 5^k; 10^e is POW5[e] << e */
static const uint64_t POW5[1 - MIN_EXP10] = {
    1ULL, 5ULL, 25ULL, 125ULL,
    625ULL, 3125ULL, 15625ULL, 78125ULL,
    390625ULL, 1953125ULL, 9765625ULL, 48828125ULL,
    244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL,
    95367431640625ULL, 476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
};

/* RECIP5[k - 1] = floor(2^(127 + L) / 5^k), L the bit length of 5^k, as
 * {high 64 bits, low 64 bits}: 5^-k scaled to 128 bits with the top one
 * set */
static const uint64_t RECIP5[-MIN_EXP10][2] = {
    {0xccccccccccccccccULL, 0xccccccccccccccccULL}, /* 1 */
    {0xa3d70a3d70a3d70aULL, 0x3d70a3d70a3d70a3ULL}, /* 2 */
    {0x83126e978d4fdf3bULL, 0x645a1cac083126e9ULL}, /* 3 */
    {0xd1b71758e219652bULL, 0xd3c36113404ea4a8ULL}, /* 4 */
    {0xa7c5ac471b478423ULL, 0x0fcf80dc33721d53ULL}, /* 5 */
    {0x8637bd05af6c69b5ULL, 0xa63f9a49c2c1b10fULL}, /* 6 */
    {0xd6bf94d5e57a42bcULL, 0x3d32907604691b4cULL}, /* 7 */
    {0xabcc77118461cefcULL, 0xfdc20d2b36ba7c3dULL}, /* 8 */
    {0x89705f4136b4a597ULL, 0x31680a88f8953030ULL}, /* 9 */
    {0xdbe6fecebdedd5beULL, 0xb573440e5a884d1bULL}, /* 10 */
    {0xafebff0bcb24aafeULL, 0xf78f69a51539d748ULL}, /* 11 */
    {0x8cbccc096f5088cbULL, 0xf93f87b7442e45d3ULL}, /* 12 */
    {0xe12e13424bb40e13ULL, 0x2865a5f206b06fb9ULL}, /* 13 */
    {0xb424dc35095cd80fULL, 0x538484c19ef38c94ULL}, /* 14 */
    {0x901d7cf73ab0acd9ULL, 0x0f9d37014bf60a10ULL}, /* 15 */
    {0xe69594bec44de15bULL, 0x4c2ebe687989a9b3ULL}, /* 16 */
    {0xb877aa3236a4b449ULL, 0x09befeb9fad487c2ULL}, /* 17 */
    {0x9392ee8e921d5d07ULL, 0x3aff322e62439fcfULL}, /* 18 */
    {0xec1e4a7db69561a5ULL, 0x2b31e9e3d06c32e5ULL}, /* 19 */
    {0xbce5086492111aeaULL, 0x88f4bb1ca6bcf584ULL}, /* 20 */
    {0x971da05074da7beeULL, 0xd3f6fc16ebca5e03ULL}, /* 21 */
    {0xf1c90080baf72cb1ULL, 0x5324c68b12dd6338ULL}, /* 22 */
    {0xc16d9a0095928a27ULL, 0x75b7053c0f178293ULL}, /* 23 */
    {0x9abe14cd44753b52ULL, 0xc4926a9672793542ULL}, /* 24 */
    {0xf79687aed3eec551ULL, 0x3a83ddbd83f52204ULL}, /* 25 */
    {0xc612062576589ddaULL, 0x95364afe032a819dULL}, /* 26 */
    {0x9e74d1b791e07e48ULL, 0x775ea264cf55347dULL}, /* 27 */
};

/* the bit length of x, which is not zero */
static inline int bit_length(u128 x)
{
    const uint64_t high = (uint64_t)(x >> 64);
    return high ? 128 - __builtin_clzll(high) : 64 - __builtin_clzll((uint64_t)x);
}

/* m * 2^e as a double, assembled from its bits, for m in [2^52, 2^53] and
 * a normal result */
static inline double assemble(uint64_t m, int e)
{
    if (m >> 53) { /* rounded up to 2^53 */
        m >>= 1;
        ++e;
    }
    const uint64_t bits = (uint64_t)(e + 52 + 1023) << 52 | (m & ((1ULL << 52) - 1));
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

/* x, which is not zero, rounded to the nearest double, ties to even */
static inline double nearest(u128 x)
{
    const int shift = bit_length(x) - 53;
    if (shift <= 0)
        return assemble((uint64_t)x << -shift, shift);
    const u128 half = (u128)1 << (shift - 1), dropped = x & ((half << 1) - 1);
    uint64_t m = (uint64_t)(x >> shift);
    m += dropped > half || (dropped == half && (m & 1));
    return assemble(m, shift);
}

/* The nonnegative w * 10^e, correctly rounded, into *out, when the token
 * is in the window (w of digits significant digits) and integer arithmetic
 * settles its rounding; 0 when not, and strtod converts it.  The results
 * lie between 1e-27 and 1e38, all normal doubles.
 *
 * For e >= 0 the product w * 10^e is exact in 128 bits.  For e = -k < 0,
 * w is shifted left by z until its top bit is set, and u, the high 128 bits
 * of w 2^z * RECIP5[k - 1], lies less than 2 below the exact
 * w 2^(z + 63 + L) / 5^k (one unit from the table's truncation, one from
 * the product's).  u has its top bit at 127 or 126, so its high word holds
 * the 53 bits kept and the rounding bit, and every halfway point or carry
 * of the dropped bits is a multiple of 2^64.  Unless u's low word is
 * within 2 of one, u rounds as the exact value does; otherwise (exact short
 * values such as 0.5 among them, ties and near-ties) it returns 0. */
static inline int exact_decimal(uint64_t w, int64_t digits, int64_t e, double *out)
{
    if (digits > MAX_DIGITS || e < MIN_EXP10 || e > MAX_EXP10)
        return 0;
    if (w == 0) {
        *out = 0.0;
        return 1;
    }
    if (e >= 0) {
        *out = nearest((u128)w * (POW5[e] << e));
        return 1;
    }
    const int k = (int)-e, z = __builtin_clzll(w);
    const uint64_t *const r = RECIP5[k - 1], wn = w << z;
    const u128 u = (u128)wn * r[0] + (uint64_t)(((u128)wn * r[1]) >> 64);
    const uint64_t high = (uint64_t)(u >> 64), low = (uint64_t)u;
    if (low + 2 < 4)
        return 0;
    /* the top 53 bits, rounded up when the bit below them is set */
    const int shift = 10 + (int)(high >> 63);
    const uint64_t m = (high >> shift) + ((high >> (shift - 1)) & 1);
    *out = assemble(m, 1 + shift - bit_length(POW5[k]) - z - k);
    return 1;
}
#else
/* no 128-bit integers: strtod converts every number */
static inline int exact_decimal(uint64_t w, int64_t digits, int64_t e, double *out)
{
    (void)w, (void)digits, (void)e, (void)out;
    return 0;
}
#endif

/* the number at *p into *out, and *p past it; 0 when there is none, or
 * when it is not finite */
static int read_number(const char **p, const char *end, double *out)
{
    const char *const s = *p;
    const char *q = s;
    const int negative = q < end && *q == '-';
    if (q < end && (*q == '+' || *q == '-'))
        ++q;
    uint64_t w = 0;
    int64_t digits = 0, e = 0, magnitude = 0;
    const char *const int_end = scan_digits(q, end, &w, &digits);
    int any = int_end > q;
    q = int_end;
    if (q < end && *q == '.') {
        const char *const frac = q + 1;
        q = scan_digits(frac, end, &w, &digits);
        any |= q > frac;
        e = -(q - frac);
    }
    if (!any)
        return 0;
    if (q < end && (*q == 'e' || *q == 'E')) {
        const char *x = q + 1;
        const int exp_negative = x < end && *x == '-';
        if (x < end && (*x == '+' || *x == '-'))
            ++x;
        const char *const exp_digits = x;
        for (; x < end && is_digit(*x); ++x)
            if (magnitude < EXP_CAP)
                magnitude = 10 * magnitude + (*x - '0');
        if (x == exp_digits)
            return 0;
        e += exp_negative ? -magnitude : magnitude;
        q = x;
    }
    double v;
    if (magnitude < EXP_CAP && exact_decimal(w, digits, e, &v)) {
        v = negative ? -v : v;
    } else {
        char *stop;
        v = strtod(s, &stop);
        if (stop != q || !isfinite(v))
            return 0;
    }
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
