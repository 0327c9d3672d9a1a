"""Independent brute-force oracles shared by the test suite.

Proxes are checked against minimizers of the *defining* objective
phi(y) = step*h(y) + 0.5*(y - v)^2: a coarse grid plus golden-section
refinement locates the minimizer, then (phi being convex) bisection on its
nondecreasing subderivative polishes it to full precision.  The derivative
used is that of the mathematical definition, never of the closed form under
test.  Matrix quantities are checked against dense numpy equivalents, and
certified references against cvxpy where it is installed (``cvxpy_reference``).

The last section holds helpers that only tests use: scalar and single-row
forms of package operations, ridge and lasso problems, the saddle function,
a geometric DAPD schedule, DAPD's ergodic dual average, views into the
lazy sparse engine's state, and the problems and steps on which the compiled
row kernels are compared with their numpy bodies.
"""

import dataclasses

import numpy as np
import pytest

from dapd import kernels, matrix
from dapd.deterministic import SolverSchedule, dapd_iterate
from dapd.errors import CertificationError, ConfigurationError, StructuralError
from dapd.harness import _certify, _duality_gap
from dapd.matrix import build_matrix, matvec
from dapd.proxlib import (
    conjugate_total,
    elastic_net_reg,
    hinge_loss,
    l1_reg,
    l2_reg,
    make_problem,
    recover_primal,
    reg_value,
    squared_loss,
)
from dapd.sparse_engine import _recover_x
from dapd.stochastic import params_for_problem, perturb_problem

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class ScalarFunction:
    """Value and subderivative of a scalar convex function on [lo, hi]."""

    def __init__(self, value, deriv, lo=-np.inf, hi=np.inf):
        self.value = value
        self.deriv = deriv
        self.lo = lo
        self.hi = hi


def golden_section_min(f, lo, hi, tol=1e-9, max_iter=200):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def prox_oracle(h: ScalarFunction, step, v, lo, hi, grid=2001):
    """argmin_y step*h(y) + 0.5*(y-v)^2 over [lo, hi] (within h's domain)."""
    lo = max(lo, h.lo)
    hi = min(hi, h.hi)

    def phi(y):
        hy = h.value(y)
        return step * hy + 0.5 * (y - v) ** 2 if np.isfinite(hy) else np.inf

    ys = np.linspace(lo, hi, grid)
    vals = np.array([phi(y) for y in ys])
    k = int(np.argmin(vals))
    coarse = golden_section_min(phi, ys[max(k - 1, 0)], ys[min(k + 1, grid - 1)])

    # convexity polish: bisection on the nondecreasing subderivative
    def dphi(y):
        return step * h.deriv(y) + (y - v)

    a, b = lo, hi
    da = dphi(a) if np.isfinite(a) else -np.inf
    db = dphi(b) if np.isfinite(b) else np.inf
    if da >= 0:
        refined = a
    elif db <= 0:
        refined = b
    else:
        a_, b_ = a, b
        for _ in range(200):
            mid = 0.5 * (a_ + b_)
            if dphi(mid) < 0:
                a_ = mid
            else:
                b_ = mid
            if b_ - a_ < 1e-15 * (1 + abs(mid)):
                break
        refined = 0.5 * (a_ + b_)
    assert abs(refined - coarse) < 1e-4 * (1 + abs(refined)), (
        "oracle self-check: grid+golden and derivative bisection disagree"
    )
    return refined


# scalar definitions, independent of the package's vectorized closed forms


def squared_conj(b_i, delta1=0.0):
    return ScalarFunction(
        value=lambda y: 0.5 * y**2 + b_i * y + 0.5 * delta1 * y**2,
        deriv=lambda y: (1.0 + delta1) * y + b_i,
    )


def hinge_conj(delta1=0.0):
    def val(y):
        if -1.0 <= y <= 0.0:
            return y + 0.5 * delta1 * y**2
        return np.inf

    return ScalarFunction(value=val, deriv=lambda y: 1.0 + delta1 * y, lo=-1.0, hi=0.0)


def l1_fn(lam, delta2=0.0):
    return ScalarFunction(
        value=lambda y: lam * abs(y) + 0.5 * delta2 * y**2,
        deriv=lambda y: lam * np.sign(y) + delta2 * y,
    )


def l2_fn(lam, delta2=0.0):
    return ScalarFunction(
        value=lambda y: 0.5 * (lam + delta2) * y**2,
        deriv=lambda y: (lam + delta2) * y,
    )


def elastic_fn(lam1, lam2, delta2=0.0):
    return ScalarFunction(
        value=lambda y: lam1 * abs(y) + 0.5 * (lam2 + delta2) * y**2,
        deriv=lambda y: lam1 * np.sign(y) + (lam2 + delta2) * y,
    )


def huber_fn(lam, mh, delta2=0.0):
    cut = lam / (2.0 * mh)

    def val(y):
        base = lam * (abs(y) - lam / (4.0 * mh)) if abs(y) >= cut else mh * y**2
        return base + 0.5 * delta2 * y**2

    def der(y):
        base = lam * np.sign(y) if abs(y) >= cut else 2.0 * mh * y
        return base + delta2 * y

    return ScalarFunction(value=val, deriv=der)


def kl_fn(w, delta2=0.0):
    def val(y):
        if y <= 0:
            return np.inf
        return w * np.log(w / y) + 0.5 * delta2 * y**2

    return ScalarFunction(
        value=val, deriv=lambda y: -w / y + delta2 * y, lo=1e-300
    )


def cvxpy_reference(problem, accuracy):
    """The certified optimum by cvxpy, a cross-check on the package's own
    references; the caller skips when cvxpy is not installed."""
    import cvxpy as cp

    dense = problem.matrix.to_dense()
    c = problem.loss_scale
    n, d = problem.n, problem.dim
    x = cp.Variable(d)
    u = dense @ x
    constraints = []
    hinge_cons = None
    if problem.loss.kind == "squared":
        loss_expr = c * 0.5 * cp.sum_squares(u - problem.loss.targets)
    else:
        t = cp.Variable(n)
        hinge_cons = 1.0 - u - t <= 0
        constraints += [t >= 0, hinge_cons]
        loss_expr = c * cp.sum(t)
    reg = problem.reg
    if reg.kind == "l2":
        reg_expr = 0.5 * reg.lam * cp.sum_squares(x)
    elif reg.kind == "l1":
        reg_expr = reg.lam * cp.norm1(x)
    elif reg.kind == "elastic_net":
        reg_expr = reg.lam * cp.norm1(x) + 0.5 * reg.lam2 * cp.sum_squares(x)
    elif reg.kind == "huber":
        reg_expr = reg.huber_mu * cp.sum(cp.huber(x, reg.lam / (2.0 * reg.huber_mu)))
    else:  # kl
        w = reg.weight() * np.ones(d)
        reg_expr = cp.sum(cp.multiply(w, np.log(w)) - cp.multiply(w, cp.log(x)))
    prob = cp.Problem(cp.Minimize(loss_expr + reg_expr), constraints)
    solved = False
    for solver_kw in ({"solver": "CLARABEL"}, {"solver": "ECOS"}, {}):
        try:
            prob.solve(**solver_kw)
        except (cp.error.SolverError, ValueError):
            continue
        if prob.status in ("optimal", "optimal_inaccurate"):
            solved = True
            break
    if not solved:
        raise CertificationError(f"cvxpy failed to solve the reference problem ({prob.status})")
    x_val = np.asarray(x.value, dtype=np.float64).reshape(d)
    if problem.loss.kind == "squared":
        y_candidate = c * (dense @ x_val - problem.loss.targets)
    else:
        # duals of (1 - u - t <= 0) are the negated saddle duals
        y_candidate = -np.asarray(hinge_cons.dual_value, dtype=np.float64).reshape(n)
    return _certify(x_val, *_duality_gap(problem, x_val, y_candidate), accuracy, "cvxpy")


def assert_spectral_bound(R, A):
    """``matrix.power_iteration``'s contract for a converged estimate R of
    A's norm, against the dense SVD with no ulp allowance: sigma_max <= R <=
    sigma_max * (1 + SPECTRAL_NORM_REL_TOL) * (1 + SPECTRAL_NORM_MARGIN)."""
    sigma = np.linalg.svd(A.to_dense(), compute_uv=False)[0] if A.nnz else 0.0
    assert sigma <= R <= sigma * (1 + matrix.SPECTRAL_NORM_REL_TOL) * (
        1 + matrix.SPECTRAL_NORM_MARGIN), (R, sigma)


def clustered_matrix(rng, short, long, wide, top, gap, scale):
    """A dense short x long matrix (long x short unless ``wide``) with
    random singular vectors, whose ``top`` largest singular values lie in
    [scale * (1 - gap), scale] and the rest below scale: from a random
    start, the top Ritz value can settle on one of the cluster below
    sigma_max."""
    n_rows, n_cols = (short, long) if wide else (long, short)
    U = np.linalg.qr(rng.standard_normal((n_rows, short)))[0]
    V = np.linalg.qr(rng.standard_normal((n_cols, short)))[0]
    s = rng.uniform(0.0, 1.0, short)
    s[:top] = 1.0 - gap * rng.random(top)
    M = (U * s) @ V.T * scale
    return build_matrix([(i, j, M[i, j]) for i in range(n_rows) for j in range(n_cols)],
                        n_rows, n_cols)


# test-only helpers over the package


def row_dot(A, i, v):
    """Inner product of row i of A with v, over stored entries only."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (A.n_cols,):
        raise StructuralError(f"vector of length {v.shape} incompatible with {A.n_cols} columns")
    cols, vals = A.row(i)
    if vals.size == 0:
        return 0.0
    return float(vals @ v[cols])


def prox_loss(loss, i, step, v):
    """argmin_y  step * f_i(y) + 0.5 (y - v)^2 for the unperturbed loss."""
    if step <= 0:
        raise StructuralError("step must be positive")
    if loss.kind == "squared":
        return (v + step * loss.targets[i]) / (1.0 + step)
    if v >= 1.0:
        return v
    if v + step <= 1.0:
        return v + step
    return 1.0


def prox_reg_coord(reg, j, step, v):
    """Scalar prox of step * (g_j + delta2/2 (.)^2) at coordinate j."""
    if step <= 0:
        raise StructuralError("step must be positive")
    return float(recover_primal(reg, np.float64(v), 0.0, step, 1.0, coords=j))


def ridge_problem(matrix, targets, lam, scaling="finite_sum"):
    return make_problem(matrix, squared_loss(targets), l2_reg(lam), scaling)


def lasso_problem(matrix, targets, lam):
    return make_problem(matrix, squared_loss(targets), l1_reg(lam), "finite_sum")


def one_d_ridge():
    """min 0.5 (x - 1)^2 + 0.5 x^2, with x* = 0.5 and P* = 0.25."""
    return make_problem(build_matrix([(0, 0, 1.0)], 1, 1), squared_loss([1.0]), l2_reg(1.0),
                        "deterministic")


def saddle_value(problem, x, y):
    """F(x, y) = g~(x) + <y, A x> - f~*(y) for the problem's scaling, where
    g~ = g + delta2/2 ||x||^2 and f~* adds delta1/2 (y_i/c)^2 to each
    per-sample conjugate (c the loss scale)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c = problem.loss_scale
    gval = reg_value(problem.reg, x) + 0.5 * problem.reg.primal_perturbation * float(x @ x)
    fstar = conjugate_total(problem, y) + c * float(
        np.sum(0.5 * problem.loss.dual_perturbation * (y / c) ** 2)
    )
    return gval + float(y @ matvec(problem.matrix, x)) - fstar


def geometric_schedule(eta, tau, beta0, xi):
    """Constant steps with beta_t = beta0 * xi^t (xi >= 1)."""
    if min(eta, tau, beta0) <= 0 or xi < 1.0:
        raise ConfigurationError("geometric schedule needs positive steps and xi >= 1")
    return SolverSchedule(
        "geometric",
        eta=lambda t: eta,
        tau=lambda t: tau,
        beta=lambda t: beta0 * xi**t,
        beta_ratio=lambda t: xi,
        params={"eta": eta, "tau": tau, "beta0": beta0, "xi": xi},
    )


def dapd_iterate_ergodic_y(state, ergodic_y):
    """``dapd_iterate``, and ``ergodic_y`` moved in place to the
    beta-weighted average of the y iterates, with the weight the iteration
    gives ``ergodic_x``: beta_t / B_t."""
    beta_hat, b_hat = state.beta_hat, state.B_hat
    dapd_iterate(state)
    ergodic_y += (beta_hat / (b_hat + beta_hat)) * (state.y - ergodic_y)


def materialize_s(state):
    """The lazy engine's full gradient sum v + beta_{t-1} w, unscaled; O(d).

    The true values can overflow on very long runs; the engine itself never
    forms them.
    """
    with np.errstate(over="ignore"):
        return (state.v + state.beta_prev_hat * state.w) / state.inv_scale


def lazy_primal_coord(state, j):
    """(x_j, xbar_j) recovered from the lazy state in O(1); counts 2 touches."""
    if not 0 <= j < state.x0.size:
        raise StructuralError(f"coordinate {j} out of range")
    cols = np.array([j])
    x = _recover_x(state, cols)
    eta = state.params.eta
    xbar = recover_primal(state.problem.reg, x - eta * state.u[cols], np.zeros_like(x), eta, 1.0, coords=cols)
    state.touch_counter += 2
    return float(x[0]), float(xbar[0])


def sampled_rows(n, seed=0):
    """Endless uniform rows from ``default_rng(seed)``, one scalar draw each:
    the rows the stochastic drivers sample at that seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(n))


# the regularizers of the compiled row kernels (kernels.c)
KERNEL_REGS = {"l2": l2_reg(0.3), "l1": l1_reg(0.05), "elastic_net": elastic_net_reg(0.05, 0.2)}


def ragged_problem(loss, reg, seed=13):
    """12 x 20 with empty rows, one-entry rows and rows of up to 8 entries."""
    rng = np.random.default_rng(seed)
    n, d = 12, 20
    triplets = [
        (i, int(j), rng.normal())
        for i in range(n)
        for j in sorted(rng.choice(d, size=(0, 1, 1, 3, 5, 8)[i % 6], replace=False))
    ]
    A = build_matrix(triplets, n, d)
    if loss == "squared":
        return make_problem(A, squared_loss(rng.normal(size=n)), reg, "finite_sum")
    return make_problem(A, hinge_loss(rng.choice([-1.0, 1.0], size=n)), reg, "finite_sum")


def grid_params(problem):
    """The steps of the problem perturbed by 1e-3, with beta0 = 100 and
    xi = 1.005: beta reaches 1e3 after 462 iterations, so a run of 900
    rebases once at that threshold (and squared + l1 unperturbed, which
    SDAPD does not cover, stays finite)."""
    params = params_for_problem(perturb_problem(problem, 1e-3))
    return dataclasses.replace(params, beta0=100.0, xi=1.005)


def built_without_kernels(make, *args, **kwargs):
    """``make(*args, **kwargs)`` while ``kernels.library`` is forced to
    None: a solver state built so binds no compiled kernel, and keeps
    running its numpy body."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "library", lambda: None)
        return make(*args, **kwargs)


# the two ways a solver state runs its rows
ROW_PATHS = ("compiled", "numpy")


def skip_unless_compiled():
    """Skip the calling test where the compiled kernels cannot be built."""
    if matrix.backend() != "compiled":
        pytest.skip("the compiled kernels cannot be built here (no C compiler?)")


def built_on(path, make, *args, **kwargs):
    """``make(*args, **kwargs)`` running its compiled row kernels
    (``path="compiled"``; the test is skipped where they cannot run) or its
    numpy body (``"numpy"``, ``built_without_kernels``)."""
    if path == "numpy":
        state = built_without_kernels(make, *args, **kwargs)
    else:
        skip_unless_compiled()
        state = make(*args, **kwargs)
    assert (state._kernel[1] is not None) == (path == "compiled")
    return state
