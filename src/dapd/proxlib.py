"""Loss families, regularizers, proximal operators, and the composite problem.

The problem solved everywhere is ``minimize  f(A x) + g(x)`` with
``f(u) = loss_scale * sum_i f_i(u_i)`` separable and ``g`` separable with an
easy prox.  The scaling fixes loss_scale: 1 for ``deterministic`` and 1/n
for ``finite_sum`` (the empirical risk form).

Perturbations: ``dual_perturbation`` (delta1) adds ``delta1/2 * y^2`` to each
per-sample conjugate, ``primal_perturbation`` (delta2) adds
``delta2/2 * ||x||^2`` to the regularizer.  Both are folded into every prox
and every effective constant, so solvers always see an ordinary
smooth/strongly-convex problem.  Objectives and conjugate values are those of
the unperturbed problem.

All types are immutable and all operations pure; everything here is safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ConfigurationError
from .matrix import SparseRowMatrix, MatrixStats, matvec, stats as matrix_stats

LOSS_KINDS = ("squared", "hinge")
REG_KINDS = ("l2", "l1", "elastic_net", "huber", "kl")
SCALINGS = ("deterministic", "finite_sum")


@dataclass(frozen=True, eq=False)
class LossFamily:
    """Separable loss  f_i: R -> R, one of:

    squared   f_i(u) = 0.5 * (u - b_i)^2          (1-smooth, gamma = 1)
    hinge     f_i(u) = max(1 - u, 0)              (nonsmooth, 1-Lipschitz;
              labels are folded into the matrix rows at problem build time)
    """

    kind: str
    targets: np.ndarray
    smoothness_gamma: float
    lipschitz: float
    dual_perturbation: float = 0.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise StructuralError(f"unknown loss kind {self.kind!r}")
        if self.dual_perturbation < 0:
            raise StructuralError("dual_perturbation must be nonnegative")
        self.targets.setflags(write=False)


def squared_loss(targets) -> LossFamily:
    targets = np.asarray(targets, dtype=np.float64)
    return LossFamily("squared", targets, smoothness_gamma=1.0, lipschitz=np.inf)


def hinge_loss(labels) -> LossFamily:
    """Hinge loss; ``labels`` are kept as metadata, margins live in the rows."""
    labels = np.asarray(labels, dtype=np.float64)
    return LossFamily("hinge", labels, smoothness_gamma=0.0, lipschitz=1.0)


@dataclass(frozen=True, eq=False)
class Regularizer:
    """Separable regularizer g(x) = sum_j g_j(x_j).

    l2            g_j = lam/2 * x^2                  (mu = lam)
    l1            g_j = lam * |x|
    elastic_net   g_j = lam * |x| + lam2/2 * x^2     (mu = lam2)
    huber         g_j = huber_mu * x^2 on the quadratic zone
                  |x| <= lam/(2 huber_mu), linear lam*(|x| - lam/(4 huber_mu))
                  outside (mu = 0: the tails are not strongly convex)
    kl            g_j = w_j * log(w_j / x_j) on x_j > 0
    """

    kind: str
    lam: float = 0.0
    lam2: float = 0.0
    huber_mu: float = 0.0
    kl_weights: np.ndarray | float = 1.0
    primal_perturbation: float = 0.0

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise StructuralError(f"unknown regularizer kind {self.kind!r}")
        if self.primal_perturbation < 0:
            raise StructuralError("primal_perturbation must be nonnegative")

    @property
    def strong_convexity(self) -> float:
        if self.kind == "l2":
            return self.lam
        if self.kind == "elastic_net":
            return self.lam2
        return 0.0

    def weight(self, j=None):
        """KL weight(s); scalar weights broadcast over coordinates."""
        w = self.kl_weights
        if np.isscalar(w) or j is None:
            return w
        return w[j]


def l2_reg(lam: float) -> Regularizer:
    return Regularizer("l2", lam=lam)


def l1_reg(lam: float) -> Regularizer:
    return Regularizer("l1", lam=lam)


def elastic_net_reg(lam1: float, lam2: float) -> Regularizer:
    return Regularizer("elastic_net", lam=lam1, lam2=lam2)


def huber_reg(lam: float, huber_mu: float) -> Regularizer:
    return Regularizer("huber", lam=lam, huber_mu=huber_mu)


def kl_reg(weights) -> Regularizer:
    w = np.asarray(weights, dtype=np.float64) if not np.isscalar(weights) else float(weights)
    if np.any(np.asarray(w) <= 0):
        raise StructuralError("kl weights must be positive")
    return Regularizer("kl", kl_weights=w)


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Data matrix, loss, regularizer, scaling, and cached matrix stats."""

    matrix: SparseRowMatrix
    loss: LossFamily
    reg: Regularizer
    scaling: str
    loss_scale: float
    stats: MatrixStats

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def dim(self) -> int:
        return self.matrix.n_cols


def make_problem(
    matrix: SparseRowMatrix,
    loss: LossFamily,
    reg: Regularizer,
    scaling: str = "finite_sum",
) -> CompositeProblem:
    if scaling not in SCALINGS:
        raise ConfigurationError(f"unknown scaling {scaling!r}")
    if loss.targets.size != matrix.n_rows:
        raise StructuralError(
            f"loss has {loss.targets.size} targets for {matrix.n_rows} rows"
        )
    loss_scale = 1.0 / matrix.n_rows if scaling == "finite_sum" else 1.0
    if reg.kind == "kl" and not np.isscalar(reg.kl_weights):
        if np.asarray(reg.kl_weights).shape != (matrix.n_cols,):
            raise StructuralError("kl weight vector length must equal n_cols")
    return CompositeProblem(matrix, loss, reg, scaling, loss_scale, matrix_stats(matrix))


def fold_labels(matrix: SparseRowMatrix, labels) -> SparseRowMatrix:
    """Scale each row i by labels[i], so hinge margins read max(1 - <a_i, x>, 0).

    The result shares ``matrix``'s frozen offsets and column indices; only
    its values are new.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (matrix.n_rows,):
        raise StructuralError("one label per row required")
    # value * labels[row], written over the repeated labels
    vals = np.repeat(labels, np.diff(matrix.row_offsets))
    np.multiply(matrix.values, vals, out=vals)
    return SparseRowMatrix(matrix.n_rows, matrix.n_cols, matrix.row_offsets, matrix.col_indices,
                           vals)


def svm_problem(matrix, labels, reg):
    return make_problem(fold_labels(matrix, labels), hinge_loss(labels), reg, "finite_sum")


# ---------------------------------------------------------------------------
# loss-side values, gradients, and proxes (per-sample, unscaled)
# ---------------------------------------------------------------------------


def loss_values(loss: LossFamily, u: np.ndarray) -> np.ndarray:
    """Vector of f_i(u_i) for the unperturbed loss."""
    u = np.asarray(u, dtype=np.float64)
    if loss.kind == "squared":
        return 0.5 * (u - loss.targets) ** 2
    return np.maximum(1.0 - u, 0.0)


def loss_grads(loss: LossFamily, u: np.ndarray) -> np.ndarray:
    """Vector of f_i'(u_i) for the loss smoothed by delta1 (the Moreau
    envelope the conjugate perturbation induces); a subgradient choice for
    the plain hinge when delta1 = 0."""
    u = np.asarray(u, dtype=np.float64)
    d1 = loss.dual_perturbation
    if loss.kind == "squared":
        g = u - loss.targets
        if d1 > 0:
            g = g / (1.0 + d1)
        return g
    if d1 > 0:
        return np.clip((u - 1.0) / d1, -1.0, 0.0)
    return np.where(u < 1.0, -1.0, 0.0)


def loss_grad_at(loss: LossFamily, i: int, u: float) -> float:
    """f_i'(u) for one sample, as in ``loss_grads``."""
    d1 = loss.dual_perturbation
    if loss.kind == "squared":
        g = u - loss.targets[i]
        return g / (1.0 + d1) if d1 > 0 else g
    if d1 > 0:
        return _unit_clip((u - 1.0) / d1)
    return -1.0 if u < 1.0 else 0.0


def _unit_clip(u: float) -> float:
    """``float(np.clip(u, -1.0, 0.0))`` for one number, without numpy's
    per-call cost: -0.0 and NaN (with its sign) pass through as they do there."""
    if u < -1.0:
        return -1.0
    if u > 0.0:
        return 0.0
    return float(u)


def conjugate_values(loss: LossFamily, y: np.ndarray) -> np.ndarray:
    """Vector of f_i*(y_i) for the unperturbed loss; inf off-domain."""
    y = np.asarray(y, dtype=np.float64)
    if loss.kind == "squared":
        return 0.5 * y**2 + loss.targets * y
    return np.where((y >= -1.0) & (y <= 0.0), y, np.inf)


def prox_conjugate(loss: LossFamily, i: int, tau: float, v: float) -> float:
    """argmin_y  tau*(f_i*(y) + delta1/2 y^2) + 0.5 (y - v)^2, closed form."""
    if tau <= 0:
        raise StructuralError("tau must be positive")
    d1 = loss.dual_perturbation
    if loss.kind == "squared":
        return (v - tau * loss.targets[i]) / (1.0 + tau * (1.0 + d1))
    return _unit_clip((v - tau) / (1.0 + tau * d1))


def dual_prox(loss: LossFamily, loss_scale: float, tau: float, v: np.ndarray) -> np.ndarray:
    """Coordinatewise prox of tau * f* where f(u) = c * sum_i f_i(u_i).

    Uses prox_{tau (c h)*}(v) = c * prox_{(tau/c) h*}(v/c), so one closed
    form serves both scalings.
    """
    if tau <= 0:
        raise StructuralError("tau must be positive")
    c = loss_scale
    v = np.asarray(v, dtype=np.float64)
    d1 = loss.dual_perturbation
    if loss.kind == "squared":
        return (v - tau * loss.targets) / (1.0 + (tau / c) * (1.0 + d1))
    return np.clip((v - tau) / (1.0 + (tau / c) * d1), -c, 0.0)


# ---------------------------------------------------------------------------
# regularizer-side values and proxes
# ---------------------------------------------------------------------------


def reg_values(reg: Regularizer, x: np.ndarray) -> np.ndarray:
    """Per-coordinate g_j(x_j), excluding the delta2 perturbation."""
    x = np.asarray(x, dtype=np.float64)
    if reg.kind == "l2":
        return 0.5 * reg.lam * x**2
    if reg.kind == "l1":
        return reg.lam * np.abs(x)
    if reg.kind == "elastic_net":
        return reg.lam * np.abs(x) + 0.5 * reg.lam2 * x**2
    if reg.kind == "huber":
        lam, mh = reg.lam, reg.huber_mu
        cut = lam / (2.0 * mh)
        ax = np.abs(x)
        return np.where(ax >= cut, lam * (ax - lam / (4.0 * mh)), mh * x**2)
    # kl: domain x > 0
    w = reg.weight()
    x_safe = np.where(x > 0, x, 1.0)
    return np.where(x > 0, w * np.log(w / x_safe), np.inf)


def reg_value(reg: Regularizer, x: np.ndarray) -> float:
    """g(x), excluding the delta2 perturbation."""
    return float(np.sum(reg_values(reg, x)))


def recover_primal(reg: Regularizer, x0, s_hat, b_hat, inv_scale=1.0, coords=None):
    """prox_{B g~}(x0 - s) with B = b_hat/inv_scale and s = s_hat/inv_scale.

    g~ includes the delta2 perturbation.  Written entirely in quantities
    divided by the scale factor so that geometrically growing dual-averaging
    weights never overflow: inv_scale underflowing to 0 gives the correct
    B -> infinity limit.  With inv_scale == 1 this is the plain prox.
    ``coords`` selects the KL weight entries when x0/s_hat are slices.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    z = x0 * inv_scale - s_hat
    d2 = reg.primal_perturbation
    if reg.kind == "l2":
        return z / (inv_scale + b_hat * (reg.lam + d2))
    if reg.kind in ("l1", "elastic_net"):
        lam2 = reg.lam2 if reg.kind == "elastic_net" else 0.0
        m = np.abs(z) - b_hat * reg.lam
        den = inv_scale + b_hat * (lam2 + d2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(m > 0, np.sign(z) * m / den, 0.0)
        return out
    if reg.kind == "huber":
        lam, mh = reg.lam, reg.huber_mu
        quad = z / (inv_scale + b_hat * (2.0 * mh + d2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shrink = np.sign(z) * (np.abs(z) - b_hat * lam) / (inv_scale + b_hat * d2)
        return np.where(np.abs(quad) <= lam / (2.0 * mh), quad, shrink)
    # kl: positive root of (inv + B_hat d2) y^2 - z y - B_hat w = 0
    a = inv_scale + b_hat * d2
    if b_hat == 0:
        # B = 0: the prox is the identity; the root below would be 0/0 at z = 0
        return z / a
    w = reg.weight(coords)
    c = b_hat * w
    disc = np.sqrt(z**2 + 4.0 * a * c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # rationalized form for z <= 0 avoids cancellation; direct form for z > 0
        out = np.where(z > 0, (z + disc) / (2.0 * a), 2.0 * c / (disc - z))
    return out


def prox_reg(reg: Regularizer, step: float, v: np.ndarray) -> np.ndarray:
    """Vector prox of step * (g + delta2/2 ||.||^2)."""
    if step <= 0:
        raise StructuralError("step must be positive")
    v = np.asarray(v, dtype=np.float64)
    return recover_primal(reg, v, np.zeros_like(v), step, 1.0)


# ---------------------------------------------------------------------------
# objectives and constants
# ---------------------------------------------------------------------------


def primal_objective(problem: CompositeProblem, x: np.ndarray) -> float:
    """P(x) = loss_scale * sum_i f_i(<a_i, x>) + g(x), the original objective
    without the delta1/delta2 terms.

    Returns +inf outside dom g (kl with any x_j <= 0).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.dim,):
        raise StructuralError(f"x has length {x.shape}, expected {problem.dim}")
    with np.errstate(over="ignore"):
        gval = reg_value(problem.reg, x)
        if not np.isfinite(gval):
            return np.inf
        u = matvec(problem.matrix, x)
        lval = problem.loss_scale * float(np.sum(loss_values(problem.loss, u)))
    return lval + gval


def conjugate_total(problem: CompositeProblem, y: np.ndarray) -> float:
    """f*(y) for f(u) = c * sum f_i(u_i):  sum_i c * f_i*(y_i / c)."""
    c = problem.loss_scale
    return c * float(np.sum(conjugate_values(problem.loss, np.asarray(y) / c)))


def problem_constants(problem: CompositeProblem):
    """(gamma, mu, L, R, Rbar): effective per-sample constants with
    perturbations folded in, plus the matrix norms."""
    gamma = problem.loss.smoothness_gamma + problem.loss.dual_perturbation
    mu = problem.reg.strong_convexity + problem.reg.primal_perturbation
    return (
        gamma,
        mu,
        problem.loss.lipschitz,
        problem.stats.spectral_norm,
        problem.stats.max_row_norm,
    )


def composite_gamma(problem: CompositeProblem) -> float:
    """Inverse smoothness of the composite f(u) = c * sum f_i(u_i)."""
    gamma, _, _, _, _ = problem_constants(problem)
    return gamma / problem.loss_scale


def composite_lipschitz(problem: CompositeProblem) -> float:
    """Lipschitz constant of the composite f (inf when f_i are not Lipschitz)."""
    L = problem.loss.lipschitz
    if not np.isfinite(L):
        return np.inf
    return problem.loss_scale * np.sqrt(problem.n) * L


# ---------------------------------------------------------------------------
# dual objective and feasibility, used for reference certification
# ---------------------------------------------------------------------------


def _reg_conjugate(reg: Regularizer, z: np.ndarray) -> float:
    """g*(z) for the unperturbed regularizer; inf off-domain."""
    z = np.asarray(z, dtype=np.float64)
    if reg.kind == "l2":
        return float(np.sum(z**2)) / (2.0 * reg.lam)
    if reg.kind == "l1":
        return 0.0 if np.max(np.abs(z), initial=0.0) <= reg.lam * (1 + 1e-12) else np.inf
    if reg.kind == "elastic_net":
        excess = np.maximum(np.abs(z) - reg.lam, 0.0)
        return float(np.sum(excess**2)) / (2.0 * reg.lam2)
    if reg.kind == "huber":
        if np.max(np.abs(z), initial=0.0) > reg.lam * (1 + 1e-12):
            return np.inf
        return float(np.sum(z**2)) / (4.0 * reg.huber_mu)
    # kl: finite only for z < 0
    if np.any(z >= 0):
        return np.inf
    w = reg.weight()
    return float(np.sum(-w * (1.0 + np.log(-z))))


def dual_objective(problem: CompositeProblem, y: np.ndarray) -> float:
    """D(y) = -g*(-c A^T y) - f*(y), a lower bound on the unperturbed optimum."""
    y = np.asarray(y, dtype=np.float64)
    z = matvec(problem.matrix, y, transpose=True)
    gstar = _reg_conjugate(problem.reg, -z)
    fstar = conjugate_total(problem, y)
    if not np.isfinite(gstar) or not np.isfinite(fstar):
        return -np.inf
    return -gstar - fstar


def feasible_dual_point(problem: CompositeProblem, y: np.ndarray) -> np.ndarray:
    """Project/scale y into dom f* and dom g* so dual_objective is finite.

    Scaling-based feasibility is available for l1 and huber (bounded-domain
    conjugates); l2 and elastic_net are always feasible.  KL is not supported.
    """
    y = np.asarray(y, dtype=np.float64).copy()
    if problem.loss.kind == "hinge":
        c = problem.loss_scale
        y = np.clip(y, -c, 0.0)
    reg = problem.reg
    if reg.kind in ("l1", "huber"):
        z = matvec(problem.matrix, y, transpose=True)
        zmax = float(np.max(np.abs(z), initial=0.0))
        if zmax > reg.lam and zmax > 0:
            y = y * (reg.lam / zmax)
    elif reg.kind == "kl":
        raise ConfigurationError("dual feasibility scaling is not available for kl")
    return y
