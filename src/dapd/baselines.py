"""Comparison solvers sharing the matrix/prox substrate.

All baselines run dense (for SPDC and ProxSGD on sparse data this is exactly
the per-epoch cost difference the coordinate-touch counters expose) and emit
the same trace schema and epoch convention as the native solvers: one epoch
is one iteration for deterministic methods and n row accesses for stochastic
ones.

Step rules follow each method's original reference and are fixed, not tuned;
every resolved constant is returned for the experiment manifest.

  pdhg      Chambolle & Pock (2011), J Math Imaging Vis 40(1); algorithm 1,
            with the accelerated variants (their algorithms 2-3) when strong
            convexity / smoothness are available
  apgm      Nesterov's accelerated proximal gradient in its FISTA form,
            Beck & Teboulle (2009), SIAM J Imaging Sci 2(1); constant-momentum
            variant when the regularizer is strongly convex
  da        Nesterov (2009), Math Program 120(1), simple dual averaging on
            the full subgradient
  rda       Xiao (2010), JMLR 11, regularized dual averaging with the
            sqrt(t) auxiliary strong convexity
  proxsgd   proximal stochastic (sub)gradient, 1/(mu t) steps when strongly
            convex (Shamir & Zhang 2013 style), else c/sqrt(t)
  proxsvrg  Xiao & Zhang (2014), SIAM J Optim 24(4); step 1/(10 L), epoch
            length m = 2n
  spdc      Zhang & Xiao (2017), Math Program 165; published (tau, sigma,
            theta) triple

SPDC runs an epoch of rows in one call, ``spdc_epoch``: for each row the
dot product with x_ext, the dual step, the primal prox step and the
extrapolation, counting the row in ``t`` and the touch count, kept in the
state's ``kernels.RowScalars`` block.  ``SpdcState`` binds the call once, to
its ``problem`` (``kernels.bind``): ``spdc_epoch`` of ``kernels.c`` for l2,
l1 and elastic net, and otherwise, or when the kernels cannot be built, its
numpy body ``_spdc_epoch_numpy``, which gives the same bits and is the
kernel's oracle.  A row whose dot product, new dual
coordinate or new x is not finite raises ``DivergenceError`` at that
iteration, as SDAPD's does, under the row kernels' divergence contract
(``kernels.c``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigurationError, DivergenceError
from .matrix import matvec, ordered_dot
from .proxlib import (
    CompositeProblem,
    composite_gamma,
    dual_prox,
    loss_grad_at,
    loss_grads,
    problem_constants,
    prox_conjugate,
    prox_reg,
    recover_primal,
)
from .traces import RunResult, Tracer, epoch_rows


@dataclass(frozen=True)
class BaselineConfig:
    """Method name, budget in epochs, and seed (stochastic only)."""

    method: str
    epochs: int
    seed: int = 0

    def __post_init__(self):
        if self.method not in BASELINE_METHODS:
            raise ConfigurationError(f"unknown baseline method {self.method!r}")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")


def _reg_subgradient(reg, x):
    """A subgradient of the (perturbed) regularizer; sign(0) taken as 0."""
    if reg.kind == "l2":
        out = reg.lam * x
    elif reg.kind == "l1":
        out = reg.lam * np.sign(x)
    elif reg.kind == "elastic_net":
        out = reg.lam * np.sign(x) + reg.lam2 * x
    else:  # huber; ``check_regularizer`` refuses da on kl
        cut = reg.lam / (2.0 * reg.huber_mu)
        out = np.where(np.abs(x) <= cut, 2.0 * reg.huber_mu * x, reg.lam * np.sign(x))
    if reg.primal_perturbation > 0:
        out = out + reg.primal_perturbation * x
    return out


def _loss_gradient(problem, x):
    """Gradient (or subgradient) of the composite loss term at x."""
    u = matvec(problem.matrix, x)
    return problem.loss_scale * matvec(
        problem.matrix, loss_grads(problem.loss, u), transpose=True
    )


def _run_pdhg(problem, epochs, seed, tracer):
    A = problem.matrix
    reg = problem.reg
    gamma_f = composite_gamma(problem)
    _, mu, _, R, _ = problem_constants(problem)
    if R <= 0:
        raise ConfigurationError("pdhg needs a nonzero matrix")
    variant = "vanilla"
    theta = 1.0
    if gamma_f > 0 and mu > 0:
        # constant-step linearly convergent variant
        mu_pd = 2.0 * np.sqrt(gamma_f * mu) / R
        tau = mu_pd / (2.0 * mu)
        sigma = mu_pd / (2.0 * gamma_f)
        theta = 1.0 / (1.0 + mu_pd)
        variant = "strongly_convex_smooth"
    else:
        tau = 1.0 / R
        sigma = 1.0 / R
        if mu > 0:
            variant = "primal_accelerated"
        elif gamma_f > 0:
            variant = "dual_accelerated"
    d, n = problem.dim, problem.n
    x = np.zeros(d)
    y = np.zeros(n)
    x_ext = x.copy()
    touches = 0
    for t in range(epochs):
        y = dual_prox(problem.loss, problem.loss_scale, sigma, y + sigma * matvec(A, x_ext))
        x_new = prox_reg(reg, tau, x - tau * matvec(A, y, transpose=True))
        if variant == "primal_accelerated":
            theta = 1.0 / np.sqrt(1.0 + 2.0 * mu * tau)
            tau, sigma = theta * tau, sigma / theta
        elif variant == "dual_accelerated":
            theta = 1.0 / np.sqrt(1.0 + 2.0 * gamma_f * sigma)
            sigma, tau = theta * sigma, tau / theta
        x_ext = x_new + theta * (x_new - x)
        x = x_new
        touches += 2 * A.nnz + 2 * d + n
        tracer.record(t + 1, x, touches)
    return x, {"variant": variant, "tau": tau, "sigma": sigma, "theta": theta}


def _run_apgm(problem, epochs, seed, tracer):
    gamma_f = composite_gamma(problem)
    if gamma_f <= 0:
        raise ConfigurationError("apgm requires a smooth loss (gamma > 0)")
    _, mu, _, R, _ = problem_constants(problem)
    zeta = R**2 / gamma_f
    momentum_kind = "strongly_convex" if mu > 0 else "fista"
    if mu > 0:
        mom = (np.sqrt(zeta) - np.sqrt(mu)) / (np.sqrt(zeta) + np.sqrt(mu))
    t_k = 1.0
    x = np.zeros(problem.dim)
    z = x.copy()
    touches = 0
    for t in range(epochs):
        grad = _loss_gradient(problem, z)
        x_new = prox_reg(problem.reg, 1.0 / zeta, z - grad / zeta)
        if mu > 0:
            z = x_new + mom * (x_new - x)
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k**2))
            z = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
            t_k = t_next
        x = x_new
        touches += 2 * problem.matrix.nnz + 3 * problem.dim
        tracer.record(t + 1, x, touches)
    return x, {"zeta": zeta, "momentum": momentum_kind}


def _run_da(problem, epochs, seed, tracer):
    x0 = np.zeros(problem.dim)
    g0 = _loss_gradient(problem, x0) + _reg_subgradient(problem.reg, x0)
    gamma_hat = max(float(np.linalg.norm(g0)), 1e-12)
    x = x0.copy()
    s = np.zeros(problem.dim)
    touches = 0
    for t in range(epochs):
        s += _loss_gradient(problem, x) + _reg_subgradient(problem.reg, x)
        x = x0 - s / (gamma_hat * np.sqrt(t + 1.0))
        touches += 2 * problem.matrix.nnz + 3 * problem.dim
        tracer.record(t + 1, x, touches)
    return x, {"gamma_hat": gamma_hat}


def _run_rda(problem, epochs, seed, tracer):
    n = problem.n
    _, mu, _, _, rbar = problem_constants(problem)
    gamma_hat = max(rbar, 1e-12)
    sample_factor = problem.loss_scale * n  # per-sample gradient scale
    x0 = np.zeros(problem.dim)
    x = x0.copy()
    gbar = np.zeros(problem.dim)
    # with a strongly convex regularizer and bounded subgradients (Lipschitz
    # loss) the auxiliary sqrt(t) term is unnecessary: the update is
    # argmin <gbar, x> + g(x), the infinite-step prox limit
    lipschitz_loss = np.isfinite(problem.loss.lipschitz) or problem.loss.smoothness_gamma == 0
    variant = "strongly_convex" if (mu > 0 and lipschitz_loss) else "sqrt_t"
    t = touches = 0
    for epoch, rows in epoch_rows(n, epochs * n, seed):
        for i in rows.tolist():
            t += 1
            cols, vals = problem.matrix.row(i)
            gi = sample_factor * loss_grad_at(problem.loss, i, ordered_dot(vals, x[cols]))
            gbar *= (t - 1) / t
            gbar[cols] += (gi / t) * vals
            if variant == "strongly_convex":
                x = recover_primal(problem.reg, x0, gbar, 1.0, 0.0)
            else:
                step = np.sqrt(t) / gamma_hat
                x = prox_reg(problem.reg, step, x0 - step * gbar)
            touches += 2 * problem.dim + 2 * vals.size
        tracer.record(epoch, x, touches)
    return x, {"gamma_hat": gamma_hat, "variant": variant}


def _run_proxsgd(problem, epochs, seed, tracer):
    n = problem.n
    gamma, mu, _, _, rbar = problem_constants(problem)
    alpha0 = 1.0 / max(rbar, 1e-12)
    sample_factor = problem.loss_scale * n
    # 1/(mu t) steps need the usual inverse-smoothness cap to avoid the
    # huge-first-step blowup on smooth losses; the schedule is unchanged
    # asymptotically
    alpha_cap = gamma / (sample_factor * rbar**2) if gamma > 0 else np.inf
    x = np.zeros(problem.dim)
    rule = "inverse_mu_t" if mu > 0 else "inverse_sqrt_t"
    t = touches = 0
    for epoch, rows in epoch_rows(n, epochs * n, seed):
        for i in rows.tolist():
            t += 1
            cols, vals = problem.matrix.row(i)
            gi = sample_factor * loss_grad_at(problem.loss, i, ordered_dot(vals, x[cols]))
            alpha = min(1.0 / (mu * t), alpha_cap) if mu > 0 else alpha0 / np.sqrt(t)
            step_vec = x.copy()
            step_vec[cols] -= alpha * gi * vals
            x = prox_reg(problem.reg, alpha, step_vec)
            touches += 2 * problem.dim + 2 * vals.size
        tracer.record(epoch, x, touches)
    return x, {"rule": rule, "alpha0": alpha0}


def _run_proxsvrg(problem, epochs, seed, tracer):
    gamma, _, _, _, rbar = problem_constants(problem)
    if gamma <= 0:
        raise ConfigurationError("proxsvrg requires a smooth loss (gamma > 0)")
    n = problem.n
    sample_factor = problem.loss_scale * n
    L_sample = sample_factor * rbar**2 / gamma
    eta = 1.0 / (10.0 * L_sample)
    m = 2 * n
    # each cycle is a snapshot epoch (one access per row) and then m = 2n
    # sampled steps, two epochs; only the sampled epochs draw rows
    snapshots = (epochs + 2) // 3
    sampled = epoch_rows(n, (epochs - snapshots) * n, seed)
    x = np.zeros(problem.dim)
    touches = 0
    for epoch in range(1, epochs + 1):
        if epoch % 3 == 1:
            grads_snap = loss_grads(problem.loss, matvec(problem.matrix, x))
            full = problem.loss_scale * matvec(problem.matrix, grads_snap, transpose=True)
            touches += 2 * problem.matrix.nnz + problem.dim
        else:
            _, rows = next(sampled)
            for i in rows.tolist():
                cols, vals = problem.matrix.row(i)
                gi = loss_grad_at(problem.loss, i, ordered_dot(vals, x[cols]))
                v = full.copy()
                v[cols] += (sample_factor / n) * (gi - grads_snap[i]) * vals
                x = prox_reg(problem.reg, eta, x - eta * v)
                touches += 3 * problem.dim + 2 * vals.size
        tracer.record(epoch, x, touches)
    return x, {"eta": eta, "m": m}


class SpdcState:
    """SPDC's primal x, its extrapolation x_ext, the dual y and
    u = A^T y / n, stepped by ``spdc_epoch`` on the problem, the steps (tau,
    sigma) and the extrapolation theta it holds; ``t`` counts its rows.

    The epoch call is bound once, to ``problem``.  ``problem``, ``tau``,
    ``sigma``, ``theta`` and the vectors cannot be rebound (the vectors are
    written in place): the compiled kernel keeps their values and addresses.
    ``t`` and ``touch_counter`` are fields of a ``kernels.RowScalars``
    block, which the epoch call advances.
    """

    problem, tau, sigma, theta, x, x_ext, y, u = (
        kernels.fixed(name)
        for name in ("problem", "tau", "sigma", "theta", "x", "x_ext", "y", "u")
    )
    t, touch_counter = kernels.scalar("t"), kernels.scalar("touch_counter")

    def __init__(self, problem, tau: float, sigma: float, theta: float):
        if sigma <= 0:
            raise ConfigurationError("spdc needs a positive dual step sigma")
        d, n = problem.dim, problem.n
        self._problem = problem
        self._tau, self._sigma, self._theta = tau, sigma, theta
        self._x = np.zeros(d)
        self._x_ext = np.zeros(d)
        self._y = np.zeros(n)
        self._u = matvec(problem.matrix, self._y, transpose=True) / n
        self._scalars = kernels.RowScalars()
        kernels.bind(
            self, ("spdc_epoch",), (_spdc_epoch_numpy,), x=self._x, xbar=self._x_ext, u=self._u,
            y=self._y, step=tau, tau=sigma, theta=theta,
        )


def spdc_epoch(state: SpdcState, rows) -> SpdcState:
    """SPDC iterations on the sampled ``rows`` (an integer array) of the
    state's problem, in order; O(d + nnz(a_i)) each.  Every row index is
    checked before the first row runs."""
    (epoch,), rows = kernels.epoch_calls(state, rows)
    if epoch(rows, rows.size) < rows.size:
        raise DivergenceError(f"non-finite iterate at iteration {state.t}", iteration=state.t)
    return state


def _spdc_epoch_numpy(state: SpdcState, rows: np.ndarray, count: int) -> int:
    """``spdc_epoch`` in numpy: for each of the first ``count`` rows, the
    dot product with x_ext, the dual step, the primal prox step on
    u + dy a_i, the extrapolation and u, then t and the touch count.
    Returns the number of rows completed: ``count``, or the position of the
    first row whose dot product, new dual coordinate or new x is not
    finite."""
    problem, sigma, tau, theta = state.problem, state.sigma, state.tau, state.theta
    x, x_ext, y, u = state.x, state.x_ext, state.y, state.u
    for done, i in enumerate(rows[:count].tolist()):
        cols, vals = problem.matrix.row(i)
        dot = ordered_dot(vals, x_ext[cols])
        y_new = prox_conjugate(problem.loss, i, sigma, y[i] + sigma * dot)
        if not (math.isfinite(dot) and math.isfinite(y_new)):
            return done
        dy = y_new - y[i]
        y[i] = y_new
        with np.errstate(over="ignore", invalid="ignore"):
            grad = u.copy()
            grad[cols] += dy * vals
            x_new = prox_reg(problem.reg, tau, x - tau * grad)
            u[cols] += (dy / problem.n) * vals
            x_ext[...] = x_new + theta * (x_new - x)
        x[...] = x_new
        if not np.isfinite(x_new).all():
            return done
        state.touch_counter += 4 * problem.dim + 3 * vals.size
        state.t += 1
    return count


def spdc_steps(problem) -> tuple[float, float, float]:
    """The published (tau, sigma, theta) for the problem's constants."""
    gamma, mu, _, _, rbar = problem_constants(problem)
    if gamma <= 0 or mu <= 0:
        raise ConfigurationError(
            "spdc requires gamma > 0 and mu > 0; perturb the problem first"
        )
    n = problem.n
    tau = (1.0 / (2.0 * rbar)) * np.sqrt(gamma / (n * mu))
    sigma = (1.0 / (2.0 * rbar)) * np.sqrt(n * mu / gamma)
    theta = 1.0 - 1.0 / (n + 2.0 * rbar * np.sqrt(n / (gamma * mu)))
    return tau, sigma, theta


def _run_spdc(problem, epochs, seed, tracer):
    tau, sigma, theta = spdc_steps(problem)
    n = problem.n
    state = SpdcState(problem, tau, sigma, theta)
    for epoch, rows in epoch_rows(n, epochs * n, seed):
        spdc_epoch(state, rows)
        tracer.record(epoch, state.x, state.touch_counter)
    return state.x, {"tau": tau, "sigma": sigma, "theta": theta}


# name -> (runner, seeded, perturbed).  Every runner is called as
# runner(problem, epochs, seed, tracer), records each epoch on the
# tracer and returns (x, resolved constants); unseeded runners ignore seed.
# A perturbed method needs smoothness and strong convexity, so ``dapd run``
# gives it the perturbed problem (``perturb_problem``) when epsilon is set.
BASELINES = {
    "pdhg": (_run_pdhg, False, False),
    "apgm": (_run_apgm, False, True),
    "da": (_run_da, False, False),
    "rda": (_run_rda, True, False),
    "proxsgd": (_run_proxsgd, True, False),
    "proxsvrg": (_run_proxsvrg, True, True),
    "spdc": (_run_spdc, True, True),
}
BASELINE_METHODS = tuple(BASELINES)


def check_regularizer(method: str, reg_kind: str) -> None:
    """Refuse kl for the baselines that start at x = 0, where kl is +inf:
    da's first subgradient there is -w/0, and proxsvrg takes its first
    snapshot there."""
    if reg_kind == "kl" and method in ("da", "proxsvrg"):
        raise ConfigurationError(
            f"{method} cannot run on kl: it starts at x = 0, outside the kl domain"
        )


def run_baseline(
    config: BaselineConfig,
    problem: CompositeProblem,
    reference_value: float | None = None,
    wall_clock: bool = True,
) -> RunResult:
    """Run the configured baseline; deterministic methods ignore the seed.
    Returns the last iterate alone (``x_ergodic`` is None)."""
    check_regularizer(config.method, problem.reg.kind)
    runner, seeded, _ = BASELINES[config.method]
    tracer = Tracer(problem, reference_value, wall_clock)
    x, resolved = runner(problem, config.epochs, config.seed, tracer)
    resolved = {"method": config.method, "epochs": config.epochs, **resolved}
    if seeded:
        resolved["seed"] = config.seed
    return RunResult(x=x, trace=tracer.records, resolved=resolved)
