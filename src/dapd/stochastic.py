"""Stochastic dual-averaging primal-dual (SDAPD), dense reference path.

Each iteration samples one row i_t uniformly and works on the finite-sum
saddle form  min_x max_y  g(x) + (1/n)<y, A x> - (1/n) sum_i f_i*(y_i):

    xbar^{t+1} = prox_{eta g}(x^t - eta u^t),         u^t = (1/n) A^T y^t
    y^{t+1}    = y^t except coordinate i_t, which takes
                 prox_{tau f_i*}(y^t_i + tau <a_i, xbar^{t+1}>)
    ybar^{t+1} = y^t + n (y^{t+1} - y^t)              (extrapolation)
    x^{t+1}    = prox_{B_t g}(x^0 - sum_{k<=t} (beta_k/n) A^T ybar^{k+1})

Since ybar differs from y^t in one coordinate,
(1/n) A^T ybar^{t+1} = u^t + dy * a_i with dy = y^{t+1}_i - y^t_i, so the
gradient-sum update costs O(d) plus the row's nonzeros and u is maintained
incrementally.  Step sizes are constant; beta_t = beta0 * xi^t is geometric,
which is also what the lazy sparse engine requires.

Smoothness (gamma > 0) and strong convexity (mu > 0) are required; for
problems lacking one, ``perturb_problem`` adds the quadratic perturbations
delta1/delta2 proportional to the target accuracy.

The same rescaled (grad_sum, B, beta) bookkeeping as the deterministic
solver (``deterministic.rescale``) keeps geometric growth finite on
arbitrarily long runs.

``sdapd_iterate_dense`` runs a row as two calls around the dual step
(``prox_conjugate``, which stays in Python): the first computes xbar and the
row's dot product, the second the gradient-sum, u, x and ergodic updates,
and advances the step scalars (B, beta, t and the touch count, kept in the
state's ``kernels.RowScalars`` block); only the rescale check stays in
Python.  For l2, l1 and elastic net they are the compiled
``sdapd_dense_xbar`` and ``sdapd_dense_update`` (``kernels.c``), and
otherwise, or when the kernels cannot be built, their numpy bodies
(``_xbar_dot_numpy`` and ``_update_numpy``, the kernels' oracle).
``StochasticState`` binds them once, to its ``problem`` (``kernels.bind``).
Both evaluate the same expressions in the same order and sum the row's dot
product in storage order from +0.0 (``matrix.ordered_dot``), so they give
the same bits on any machine, and both keep the row kernels' divergence
contract (``kernels.c``); ``matrix.backend`` says whether the kernels can
run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .deterministic import RESCALE_THRESHOLD, rescale, start_vector
from .errors import ConfigurationError, DivergenceError
from .matrix import ordered_dot
from .proxlib import (
    CompositeProblem,
    problem_constants,
    prox_conjugate,
    prox_reg,
    recover_primal,
)
from .traces import RunResult, Tracer, epoch_rows


@dataclass(frozen=True)
class StochasticParams:
    """Constant steps and geometric dual-averaging weights.

    Invariants: eta * tau = 1 / rbar^2 (used with equality in the analysis)
    and xi = 1 + 1/(n + rbar sqrt(n/(mu gamma))).
    """

    eta: float
    tau: float
    beta0: float
    xi: float
    n: int

    @property
    def theta(self) -> float:
        """Decay 1/xi, the form the lazy sparse engine needs."""
        return 1.0 / self.xi


def sdapd_params(n: int, gamma_eff: float, mu_eff: float, rbar: float) -> StochasticParams:
    """Theorem-rate parameters from the effective problem constants."""
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    if rbar <= 0:
        raise ConfigurationError("rbar must be positive")
    if gamma_eff <= 0 or mu_eff <= 0:
        raise ConfigurationError(
            "SDAPD needs gamma > 0 and mu > 0; use perturb_problem to add "
            "the accuracy-proportional perturbations first"
        )
    eta = (1.0 / rbar) * np.sqrt(gamma_eff / (n * mu_eff))
    tau = (1.0 / rbar) * np.sqrt(n * mu_eff / gamma_eff)
    xi = 1.0 + 1.0 / (n + rbar * np.sqrt(n / (mu_eff * gamma_eff)))
    return StochasticParams(eta=eta, tau=tau, beta0=eta, xi=xi, n=n)


def params_for_problem(problem: CompositeProblem) -> StochasticParams:
    gamma, mu, _, _, rbar = problem_constants(problem)
    return sdapd_params(problem.n, gamma, mu, rbar)


def perturb_problem(
    problem: CompositeProblem, epsilon: float, c1: float = 0.1, c2: float = 0.1
) -> CompositeProblem:
    """Add delta1 = c1*epsilon (if gamma = 0) and delta2 = c2*epsilon (if
    mu = 0) so the effective constants are positive.  Already-regular
    problems are returned unchanged."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    loss, reg = problem.loss, problem.reg
    if loss.smoothness_gamma == 0.0 and loss.dual_perturbation == 0.0:
        loss = dataclasses.replace(loss, dual_perturbation=c1 * epsilon)
    if reg.strong_convexity == 0.0 and reg.primal_perturbation == 0.0:
        reg = dataclasses.replace(reg, primal_perturbation=c2 * epsilon)
    if loss is problem.loss and reg is problem.reg:
        return problem
    return dataclasses.replace(problem, loss=loss, reg=reg)


class StochasticState:
    """Mutable SDAPD state with the scaled dual-averaging bookkeeping,
    stepped by ``sdapd_iterate_dense`` on the problem and params it holds.

    The row's two steps are bound once, to ``problem``.  ``problem``,
    ``params`` and the vectors ``x0``, ``x``, ``xbar``, ``y``, ``u``,
    ``s_hat`` and ``ergodic_x`` cannot be rebound (the vectors are written
    in place): the compiled row kernels keep their values and addresses.
    ``beta_hat``, ``B_hat``, ``inv_scale``, ``t`` and ``touch_counter`` are
    fields of one ``kernels.RowScalars`` block, which the row's second step
    advances in place.
    """

    problem, params, x0, x, xbar, y, u, s_hat, ergodic_x = (
        kernels.fixed(name)
        for name in ("problem", "params", "x0", "x", "xbar", "y", "u", "s_hat", "ergodic_x")
    )
    beta_hat, B_hat, inv_scale, t, touch_counter = (
        kernels.scalar(name) for name in ("beta_hat", "B_hat", "inv_scale", "t", "touch_counter")
    )

    def __init__(self, problem, params, x0=None):
        d, n = problem.dim, problem.n
        if params.n != n:
            raise ConfigurationError("params were built for a different sample count")
        self._problem = problem
        self._params = params
        self._x0 = start_vector(x0, d, "x0")
        self._x = self._x0.copy()
        self._xbar = self._x0.copy()
        self._y = np.zeros(n)
        self._u = np.zeros(d)
        self._s_hat = np.zeros(d)
        self._ergodic_x = np.zeros(d)
        self._scalars = kernels.RowScalars(beta_hat=params.beta0, inv_scale=1.0)
        self.log_scale = 0.0
        kernels.bind(
            self, ("sdapd_dense_xbar", "sdapd_dense_update"),
            (_xbar_dot_numpy, _update_numpy), x0=self._x0, x=self._x, xbar=self._xbar,
            u=self._u, y=self._y, s_hat=self._s_hat, ergodic=self._ergodic_x,
            step=params.eta, xi=params.xi,
        )


def sdapd_iterate_dense(state: StochasticState, i: int):
    """One SDAPD iteration on row i of the state's problem; O(d + nnz(a_i)) dense work."""
    xbar_dot, update = kernels.row_calls(state, i)
    params = state.params

    dot = xbar_dot(i)
    y_new_i = prox_conjugate(state.problem.loss, i, params.tau, state.y[i] + params.tau * dot)
    if not (math.isfinite(dot) and math.isfinite(y_new_i)) or update(i, y_new_i) < 0:
        raise DivergenceError(f"non-finite iterate at iteration {state.t}", iteration=state.t)
    if state.beta_hat > RESCALE_THRESHOLD:
        rescale(state, state.s_hat, params.beta0)
    return state


def _xbar_dot_numpy(state: StochasticState, i: int) -> float:
    """``sdapd_dense_xbar`` in numpy: xbar = prox_{eta g}(x - eta u), and
    the dot product of row i with it."""
    problem, eta = state.problem, state.params.eta
    cols, vals = problem.matrix.row(i)
    with np.errstate(over="ignore", invalid="ignore"):
        state.xbar[...] = prox_reg(problem.reg, eta, state.x - eta * state.u)
    return ordered_dot(vals, state.xbar[cols])


def _update_numpy(state: StochasticState, i: int, y_new: float) -> int:
    """``sdapd_dense_update`` in numpy: the dual coordinate, the gradient
    sum, u, x, the ergodic average and then B, beta, t and the touch count;
    returns the row's nonzero count, or -1 when x is not finite."""
    problem = state.problem
    cols, vals = problem.matrix.row(i)
    x, y, u, s_hat, ergodic = state.x, state.y, state.u, state.s_hat, state.ergodic_x
    beta_hat = state.beta_hat
    b_hat = state.B_hat + beta_hat
    dy = y_new - y[i]
    y[i] = y_new
    with np.errstate(over="ignore", invalid="ignore"):
        # (1/n) A^T ybar^{t+1} = u^t + dy a_i, using u before its own update
        s_hat += beta_hat * u
        s_hat[cols] += (beta_hat * dy) * vals
        u[cols] += (dy / problem.n) * vals
        x[...] = recover_primal(problem.reg, state.x0, s_hat, b_hat, state.inv_scale)
        ergodic += (beta_hat / b_hat) * (state.xbar - ergodic)
    if not np.isfinite(x).all():
        return -1
    # audit: xbar prox d, grad-sum d, recovery d, ergodic d, row ops 3 nnz
    state.touch_counter += 4 * problem.dim + 3 * vals.size
    state.B_hat = b_hat
    state.beta_hat = beta_hat * state.params.xi
    state.t += 1
    return int(vals.size)


def run_sdapd(
    problem: CompositeProblem,
    params: StochasticParams,
    iterations: int,
    seed: int,
    reference_value: float | None = None,
    x0=None,
    wall_clock: bool = True,
) -> RunResult:
    """Seeded, reproducible SDAPD run; one trace record per epoch (n
    iterations), plus a final record when the horizon is not a multiple.

    Returns the last iterate in ``x`` and the beta-weighted average of the
    xbar iterates, which the theorem rates bound, in ``x_ergodic``.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1")
    state = StochasticState(problem, params, x0=x0)
    tracer = Tracer(problem, reference_value, wall_clock)
    for epoch, rows in epoch_rows(problem.n, iterations, seed):
        for i in rows.tolist():
            sdapd_iterate_dense(state, i)
        tracer.record(epoch, state.x, state.touch_counter)
    resolved = resolved_constants(problem, params, iterations, seed)
    return RunResult(x=state.x, trace=tracer.records, x_ergodic=state.ergodic_x, y=state.y,
                     resolved=resolved)


def resolved_constants(problem, params, iterations, seed) -> dict:
    """The resolved constants every SDAPD run reports, dense or lazy."""
    return {
        "eta": params.eta,
        "tau": params.tau,
        "beta0": params.beta0,
        "xi": params.xi,
        "seed": seed,
        "iterations": iterations,
        "delta1": problem.loss.dual_perturbation,
        "delta2": problem.reg.primal_perturbation,
    }
