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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .deterministic import RESCALE_THRESHOLD, rescale
from .errors import ConfigurationError, DivergenceError
from .proxlib import (
    CompositeProblem,
    problem_constants,
    prox_conjugate,
    prox_reg,
    recover_primal,
)
from .traces import RunResult, Tracer, check_output_mode, epoch_rows, select_output


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
    stepped by ``sdapd_iterate_dense`` with the params it was built with."""

    def __init__(self, problem, params, x0=None):
        d, n = problem.dim, problem.n
        if params.n != n:
            raise ConfigurationError("params were built for a different sample count")
        self.params = params
        self.x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
        self.x = self.x0.copy()
        self.xbar = self.x0.copy()
        self.y = np.zeros(n)
        self.u = np.zeros(d)
        self.s_hat = np.zeros(d)
        self.B_hat = 0.0
        self.beta_hat = params.beta0
        self.log_scale = 0.0
        self.inv_scale = 1.0
        self.t = 0
        self.touch_counter = 0
        self.ergodic_x = np.zeros(d)


def sdapd_iterate_dense(state: StochasticState, problem: CompositeProblem, i: int):
    """One SDAPD iteration on the sampled row i; O(d + nnz(a_i)) dense work."""
    n, d = problem.n, problem.dim
    params = state.params
    reg = problem.reg

    with np.errstate(over="ignore", invalid="ignore"):
        xbar = prox_reg(reg, params.eta, state.x - params.eta * state.u)
        cols, vals = problem.matrix.row(i)
        dot = float(vals @ xbar[cols])
        y_new_i = prox_conjugate(problem.loss, i, params.tau, state.y[i] + params.tau * dot)
        dy = y_new_i - state.y[i]
        state.y[i] = y_new_i

        # (1/n) A^T ybar^{t+1} = u^t + dy a_i, using u before its own update
        state.s_hat += state.beta_hat * state.u
        state.s_hat[cols] += (state.beta_hat * dy) * vals
        state.u[cols] += (dy / n) * vals
        state.B_hat += state.beta_hat
        x_new = recover_primal(reg, state.x0, state.s_hat, state.B_hat, state.inv_scale)

        state.ergodic_x += (state.beta_hat / state.B_hat) * (xbar - state.ergodic_x)

    if not (np.isfinite(dot) and np.isfinite(y_new_i) and np.isfinite(x_new).all()):
        raise DivergenceError(f"non-finite iterate at iteration {state.t}", iteration=state.t)

    state.x = x_new
    state.xbar = xbar
    # audit: xbar prox d, grad-sum d, recovery d, ergodic d, row ops 3 nnz
    state.touch_counter += 4 * d + 3 * int(vals.size)
    state.beta_hat *= params.xi
    state.t += 1
    if state.beta_hat > RESCALE_THRESHOLD:
        rescale(state, state.s_hat, params.beta0)
    return state


def run_sdapd(
    problem: CompositeProblem,
    params: StochasticParams,
    iterations: int,
    seed: int,
    output: str = "last",
    reference_value: float | None = None,
    x0=None,
    wall_clock: bool = True,
) -> RunResult:
    """Seeded, reproducible SDAPD run; one trace record per epoch (n
    iterations), plus a final record when the horizon is not a multiple."""
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1")
    check_output_mode(output)
    state = StochasticState(problem, params, x0=x0)
    tracer = Tracer(problem, reference_value, wall_clock)
    for epoch, rows in epoch_rows(problem.n, iterations, seed):
        for i in rows:
            sdapd_iterate_dense(state, problem, i)
        tracer.record(epoch, state.x, state.touch_counter)
    resolved = resolved_constants(problem, params, iterations, seed)
    return select_output(state, output, tracer.records, resolved)


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
