"""Deterministic dual-averaging primal-dual (DAPD) solver.

One iteration, for step sequences eta_t, tau_t, beta_t and B_t = sum beta_k:

    xbar^{t+1} = prox_{eta_t g}(x^t - eta_t A^T y^t)
    y^{t+1}    = prox_{tau_t f*}(y^t + tau_t A xbar^{t+1})
    x^{t+1}    = prox_{B_t g}(x^0 - sum_{k<=t} beta_k A^T y^{k+1})

The dual-averaged primal step always restarts from x^0 against the weighted
gradient sum, which is what promotes solution structure (the l1 prox sees the
large step B_t).  Four step regimes are provided, selected by which of the
problem's smoothness (gamma > 0) and strong convexity (mu > 0) are available;
their feasibility conditions

    (a)  eta_t (1 + B_{t-1} mu) >= beta_t
    (b)  eta_t tau_t <= 1 / R^2
    (c)  beta_{t+1}/tau_{t+1} <= (beta_t/tau_t)(1 + gamma tau_t)

can be checked numerically with ``validate_schedule``.

Geometrically growing beta_t would overflow doubles on long runs, so the
solver stores (grad_sum, B, beta) divided by a running scale factor whose
log is tracked separately; primal recovery goes through
``recover_primal``, which is exact for any scale.  ``rescale`` is the one
rule that moves growth into that factor; SDAPD and the lazy sparse engine
keep their sums the same way and call it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .matrix import matvec
from .proxlib import (
    CompositeProblem,
    composite_gamma,
    composite_lipschitz,
    dual_prox,
    problem_constants,
    prox_reg,
    recover_primal,
)
from .traces import RunResult, Tracer, check_output_mode, select_output

# stored beta_hat above which ``rescale`` runs; far from overflow, so the
# products beta_hat * gradient stay finite
RESCALE_THRESHOLD = 1e150


@dataclass(frozen=True)
class SolverSchedule:
    """Step-size sequences plus the beta growth ratio used for overflow-free
    bookkeeping and feasibility checks."""

    regime: str
    eta: Callable[[int], float]
    tau: Callable[[int], float]
    beta: Callable[[int], float]
    beta_ratio: Callable[[int], float]
    params: dict = field(default_factory=dict)

    @property
    def beta0(self) -> float:
        return self.beta(0)


def make_schedule(
    gamma: float,
    mu: float,
    R: float,
    L: float | None = None,
    case_iv_tau: float | None = None,
) -> SolverSchedule:
    """Step sequences for the four (gamma, mu) regimes.

    sc_smooth    gamma>0, mu>0:  constant eta, tau; beta_t geometric
    smooth_only  gamma>0, mu=0:  eta_t = beta_t = gamma (t+1)/(3 R^2),
                                 tau_t = 3/(gamma (t+1))
    sc_only      gamma=0, mu>0:  eta_t = 4/(mu (t+1)),
                                 tau_t = mu (t+1)/(4 R^2), beta_t = 2(t+1)/mu
    neither      gamma=0, mu=0:  tau_t = tau (default 1),
                                 eta_t = beta_t = 1/(tau R^2)

    The two non-smooth-loss regressions (smooth_only / neither) require the
    loss to be Lipschitz; pass L (it enters the convergence bound, not the
    sequences).
    """
    if not R > 0:
        raise ConfigurationError("R must be positive")
    if gamma < 0 or mu < 0:
        raise ConfigurationError("gamma and mu must be nonnegative")
    params = {"gamma": gamma, "mu": mu, "R": R, "L": L}
    if gamma > 0 and mu > 0:
        eta = (1.0 / R) * np.sqrt(gamma / mu)
        tau = (1.0 / R) * np.sqrt(mu / gamma)
        xi = 1.0 + np.sqrt(mu * gamma) / R
        params.update(eta=eta, tau=tau, xi=xi)
        return SolverSchedule(
            "sc_smooth",
            eta=lambda t: eta,
            tau=lambda t: tau,
            beta=lambda t: eta * xi**t,
            beta_ratio=lambda t: xi,
            params=params,
        )
    if gamma > 0:
        if L is None:
            raise ConfigurationError("smooth_only regime requires the Lipschitz constant L")
        coef = gamma / (3.0 * R**2)
        params.update(coef=coef)
        return SolverSchedule(
            "smooth_only",
            eta=lambda t: coef * (t + 1),
            tau=lambda t: 3.0 / (gamma * (t + 1)),
            beta=lambda t: coef * (t + 1),
            beta_ratio=lambda t: (t + 2) / (t + 1),
            params=params,
        )
    if mu > 0:
        return SolverSchedule(
            "sc_only",
            eta=lambda t: 4.0 / (mu * (t + 1)),
            tau=lambda t: mu * (t + 1) / (4.0 * R**2),
            beta=lambda t: 2.0 * (t + 1) / mu,
            beta_ratio=lambda t: (t + 2) / (t + 1),
            params=params,
        )
    if L is None:
        raise ConfigurationError("neither regime requires the Lipschitz constant L")
    tau = 1.0 if case_iv_tau is None else float(case_iv_tau)
    if tau <= 0:
        raise ConfigurationError("case (iv) tau must be positive")
    const = 1.0 / (tau * R**2)
    params.update(tau=tau, eta=const)
    return SolverSchedule(
        "neither",
        eta=lambda t: const,
        tau=lambda t: tau,
        beta=lambda t: const,
        beta_ratio=lambda t: 1.0,
        params=params,
    )


def schedule_for_problem(
    problem: CompositeProblem, case_iv_tau: float | None = None
) -> SolverSchedule:
    """Build the regime schedule from the problem's composite constants.

    A converged Lanczos estimate of R bounds the top singular value from
    above (``matrix.power_iteration``).  When the run did not converge the
    estimate may be slightly low, which would break eta*tau <= 1/R^2 against
    the true R; the estimate is then inflated by 1/0.99 (equivalently, both
    step sizes shrink by 0.99) before the schedule is formed.
    """
    gamma_f = composite_gamma(problem)
    _, mu, _, R, _ = problem_constants(problem)
    if not problem.stats.spectral_norm_converged:
        R = R / 0.99
    L = composite_lipschitz(problem)
    return make_schedule(gamma_f, mu, R, L=L, case_iv_tau=case_iv_tau)


@dataclass(frozen=True)
class ScheduleViolation:
    t: int
    condition: str
    lhs: float
    rhs: float


def validate_schedule(
    schedule: SolverSchedule, gamma: float, mu: float, R: float, horizon: int
) -> list[ScheduleViolation]:
    """Numerically check the three feasibility conditions for t = 0..horizon.

    Works in ratio space (B_{t-1}/beta_t and 1/beta_t) so geometric growth
    never overflows.  Violations are data, not errors; an empty list means
    the schedule is feasible at slack 1e-9.
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be at least 1")
    tol = 1e-9
    violations = []
    beta0 = schedule.beta(0)
    inv_beta = 1.0 / beta0  # 1/beta_t
    b_over_beta = 0.0  # B_{t-1}/beta_t
    for t in range(horizon + 1):
        eta_t = schedule.eta(t)
        tau_t = schedule.tau(t)
        if min(eta_t, tau_t) <= 0 or schedule.beta_ratio(t) <= 0:
            violations.append(ScheduleViolation(t, "positivity", min(eta_t, tau_t), 0.0))
            break
        # (a) eta_t (1 + B_{t-1} mu) >= beta_t, both sides divided by beta_t
        lhs = eta_t * (inv_beta + b_over_beta * mu)
        if lhs < 1.0 - tol * max(1.0, lhs):
            violations.append(ScheduleViolation(t, "dual_averaging_growth", lhs, 1.0))
        # (b) eta_t tau_t <= 1/R^2
        lhs = eta_t * tau_t
        rhs = 1.0 / R**2
        if lhs > rhs * (1.0 + tol):
            violations.append(ScheduleViolation(t, "step_product", lhs, rhs))
        # (c) beta_{t+1}/tau_{t+1} <= (beta_t/tau_t)(1 + gamma tau_t)
        ratio = schedule.beta_ratio(t)
        lhs = ratio / schedule.tau(t + 1)
        rhs = (1.0 + gamma * tau_t) / tau_t
        if lhs > rhs * (1.0 + tol):
            violations.append(ScheduleViolation(t, "beta_tau_growth", lhs, rhs))
        b_over_beta = (b_over_beta + 1.0) / ratio
        inv_beta = inv_beta / ratio
    return violations


class IterateState:
    """Mutable DAPD state, stepped by ``dapd_iterate`` with the schedule it
    was built with.

    ``s_hat``, ``B_hat`` and ``beta_hat`` are the gradient sum, B_{t-1} and
    beta_t divided by exp(log_scale); ``inv_scale`` caches exp(-log_scale).
    After every full iteration x equals prox_{B_{t-1} g}(x0 - grad_sum).
    """

    def __init__(self, problem: CompositeProblem, schedule: SolverSchedule, x0=None):
        d, n = problem.dim, problem.n
        self.schedule = schedule
        self.x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
        self.x = self.x0.copy()
        self.xbar = self.x0.copy()
        self.y = np.zeros(n)
        self.s_hat = np.zeros(d)
        self.B_hat = 0.0
        self.beta_hat = schedule.beta(0)
        self.log_scale = 0.0
        self.inv_scale = 1.0
        self.t = 0
        self.ergodic_x = np.zeros(d)
        self.ergodic_y = np.zeros(n)
        self.touch_counter = 0
        self._aty = None  # cached A^T y for the current y


def rescale(state, s_hat: np.ndarray, beta0: float) -> float:
    """Move the growth of a scaled dual-averaging sum into its scale factor.

    ``s_hat`` (the state's stored gradient sum), ``state.B_hat`` and
    ``state.beta_hat`` are stored divided by exp(``state.log_scale``).  They
    are divided in place by factor = beta_hat / beta0, so beta_hat returns to
    beta0, and log(factor) is added to ``log_scale`` (``inv_scale`` follows).
    ``recover_primal`` gives the same point before and after, up to roundoff.
    Returns the factor, for any further quantity the caller stores scaled.
    """
    factor = state.beta_hat / beta0
    s_hat /= factor
    state.B_hat /= factor
    state.beta_hat = beta0
    state.log_scale += np.log(factor)
    state.inv_scale = np.exp(-state.log_scale)
    return factor


def dapd_iterate(state: IterateState, problem: CompositeProblem):
    """Advance one full DAPD iteration; cost O(nnz + n + d)."""
    t = state.t
    schedule = state.schedule
    eta_t = schedule.eta(t)
    tau_t = schedule.tau(t)
    A = problem.matrix
    reg = problem.reg

    with np.errstate(over="ignore", invalid="ignore"):
        if state._aty is None:
            state._aty = matvec(A, state.y, transpose=True)
        xbar = prox_reg(reg, eta_t, state.x - eta_t * state._aty)
        y_new = dual_prox(
            problem.loss, problem.loss_scale, tau_t, state.y + tau_t * matvec(A, xbar)
        )
        aty_new = matvec(A, y_new, transpose=True)

        state.s_hat += state.beta_hat * aty_new
        state.B_hat += state.beta_hat
        x_new = recover_primal(reg, state.x0, state.s_hat, state.B_hat, state.inv_scale)

        weight = state.beta_hat / state.B_hat
        state.ergodic_x += weight * (xbar - state.ergodic_x)
        state.ergodic_y += weight * (y_new - state.ergodic_y)

    if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()):
        raise DivergenceError(f"non-finite iterate at iteration {t}", iteration=t)

    state.x = x_new
    state.xbar = xbar
    state.y = y_new
    state._aty = aty_new
    state.touch_counter += 3 * A.nnz + 5 * problem.dim + 2 * problem.n
    state.beta_hat *= schedule.beta_ratio(t)
    state.t += 1
    if state.beta_hat > RESCALE_THRESHOLD:
        rescale(state, state.s_hat, schedule.beta0)
    return state


def run_dapd(
    problem: CompositeProblem,
    schedule: SolverSchedule,
    iterations: int,
    output: str = "last",
    reference_value: float | None = None,
    wall_clock: bool = True,
) -> RunResult:
    """Run DAPD for ``iterations`` steps, tracing once per iteration (epoch).

    ``output`` selects the returned primal point(s): "last" (the practical
    choice, preserves sparsity), "ergodic" (the beta-weighted average the
    theory bounds), or "both".
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1")
    check_output_mode(output)
    state = IterateState(problem, schedule)
    tracer = Tracer(problem, reference_value, wall_clock)
    for t in range(iterations):
        dapd_iterate(state, problem)
        tracer.record(t + 1, state.x, state.touch_counter)
    resolved = {"regime": schedule.regime, **schedule.params, "iterations": iterations}
    return select_output(state, output, tracer.records, resolved)
