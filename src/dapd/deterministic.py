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

``dapd_iterate`` does an iteration in one call of the compiled ``dapd_step``
(``kernels.c``) for squared and hinge losses with l2, l1 or elastic net,
products included, and in numpy (``_iterate_numpy``, the kernel's oracle)
otherwise, or when the kernels cannot be built; ``IterateState`` binds it
once, to its ``problem`` (``kernels.bind``).  Either one writes the state's
vectors in place and advances B, t and the touch count in its
``kernels.RowScalars`` block; the schedule (eta_t, tau_t and beta's growth)
and the rescale stay in Python.  The kernel evaluates the numpy body's
expressions in their order and sums the products as ``matvec`` does, so
both give the same bits on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels
from .errors import ConfigurationError, DivergenceError, StructuralError
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
from .traces import RunResult, Tracer

# stored beta_hat above which ``rescale`` runs; far from overflow, so the
# products beta_hat * gradient stay finite
RESCALE_THRESHOLD = 1e150
# the largest log of one division step of ``rescale`` (e^709 is the largest
# power of e below the float maximum)
MAX_LOG_STEP = 700.0


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


def schedule_for_problem(problem: CompositeProblem) -> SolverSchedule:
    """Build the regime schedule from the problem's composite constants,
    with tau = 1 in the ``neither`` regime.

    A converged Lanczos estimate of R (``matrix.power_iteration``) is an
    over-estimate of the top singular value, by at most a relative
    (1 + SPECTRAL_NORM_REL_TOL) * (1 + SPECTRAL_NORM_MARGIN) - 1, about
    2e-4, so eta*tau <= 1/R^2 holds against the true norm (as likely as
    ``power_iteration`` states); it is used as it is.  When the run did not
    converge the estimate may be low; it is then inflated by 1/0.99
    (equivalently, both step sizes shrink by 0.99) before the schedule is
    formed.
    """
    gamma_f = composite_gamma(problem)
    _, mu, _, R, _ = problem_constants(problem)
    if not problem.stats.spectral_norm_converged:
        R = R / 0.99
    L = composite_lipschitz(problem)
    return make_schedule(gamma_f, mu, R, L=L)


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
    """Mutable DAPD state, stepped by ``dapd_iterate`` on the problem and
    with the schedule it was built with.

    ``s_hat``, ``B_hat`` and ``beta_hat`` are the gradient sum, B_{t-1} and
    beta_t divided by exp(log_scale); ``inv_scale`` caches exp(-log_scale).
    After every full iteration x equals prox_{B_{t-1} g}(x0 - grad_sum), and
    ``aty`` holds A^T y.  The run starts from (x0, y0), zero where not given.

    The iteration is bound once, to ``problem`` (``kernels.bind``).
    ``problem`` and the vectors ``x0``, ``x``, ``xbar``, ``y``, ``s_hat``,
    ``ergodic_x`` and ``aty`` cannot be rebound (the vectors are written in
    place): the compiled step keeps their addresses.  ``beta_hat``,
    ``B_hat``, ``inv_scale``, ``t`` and ``touch_counter`` are fields of one
    ``kernels.RowScalars`` block, which the step advances in place.
    """

    problem, x0, x, xbar, y, s_hat, ergodic_x, aty = (
        kernels.fixed(name)
        for name in ("problem", "x0", "x", "xbar", "y", "s_hat", "ergodic_x", "aty")
    )
    beta_hat, B_hat, inv_scale, t, touch_counter = (
        kernels.scalar(name) for name in ("beta_hat", "B_hat", "inv_scale", "t", "touch_counter")
    )

    def __init__(self, problem: CompositeProblem, schedule: SolverSchedule, x0=None,
                 y0=None):
        d, n = problem.dim, problem.n
        self._problem = problem
        self.schedule = schedule
        self._x0 = start_vector(x0, d, "x0")
        self._x = self._x0.copy()
        self._xbar = self._x0.copy()
        self._y = start_vector(y0, n, "y0")
        self._s_hat = np.zeros(d)
        self._ergodic_x = np.zeros(d)
        with np.errstate(over="ignore", invalid="ignore"):
            self._aty = matvec(problem.matrix, self._y, transpose=True)
        self._scalars = kernels.RowScalars(beta_hat=schedule.beta(0), inv_scale=1.0)
        self.log_scale = 0.0
        kernels.bind(
            self, ("dapd_step",), (_iterate_numpy,), x0=self._x0, x=self._x, xbar=self._xbar,
            y=self._y, u=self._aty, s_hat=self._s_hat, ergodic=self._ergodic_x,
            loss_scale=problem.loss_scale,
        )


def start_vector(value, size: int, name: str) -> np.ndarray:
    """A solver's start point ``name``: zeros of length ``size`` when
    ``value`` is None, else a float64 copy of it, which must have shape
    (size,)."""
    if value is None:
        return np.zeros(size)
    vector = np.asarray(value, dtype=np.float64).copy()
    if vector.shape != (size,):
        raise StructuralError(f"{name} has shape {vector.shape}, not ({size},)")
    return vector


def rescale(state, s_hat: np.ndarray, beta0: float, growth: float = 1.0,
            scaled: tuple = ("B_hat",)) -> None:
    """Move the growth of a scaled dual-averaging sum into its scale factor.

    ``s_hat`` (the state's stored gradient sum), ``state.beta_hat`` and the
    state's scalars named in ``scaled`` (``B_hat``, and the lazy engine's
    ``beta_prev_hat``) are stored divided by exp(``state.log_scale``).
    ``s_hat`` and those scalars are divided in place by
    factor = (beta_hat / beta0) * growth, beta_hat becomes beta0, and
    log(factor) is added to ``log_scale`` (``inv_scale`` follows).  Passing
    the weight ratio beta_{t+1}/beta_t as ``growth`` stores the next weight
    without forming beta_hat * growth, which may overflow.  When the factor
    itself overflows, its log is log(beta_hat) - log(beta0) + log(growth),
    and they are divided by it in steps, each below the float maximum.
    ``recover_primal`` gives the same point before and after, up to roundoff.
    """
    with np.errstate(over="ignore"):
        factor = state.beta_hat / beta0 * growth
    if np.isfinite(factor):
        log_factor, steps = np.log(factor), (factor,)
    else:
        log_factor = np.log(state.beta_hat) - np.log(beta0) + np.log(growth)
        count = math.ceil(log_factor / MAX_LOG_STEP)
        steps = (np.exp(log_factor / count),) * count
    for step in steps:
        s_hat /= step
        for name in scaled:
            setattr(state, name, getattr(state, name) / step)
    state.beta_hat = beta0
    state.log_scale += log_factor
    state.inv_scale = np.exp(-state.log_scale)


def dapd_iterate(state: IterateState):
    """Advance one full DAPD iteration on the state's problem; cost
    O(nnz + n + d).  The bound step (``dapd_step`` of ``kernels.c``, or
    ``_iterate_numpy``) takes the schedule's eta_t and tau_t and advances B,
    t and the touch count; beta's growth and the rescale stay here.  A
    non-finite iterate raises ``DivergenceError`` under the row kernels'
    divergence contract (``kernels.c``): B, beta, t and the touch count stay
    as they were."""
    t, schedule = state.t, state.schedule
    (step,) = state._kernel[0]
    if step(schedule.eta(t), schedule.tau(t)) < 0:
        raise DivergenceError(f"non-finite iterate at iteration {t}", iteration=t)
    ratio = schedule.beta_ratio(t)
    with np.errstate(over="ignore"):
        beta_next = state.beta_hat * ratio
    if not np.isfinite(beta_next):
        # beta0 * ratio itself may overflow (a huge sc_smooth xi), so the
        # whole growth goes into the scale and beta_hat stays at beta0
        rescale(state, state.s_hat, schedule.beta0, ratio)
    else:
        state.beta_hat = beta_next
        if beta_next > RESCALE_THRESHOLD:
            rescale(state, state.s_hat, schedule.beta0)
    return state


def _iterate_numpy(state: IterateState, eta: float, tau: float) -> int:
    """``dapd_step`` in numpy: xbar, y, A^T y, the gradient sum, x and the
    ergodic average, each written in place, and then B, t and the touch
    count; returns 0, or -1 when x or y is not finite."""
    problem = state.problem
    A, reg = problem.matrix, problem.reg
    x, xbar, y, aty, s_hat, ergodic = (state.x, state.xbar, state.y, state.aty, state.s_hat,
                                       state.ergodic_x)
    beta_hat = state.beta_hat
    b_hat = state.B_hat + beta_hat
    with np.errstate(over="ignore", invalid="ignore"):
        xbar[...] = prox_reg(reg, eta, x - eta * aty)
        y[...] = dual_prox(problem.loss, problem.loss_scale, tau, y + tau * matvec(A, xbar))
        aty[...] = matvec(A, y, transpose=True)
        s_hat += beta_hat * aty
        x[...] = recover_primal(reg, state.x0, s_hat, b_hat, state.inv_scale)
        ergodic += (beta_hat / b_hat) * (xbar - ergodic)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return -1
    state.B_hat = b_hat
    state.t += 1
    state.touch_counter += 3 * A.nnz + 5 * problem.dim + 2 * problem.n
    return 0


def run_dapd(
    problem: CompositeProblem,
    schedule: SolverSchedule,
    iterations: int,
    reference_value: float | None = None,
    wall_clock: bool = True,
) -> RunResult:
    """Run DAPD for ``iterations`` steps, tracing once per iteration (epoch).

    Returns both primal points: ``x``, the last iterate (the practical
    choice: dual averaging keeps its sparsity), and ``x_ergodic``, the
    beta-weighted average of the xbar iterates that the theory bounds.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1")
    state = IterateState(problem, schedule)
    tracer = Tracer(problem, reference_value, wall_clock)
    for t in range(iterations):
        dapd_iterate(state)
        tracer.record(t + 1, state.x, state.touch_counter)
    resolved = {"regime": schedule.regime, **schedule.params, "iterations": iterations}
    return RunResult(x=state.x, trace=tracer.records, x_ergodic=state.ergodic_x, y=state.y,
                     resolved=resolved)
