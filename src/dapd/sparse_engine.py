"""Lazy sparse SDAPD: per-iteration cost proportional to the sampled row.

The dual-averaged gradient sum  s^{t+1} = sum_{k<=t} (beta_k/n) A^T ybar^{k+1}
is a sum of dense vectors, but with geometric weights beta_t = beta0 / theta^t
it decomposes, from y^0 = 0, into two sequences driven only by the sparse
per-iteration updates  delta^t = ((y^{t+1}_i - y^t_i)/n) a_i:

    v^{t+1} = sum_{k<=t} beta_k (n - 1/(1-theta)) delta^k
    w^{t+1} = (1/(1-theta)) sum_{k<=t} delta^k
    s^{t+1} = v^{t+1} + beta_t w^{t+1}

so each iteration writes only the sampled row's support in v, w, u, and any
primal coordinate is recovered on demand:

    x^t_j    = prox_{B_{t-1} g_j}(x^0_j - s^t_j)
    xbar^t_j = prox_{eta g_j}(x^t_j  - eta u^t_j)

This needs g separable and a single prox per touched coordinate, so it works
for any separable regularizer with a computable scalar prox (including the
KL divergence, where repeated-prox shortcuts are unavailable).

beta_t and B_t grow geometrically without bound.  When the stored beta
passes ``RESCALE_THRESHOLD`` (as in DAPD and dense SDAPD), ``rebase`` divides
(v, beta, B) by the current growth factor and accumulates its log in
``log_scale``, through the solvers' shared ``deterministic.rescale``; w needs
no scaling (w is identically u/(1-theta)).
Recoveries evaluate the prox in rescaled form via ``recover_primal``, so no
stored quantity ever overflows, while recovered coordinates are unchanged.
``run_sparse`` runs epochs of rows from ``traces.epoch_rows``, the rows
dense SDAPD samples at the same seed.

``sparse_iterate`` does a row in one call of the compiled ``lazy_iterate``
(``kernels.c``) for squared and hinge losses with l2, l1 or elastic net,
and in numpy (``_iterate_numpy``, the kernel's oracle) otherwise, or when
the kernels cannot be built; ``LazyState`` binds it once, to its
``problem`` (``kernels.bind``).  Either one also advances the state's step
scalars (beta, B, t and the touch count), which live in the state's
``kernels.RowScalars`` block, and leaves them as they were on a row that
diverges; only the rebase check stays in Python.  The kernel evaluates the
numpy body's expressions in their order and sums the row's dot product in
storage order from +0.0, as the numpy body does (``matrix.ordered_dot``),
so both give the same bits on any machine; ``matrix.backend`` says whether
the kernels can run.

Ergodic averaging is intentionally unavailable here: maintaining the average
would cost O(d) per iteration.  The last iterate is the practical output
anyway (it preserves sparsity); ergodic bounds are validated on the dense
path.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .deterministic import RESCALE_THRESHOLD, rescale, start_vector
from .errors import ConfigurationError, DivergenceError
from .matrix import ordered_dot
from .proxlib import CompositeProblem, prox_conjugate, recover_primal
from .stochastic import StochasticParams, resolved_constants
from .traces import RunResult, Tracer, epoch_rows


class LazyState:
    """Two-sequence decomposition state, stepped by ``sparse_iterate`` on the
    problem and with the params it was built with; it starts from y^0 = 0.

    ``v`` and the scalars ``beta_hat`` (beta_t), ``beta_prev_hat``
    (beta_{t-1}) and ``B_hat`` (B_{t-1}) are stored divided by
    exp(log_scale); ``w`` and ``u`` are unscaled.  Only coordinates in the
    sampled row's support are written per iteration.  The iteration is
    bound once, to ``problem``.  ``problem``, ``params``, ``theta`` and the
    vectors ``x0``, ``y``, ``u``, ``v`` and ``w`` cannot be rebound (the
    vectors are written in place): the compiled iteration keeps their
    values and addresses.  ``beta_hat``, ``beta_prev_hat``, ``B_hat``,
    ``inv_scale``, ``t`` and ``touch_counter`` are fields of one
    ``kernels.RowScalars`` block, which the iteration advances in place.
    """

    problem, params, theta, x0, y, u, v, w = (
        kernels.fixed(name) for name in ("problem", "params", "theta", "x0", "y", "u", "v", "w")
    )
    beta_hat, beta_prev_hat, B_hat, inv_scale, t, touch_counter = (
        kernels.scalar(name)
        for name in ("beta_hat", "beta_prev_hat", "B_hat", "inv_scale", "t", "touch_counter")
    )

    def __init__(self, problem: CompositeProblem, params: StochasticParams, x0=None):
        d, n = problem.dim, problem.n
        theta = params.theta
        if not 0.0 < theta < 1.0:
            raise ConfigurationError("geometric schedule requires theta = 1/xi in (0, 1)")
        if params.n != n:
            raise ConfigurationError("params were built for a different sample count")
        self._problem = problem
        self._x0 = start_vector(x0, d, "x0")
        self._params = params
        self._theta = theta
        self._y = np.zeros(n)
        self._u = np.zeros(d)
        self._v = np.zeros(d)
        self._w = np.zeros(d)
        self._scalars = kernels.RowScalars(
            beta_hat=params.beta0, beta_prev_hat=params.beta0 * theta, inv_scale=1.0
        )
        self.log_scale = 0.0
        self.rebase_count = 0
        kernels.bind(
            self, ("lazy_iterate",), (_iterate_numpy,), x0=self._x0, y=self._y, u=self._u,
            v=self._v, w=self._w, step=params.eta, tau=params.tau, theta=theta,
        )


def _recover_x(state: LazyState, cols):
    """x^t_j = prox_{B_{t-1} g_j}(x^0_j - s^t_j) for the coordinates ``cols``
    (an index array, or ``slice(None)`` for all of them)."""
    s_hat = state.v[cols] + state.beta_prev_hat * state.w[cols]
    return recover_primal(state.problem.reg, state.x0[cols], s_hat, state.B_hat, state.inv_scale,
                          coords=cols)


def sparse_iterate(state: LazyState, i: int):
    """One SDAPD iteration on row i of the state's problem, touching only its support."""
    (iterate,) = kernels.row_calls(state, i)
    if iterate(i) < 0:
        raise DivergenceError(f"non-finite iterate at iteration {state.t}", iteration=state.t)
    if state.beta_hat > RESCALE_THRESHOLD:
        rebase(state)
    return state


def _iterate_numpy(state: LazyState, i: int) -> int:
    """``lazy_iterate`` in numpy: the dual step, the support updates and
    the scalars of one iteration; returns the row's nonzero count, or -1
    without writing anything when the dot product or the new dual
    coordinate is not finite."""
    problem = state.problem
    n, eta, tau = problem.n, state.params.eta, state.params.tau
    cols, vals = problem.matrix.row(i)
    with np.errstate(over="ignore", invalid="ignore"):
        x_c = _recover_x(state, cols)
        xbar_c = recover_primal(
            problem.reg, x_c - eta * state.u[cols], np.zeros_like(x_c), eta, 1.0, coords=cols
        )
        dot = ordered_dot(vals, xbar_c)
        y_new = prox_conjugate(problem.loss, i, tau, state.y[i] + tau * dot)
        if not (np.isfinite(dot) and np.isfinite(y_new)):
            return -1
        dy = y_new - state.y[i]
        state.y[i] = y_new

        beta_hat = state.beta_hat
        delta = (dy / n) * vals
        state.u[cols] += delta
        state.v[cols] += (beta_hat * (n - 1.0 / (1.0 - state.theta))) * delta
        state.w[cols] += delta / (1.0 - state.theta)

    state.B_hat += beta_hat
    state.beta_prev_hat = beta_hat
    state.beta_hat = beta_hat / state.theta
    state.t += 1
    # audit: 2 recoveries + row read + 3 support writes per coordinate
    state.touch_counter += 6 * vals.size + 2
    return int(vals.size)


def rebase(state: LazyState) -> LazyState:
    """Rescale (v, beta, B) by the accumulated growth so stored values stay
    bounded; recovered coordinates are unchanged (to roundoff) because the
    recovery divides the same factor back out via ``inv_scale``."""
    rescale(state, state.v, state.params.beta0, scaled=("B_hat", "beta_prev_hat"))
    state.rebase_count += 1
    return state


def finalize_x(state: LazyState) -> np.ndarray:
    """Recover the full last iterate x^t; O(d), done once per trace point."""
    return _recover_x(state, slice(None))


def run_sparse(
    problem: CompositeProblem,
    params: StochasticParams,
    iterations: int,
    seed: int,
    x0=None,
    reference_value: float | None = None,
    wall_clock: bool = True,
) -> RunResult:
    """Drive the lazy engine; per-epoch traces.  Returns the last iterate
    alone: the engine keeps no average (``x_ergodic`` is None)."""
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1")
    state = LazyState(problem, params, x0=x0)
    tracer = Tracer(problem, reference_value, wall_clock)
    for epoch, rows in epoch_rows(problem.n, iterations, seed):
        for i in rows.tolist():
            sparse_iterate(state, i)
        x = finalize_x(state)
        tracer.record(epoch, x, state.touch_counter)
    resolved = resolved_constants(problem, params, iterations, seed)
    resolved["theta"] = state.theta
    resolved["rebase_count"] = state.rebase_count
    return RunResult(x=x, trace=tracer.records, y=state.y, resolved=resolved)
