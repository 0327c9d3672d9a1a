"""The solver-state contract, tested once for every state in ``STATES``.

Every solver state holds the problem it is built on as ``problem``, which
cannot be rebound, and its steps take the state and its rows alone.  The
states with row kernels (the lazy engine, dense SDAPD and SPDC) bind their
row calls once, in the constructor, to that problem (``kernels.bind``): the
compiled kernels of ``kernels.c``, or the numpy bodies that are their
oracle.  Each row of ``STATES`` says what a state's row writes, what a
diverging row leaves as it was, which numpy bodies it binds and whether it
rescales; one test per contract runs over the table:

- the problem and the bound vectors cannot be rebound;
- a start point of the wrong shape is refused;
- a row out of range is refused, on both row paths, and nothing is written;
- the compiled kernel and the numpy body give the same bits after every row;
- only huber and kl run the numpy body where the kernels can be built, and
  a state built with no library gives the same bits;
- a diverging row fails at the same iteration on both paths, and leaves the
  step scalars as they were (``kernels.c``'s divergence contract);
- a ``RESCALE_THRESHOLD`` patched after the state is built takes effect at
  the next row.

``test_every_bound_state_is_a_row`` keeps the table complete.  Cases that
belong to one state stay in its own test file.
"""

import ast
import copy
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from dapd import kernels, matrix
from dapd.baselines import SpdcState, spdc_epoch, spdc_steps
from dapd.deterministic import IterateState, schedule_for_problem
from dapd.errors import DivergenceError, StructuralError
from dapd.proxlib import huber_reg, kl_reg, l2_reg
from dapd.sparse_engine import LazyState, sparse_iterate
from dapd.stochastic import StochasticParams, StochasticState, perturb_problem, sdapd_iterate_dense
from dapd.traces import epoch_rows

from oracles import (
    KERNEL_REGS,
    ROW_PATHS,
    built_on,
    grid_params,
    ragged_problem,
    sampled_rows,
)


class State(NamedTuple):
    """One solver state's row of the contract table."""

    make: type
    arguments: Callable  # problem -> the constructor's arguments after it
    bound: tuple  # the attributes that cannot be rebound
    starts: tuple = ()  # the start-point keywords: x0 (length d), y0 (length n)
    # the row contract, for the states with row kernels
    step: Callable = None  # step(state, rows) runs the rows in order
    epoch: bool = False  # one call per epoch, which checks every row first
    written: tuple = ()  # everything a row writes
    kept: tuple = ()  # what a diverging row leaves as it was
    touches: Callable = None  # touches(problem, i): a row's touch count
    too_large: Callable = None  # problem -> constructor arguments that diverge
    bodies: tuple = ()  # the numpy bodies passed to ``kernels.bind``
    rescales: bool = False  # reads its module's RESCALE_THRESHOLD after each row


def row_by_row(iterate):
    """The step that calls ``iterate(state, i)`` on each row in turn."""

    def step(state, rows):
        for i in np.asarray(rows).tolist():
            iterate(state, i)

    return step


def dense_touches(problem, i):
    """The touch count of a dense SDAPD or SPDC row: O(d) work and the row."""
    return 4 * problem.dim + 3 * problem.matrix.row(i)[0].size


def too_large_stochastic(problem):
    return (StochasticParams(eta=200.0, tau=200.0, beta0=1.0, xi=1.5, n=problem.n),)


STOCHASTIC_SCALARS = ("beta_hat", "B_hat", "log_scale", "inv_scale", "t", "touch_counter")
LAZY_WRITTEN = ("y", "u", "v", "w", "beta_prev_hat", *STOCHASTIC_SCALARS, "rebase_count")
STATES = {
    "dapd": State(IterateState, lambda problem: (schedule_for_problem(problem),),
                  bound=("problem",), starts=("x0", "y0")),
    "lazy": State(
        LazyState, lambda problem: (grid_params(problem),),
        bound=("problem", "params", "theta", "x0", "y", "u", "v", "w"), starts=("x0",),
        step=row_by_row(sparse_iterate), written=LAZY_WRITTEN,
        # a lazy row that diverges writes nothing at all
        kept=LAZY_WRITTEN, touches=lambda problem, i: 6 * problem.matrix.row(i)[0].size + 2,
        too_large=too_large_stochastic, bodies=("_iterate_numpy",), rescales=True,
    ),
    "sdapd": State(
        StochasticState, lambda problem: (grid_params(problem),),
        bound=("problem", "params", "x0", "x", "xbar", "y", "u", "s_hat", "ergodic_x"),
        starts=("x0",), step=row_by_row(sdapd_iterate_dense),
        written=("x", "xbar", "y", "u", "s_hat", "ergodic_x", *STOCHASTIC_SCALARS),
        kept=STOCHASTIC_SCALARS, touches=dense_touches, too_large=too_large_stochastic,
        bodies=("_xbar_dot_numpy", "_update_numpy"), rescales=True,
    ),
    "spdc": State(
        SpdcState, lambda problem: spdc_steps(perturb_problem(problem, 1e-3)),
        bound=("problem", "tau", "sigma", "theta", "x", "x_ext", "y", "u"),
        step=spdc_epoch, epoch=True, written=("x", "x_ext", "y", "u", "t", "touch_counter"),
        kept=("t", "touch_counter"), touches=dense_touches,
        too_large=lambda problem: (50.0, 50.0, 0.5), bodies=("_spdc_epoch_numpy",),
    ),
}


def kinds(field):
    """The states whose ``field`` is set."""
    return [kind for kind, state in STATES.items() if getattr(state, field)]


def module_of(state):
    """The module of the state's class: its numpy bodies and the
    ``RESCALE_THRESHOLD`` its step reads."""
    return sys.modules[state.make.__module__]


def exact(state, names):
    """The attributes ``names`` of ``state`` as exact values (arrays as bytes)."""
    values = (getattr(state, name) for name in names)
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, state in STATES.items()
                                        for name in state.bound])
def test_problem_and_bound_vectors_cannot_be_rebound(kind, name):
    spec, problem = STATES[kind], ragged_problem("squared", KERNEL_REGS["l2"])
    state = spec.make(problem, *spec.arguments(problem))
    value = getattr(state, name)
    with pytest.raises(AttributeError):
        setattr(state, name, copy.copy(value))
    assert getattr(state, name) is value


SHAPES = {"scalar": lambda length: 1.0, "long": lambda length: np.zeros(length + 1),
          "short": lambda length: np.zeros(length - 1),
          "column": lambda length: np.zeros((length, 1))}


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("kind, name", [(kind, name) for kind, state in STATES.items()
                                        for name in state.starts])
def test_start_of_another_shape_is_refused(kind, name, shape):
    spec, problem = STATES[kind], ragged_problem("squared", KERNEL_REGS["l2"])
    length = problem.dim if name == "x0" else problem.n
    with pytest.raises(StructuralError, match=name):
        spec.make(problem, *spec.arguments(problem), **{name: SHAPES[shape](length)})


@pytest.mark.parametrize("at", [0, 5, 11])
@pytest.mark.parametrize("row", [-1, 12, 2**40])
@pytest.mark.parametrize("path", ROW_PATHS)
@pytest.mark.parametrize("kind", kinds("step"))
def test_row_out_of_range_is_refused_and_nothing_is_written(kind, path, row, at):
    spec = STATES[kind]
    problem = ragged_problem("squared", KERNEL_REGS["l2"])
    state, twin = (built_on(path, spec.make, problem, *spec.arguments(problem))
                   for _ in range(2))
    rows = np.arange(problem.n)
    spec.step(state, rows)
    spec.step(twin, rows)
    # the rows before the bad one run, unless the call checks its epoch first
    spec.step(twin, rows[:0 if spec.epoch else at])
    rows[at] = row
    with pytest.raises(StructuralError, match="out of range"):
        spec.step(state, rows)
    assert exact(state, spec.written) == exact(twin, spec.written)


# (state, RESCALE_THRESHOLD patched before it is built), the threshold only
# where the state rescales
GRID = [pytest.param(kind, threshold, id=f"{kind}-{'rescale_1e3' if threshold else 'no_rescale'}")
        for kind in kinds("step")
        for threshold in ((None, 1e3) if STATES[kind].rescales else (None,))]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("epsilon", [None, 1e-3], ids=["unperturbed", "eps_1e-3"])
@pytest.mark.parametrize("reg", list(KERNEL_REGS))
@pytest.mark.parametrize("loss", ["squared", "hinge"])
@pytest.mark.parametrize("kind, threshold", GRID)
def test_same_bits_as_numpy_after_every_row(compiled, monkeypatch, kind, threshold, loss, reg,
                                            epsilon, seed):
    spec = STATES[kind]
    if threshold is not None:
        monkeypatch.setattr(module_of(spec), "RESCALE_THRESHOLD", threshold)
    problem = ragged_problem(loss, KERNEL_REGS[reg])
    arguments = spec.arguments(problem)
    if epsilon is not None:
        problem = perturb_problem(problem, epsilon)
    fast, slow = (built_on(path, spec.make, problem, *arguments) for path in ROW_PATHS)
    rows = sampled_rows(problem.n, seed)
    for t in range(900):
        i = next(rows)
        spec.step(fast, [i])
        spec.step(slow, [i])
        assert exact(fast, spec.written) == exact(slow, spec.written), f"iteration {t}, row {i}"
    if spec.rescales:
        # beta reaches 1e3 at iteration 462 (grid_params)
        assert (fast.log_scale > 0) == (threshold is not None)


@pytest.mark.parametrize("reg, x0", [(huber_reg(0.1, 0.5), 0.0), (kl_reg(0.5), 1.0),
                                     (l2_reg(0.3), 0.0)], ids=["huber", "kl", "l2"])
@pytest.mark.parametrize("kind", kinds("bodies"))
def test_only_huber_and_kl_run_the_numpy_body(compiled, monkeypatch, kind, reg, x0):
    spec = STATES[kind]
    problem = perturb_problem(ragged_problem("squared", reg), 1e-3)
    start = {"x0": np.full(problem.dim, x0)} if "x0" in spec.starts else {}
    epochs = [rows for _, rows in epoch_rows(problem.n, 10 * problem.n, 4)]

    def ran():
        state = spec.make(problem, *spec.arguments(problem), **start)
        for rows in epochs:
            spec.step(state, rows)
        return exact(state, spec.written)

    want = ran()
    calls = []
    module = module_of(spec)
    for name in spec.bodies:
        body = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, body=body: calls.append(1) or body(*args))
    assert ran() == want
    step_calls = len(epochs) if spec.epoch else 10 * problem.n
    assert len(calls) == (0 if reg.kind == "l2" else len(spec.bodies) * step_calls)
    monkeypatch.setattr(kernels, "library", lambda: None)
    assert ran() == want


# (state, start) -> the iteration at which a row of seed 3 first diverges
DIVERGING = {
    ("lazy", "inf_x0_held"): 0, ("lazy", "inf_x0_not_held"): 31, ("lazy", "too_large"): 6742,
    ("sdapd", "inf_x0_held"): 0, ("sdapd", "inf_x0_not_held"): 0, ("sdapd", "too_large"): 6740,
    ("spdc", "too_large"): 1362,  # in the middle of the epoch call
}


def diverging(kind, start):
    """(problem, constructor arguments, start point) of a run that
    diverges: steps too large for the problem, or x0 = +inf on a column
    that the first row sampled at seed 3 holds, or does not hold (in dense
    SDAPD, the row's dot product is infinite, or its new x)."""
    spec = STATES[kind]
    problem = ragged_problem("squared", KERNEL_REGS["l2"])
    if start == "too_large":
        return problem, spec.too_large(problem), {}
    first = problem.matrix.row(next(sampled_rows(problem.n, 3)))[0]
    x0 = np.zeros(problem.dim)
    x0[first[0] if start == "inf_x0_held"
       else np.setdiff1d(problem.matrix.col_indices, first)[0]] = np.inf
    return problem, spec.arguments(problem), {"x0": x0}


@pytest.mark.parametrize("kind, start", list(DIVERGING))
def test_diverging_row_fails_at_the_same_iteration_with_the_step_scalars_kept(kind, start):
    spec = STATES[kind]
    problem, arguments, start_point = diverging(kind, start)
    rows = np.concatenate([epoch for _, epoch in epoch_rows(problem.n, 10_000, 3)])
    failed = []
    for path in ROW_PATHS if matrix.backend() == "compiled" else ("numpy",):
        state, replay = (built_on(path, spec.make, problem, *arguments, **start_point)
                         for _ in range(2))
        with pytest.raises(DivergenceError) as err:
            spec.step(state, rows)
        assert err.value.iteration == state.t == DIVERGING[kind, start]
        done = rows[:state.t]
        spec.step(replay, done)
        assert exact(state, spec.kept) == exact(replay, spec.kept)
        assert state.touch_counter == sum(spec.touches(problem, i) for i in done.tolist())
        failed.append(exact(state, spec.written))
    assert failed[0] == failed[-1]


@pytest.mark.parametrize("path", ROW_PATHS)
@pytest.mark.parametrize("kind", kinds("rescales"))
def test_threshold_patched_after_the_state_is_built_rescales_at_the_next_row(monkeypatch, kind,
                                                                             path):
    spec, module = STATES[kind], module_of(STATES[kind])
    problem = ragged_problem("hinge", KERNEL_REGS["elastic_net"])
    state = built_on(path, spec.make, problem, *spec.arguments(problem))
    rows = sampled_rows(problem.n, 5)
    spec.step(state, [next(rows) for _ in range(10)])
    assert state.beta_hat <= module.RESCALE_THRESHOLD and state.log_scale == 0.0
    monkeypatch.setattr(module, "RESCALE_THRESHOLD", state.beta_hat)
    spec.step(state, [next(rows)])
    assert state.beta_hat == state.params.beta0 and state.t == 11
    assert state.log_scale > 0 and state.inv_scale < 1.0


def test_every_bound_state_is_a_row():
    """Every class of ``src/dapd`` whose constructor calls ``kernels.bind``
    is a row of ``STATES``, with the numpy bodies it binds, so no row
    kernel lands without the contract tests."""
    found = {}
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for call in ast.walk(cls):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "bind" and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "kernels"):
                    found[f"dapd.{path.stem}.{cls.name}"] = tuple(
                        body.id for body in call.args[2].elts)
    assert found == {f"{state.make.__module__}.{state.make.__name__}": state.bodies
                     for state in STATES.values() if state.bodies}
