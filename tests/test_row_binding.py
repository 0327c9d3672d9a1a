"""Every solver state holds the problem it is built on as ``problem``,
which cannot be rebound, and its steps take the state and its rows alone.
The states with row kernels (the lazy engine, dense SDAPD and SPDC) bind
their row calls once, to that problem (``kernels.bind``), and check every
row index before a call (``kernels.row_calls`` and ``kernels.epoch_calls``),
whether the calls are the compiled kernels or their numpy bodies."""

import pytest

from dapd.baselines import SpdcState, spdc_steps
from dapd.deterministic import IterateState, schedule_for_problem
from dapd.errors import StructuralError
from dapd.sparse_engine import LazyState, sparse_iterate
from dapd.stochastic import StochasticState, perturb_problem, sdapd_iterate_dense

from oracles import KERNEL_REGS, ROW_PATHS, built_on, grid_params, ragged_problem, spdc_row


# name: (state class, its arguments after the problem, its row step)
STATES = {
    "lazy": (LazyState, lambda problem: (grid_params(problem),), sparse_iterate),
    "sdapd": (StochasticState, lambda problem: (grid_params(problem),), sdapd_iterate_dense),
    "spdc": (SpdcState, lambda problem: spdc_steps(perturb_problem(problem, 1e-3)),
             spdc_row),
}


def stepped_state(path, kind):
    """(problem, a state of ``kind`` on it after one row, its row step)."""
    make, arguments, iterate = STATES[kind]
    problem = ragged_problem("squared", KERNEL_REGS["l2"])
    state = built_on(path, make, problem, *arguments(problem))
    iterate(state, 3)
    return problem, state, iterate


def written(state):
    """What every row step writes, as exact values."""
    return state.y.tobytes(), state.u.tobytes(), state.t, state.touch_counter


@pytest.mark.parametrize("kind", ["dapd", *STATES])
def test_problem_cannot_be_rebound(kind):
    problem = ragged_problem("squared", KERNEL_REGS["l2"])
    if kind == "dapd":
        state = IterateState(problem, schedule_for_problem(problem))
    else:
        make, arguments, _ = STATES[kind]
        state = make(problem, *arguments(problem))
    # the same data, but not the problem the state is built on
    other = ragged_problem("squared", KERNEL_REGS["l2"])
    with pytest.raises(AttributeError):
        state.problem = other
    assert state.problem is problem


@pytest.mark.parametrize("row", [-1, 12, 2**40])
@pytest.mark.parametrize("path", ROW_PATHS)
@pytest.mark.parametrize("kind", list(STATES))
def test_row_out_of_range_is_refused(path, kind, row):
    problem, state, iterate = stepped_state(path, kind)
    before = written(state)
    with pytest.raises(StructuralError, match="out of range"):
        iterate(state, row)
    assert written(state) == before
