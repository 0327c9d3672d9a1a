"""The baseline methods (``dapd.baselines``): ``BaselineConfig``, and
SPDC's compiled epoch against its numpy body after every epoch.  The
run-level contract every method shares (budgets, seeds, the trace schema,
refusals) is tested once, over the table of ``test_methods.py``, and the row
contract SPDC shares with the other solver states over the table of
``test_states.py``."""

import numpy as np
import pytest

from dapd.baselines import BaselineConfig, SpdcState, spdc_epoch, spdc_steps
from dapd.errors import ConfigurationError, StructuralError
from dapd.stochastic import perturb_problem
from dapd.traces import epoch_rows

from oracles import KERNEL_REGS, built_without_kernels, ragged_problem
from test_states import STATES, exact


def test_unknown_method_rejected():
    with pytest.raises(ConfigurationError):
        BaselineConfig("adam", epochs=5)


# ---------------------------------------------------------------------------
# the compiled SPDC epoch (spdc_epoch in kernels.c) against its numpy body;
# the cases every row kernel shares are in test_states.py
# ---------------------------------------------------------------------------


def spdc_pair(problem):
    """A compiled and a numpy SpdcState on ``problem``, with the steps of
    the problem perturbed by 1e-3."""
    steps = spdc_steps(perturb_problem(problem, 1e-3))
    return (SpdcState(problem, *steps),
            built_without_kernels(SpdcState, problem, *steps))


class TestCompiledSpdcRow:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("epsilon", [None, 1e-3], ids=["unperturbed", "eps_1e-3"])
    @pytest.mark.parametrize("reg", list(KERNEL_REGS))
    @pytest.mark.parametrize("loss", ["squared", "hinge"])
    def test_same_bits_as_numpy_after_every_epoch(self, compiled, loss, reg, epsilon, seed):
        problem = ragged_problem(loss, KERNEL_REGS[reg])
        if epsilon is not None:
            problem = perturb_problem(problem, epsilon)
        fast, slow = spdc_pair(problem)
        written = STATES["spdc"].written
        for epoch, rows in epoch_rows(problem.n, 75 * problem.n, seed):
            spdc_epoch(fast, rows)
            spdc_epoch(slow, rows)
            assert exact(fast, written) == exact(slow, written), f"epoch {epoch}"
        assert fast.t == 75 * problem.n

    @pytest.mark.parametrize("rows", [np.array([1.0, 2.0]), np.zeros((2, 2), dtype=np.int64)],
                             ids=["float", "2-d"])
    def test_rows_that_are_not_a_1d_integer_array_are_refused(self, rows):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        state = spdc_pair(problem)[0]
        with pytest.raises(StructuralError, match="1-d integer array"):
            spdc_epoch(state, rows)
        assert state.t == 0

    def test_non_positive_sigma_is_refused(self):
        problem = ragged_problem("squared", KERNEL_REGS["l2"])
        with pytest.raises(ConfigurationError, match="sigma"):
            SpdcState(problem, 0.5, 0.0, 0.5)

