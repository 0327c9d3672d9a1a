"""The run-level contract of a method, tested once for every name in
``harness.METHODS``.

``dapd run`` runs every method, the paper's and the baselines, through its
entry in that registry: one runner, called as ``runner(problem, epochs,
seed, reference_value=..., wall_clock=...)``, and the ``seeded`` and
``perturbed`` flags.  Each row of ``ROWS`` gives a method's budget and
target on a well-conditioned ridge, the fixture problems it refuses, and
the closed-form example it must solve; one test per contract runs over the
table, each through ``run``:

- the table's rows are exactly the registry's names;
- a budget of 0 epochs is refused;
- the same seed gives the same trace and the same bytes of x, and seeds 1
  and 2 give different traces exactly when the method is ``seeded``;
- the trace runs over epochs 1..E with strictly increasing touches, no
  elapsed time under ``wall_clock=False`` and no suboptimality below
  rounding;
- each method reaches its target within its budget;
- a method refuses the unperturbed hinge + l1 problem exactly when it is
  ``perturbed``, and otherwise runs the fixture problems its row does not
  name.

Cases that force a method's steps or read its iterates stay in its own
test file.
"""

from typing import NamedTuple

import numpy as np
import pytest

from dapd import harness
from dapd.errors import ConfigurationError
from dapd.matrix import build_matrix
from dapd.proxlib import kl_reg, l1_reg, make_problem, primal_objective, squared_loss, svm_problem
from dapd.stochastic import perturb_problem

from oracles import one_d_ridge, ridge_problem


def well_conditioned_ridge(n=20, d=20, lam=1.0):
    """A ridge problem and its optimal value, from the normal equations."""
    rng = np.random.default_rng(2)
    A = build_matrix([(i, j, rng.normal() / np.sqrt(d)) for i in range(n) for j in range(d)], n, d)
    b = rng.normal(size=n)
    dense = A.to_dense()
    x_star = np.linalg.solve(dense.T @ dense / n + lam * np.eye(d), dense.T @ b / n)
    problem = ridge_problem(A, b, lam)
    return problem, primal_objective(problem, x_star)


def hinge_l1():
    rng = np.random.default_rng(1)
    A = build_matrix([(i, j, rng.normal()) for i in range(6) for j in range(4)], 6, 4)
    return svm_problem(A, np.where(rng.random(6) < 0.5, -1.0, 1.0), l1_reg(0.1))


def kl():
    A = build_matrix([(i, j, 1.0 + i + j) for i in range(3) for j in range(2)], 3, 2)
    return make_problem(A, squared_loss([1.0, 2.0, 3.0]), kl_reg(0.5), "finite_sum")


RIDGE, RIDGE_VALUE = well_conditioned_ridge()
FIXTURES = {"hinge_l1": hinge_l1(), "kl": kl()}
FIXTURES.update({f"{name}_perturbed": perturb_problem(problem, 0.1)
                 for name, problem in list(FIXTURES.items())})

# what a refusal says: the method needs a smooth, strongly convex problem,
# or it starts at x = 0, outside the kl domain
NEEDS_PERTURBATION = "gamma > 0"
STARTS_OUTSIDE_KL = "cannot run on kl"


class Method(NamedTuple):
    """One method's row of the contract table."""

    budget: tuple  # (epochs, target): P(x) - P* <= target on the ridge, for its rate
    refuses: dict = {}  # fixture -> a pattern of its refusal message
    example: tuple = None  # (epochs, tol): |x - 0.5| <= tol on the 1-d ridge


ROWS = {
    "dapd": Method((40, 1e-6), example=(200, 1e-5)),
    "sdapd": Method((40, 1e-6), {"hinge_l1": NEEDS_PERTURBATION, "kl": NEEDS_PERTURBATION}),
    "sdapd_sparse": Method((40, 1e-6),
                           {"hinge_l1": NEEDS_PERTURBATION, "kl": NEEDS_PERTURBATION}),
    "pdhg": Method((400, 1e-6)),
    "apgm": Method((400, 1e-6), {"hinge_l1": NEEDS_PERTURBATION}, example=(200, 1e-5)),
    "da": Method((20_000, 1e-2), {"kl": STARTS_OUTSIDE_KL, "kl_perturbed": STARTS_OUTSIDE_KL}),
    "rda": Method((2_000, 1e-2)),
    "proxsgd": Method((2_000, 1e-3)),
    "proxsvrg": Method((40, 1e-6), {"hinge_l1": NEEDS_PERTURBATION, "kl": STARTS_OUTSIDE_KL,
                                    "kl_perturbed": STARTS_OUTSIDE_KL}),
    "spdc": Method((40, 1e-6), {"hinge_l1": NEEDS_PERTURBATION, "kl": NEEDS_PERTURBATION},
                   example=(400, 1e-8)),
}


def run(name, problem, epochs, seed=1, reference_value=None):
    """``epochs`` epochs of ``name`` on ``problem``, through its registry runner."""
    return harness.METHODS[name].runner(problem, epochs, seed, reference_value=reference_value,
                                        wall_clock=False)


def test_every_method_has_a_row():
    assert set(ROWS) == set(harness.METHODS)


@pytest.mark.parametrize("name", list(ROWS))
def test_zero_budget_is_refused(name):
    with pytest.raises(ConfigurationError, match="must be at least 1"):
        run(name, RIDGE, 0)


@pytest.mark.parametrize("name", list(ROWS))
def test_a_seed_fixes_the_run_and_seeded_methods_vary_with_it(name):
    a, b, other = (run(name, RIDGE, 3, seed, RIDGE_VALUE) for seed in (1, 1, 2))
    assert a.trace == b.trace and a.x.tobytes() == b.x.tobytes()
    assert (other.trace != a.trace) == harness.METHODS[name].seeded


@pytest.mark.parametrize("name", list(ROWS))
def test_trace_schema(name):
    trace = run(name, RIDGE, 3, reference_value=RIDGE_VALUE).trace
    assert [r.epoch for r in trace] == [1, 2, 3]
    assert np.all(np.diff([0] + [r.touches for r in trace]) > 0)
    assert all(r.elapsed_seconds == 0 for r in trace)
    assert all(r.suboptimality >= -1e-9 * (1 + abs(RIDGE_VALUE)) for r in trace)


@pytest.mark.parametrize("name,fixture,epochs,target", [
    *(pytest.param(name, "ridge", *row.budget, id=f"{name}-ridge") for name, row in ROWS.items()),
    *(pytest.param(name, "one_d_ridge", *row.example, id=f"{name}-one_d_ridge")
      for name, row in ROWS.items() if row.example),
])
def test_reaches_its_target_within_its_budget(name, fixture, epochs, target):
    if fixture == "ridge":
        assert primal_objective(RIDGE, run(name, RIDGE, epochs).x) - RIDGE_VALUE <= target
    else:
        assert abs(run(name, one_d_ridge(), epochs).x[0] - 0.5) <= target


@pytest.mark.parametrize("fixture", list(FIXTURES))
@pytest.mark.parametrize("name", list(ROWS))
def test_refuses_exactly_the_problems_its_row_names(name, fixture):
    refusal = ROWS[name].refuses.get(fixture)
    if fixture == "hinge_l1":
        assert (refusal is not None) == harness.METHODS[name].perturbed
    if refusal is None:
        assert np.isfinite(run(name, FIXTURES[fixture], 3).x).all()
    else:
        with pytest.raises(ConfigurationError, match=refusal):
            run(name, FIXTURES[fixture], 3)
