"""Composite convex optimization with dual-averaging primal-dual solvers.

Solves  minimize  f(A x) + g(x)  with separable losses (squared, hinge) and
separable regularizers (l2, l1, elastic net, Huber, KL divergence), via:

- DAPD: a deterministic primal-dual method whose primal step re-proximates
  from the initial point against the weighted sum of all past dual
  gradients (``dapd.deterministic``);
- SDAPD: its stochastic single-coordinate variant with extrapolated dual
  updates (``dapd.stochastic``);
- a lazy sparse engine that makes SDAPD's per-iteration cost proportional
  to the sampled row's nonzero count (``dapd.sparse_engine``);
- baseline solvers (PDHG, APGM, DA, RDA, ProxSGD, ProxSVRG, SPDC) and a
  trace-emitting experiment harness with a CLI (``dapd.baselines``,
  ``dapd.harness``, ``dapd.cli``).
"""

from .matrix import (
    MatrixStats,
    SparseRowMatrix,
    build_matrix,
    matvec,
    stats,
)
from .proxlib import (
    CompositeProblem,
    LossFamily,
    Regularizer,
    composite_gamma,
    dual_objective,
    elastic_net_reg,
    feasible_dual_point,
    fold_labels,
    hinge_loss,
    huber_reg,
    kl_reg,
    l1_reg,
    l2_reg,
    make_problem,
    primal_objective,
    problem_constants,
    prox_conjugate,
    prox_reg,
    squared_loss,
    svm_problem,
)
from .deterministic import (
    IterateState,
    SolverSchedule,
    dapd_iterate,
    make_schedule,
    run_dapd,
    schedule_for_problem,
    validate_schedule,
)
from .stochastic import (
    StochasticParams,
    StochasticState,
    params_for_problem,
    perturb_problem,
    run_sdapd,
    sdapd_iterate_dense,
    sdapd_params,
)
from .sparse_engine import (
    LazyState,
    finalize_x,
    rebase,
    run_sparse,
    sparse_iterate,
)
from .baselines import BaselineConfig, run_baseline
from .datasets import (
    Dataset,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
    synth_ridge,
    synth_sparse_classification,
)
from .harness import (
    ReferenceSolution,
    RunConfig,
    build_problem,
    compute_reference,
    run_experiment,
)
from .traces import RunResult, TraceRecord, nnz_fraction, read_trace, write_trace
from .errors import (
    CertificationError,
    ConfigurationError,
    DivergenceError,
    ParseError,
    StructuralError,
)

__version__ = "0.1.0"
