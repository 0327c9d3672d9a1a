"""Per-epoch trace records, the tracer every solver records them with, the
row sampler every stochastic driver draws its epochs from, CSV
serialization, and the shared run result."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, StructuralError
from .proxlib import primal_objective

TRACE_HEADER = "epoch,primal_value,suboptimality,nnz_fraction,touches,elapsed_seconds"

NNZ_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TraceRecord:
    """One epoch of solver progress.

    ``suboptimality`` is measured against the unperturbed objective and is
    NaN when no reference value was supplied.  ``touches`` is the cumulative
    coordinate-access count, ``elapsed_seconds`` the cumulative wall time
    (0 when a run is executed with wall_clock=False for byte-level
    reproducibility).
    """

    epoch: int
    primal_value: float
    suboptimality: float
    nnz_fraction: float
    touches: int
    elapsed_seconds: float


@dataclass
class RunResult:
    """Solution(s) and trace returned by every solver and baseline: ``x`` is
    the last iterate, and ``x_ergodic`` the beta-weighted average that the
    convergence rates bound, for the solvers that keep one (``run_dapd`` and
    ``run_sdapd``), else None."""

    x: np.ndarray
    trace: list
    x_ergodic: np.ndarray | None = None
    y: np.ndarray | None = None
    resolved: dict = field(default_factory=dict)


def nnz_fraction(x: np.ndarray) -> float:
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.count_nonzero(np.abs(x) > NNZ_TOLERANCE)) / x.size


def epoch_rows(n: int, iterations: int, seed: int):
    """Yield ``(epoch, rows)`` for epochs 1, 2, ...: the uniformly sampled
    rows of each epoch of n iterations (fewer in a final partial epoch), an
    int64 array drawn a whole epoch at a time from one ``default_rng(seed)``.

    A batch of int64 draws is the same stream as one ``rng.integers(n)`` per
    iteration, so a run does not depend on how its draws are grouped.
    """
    rng = np.random.default_rng(seed)
    for epoch, start in enumerate(range(0, iterations, n), start=1):
        yield epoch, rng.integers(n, size=min(n, iterations - start))


class Tracer:
    """Per-epoch trace of one run.

    Owns the run's wall clock (started at construction) and the evaluation of
    each recorded point.  Every solver fails the same way on a point whose
    objective is not finite: ``DivergenceError`` naming the epoch (its
    ``epoch`` field).
    """

    def __init__(self, problem, reference_value: float | None, wall_clock: bool):
        self.problem = problem
        self.reference = reference_value
        self.wall_clock = wall_clock
        self.records = []
        self.start = time.perf_counter()

    def record(self, epoch: int, x: np.ndarray, touches: int) -> None:
        # called through this module's global names: the benchmark's call
        # tracing (perfbench/tracing.py) patches those names to time them
        value = primal_objective(self.problem, x)
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite objective at epoch {epoch}", epoch=epoch)
        subopt = value - self.reference if self.reference is not None else np.nan
        self.records.append(
            TraceRecord(
                epoch=epoch,
                primal_value=value,
                suboptimality=subopt,
                nnz_fraction=nnz_fraction(x),
                touches=touches,
                elapsed_seconds=time.perf_counter() - self.start if self.wall_clock else 0.0,
            )
        )


def write_trace(records, path) -> None:
    """Write trace records as CSV with 17-significant-digit reals."""
    records = list(records)
    if not records:
        raise StructuralError("refusing to write an empty trace")
    lines = [TRACE_HEADER]
    for r in records:
        lines.append(
            f"{r.epoch},{r.primal_value:.17g},{r.suboptimality:.17g},"
            f"{r.nnz_fraction:.17g},{r.touches},{r.elapsed_seconds:.17g}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path):
    """Parse a trace CSV back into records (exact round-trip)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != TRACE_HEADER:
        raise StructuralError(f"{path} is not a trace file")
    out = []
    for ln in lines[1:]:
        epoch, primal, subopt, nnz, touches, elapsed = ln.split(",")
        out.append(
            TraceRecord(
                epoch=int(epoch),
                primal_value=float(primal),
                suboptimality=float(subopt),
                nnz_fraction=float(nnz),
                touches=int(touches),
                elapsed_seconds=float(elapsed),
            )
        )
    return out
