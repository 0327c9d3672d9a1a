"""Call-boundary spans for the traced benchmark run.

``Tracer.installed()`` replaces the public functions of the ``dapd`` modules
with timing wrappers.  The replacement is made in every ``dapd`` module
namespace that holds the function (``from .matrix import matvec`` copies the
name into the importing module), so a call through any of those names opens a
span.  The program's own code is not changed, and the original functions are
put back when the ``with`` block ends.

Spans are aggregated in memory per call-graph edge ``(phase, parent, name)``:
call count, total time, self time (total minus the time of child spans) and
every duration, so per-call medians can be taken.  The phase is set by the
benchmark around its own steps (``load``, ``build``, ``reference``, ``solve``,
``probe``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

# (module, functions) whose calls are spanned; names are "<module>.<function>"
TRACED_FUNCTIONS = (
    ("datasets", ("load_libsvm", "parse_libsvm", "synth_ridge")),
    ("matrix", ("build_matrix", "matvec", "power_iteration", "stats")),
    ("proxlib", ("make_problem", "primal_objective", "prox_conjugate", "recover_primal",
                 "prox_reg", "dual_prox", "dual_objective", "feasible_dual_point")),
    ("deterministic", ("schedule_for_problem", "validate_schedule", "run_dapd",
                       "dapd_iterate")),
    ("stochastic", ("params_for_problem", "perturb_problem", "run_sdapd",
                    "sdapd_iterate_dense")),
    ("sparse_engine", ("run_sparse", "sparse_iterate", "finalize_x", "rebase")),
    ("baselines", ("run_baseline",)),
    ("harness", ("compute_reference",)),
    ("traces", ("write_trace", "nnz_fraction")),
)

MODULES = tuple(module for module, _ in TRACED_FUNCTIONS)


def _span_name(module: str, func: str):
    """Span name for a call; matvec and run_baseline are split by argument."""
    base = f"{module}.{func}"
    if base == "matrix.matvec":
        def name(args, kwargs):
            transpose = kwargs.get("transpose", args[2] if len(args) > 2 else False)
            return "matrix.rmatvec" if transpose else "matrix.matvec"
        return name
    if base == "baselines.run_baseline":
        return lambda args, kwargs: f"baselines.{args[0].method}"
    return lambda args, kwargs: base


class Edge:
    __slots__ = ("count", "total", "self_time", "durations")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d")


class Tracer:
    def __init__(self):
        self.edges = {}  # (phase, parent, name) -> Edge
        self.stack = []  # open spans: [name, time covered by children]
        self.phase = ""

    # -- recording ---------------------------------------------------------

    def _close(self, parent, name, duration, child_time):
        key = (self.phase, parent, name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = Edge()
        edge.count += 1
        edge.total += duration
        edge.self_time += duration - child_time
        edge.durations.append(duration)

    @contextlib.contextmanager
    def span(self, name):
        frame = [name, 0.0]
        parent = self.stack[-1][0] if self.stack else ""
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += duration
            self._close(parent, name, duration, frame[1])

    @contextlib.contextmanager
    def in_phase(self, phase):
        previous, self.phase = self.phase, phase
        try:
            with self.span(f"phase.{phase}"):
                yield
        finally:
            self.phase = previous

    def _wrap(self, fn, name_of):
        # span()'s bookkeeping, inlined: this runs on every traced call, up to
        # four times per sparse-engine iteration
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self._close(parent, name, duration, frame[1])

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions in every dapd module for the block."""
        namespaces = [importlib.import_module(f"dapd.{m}") for m in MODULES]
        wrappers = {}
        for module, funcs in TRACED_FUNCTIONS:
            home = importlib.import_module(f"dapd.{module}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(original, _span_name(module, func))
                wrappers[id(original)] = (original, wrapper)
        patched = []
        try:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and value is entry[0]:
                        setattr(ns, attr, entry[1])
                        patched.append((ns, attr, value))
            yield self
        finally:
            for ns, attr, value in patched:
                setattr(ns, attr, value)

    # -- queries -----------------------------------------------------------

    def _select(self, name, phase=None, parent=None):
        return [
            edge for (ph, par, nm), edge in self.edges.items()
            if nm == name and (phase is None or ph == phase)
            and (parent is None or par == parent)
        ]

    def durations(self, name, phase=None, parent=None):
        out = []
        for edge in self._select(name, phase, parent):
            out.extend(edge.durations)
        return out

    def count(self, name, phase=None, parent=None) -> int:
        return sum(edge.count for edge in self._select(name, phase, parent))

    def total(self, name, phase=None, parent=None) -> float:
        return sum(edge.total for edge in self._select(name, phase, parent))

    def table(self):
        """Aggregated spans, heaviest first, for the run's output file."""
        rows = [
            {"phase": ph, "parent": par, "name": nm, "count": e.count,
             "total_s": e.total, "self_s": e.self_time}
            for (ph, par, nm), e in self.edges.items()
        ]
        rows.sort(key=lambda r: -r["total_s"])
        return rows
