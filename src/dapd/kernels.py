"""Build-on-demand C kernels (``kernels.c``), loaded through ctypes.

``library()`` compiles ``kernels.c`` on first use with the system C compiler
(``cc``, else ``gcc``, found on PATH) and ``FLAGS``, and caches the shared
library in ``$XDG_CACHE_HOME/dapd``, or ``~/.cache/dapd`` when that variable
is unset.  A compiler that rejects ``ALIGN_LOOPS`` builds without it.  The
file is named by a hash of the source, the flags the build used and the
compiler, so a changed source or compiler builds a new file next to the old
one.  Once a library has loaded, every other ``kernels-*.so`` of the
directory is deleted (README.md says what that does to a process that still
uses one).  Each build writes a temporary file and renames it into place,
so processes that build at the same time never load a half-written library.

Any failure (no compiler, a compile error, a cache directory that cannot be
created or that another user can write, a load error) makes ``library()``
return None for the rest of the process; callers then use their numpy or
Python code.

``libsvm_parse`` reads LIBSVM text straight into CSR arrays.  It accepts a
strict ASCII grammar and rounds each number correctly, as Python's
``float`` does: exactly, in integer arithmetic, when its significand has at
most 19 digits and its decimal exponent lies in [-27, 19] (but for ties
and near-ties when that exponent is negative), and with the C library's
``strtod`` otherwise; ``datasets.parse_libsvm`` hands any other text, and
every error, to its Python body.

The row kernels (``lazy_iterate`` of the lazy engine, ``sdapd_dense_*`` of
dense SDAPD, ``spdc_epoch`` of SPDC and ``dapd_step``, a whole DAPD
iteration) sum each row's dot product in storage order from +0.0, as
``csr_matvec`` does and as their numpy bodies do through
``matrix.ordered_dot`` (DAPD's through ``matrix.matvec``), so both give the
same bits on any machine; when the library cannot be built or loaded
(``matrix.backend``), the callers keep their numpy bodies.  All five
kernels take one struct, ``RowProblem``.  Each solver state ``bind``s its
row calls once, in its constructor, to its ``problem``; the struct holds
the addresses of the state's arrays and of its ``RowScalars`` block, and
``fixed`` makes the problem and those arrays attributes that cannot be
rebound.  ``row_calls`` hands the calls back for each row, and
``epoch_calls`` for each epoch of rows, after they check every row index;
``dapd_step`` takes no row.  The kernels advance the block's step scalars
(beta, B, t and the touch count; only the callers' rescale changes the
scale, and DAPD's caller grows beta by its schedule) themselves, so one
call does a lazy iteration, an SPDC epoch or a DAPD iteration; the states
expose its fields as attributes (``scalar``), and their numpy bodies read
and write the same block.  A row that diverges leaves those scalars as they
were: the contract is stated once, in ``kernels.c``'s row-kernel comment.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import operator
import os
import shutil
import stat
import subprocess
import tempfile
import weakref
from pathlib import Path

import numpy as np

from .errors import StructuralError

SOURCE = Path(__file__).with_name("kernels.c")
# every loop starts a 64-byte line, so where a kernel lands in the library
# does not move its inner loop across one (that once made csr_rmatvec 15%
# slower); a compiler that rejects the flag builds without it
ALIGN_LOOPS = "-falign-loops=64"
# no -ffast-math: the kernels must round exactly as numpy.  -march=native
# keeps the bits too under -ffp-contract=off (every test passes with it),
# but is left out for speed: on a 2-CPU AVX-512 x86-64 machine (gcc 12.2)
# it made the dense matvecs slower (matrix.stats on the 2000 x 500 benchmark
# matrix: 111-153 ms against 102-115 ms), though the lazy row kernels about
# 15% faster
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", ALIGN_LOOPS)
COMPILERS = ("cc", "gcc")
COMPILE_TIMEOUT_S = 120

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double
# an epoch's rows: ctypes refuses any other array
_ROWS = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
# name: (restype, argtypes)
SIGNATURES = {
    "csr_matvec": (None, (_I64, _PTR, _PTR, _PTR, _PTR, _PTR)),
    "csr_rmatvec": (None, (_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR)),
    # (row problem, i) -> row nnz, or -1
    "lazy_iterate": (_I64, (_PTR, _I64)),
    # (row problem, i) -> <a_i, xbar>
    "sdapd_dense_xbar": (_F64, (_PTR, _I64)),
    # (row problem, i, y_new) -> row nnz, or -1
    "sdapd_dense_update": (_I64, (_PTR, _I64, _F64)),
    # (row problem, rows, count) -> rows completed
    "spdc_epoch": (_I64, (_PTR, _ROWS, _I64)),
    # (row problem, eta, tau) -> 0, or -1
    "dapd_step": (_I64, (_PTR, _F64, _F64)),
    # (text, length, counts): counts = ['\n' count, ':' count]
    "libsvm_count": (None, (ctypes.c_char_p, _I64, _PTR)),
    # (text, length, labels, offsets, cols, values, max_index) -> rows, or -1
    "libsvm_parse": (_I64, (ctypes.c_char_p, _I64, _PTR, _PTR, _PTR, _PTR, _PTR)),
}


# the regularizer codes of ``struct sep_reg``; other kinds have no row kernel
REG_CODES = {"l2": 0, "l1": 1, "elastic_net": 1}
# the loss codes of ``struct row_problem``: one for each of ``proxlib.LOSS_KINDS``
LOSS_CODES = {"squared": 0, "hinge": 1}
# the ``RowProblem`` arrays as long as the matrix has rows; the others are
# as long as it has columns
_ROW_LENGTH = ("targets", "y")


class SepReg(ctypes.Structure):
    """``struct sep_reg`` of ``kernels.c``: l2, l1 or elastic net, and delta2."""

    _fields_ = [("kind", _I64), *((name, _F64) for name in ("lam", "lam2", "d2"))]

    @classmethod
    def of(cls, reg) -> "SepReg":
        """The struct for a ``proxlib.Regularizer`` whose kind is in ``REG_CODES``."""
        lam2 = reg.lam2 if reg.kind == "elastic_net" else 0.0
        return cls(REG_CODES[reg.kind], reg.lam, lam2, reg.primal_perturbation)


class RowScalars(ctypes.Structure):
    """``struct row_scalars`` of ``kernels.c``: a solver state's step
    scalars, which its row kernel advances in place."""

    _fields_ = [*((name, _F64) for name in ("beta_hat", "beta_prev_hat", "B_hat", "inv_scale")),
                ("t", _I64), ("touch_counter", _I64)]


class RowProblem(ctypes.Structure):
    """``struct row_problem`` of ``kernels.c``, field for field."""

    _fields_ = [
        *((name, _PTR) for name in ("offsets", "cols", "values", "targets", "x0", "x", "xbar",
                                    "u", "y", "s_hat", "ergodic", "v", "w", "scalars")),
        ("g", SepReg), *((name, _I64) for name in ("n", "d", "loss")),
        *((name, _F64) for name in ("step", "tau", "theta", "xi", "d1", "loss_scale")),
    ]


def bind(state, names, bodies, **fields) -> None:
    """Bind ``state``'s row calls, once, to ``state.problem``, the problem
    it is built on.  They are the kernels ``names`` on a ``RowProblem`` of
    the problem's matrix, regularizer and loss, the state's ``RowScalars``
    block (``state._scalars``) and ``fields``: the struct's other fields by
    name, arrays or numbers, NULL or 0 when not given.  They are the numpy
    ``bodies`` instead, each called as body(state, ...) with a weak proxy
    of the state, when the library cannot be loaded (``matrix.backend()``
    is "numpy") or the regularizer has no compiled form.  Sets
    ``state._kernel`` to (calls, the problem's row count, which ``row_calls``
    checks each row against, what the compiled calls' addresses point into,
    or None)."""
    problem, matrix, loss = state.problem, state.problem.matrix, state.problem.loss
    if library() is None or problem.reg.kind not in REG_CODES:
        # a proxy: the state holding calls bound to itself would be a cycle,
        # which keeps it and its problem alive until a full collection
        owner = weakref.proxy(state)
        state._kernel = (tuple(functools.partial(body, owner) for body in bodies),
                         matrix.n_rows, None)
        return
    fields.update(targets=np.ascontiguousarray(loss.targets, dtype=np.float64),
                  loss=LOSS_CODES[loss.kind], d1=loss.dual_perturbation)
    values = dict(fields)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            length = matrix.n_rows if name in _ROW_LENGTH else matrix.n_cols
            if not (value.shape == (length,) and value.dtype == np.float64
                    and value.flags.c_contiguous):
                raise StructuralError(f"{name} is not {length} contiguous float64 values")
            values[name] = value.ctypes.data
    struct = RowProblem(
        *matrix._pointers, **values, scalars=ctypes.addressof(state._scalars),
        g=SepReg.of(problem.reg), n=matrix.n_rows, d=matrix.n_cols,
    )
    lib, address = library(), ctypes.addressof(struct)
    calls = tuple(functools.partial(getattr(lib, name), address) for name in names)
    state._kernel = (calls, matrix.n_rows, (struct, fields))


def row_calls(state, i: int) -> tuple:
    """The calls ``bind`` gave ``state``, once ``i`` is checked to be one of
    its problem's rows: a row kernel indexes without bounds checks."""
    calls, n, _ = state._kernel
    if not 0 <= i < n:
        raise StructuralError(f"row index {i} out of range for {n} rows")
    return calls


def epoch_calls(state, rows) -> tuple:
    """(the calls ``bind`` gave ``state``, ``rows`` as contiguous int64),
    once every entry of ``rows``, a 1-d integer array, is checked to be one
    of its problem's rows: an epoch kernel indexes without bounds checks,
    so a bad row is refused before the first row runs."""
    calls, n, _ = state._kernel
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise StructuralError("the rows of an epoch must be a 1-d integer array")
    outside = (rows < 0) | (rows >= n)
    if outside.any():
        bad = rows[outside.argmax()]
        raise StructuralError(f"row index {bad} out of range for {n} rows")
    return calls, np.ascontiguousarray(rows, dtype=np.int64)


def fixed(name: str) -> property:
    """A read-only attribute ``name``, stored as ``_name``: a state's
    problem, or a value or array (by its address) a bound kernel keeps."""
    return property(operator.attrgetter("_" + name),
                    doc=f"``{name}``, read-only: the state's steps are bound to it")


def scalar(name: str) -> property:
    """The attribute ``name``, stored as that field of the state's
    ``RowScalars`` block (``_scalars``), which the row kernels advance."""
    return property(operator.attrgetter("_scalars." + name),
                    lambda self, value: setattr(self._scalars, name, value),
                    doc=f"``{name}``, kept in the state's ``RowScalars`` block")


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/dapd``; ``~/.cache/dapd`` when the variable is unset
    or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "dapd"


def _find_compiler() -> str | None:
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return os.path.realpath(path)
    return None


def _library_name(compiler: str, flags: tuple) -> str:
    info = os.stat(compiler)
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(flags).encode(), compiler.encode(),
                 f"{info.st_size}:{info.st_mtime_ns}".encode()):
        key.update(part)
        key.update(b"\0")
    return f"kernels-{key.hexdigest()[:20]}.so"


def _private_dir(path: Path) -> Path:
    """Create ``path`` if needed; refuse it unless this user owns it and no
    other user can write to it (a library loaded from it runs as this user)."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"{path} is not a directory private to this user")
    return path


def _build(compiler: str, flags: tuple, target: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *flags, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=COMPILE_TIMEOUT_S,
        )
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load() -> ctypes.CDLL | None:
    compiler = _find_compiler()
    if compiler is None:
        return None
    cache = _private_dir(_cache_dir())
    # FLAGS, else FLAGS without ALIGN_LOOPS; a library either built is kept
    plain = tuple(flag for flag in FLAGS if flag != ALIGN_LOOPS)
    target = cache / _library_name(compiler, FLAGS)
    fallback = cache / _library_name(compiler, plain)
    if not target.exists() and not fallback.exists():
        try:
            _build(compiler, FLAGS, target)
        except subprocess.CalledProcessError:
            _build(compiler, plain, fallback)
    path = target if target.exists() else fallback
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in SIGNATURES.items():
        func = getattr(lib, name)
        func.argtypes = argtypes
        func.restype = restype
    _remove_stale(cache, path)
    return lib


def _remove_stale(cache: Path, keep: Path) -> None:
    """Delete every ``kernels-*.so`` of ``cache`` but ``keep``: libraries of
    another source, flags or compiler.  No other file there is touched, and
    a file that cannot be deleted is left."""
    for path in cache.glob("kernels-*.so"):
        if path != keep:
            with contextlib.suppress(OSError):
                path.unlink()


@functools.cache
def library() -> ctypes.CDLL | None:
    """The compiled kernels, or None when they cannot be built or loaded.

    Decided once per process; ``library.cache_clear()`` forgets the decision.
    """
    try:
        return _load()
    except (OSError, subprocess.SubprocessError, AttributeError):
        # OSError: cache directory, compiler or dlopen; AttributeError: a
        # kernel missing from the library
        return None
