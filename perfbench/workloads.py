"""The benchmark workloads and their inputs.

``BENCHMARK.json`` lists ``sparse_hinge`` and ``dense_ridge``;
``readme_ridge`` runs the same way by hand (perfbench/README.md says why).

Each workload is one problem run through the steps of ``dapd run``: load the
data, build the problem (matrix stats included), compute the certified
reference, then run every (method, seed) cell and write its trace.  The
reasons for each choice are in ``perfbench/README.md``.

Inputs come from a fixed recipe whose rows are put in an order drawn from the
workload seed.  Reordering rows leaves A^T A, and so the spectral-norm power
iteration and the reference's iteration count, unchanged; what changes with
the seed is which sample each stochastic draw picks.  Drawing a new matrix per
seed instead moved the power-iteration count from 224 to 2,348 matvecs across
seeds 1-6 of the sparse recipe, which would measure the seed, not the code.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dapd import datasets, proxlib
from dapd.datasets import Dataset
from dapd.matrix import SparseRowMatrix

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"
PREPARE_TIMEOUT_S = 120


def permute_rows(dataset: Dataset, seed: int) -> Dataset:
    """The dataset with its rows (and labels) in the order drawn from seed."""
    A = dataset.matrix
    order = np.random.default_rng(seed).permutation(A.n_rows)
    lengths = np.diff(A.row_offsets)[order]
    offsets = np.zeros(A.n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    gather = np.repeat(A.row_offsets[order] - offsets[:-1], lengths) + np.arange(A.nnz)
    matrix = SparseRowMatrix(
        A.n_rows, A.n_cols, offsets, A.col_indices[gather], A.values[gather]
    )
    return Dataset(matrix, dataset.labels[order], {**dataset.meta, "row_order_seed": seed})


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SparseHinge:
    """Hinge + elastic net on a 5000 x 20000 LIBSVM file (~50 nonzeros/row)."""

    name = "sparse_hinge"
    n = 5000
    d = 20000
    density = 2.5e-3
    base_seed = 1
    lam1 = 1e-4
    lam2 = 1e-2
    epochs = 5
    epsilon = 1e-3
    reference_method = "solver"
    accuracy = 1e-9
    cells = (("sdapd_sparse", 1), ("sdapd_sparse", 2), ("sdapd_sparse", 3))

    def cache_path(self, seed: int) -> Path:
        return CACHE_DIR / f"{self.name}_seed{seed}.libsvm"

    def prepare(self, seed: int) -> Path:
        """Write the seed's LIBSVM file once (in a child process, so its
        memory stays out of the run's peak RSS) and check its digest."""
        path = self.cache_path(seed)
        digest = path.with_suffix(".sha256")
        if not (path.exists() and digest.exists()):
            subprocess.run(
                [sys.executable, str(HERE / "prepare.py"), "--seed", str(seed),
                 "--out", str(path)],
                check=True, timeout=PREPARE_TIMEOUT_S,
            )
        if _sha256(path) != digest.read_text().strip():
            raise RuntimeError(f"{path} does not match its recorded digest")
        return path

    def make_dataset(self, seed: int) -> Dataset:
        base = datasets.synth_sparse_classification(
            self.n, self.d, self.density, seed=self.base_seed
        )
        return permute_rows(base, seed)

    def load(self, path: Path) -> Dataset:
        return datasets.load_libsvm(path, expected_dim=self.d)

    def reorder(self, dataset: Dataset, seed: int) -> Dataset:
        return dataset  # the file is already in the seed's row order

    def build(self, dataset: Dataset):
        reg = proxlib.elastic_net_reg(self.lam1, self.lam2)
        return proxlib.svm_problem(dataset.matrix, dataset.labels, reg)


@dataclass(frozen=True)
class SynthRidge:
    """Squared loss + l2 on ``synth_ridge`` data, generated in the load step."""

    name: str
    n: int
    d: int
    cov: object
    noise_sigma: float
    base_seed: int
    lam: float
    epochs: int
    cells: tuple
    epsilon = None
    reference_method = "auto"
    accuracy = 1e-9

    def prepare(self, seed: int):
        return None

    def load(self, _inputs) -> Dataset:
        dataset, _ = datasets.synth_ridge(
            self.n, self.d, cov=self.cov, noise_sigma=self.noise_sigma, seed=self.base_seed
        )
        return dataset

    def reorder(self, dataset: Dataset, seed: int) -> Dataset:
        return permute_rows(dataset, seed)

    def build(self, dataset: Dataset):
        return proxlib.make_problem(
            dataset.matrix, proxlib.squared_loss(dataset.labels), proxlib.l2_reg(self.lam),
            "finite_sum",
        )


WORKLOADS = {
    "sparse_hinge": SparseHinge(),
    "dense_ridge": SynthRidge(
        name="dense_ridge", n=2000, d=500, cov=("ar1", 0.5), noise_sigma=0.1, base_seed=0,
        lam=1e-2, epochs=20,
        cells=(("dapd", None), ("pdhg", None), ("apgm", None), ("sdapd", 1), ("spdc", 1)),
    ),
    # the README example config, verbatim apart from the row order
    "readme_ridge": SynthRidge(
        name="readme_ridge", n=200, d=200, cov="identity", noise_sigma=0.1, base_seed=7,
        lam=1e-3, epochs=50,
        cells=tuple(
            (method, seed)
            for method in ("dapd", "sdapd", "sdapd_sparse", "proxsgd")
            for seed in ((None,) if method == "dapd" else (1, 2, 3))
        ),
    ),
}
