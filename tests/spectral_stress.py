"""How far sqrt(theta + r), the spectral-norm estimate before its margin,
falls below the top singular value on matrices with clustered top singular
values (``oracles.clustered_matrix``, drawn from the ranges of
``test_matrix.clustered_matrices``):

    PYTHONPATH=src python tests/spectral_stress.py --count 20000 --seed 1

Prints, for ``--rel-tol``, how many estimates fell short and the largest
relative shortfalls; ``matrix.SPECTRAL_NORM_MARGIN`` has to cover them.
"""

from __future__ import annotations

import argparse

import numpy as np

from dapd import matrix
from dapd.matrix import power_iteration

from oracles import clustered_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rel-tol", type=float, default=matrix.SPECTRAL_NORM_REL_TOL)
    parser.add_argument("--max-short", type=int, default=8)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    shortfalls, products = [], []
    for _ in range(args.count):
        short = int(rng.integers(2, args.max_short + 1))
        A = clustered_matrix(rng, short, int(rng.integers(short, 2 * args.max_short + 1)),
                             bool(rng.integers(2)), int(rng.integers(2, short + 1)),
                             10.0 ** rng.integers(-12, 0), 10.0 ** rng.integers(-3, 5))
        result = power_iteration(A, args.rel_tol)
        raw = result.estimate / (1 + matrix.SPECTRAL_NORM_MARGIN)
        sigma = np.linalg.svd(A.to_dense(), compute_uv=False)[0]
        shortfalls.append(max((sigma - raw) / sigma, 0.0))
        products.append(result.products)
    short_of = np.sort(shortfalls)
    print(f"rel_tol {args.rel_tol:g}: {np.count_nonzero(short_of)} of {args.count} fell short; "
          f"largest {', '.join(f'{v:.2e}' for v in short_of[-5:][::-1])}; "
          f"margin {matrix.SPECTRAL_NORM_MARGIN:g}; at most {max(products)} products")


if __name__ == "__main__":
    main()
