"""Write the sparse_hinge LIBSVM input for one workload seed.

    python3 perfbench/prepare.py --seed 3 --out perfbench/.cache/sparse_hinge_seed3.libsvm

Writes the file and, next to it, its SHA-256 digest (``.sha256``).  The run
script starts this in a child process when the cache lacks the seed's file,
so generation and serialization stay outside the timed region and outside the
run's peak RSS.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dapd import datasets  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    dataset = WORKLOADS["sparse_hinge"].make_dataset(args.seed)
    data = datasets.serialize_libsvm(dataset).encode("ascii")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    tmp = args.out.with_suffix(".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, args.out)
    args.out.with_suffix(".sha256").write_text(hashlib.sha256(data).hexdigest() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
