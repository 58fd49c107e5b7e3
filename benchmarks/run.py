"""Run one sase benchmark workload and print its result as JSON.

    python3 benchmarks/run.py --workload train-gru --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md). The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-gru", "train-full", "enhance")

# One BLAS thread: OpenBLAS would start one per core (2 here) and
# `sase train` adds its prefetch thread, which oversubscribes the cores.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sase" / "__init__.py").is_file():
        sys.exit(f"no program to run: {ROOT / 'src' / 'sase'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # needs the paths above

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
