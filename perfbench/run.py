#!/usr/bin/env python3
"""Run one workload of the bvcontact benchmark and print its metrics.

    python3 perfbench/run.py --workload capillarity --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports ``bvcontact`` from the
checkout's ``src`` and fails, printing no result, when that is missing.
BLAS and OpenMP thread pools are pinned to one thread before numpy loads.
See README.md in this directory for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    bench = Path(__file__).resolve().parent
    src = bench.parent / "src"
    if not (src / "bvcontact" / "__init__.py").is_file():
        print(f"error: no bvcontact sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(bench)]
    import harness
    return harness.main(argv)


if __name__ == "__main__":
    sys.exit(main())
