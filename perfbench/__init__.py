"""Benchmark of the zosparse estimator and the system around it; see README.md."""

import os

# BLAS and OpenMP pools, pinned to one thread before numpy is first imported
# so that the sweep's two workers do not oversubscribe two cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
