"""Query-efficient zeroth-order optimization with sparse gradient recovery.

The estimator locates the few coordinates that matter through a
group-testing shrink procedure, then measures them with finite
differences, spending queries roughly in proportion to the sparsity
rather than the ambient dimension.  Around it: benchmark objectives,
baseline optimizers sharing one query ledger, analysis constants with
their verification, and an experiment harness with a CLI.
"""

from .blackbox import make_distance
from .estimator import GraceConfig, grace_estimate
from .optimizer import OptimizerConfig, run_optimizer
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "GraceConfig",
    "OptimizerConfig",
    "RngStream",
    "grace_estimate",
    "make_distance",
    "run_optimizer",
]
