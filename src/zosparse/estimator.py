"""Sparse gradient estimation by adaptive shrinking over dimension groups.

One estimate splits the dimensions into groups of size n and shrinks
each group down to the couple of coordinates that can carry large
gradient mass, using two queries per shrink iteration.  Each probe
perturbs every surviving coordinate at once with a sign pattern, once
scaled by random block labels and once unscaled; when one coordinate
dominates the group's gradient, the ratio of the two observed
differences reads that coordinate's block label back out, and all other
blocks are discarded.  Survivors across all groups then get one forward
difference each.

Query cost per estimate: 1 for the shared base value, plus 2 per shrink
iteration, plus 1 per surviving candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blackbox import BlackBoxFunction, BudgetExhaustedError
from .rng import RngStream, dependent_partition, partition_groups, random_permutation
from .theory import DivisionSchedule, practical_schedule

__all__ = [
    "DENOMINATOR_TOLERANCE",
    "GraceConfig",
    "SparseGradient",
    "ShrinkOutcome",
    "shrink_step",
    "locate_in_group",
    "grace_estimate",
    "finite_difference",
    "default_max_iterations",
]

# Below this, the unscaled probe difference carries no usable signal and
# the ratio is declared degenerate rather than divided out.
DENOMINATOR_TOLERANCE = 1e-12


@dataclass
class GraceConfig:
    """Hyperparameters of one sparse estimate.

    n is the group size, m the number of independent repeats, and the
    schedule supplies the divisor for each shrink iteration.  The
    max_shrink_iterations safeguard defaults per group size; see
    :func:`default_max_iterations`.

    Per repeat, a support coordinate is alone in its group with
    probability at least e^{-gamma}, with gamma about 0.7 at the default
    n = floor(0.7 d / s) (see :func:`zosparse.theory.check_egamma`).  An
    isolated coordinate is located only while epsilon keeps the probe's
    second-order term below its first-order signal.  Each repeat misses a
    coordinate with probability at most 1 - e^{-gamma}, so m buys recall
    at about m times the queries.
    """

    s: int
    epsilon: float
    n: int
    m: int = 1
    schedule: DivisionSchedule = field(default_factory=lambda: practical_schedule(20))
    shrink_stop_size: int = 2
    max_shrink_iterations: int | None = None

    @classmethod
    def defaults(cls, d: int, s: int, epsilon: float = 1e-6, d1: int = 20) -> "GraceConfig":
        """Standard configuration: n = floor(0.7 d / s), one repeat."""
        # 7d // 10s is floor(0.7 d / s) in exact integer arithmetic.
        return cls(s=s, epsilon=epsilon, n=max(1, 7 * d // (10 * s)), schedule=practical_schedule(d1))

    def validate(self, d: int) -> None:
        if self.s < 1:
            raise ValueError(f"need s >= 1, got s={self.s}")
        if not self.epsilon > 0:
            raise ValueError(f"need epsilon > 0, got {self.epsilon}")
        if not 1 <= self.n <= d:
            raise ValueError(f"need 1 <= n <= d, got n={self.n}, d={d}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got m={self.m}")
        if self.shrink_stop_size < 1:
            raise ValueError(f"need shrink_stop_size >= 1, got {self.shrink_stop_size}")


@dataclass
class SparseGradient:
    """Candidate support with finite-difference values; zero elsewhere.

    base_value carries the shared f(x) measured by the estimate, so a
    caller tracing the optimization never re-queries it.
    """

    d: int
    entries: dict[int, float]
    queries_used: int
    base_value: float | None = None

    def value(self, j: int) -> float:
        return self.entries.get(int(j), 0.0)

    @property
    def support(self) -> list[int]:
        return sorted(self.entries)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.d)
        for j, g in self.entries.items():
            dense[j - 1] = g
        return dense


@dataclass
class ShrinkOutcome:
    """Result of one shrink iteration.

    label is the rounded ratio when one was computed; degenerate marks a
    vanishing denominator or an out-of-range label, either of which
    leaves no survivors.
    """

    surviving: np.ndarray
    label: int | None
    degenerate: bool


def _round_half_away(value: float) -> int:
    """Nearest integer, halves away from zero (locale-independent)."""
    if value >= 0.0:
        return math.floor(value + 0.5)
    return math.ceil(value - 0.5)


def shrink_step(
    f: BlackBoxFunction,
    x: np.ndarray,
    f_x: float,
    epsilon: float,
    members,
    divisor: int,
    rng: RngStream,
) -> ShrinkOutcome:
    """One two-query probe keeping only the block whose label matches the ratio.

    Probe v moves each index i of the set by epsilon * sign_i * label_i,
    probe u by epsilon * sign_i.  For a gradient dominated by one
    coordinate j, (f(x+v) - f(x)) / (f(x+u) - f(x)) sits within 1/2 of
    j's label, so rounding it picks j's block.
    """
    part = dependent_partition(members, divisor, rng)
    if part.indices.size < 2:
        raise ValueError("shrink_step needs at least 2 surviving indices")
    positions = part.indices - 1
    x = np.asarray(x, dtype=float)
    probe_v = x.copy()
    probe_v[positions] += epsilon * part.signs * part.labels
    probe_u = x.copy()
    probe_u[positions] += epsilon * part.signs
    f_v = f(probe_v)
    f_u = f(probe_u)
    empty = np.empty(0, dtype=np.int64)
    denominator = f_u - f_x
    if abs(denominator) < DENOMINATOR_TOLERANCE * max(1.0, abs(f_x)):
        return ShrinkOutcome(empty, None, True)
    label = _round_half_away((f_v - f_x) / denominator)
    if not 1 <= label <= part.num_blocks:
        return ShrinkOutcome(empty, label, True)
    return ShrinkOutcome(part.indices[part.labels == label], label, False)


def default_max_iterations(size: int) -> int:
    """Safeguard cap on shrink iterations; generous next to the usual handful."""
    return 4 + math.ceil(math.log2(math.log2(max(size, 4)))) + 8


def locate_in_group(
    f: BlackBoxFunction,
    x: np.ndarray,
    f_x: float,
    epsilon: float,
    members,
    schedule: DivisionSchedule,
    stop_size: int = 2,
    max_iterations: int | None = None,
    rng: RngStream = None,
) -> np.ndarray:
    """Shrink one group until at most stop_size candidates remain.

    Returns the surviving indices (sorted), at a cost of two queries per
    executed iteration.  An empty survivor set means the group showed no
    usable signal.  If the iteration safeguard fires first, the
    stop_size smallest indices are returned.
    """
    current = np.sort(np.asarray(members, dtype=np.int64).ravel())
    if current.size == 0:
        raise ValueError("empty group")
    if max_iterations is None:
        max_iterations = default_max_iterations(int(current.size))
    iteration = 0
    while current.size > stop_size:
        if iteration >= max_iterations:
            return current[:stop_size]
        iteration += 1
        divisor = min(max(schedule.value(iteration), 2), int(current.size))
        current = shrink_step(f, x, f_x, epsilon, current, divisor, rng).surviving
    return current


def grace_estimate(
    f: BlackBoxFunction, x: np.ndarray, cfg: GraceConfig, rng: RngStream
) -> SparseGradient:
    """Estimate the dominant gradient entries of f at x with few queries.

    Queries f(x) once and shares it across every ratio and finite
    difference.  Each of the m repeats draws a fresh permutation of the
    dimensions, shrinks every group, and the union of survivors gets one
    forward difference per index.  On budget exhaustion the error is
    re-raised with ``partial`` holding the bookkeeping so far; its
    entries are incomplete and must be discarded by the caller.
    """
    d = f.dim
    cfg.validate(d)
    x = np.asarray(x, dtype=float)
    used = 0

    def counted(point):
        nonlocal used
        value = f(point)
        used += 1
        return value

    counting = BlackBoxFunction(d, counted)
    entries: dict[int, float] = {}
    base_value = None
    try:
        base_value = counted(x)
        candidates: set[int] = set()
        for _repeat in range(cfg.m):
            omega = random_permutation(d, rng)
            for group in partition_groups(d, cfg.n, omega):
                survivors = locate_in_group(
                    counting, x, base_value, cfg.epsilon, group, cfg.schedule,
                    cfg.shrink_stop_size, cfg.max_shrink_iterations, rng,
                )
                candidates.update(int(j) for j in survivors)
        for j in sorted(candidates):
            entries[j] = finite_difference(counting, x, base_value, j, cfg.epsilon)
    except BudgetExhaustedError as error:
        error.partial = SparseGradient(d, entries, used, base_value)
        raise
    return SparseGradient(d, entries, used, base_value)


def finite_difference(
    f: BlackBoxFunction, x: np.ndarray, f_x: float, j: int, epsilon: float
) -> float:
    """Forward difference along dimension j; one query."""
    if not 1 <= j <= f.dim:
        raise ValueError(f"dimension index {j} out of range 1..{f.dim}")
    if not epsilon > 0:
        raise ValueError(f"need epsilon > 0, got {epsilon}")
    probe = np.asarray(x, dtype=float).copy()
    probe[j - 1] += epsilon
    return (f(probe) - f_x) / epsilon
