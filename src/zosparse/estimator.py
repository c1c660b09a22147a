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

# By name, so a tracer that replaces blackbox.with_ledger leaves this count alone.
from .blackbox import BlackBoxFunction, BudgetExhaustedError, with_ledger
from .rng import RngStream, as_indices, dependent_partition, partition_groups, random_permutation
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
]

# Below this, the unscaled probe difference carries no usable signal and
# the ratio is declared degenerate rather than divided out.
DENOMINATOR_TOLERANCE = 1e-12


@dataclass
class GraceConfig:
    """Hyperparameters of one sparse estimate.

    n is the group size, m the number of independent repeats, and the
    schedule supplies the divisor for each shrink iteration.  Each group
    shrinks to at most two candidates.  The sparsity s enters only
    through :meth:`defaults`, which sizes the groups from it.

    Per repeat, a support coordinate is alone in its group with
    probability at least e^{-gamma}, with gamma about 0.7 at the default
    n = floor(0.7 d / s) (see :func:`zosparse.theory.check_egamma`).  An
    isolated coordinate is located only while epsilon keeps the probe's
    second-order term below its first-order signal.  Each repeat misses a
    coordinate with probability at most 1 - e^{-gamma}, so m buys recall
    at about m times the queries.
    """

    epsilon: float
    n: int
    m: int = 1
    schedule: DivisionSchedule = field(default_factory=lambda: practical_schedule(20))

    @classmethod
    def defaults(cls, d: int, s: int, epsilon: float = 1e-6, d1: int = 20) -> "GraceConfig":
        """Standard configuration: n = floor(0.7 d / s), one repeat."""
        if s < 1:
            raise ValueError(f"need s >= 1, got s={s}")
        # 7d // 10s is floor(0.7 d / s) in exact integer arithmetic.
        return cls(epsilon=epsilon, n=max(1, 7 * d // (10 * s)), schedule=practical_schedule(d1))

    def validate(self, d: int) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"need epsilon > 0, got {self.epsilon}")
        if not 1 <= self.n <= d:
            raise ValueError(f"need 1 <= n <= d, got n={self.n}, d={d}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got m={self.m}")


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
    non-finite probe value, a vanishing denominator or an out-of-range
    label, each of which leaves no survivors.
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
    keys,
) -> ShrinkOutcome:
    """One two-query probe keeping only the block whose label matches the ratio.

    Probe v moves each index i of the set by epsilon * sign_i * label_i,
    probe u by epsilon * sign_i.  For a gradient dominated by one
    coordinate j, (f(x+v) - f(x)) / (f(x+u) - f(x)) sits within 1/2 of
    j's label, so rounding it picks j's block.  A non-finite f(x), f(x+v)
    or f(x+u) carries no label and leaves the group without survivors.
    """
    part = dependent_partition(members, divisor, keys)
    if part.indices.size < 2:
        raise ValueError("shrink_step needs at least 2 surviving indices")
    positions = part.indices - 1
    x = np.asarray(x, dtype=float)
    step = epsilon * part.signs
    moved = x[positions]
    probe_v = x.copy()
    probe_v[positions] = moved + step * part.labels
    probe_u = x.copy()
    probe_u[positions] = moved + step
    f_v = f(probe_v)
    f_u = f(probe_u)
    empty = np.empty(0, dtype=np.int64)
    if not (math.isfinite(f_x) and math.isfinite(f_v) and math.isfinite(f_u)):
        return ShrinkOutcome(empty, None, True)
    denominator = f_u - f_x
    if abs(denominator) < DENOMINATOR_TOLERANCE * max(1.0, abs(f_x)):
        return ShrinkOutcome(empty, None, True)
    label = _round_half_away((f_v - f_x) / denominator)
    if not 1 <= label <= part.num_blocks:
        return ShrinkOutcome(empty, label, True)
    return ShrinkOutcome(part.indices[part.labels == label], label, False)


def _key_spans(size: int, schedule: DivisionSchedule):
    """(max(D_t, 2), key columns) per shrink iteration t, which owns b_t columns.

    b_1 = size, b_{t+1} = ceil(b_t / min(max(D_t, 2), b_t)) while b_t > 2: the kept
    block never shrinks as members grow, so at most b_t members reach iteration t.
    """
    start, bound, iteration = 0, size, 0
    while bound > 2:
        iteration += 1
        step = max(schedule.value(iteration), 2)
        yield step, slice(start, start + bound)
        start += bound
        bound = -(-bound // min(step, bound))


def locate_in_group(
    f: BlackBoxFunction,
    x: np.ndarray,
    f_x: float,
    epsilon: float,
    members,
    schedule: DivisionSchedule,
    *,
    keys,
) -> np.ndarray:
    """Shrink one group until at most two candidates remain.

    Returns the surviving indices (sorted), at a cost of two queries per
    executed iteration.  An empty survivor set means the group showed no
    usable signal.  The loop needs no iteration cap: each iteration keeps
    one block of a partition into at least two blocks, so at most
    ceil(size/2) members survive it, and a group of n members is done
    after at most ceil(log2 n) - 1 iterations.  Iteration t reads the
    columns of the group's (2, width) ``keys`` at offset b_1 + ... + b_{t-1}.
    """
    current = np.sort(as_indices(members, "group members must be integers").ravel())
    if current.size == 0:
        raise ValueError("empty group")
    spans = _key_spans(int(current.size), schedule)
    while current.size > 2:
        step, columns = next(spans)
        divisor = min(step, int(current.size))
        current = shrink_step(f, x, f_x, epsilon, current, divisor, keys[:, columns]).surviving
    return current


def grace_estimate(
    f: BlackBoxFunction, x: np.ndarray, cfg: GraceConfig, rng: RngStream
) -> SparseGradient:
    """Estimate the dominant gradient entries of f at x with few queries.

    Queries f(x) once and shares it across every ratio and finite
    difference; a non-finite f(x) raises ``ValueError`` before any
    further query, since no ratio or difference can be read against it.
    Each of the m repeats draws a permutation of the dimensions, then a
    key row per group, and shrinks each group on its own row; every
    survivor gets one forward difference, and is left out of the entries
    if that is not finite or exactly 0.0.  On budget exhaustion the error
    is re-raised with ``partial`` holding the bookkeeping so far; its
    entries are incomplete and must be discarded by the caller.
    """
    d = f.dim
    cfg.validate(d)
    x = np.asarray(x, dtype=float)
    counting, ledger = with_ledger(f)
    entries: dict[int, float] = {}
    base_value = None
    try:
        base_value = counting(x)
        if not math.isfinite(base_value):
            raise ValueError(f"need a finite f(x) at the estimate's point, got {base_value}")
        width = max((cols.stop for _, cols in _key_spans(cfg.n, cfg.schedule)), default=0)
        candidates: set[int] = set()
        for _repeat in range(cfg.m):
            groups = partition_groups(d, cfg.n, random_permutation(d, rng))
            keys = rng.gen.random((len(groups), 2, width))
            for group, row in zip(groups, keys):
                survivors = locate_in_group(
                    counting, x, base_value, cfg.epsilon, group, cfg.schedule, keys=row
                )
                candidates.update(survivors.tolist())
        for j in sorted(candidates):
            value = finite_difference(counting, x, base_value, j, cfg.epsilon)
            if math.isfinite(value) and value != 0.0:
                entries[j] = value
    except BudgetExhaustedError as error:
        error.partial = SparseGradient(d, entries, ledger.count, base_value)
        raise
    return SparseGradient(d, entries, ledger.count, base_value)


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
