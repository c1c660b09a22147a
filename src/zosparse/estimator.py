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

An objective with a ``batch`` hook gets the same queries in fewer calls:
each repeat shrinks all of its groups one iteration at a time, with one
probe matrix per iteration, and the forward differences go out together.
Every group reads its own key row, so the survivors do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# By name, so a tracer that replaces blackbox.with_ledger leaves this count alone.
from .blackbox import BlackBoxFunction, BudgetExhaustedError, with_ledger
from .rng import (
    RngStream,
    as_indices,
    block_labels,
    dependent_partition,
    partition_groups,
    random_permutation,
)
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

# Most floats in one probe matrix handed to an objective's batch hook.
BATCH_FLOATS = 2**20


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
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"need a finite epsilon > 0, got {self.epsilon}")
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


def _read_label(f_x: float, f_v: float, f_u: float, num_blocks: int) -> tuple[int | None, bool]:
    """The ratio test: a label, and whether it locates a block.

    The label is (f_v - f_x) / (f_u - f_x) rounded half away from zero.  None
    is read from a non-finite value or ratio, or from a denominator below
    DENOMINATOR_TOLERANCE * max(1, |f_x|).  A label locates when it lies in
    1..num_blocks.  It takes Python floats: on one group's values, numpy
    calls cost about 20 times as much.
    """
    if not (math.isfinite(f_x) and math.isfinite(f_v) and math.isfinite(f_u)):
        return None, False
    denominator = f_u - f_x
    if abs(denominator) < DENOMINATOR_TOLERANCE * max(1.0, abs(f_x)):
        return None, False
    ratio = (f_v - f_x) / denominator
    if not math.isfinite(ratio):
        return None, False
    label = math.floor(ratio + 0.5) if ratio >= 0.0 else math.ceil(ratio - 0.5)
    return label, 1 <= label <= num_blocks


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
    j's label, so rounding it picks j's block.  A non-finite f(x), f(x+v),
    f(x+u) or ratio carries no label and leaves the group without survivors.
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
    label, locates = _read_label(f_x, f_v, f_u, part.num_blocks)
    if not locates:
        return ShrinkOutcome(np.empty(0, dtype=np.int64), label, True)
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


def _probe_values(f: BlackBoxFunction, x: np.ndarray, rows, positions, values) -> np.ndarray:
    """f.batch at copies of x, copy rows[i] holding values[i] at positions[i].

    rows is sorted and runs 0..k-1; each call gets at most
    max(1, BATCH_FLOATS // d) of the k probes.
    """
    count = int(rows[-1]) + 1 if len(rows) else 0
    per_call = max(1, BATCH_FLOATS // x.size)
    out = np.empty(count)
    for start in range(0, count, per_call):
        stop = min(start + per_call, count)
        lo, hi = np.searchsorted(rows, (start, stop))
        probes = np.empty((stop - start, x.size))
        probes[:] = x
        probes[rows[lo:hi] - start, positions[lo:hi]] = values[lo:hi]
        got = np.asarray(f.batch(probes), dtype=float)
        if got.shape != (stop - start,):
            raise ValueError(f"batch returned shape {got.shape} for {stop - start} points")
        out[start:stop] = got
    return out


def _locate_all(
    f: BlackBoxFunction, x: np.ndarray, f_x: float, cfg: GraceConfig, groups, keys
) -> list[int]:
    """Every group's survivors, as locate_in_group finds them one group at a time.

    All groups with more than two members shrink one iteration at a time:
    their key columns map to labels and signs in one step, their probes
    go to f.batch as one matrix, and the ratio test reads each group's label.
    """
    sizes = np.array([group.size for group in groups])
    # Every group holds n members but the last, so only the last row has padding.
    members = np.zeros((len(groups), cfg.n), dtype=np.int64)
    members.flat[: sizes.sum()] = np.concatenate(groups)
    alive = np.arange(cfg.n) < sizes[:, None]
    spans = {size: list(_key_spans(size, cfg.schedule)) for size in set(sizes.tolist())}
    iteration = 0
    while (active := np.flatnonzero(alive.sum(axis=1) > 2)).size:
        inside = alive[active]
        size = inside.sum(axis=1)
        step = spans[cfg.n][iteration][0]
        starts = np.array([spans[n][iteration][1].start for n in sizes[active].tolist()])
        block = -(-size // np.minimum(step, size))
        # A group's j-th live member reads key column start + j, and no group
        # reads past the widest one: key offsets grow with the group size.
        key_columns = starts[:, None] + np.cumsum(inside, axis=1) - 1
        rows = active[:, None]
        rank_keys = np.where(inside, keys[rows, 0, key_columns], 1.0)
        labels, signs = block_labels(rank_keys, keys[rows, 1, key_columns], block[:, None])
        group = np.nonzero(inside)[0]
        positions = members[active][inside] - 1
        moved = x[positions]
        shift = cfg.epsilon * signs[inside]
        # Probe v of group i is row i, probe u row k + i.
        probed = _probe_values(
            f,
            x,
            np.concatenate((group, group + active.size)),
            np.concatenate((positions, positions)),
            np.concatenate((moved + shift * labels[inside], moved + shift)),
        )
        f_v, f_u = probed[: active.size].tolist(), probed[active.size :].tolist()
        blocks = (-(-size // block)).tolist()
        read = [_read_label(f_x, *pair) for pair in zip(f_v, f_u, blocks)]
        # Labels run from 1, so 0 keeps no member.
        located = np.array([label if locates else 0 for label, locates in read])
        alive[active] = inside & (labels == located[:, None])
        iteration += 1
    return members[alive].tolist()


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
    if that is not finite or exactly 0.0.  When f has a batch hook, the
    probes go out through it, with the same queries and results.  On budget exhaustion the error
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
            if counting.batch is None:
                for group, row in zip(groups, keys):
                    survivors = locate_in_group(
                        counting, x, base_value, cfg.epsilon, group, cfg.schedule, keys=row
                    )
                    candidates.update(survivors.tolist())
            else:
                candidates.update(_locate_all(counting, x, base_value, cfg, groups, keys))
        ordered = sorted(candidates)
        if counting.batch is None:
            values = (finite_difference(counting, x, base_value, j, cfg.epsilon) for j in ordered)
        else:
            positions = np.array(ordered, dtype=np.int64) - 1
            probed = _probe_values(
                counting, x, np.arange(len(ordered)), positions, x[positions] + cfg.epsilon
            )
            values = ((probed - base_value) / cfg.epsilon).tolist()
        for j, value in zip(ordered, values):
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
    if not 0 < epsilon < math.inf:
        raise ValueError(f"need a finite epsilon > 0, got {epsilon}")
    probe = np.asarray(x, dtype=float).copy()
    probe[j - 1] += epsilon
    return (f(probe) - f_x) / epsilon
