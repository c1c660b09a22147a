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

A cut keeps one block of a group's live members whole and in permutation
order (:mod:`zosparse.rng` says why each cut is a fresh dependent
partition), so the live members stay one contiguous run, and the kept run
starts (label - 1) blocks into it.  All groups of a repeat shrink
together, their runs end to end in one array: an iteration costs O(live
members) whatever d is.  Each probe is written into one copy of x and
taken out again, or, with a ``batch`` hook, sent in one matrix per
iteration; the results are the same.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# By name, so a tracer that replaces blackbox.with_ledger leaves this count alone.
from .blackbox import BATCH_FLOATS, BlackBoxFunction, BudgetExhaustedError, with_ledger
from .rng import (
    RngStream,
    as_indices,
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

# Most live members one shrink pass labels and probes at once, unless one run is longer.
CHUNK = 2**16


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
        if any(isinstance(k, bool) or not isinstance(k, numbers.Integral) for k in (self.n, self.m)):
            raise ValueError(f"need integers n and m, got n={self.n!r}, m={self.m!r}")
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
    """One shrink iteration: per run, its kept block and its rounded ratio.

    degenerate counts the runs that kept nothing: a non-finite probe value or
    a vanishing denominator (label None), or an out-of-range label.
    """

    kept: list[np.ndarray]
    labels: list[int | None]
    degenerate: int


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


def _probe(f: BlackBoxFunction, x, positions, moved, bounds, values, sizes) -> list[list[float]]:
    """Per row of values, f at x with positions[lo:hi] set to row[lo:hi], per run [lo, hi).

    Run i spans bounds[i]:bounds[i + 1] and holds sizes[i] members.  Without
    a hook, x itself is moved and restored from ``moved``, which is
    x[positions], also when f raises.  With one, probe k of run i is row
    k * runs + i, and the rows go out in order, at most max(1, BATCH_FLOATS
    // d) a call: each call's matrix is x broadcast, with each probe's
    members scattered in by one fancy assignment per row of values.
    """
    if f.batch is None:
        evaluate, out = f.eval, [[] for _ in values]
        for lo, hi in zip(bounds, bounds[1:]):
            # A run of one member is written as a scalar, at a quarter of the cost.
            run = slice(lo, hi) if hi - lo > 1 else lo
            at = positions[run]
            try:
                for row, got in zip(values, out):
                    x[at] = row[run]
                    got.append(evaluate(x))
            finally:
                x[at] = moved[run]
        return out
    runs, d = len(sizes), x.size
    count, per_call = len(values) * runs, max(1, BATCH_FLOATS // d)
    run_of = np.arange(runs).repeat(sizes)
    out = np.empty(count)
    for start in range(0, count, per_call):
        stop = min(start + per_call, count)
        probes = np.empty((stop - start, d))
        probes[:] = x
        # Rows start..stop - 1: per probe k among them, the runs i whose row k * runs + i is here.
        for k in range(start // runs, -(-stop // runs)):
            lo, hi = bounds[max(start - k * runs, 0)], bounds[min(stop - k * runs, runs)]
            probes[run_of[lo:hi] + (k * runs - start), positions[lo:hi]] = values[k][lo:hi]
        got = np.asarray(f.batch(probes), dtype=float)
        if got.shape != (stop - start,):
            raise ValueError(f"batch returned shape {got.shape} for {stop - start} points")
        out[start:stop] = got
    return out.reshape(len(values), -1).tolist()


def shrink_step(
    f: BlackBoxFunction,
    x: np.ndarray,
    f_x: float,
    epsilon: float,
    members,
    divisor: int,
    keys,
    sizes=None,
    offsets=None,
) -> ShrinkOutcome:
    """One two-query probe per run, keeping only the block whose label matches the ratio.

    The runs of ``members``, their ``sizes`` and key ``offsets`` are as
    :func:`dependent_partition` takes them.  Probe v of a run moves each
    member i by epsilon * sign_i * label_i, probe u by epsilon * sign_i.
    For a gradient dominated by one coordinate j, (f(x+v) - f(x)) /
    (f(x+u) - f(x)) sits within 1/2 of j's label, so rounding it picks j's
    block; a non-finite value or ratio keeps nothing.  Each probe is
    written into the writable float array x and taken out again.
    """
    sizes = [len(members)] if sizes is None else list(sizes)
    if min(sizes) < 2:
        raise ValueError("shrink_step needs at least 2 members in every run")
    labels, kept, ends, first = [], [], [0, *itertools.accumulate(sizes)], 0
    offsets = ends[:-1] if offsets is None else offsets
    while first < len(sizes):
        # Whole runs of at most CHUNK members, or one longer run: mostly a single pass.
        last = max(bisect.bisect_right(ends, ends[first] + CHUNK, first + 1) - 1, first + 1)
        bounds = [end - ends[first] for end in ends[first : last + 1]]
        runs = sizes[first:last], offsets[first:last]
        part = dependent_partition(members[ends[first] : ends[last]], divisor, keys, *runs)
        positions, step = part.indices - 1, epsilon * part.signs
        moved = x[positions]
        values = (moved + step * part.labels, moved + step)
        f_v, f_u = _probe(f, x, positions, moved, bounds, values, part.sizes)
        for start, size, block, v, u in zip(bounds, part.sizes, part.block_size, f_v, f_u):
            label, locates = _read_label(f_x, v, u, -(-size // block))
            # The kept block starts (label - 1) blocks into its run; else it is empty.
            begin = start + (label - 1) * block if locates else start + size
            kept.append(part.indices[begin : min(begin + block, start + size)])
            labels.append(label)
        first = last
    return ShrinkOutcome(kept, labels, sum(block.size == 0 for block in kept))


def _key_spans(
    size: int, schedule: DivisionSchedule, ragged: int = 0
) -> tuple[list[int], list[int], list[int]]:
    """Each shrink iteration's divisor max(D_t, 2), and where its key columns start.

    Iteration t owns b_t columns: b_1 = size and, while b_t > 2,
    b_{t+1} = ceil(b_t / min(max(D_t, 2), b_t)), so at most b_t members
    reach iteration t.  The starts end with the total; so do ``last``, those
    of a group of ``ragged`` <= size members, which ends no later.
    """
    steps, starts, last, bound = [], [0], [0], size
    while bound > 2:
        steps.append(max(schedule.value(len(steps) + 1), 2))
        starts.append(starts[-1] + bound)
        bound = -(-bound // min(steps[-1], bound))
        if ragged > 2:
            last.append(last[-1] + ragged)
            ragged = -(-ragged // min(steps[-1], ragged))
    return steps, starts, last


def locate_in_group(
    f: BlackBoxFunction,
    x: np.ndarray,
    f_x: float,
    epsilon: float,
    dims,
    n: int,
    schedule: DivisionSchedule,
    *,
    keys,
) -> list[int]:
    """Shrink every group of one repeat, together, until at most two candidates remain in each.

    Group g is ``dims[g*n : (g+1)*n]``, in random order; its iteration t
    reads row g of ``keys`` from column b_1 + ... + b_{t-1}.  Returns every
    group's survivors after at most ceil(log2 n) - 1 iterations, each
    keeping at most half of a group.  (perfbench's tracer finds the phases,
    this one, shrink_step and finite_difference, by these names.)
    """
    live = as_indices(dims, "group members must be integers").ravel()
    if live.size == 0:
        raise ValueError("empty group")
    if n <= 2:
        return live.tolist()
    groups = -(-live.size // n)
    ragged = live.size - (groups - 1) * n
    steps, starts, last = _key_spans(n, schedule, ragged)
    if np.ndim(keys) != 2 or keys.shape[0] != groups or keys.shape[1] < starts[-1]:
        raise ValueError(f"need keys of shape ({groups}, >= {starts[-1]}), got {np.shape(keys)}")
    # Each group's first key column per iteration; the ragged last group owns fewer.
    columns = [starts] * (groups - 1) + [last]
    width, flat = keys.shape[1], keys.ravel()
    sizes, group, found, iteration = [n] * (groups - 1) + [ragged], list(range(groups)), [], 0
    if ragged <= 2:
        found, live, sizes, group = live[-ragged:].tolist(), live[:-ragged], sizes[:-1], group[:-1]
    while group:
        offsets = [g * width + columns[g][iteration] for g in group]
        kept = shrink_step(f, x, f_x, epsilon, live, steps[iteration], flat, sizes, offsets).kept
        # Runs of at most two members are done; the others stay live.
        runs, alive, sizes = [], [], []
        for g, block in zip(group, kept):
            if block.size > 2:
                runs.append(block)
                alive.append(g)
                sizes.append(block.size)
            else:
                found += block.tolist()
        group, live = alive, runs[0] if len(runs) == 1 else np.concatenate([live[:0], *runs])
        iteration += 1
    return found


def grace_estimate(
    f: BlackBoxFunction, x: np.ndarray, cfg: GraceConfig, rng: RngStream
) -> SparseGradient:
    """Estimate the dominant gradient entries of f at x with few queries.

    Queries f(x) once and shares it across every ratio and finite
    difference; a non-finite f(x) raises ``ValueError`` before any
    further query, since no ratio or difference can be read against it.
    Each of the m repeats draws a permutation of the dimensions, which
    groups them and orders each group's blocks, then a sign row per group,
    and shrinks each group on its own row; every survivor gets one
    forward difference, and is left out of the entries if that is not
    finite or exactly 0.0.  The probes move a private copy of x.  On
    budget exhaustion the error is re-raised with ``partial`` holding the
    bookkeeping so far; its entries are incomplete and must be discarded
    by the caller.
    """
    d = f.dim
    cfg.validate(d)
    point = np.array(x, dtype=float)
    counting, ledger = with_ledger(f)
    entries: dict[int, float] = {}
    base_value = None
    try:
        base_value = counting(point)
        if not math.isfinite(base_value):
            raise ValueError(f"need a finite f(x) at the estimate's point, got {base_value}")
        width = _key_spans(cfg.n, cfg.schedule)[1][-1]
        candidates: set[int] = set()
        for _repeat in range(cfg.m):
            dims = partition_groups(d, cfg.n, random_permutation(d, rng))
            keys = rng.gen.random((-(-d // cfg.n), width))
            survivors = locate_in_group(
                counting, point, base_value, cfg.epsilon, dims, cfg.n, cfg.schedule, keys=keys
            )
            candidates.update(survivors)
        ordered = sorted(candidates)
        values = finite_difference(counting, point, base_value, ordered, cfg.epsilon)
        for j, value in zip(ordered, values):
            if math.isfinite(value) and value != 0.0:
                entries[j] = value
    except BudgetExhaustedError as error:
        error.partial = SparseGradient(d, entries, ledger.count, base_value)
        raise
    return SparseGradient(d, entries, ledger.count, base_value)


def finite_difference(
    f: BlackBoxFunction, x: np.ndarray, f_x: float, indices, epsilon: float
) -> list[float]:
    """Forward differences along each dimension in indices, one query each, probing x in place."""
    positions = as_indices(indices, "dimension indices must be integers").ravel() - 1
    listed = positions.tolist()
    if listed and not (min(listed) >= 0 and max(listed) < f.dim):
        raise ValueError(f"dimension indices {indices} out of range 1..{f.dim}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"need a finite epsilon > 0, got {epsilon}")
    # Python numbers: every run holds one member, written by a scalar store.
    moved = x[positions].tolist()
    bounds, values = range(len(listed) + 1), ([m + epsilon for m in moved],)
    (probed,) = _probe(f, x, listed, moved, bounds, values, [1] * len(listed))
    return [(value - f_x) / epsilon for value in probed]
