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
members) whatever d is, and the first one takes its run sizes, blocks and
labels from a plan cached per shape (d, n, D_1).  Each probe is written
into one copy of x and taken out again, or, with a ``batch`` hook, sent in
one matrix per iteration; the results are the same.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# By name, so a tracer that replaces blackbox.with_ledger leaves this count alone.
from .blackbox import BATCH_FLOATS, BlackBoxFunction, BudgetExhaustedError, with_ledger
from .rng import (
    DependentPartition,
    RngStream,
    as_indices,
    dependent_partition,
    key_signs,
    partition_groups,
    random_permutation,
    run_labels,
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
        for k in (self.n, self.m):  # type(k) is int first: the ABC check is slow.
            if type(k) is not int and (isinstance(k, bool) or not isinstance(k, numbers.Integral)):
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


def _probe(f: BlackBoxFunction, x, positions, moved, bounds, values) -> list[list[float]]:
    """Per row of values, f at x with positions[lo:hi] set to row[lo:hi], per run [lo, hi).

    x itself is moved, and restored from ``moved`` = x[positions] also when f raises.
    """
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


def _probe_rows(f: BlackBoxFunction, x, positions, bounds, values, run_of, first=0) -> list:
    """As :func:`_probe`, through f.batch: probe k of run i is row k * runs + i.

    Member j is in run run_of[j] - first.  At most max(1, BATCH_FLOATS // d)
    rows go out a call, each call's matrix x broadcast with each probe's
    members scattered in by one fancy assignment per row of values.
    """
    runs, d = len(bounds) - 1, x.size
    count, per_call = len(values) * runs, max(1, BATCH_FLOATS // d)
    out = np.empty(count)
    for start in range(0, count, per_call):
        stop = min(start + per_call, count)
        probes = np.empty((stop - start, d))
        probes[:] = x
        # Rows start..stop - 1: per probe k among them, the runs i whose row k * runs + i is here.
        for k in range(start // runs, -(-stop // runs)):
            lo, hi = bounds[max(start - k * runs, 0)], bounds[min(stop - k * runs, runs)]
            rows, offset = run_of[lo:hi], k * runs - start - first
            probes[rows + offset if offset else rows, positions[lo:hi]] = values[k][lo:hi]
        got = np.asarray(f.batch(probes), dtype=float)
        if got.shape != (stop - start,):
            raise ValueError(f"batch returned shape {got.shape} for {stop - start} points")
        out[start:stop] = got
    return out.reshape(len(values), -1).tolist()


def shrink_step(
    f: BlackBoxFunction, x: np.ndarray, f_x: float, epsilon: float, part: DependentPartition
) -> ShrinkOutcome:
    """One two-query probe per run of ``part``, keeping the block whose label matches the ratio.

    Probe v of a run moves each member i by epsilon * sign_i * label_i,
    probe u by epsilon * sign_i.  For a gradient dominated by one coordinate
    j, (f(x+v) - f(x)) / (f(x+u) - f(x)) sits within 1/2 of j's label, so
    rounding it, half away from zero, picks j's block.  Each run's label is
    read inline in Python floats, where numpy costs 20 times as much: none
    from a non-finite f(x), value or ratio or a denominator below
    DENOMINATOR_TOLERANCE * max(1, |f(x)|); one outside 1..ceil(size/block)
    keeps nothing either.  Each probe is written into the writable float
    array x and taken out again, or sent through a ``batch`` hook, in
    passes of whole runs of at most CHUNK members (or one longer run).
    """
    sizes, blocks = part.sizes, part.block_size
    if min(sizes) < 2:
        raise ValueError("shrink_step needs at least 2 members in every run")
    labels, kept, ends, first, degenerate = [], [], [0, *itertools.accumulate(sizes)], 0, 0
    # No distance compares >= nan, so a non-finite f_x reads no label.
    tolerance = DENOMINATOR_TOLERANCE * max(1.0, abs(f_x)) if math.isfinite(f_x) else math.nan
    while first < len(sizes):
        # Whole runs of at most CHUNK members, or one longer run: mostly a single pass.
        last = max(bisect.bisect_right(ends, ends[first] + CHUNK, first + 1) - 1, first + 1)
        lo, hi = ends[first], ends[last]
        # A pass over every run, the usual case, is bounded by ends itself.
        bounds = ends if last - first == len(sizes) else [e - lo for e in ends[first : last + 1]]
        indices = part.indices[lo:hi]
        positions, step = indices - 1, epsilon * part.signs[lo:hi]
        moved, scaled = x[positions], step * part.labels[lo:hi]
        values = (np.add(scaled, moved, out=scaled), moved + step)  # Same bits as moved + scaled.
        if f.batch is None:
            f_v, f_u = _probe(f, x, positions, moved, bounds, values)
        else:
            f_v, f_u = _probe_rows(f, x, positions, bounds, values, part.run_of[lo:hi], first)
        for start, size, block, v, u in zip(bounds, sizes[first:], blocks[first:], f_v, f_u):
            label, end = None, start + size
            if math.isfinite(v) and math.isfinite(u) and abs(denominator := u - f_x) >= tolerance:
                ratio = (v - f_x) / denominator
                if math.isfinite(ratio):
                    label = math.floor(ratio + 0.5) if ratio >= 0.0 else math.ceil(ratio - 0.5)
            # The kept block starts (label - 1) blocks into its run; else it is empty.
            locates = label is not None and 1 <= label <= -(-size // block)
            begin = start + (label - 1) * block if locates else end
            kept.append(indices[begin : min(begin + block, end)])
            labels.append(label)
            degenerate += not locates
        first = last
    return ShrinkOutcome(kept, labels, degenerate)


def _key_spans(
    size: int, schedule: DivisionSchedule, ragged: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Each shrink iteration's divisor max(D_t, 2), and where its key columns start.

    Iteration t owns b_t columns: b_1 = size and, while b_t > 2,
    b_{t+1} = ceil(b_t / min(max(D_t, 2), b_t)), so at most b_t members
    reach iteration t.  The starts end with the total; so do ``last``, those
    of a group of ``ragged`` <= size members, which ends no later.  Answered
    from a cache keyed on the schedule's values, walked on a copy of it.
    """
    return _spans(size, ragged, schedule.kind, tuple(schedule.terms), schedule.params)


@functools.lru_cache(maxsize=64)  # Keyed on values: a DivisionSchedule grows as it is read.
def _spans(size: int, ragged: int, kind: str, terms: tuple, params) -> tuple:
    schedule = DivisionSchedule(kind, list(terms), params)
    steps, starts, last, bound = [], [0], [0], size
    while bound > 2:
        steps.append(max(schedule.value(len(steps) + 1), 2))
        starts.append(starts[-1] + bound)
        bound = -(-bound // min(steps[-1], bound))
        if ragged > 2:
            last.append(last[-1] + ragged)
            ragged = -(-ragged // min(steps[-1], ragged))
    return tuple(steps), tuple(starts), tuple(last)


@functools.lru_cache(maxsize=64)  # Keyed on values: a DivisionSchedule grows as it is read.
def _plan(d: int, n: int, divisor: int) -> tuple:
    """(full, tail, sizes, blocks, labels, run_of) of the first shrink pass over d members.

    Pass 1 cuts ``full`` groups of n > 2, then a ragged group of ``tail`` > 2
    (else tail is 0); the rest are found as they are.  labels and run_of are
    None past d = 1024, where families give no batch hook, so that no cached
    array grows with d.
    """
    full, rest = divmod(d, n)
    tail = rest if rest > 2 else 0
    sizes = (n,) * full + (tail,) * (tail > 0)
    blocks = tuple(-(-size // divisor) for size in sizes)
    if d > 1024:
        return full, tail, sizes, blocks, None, None
    run_of = np.arange(len(sizes)).repeat(sizes)
    run_of.setflags(write=False)
    return full, tail, sizes, blocks, run_labels(sizes, blocks), run_of


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
    keeping at most half of a group, the first cut from a cached plan.
    (perfbench's tracer finds the phases, this one, shrink_step and
    finite_difference, by these names.)
    """
    live = as_indices(dims, "group members must be integers").ravel()
    if live.size == 0 or live.min() < 1:
        raise ValueError("need a non-empty group of members >= 1")
    if n <= 2:
        return live.tolist()
    groups = -(-live.size // n)
    steps, starts, last = _key_spans(n, schedule, live.size - (groups - 1) * n)
    if np.ndim(keys) != 2 or keys.shape[0] != groups or keys.shape[1] < starts[-1]:
        raise ValueError(f"need keys of shape ({groups}, >= {starts[-1]}), got {np.shape(keys)}")
    full, tail, sizes, blocks, labels, run_of = _plan(live.size, n, steps[0])
    # Pass 1 reads each group's signs from the head of its key row.
    signs = key_signs(np.concatenate((keys[:full, :n], keys[full:, :tail]), axis=None))
    labels = run_labels(sizes, blocks) if labels is None else labels
    part = DependentPartition(live[: signs.size], sizes, blocks, labels, signs)
    if run_of is not None:
        part.run_of = run_of
    found, group, iteration = live[signs.size :].tolist(), range(len(sizes)), 0
    while group:
        kept = shrink_step(f, x, f_x, epsilon, part).kept
        # Runs of at most two members are done; the others stay live.
        runs, alive, sizes = [], [], []
        for g, block in zip(group, kept):
            if block.size > 2:
                runs.append(block)
                alive.append(g)
                sizes.append(block.size)
            else:
                found += block.tolist()
        group, iteration = alive, iteration + 1
        if alive:  # Key columns per group: the ragged last one, group full, owns fewer.
            offsets = [g * keys.shape[1] + (starts, last)[g == full][iteration] for g in alive]
            live = runs[0] if len(runs) == 1 else np.concatenate(runs)
            part = dependent_partition(live, steps[iteration], keys.ravel(), sizes, offsets)
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
    bounds, moved = range(len(listed) + 1), x[positions]
    if f.batch is not None:  # Row i moves candidate i alone.
        (probed,) = _probe_rows(f, x, positions, bounds, (moved + epsilon,), np.arange(len(listed)))
    else:  # Python numbers: every run holds one member, written by a scalar store.
        moved = moved.tolist()
        (probed,) = _probe(f, x, listed, moved, bounds, ([m + epsilon for m in moved],))
    return [(value - f_x) / epsilon for value in probed]
