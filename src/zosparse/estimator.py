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
members) whatever d is.  Its partition brings the run ends and each probe's
matrix row, pass 1's from a plan cached per shape (d, n, D_1) with the run
sizes, blocks and labels.  Each probe is written into one copy of x and
taken out again, or, with a ``batch`` hook, sent in one matrix per
iteration; the results are the same.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass

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

_NONE = np.empty(0, dtype=np.int64)  # What a run that locates nothing keeps: no slice is cut.


@dataclass
class GraceConfig:
    """Hyperparameters of one sparse estimate.

    n is the group size, m the number of independent repeats, and the
    schedule, a :class:`~zosparse.theory.DivisionSchedule` (by default
    practical_schedule(20)), supplies the divisor for each shrink iteration.
    Each group shrinks to at most two candidates.  The sparsity s enters only
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
    schedule: DivisionSchedule = practical_schedule(20)

    @classmethod
    def defaults(cls, d: int, s: int, epsilon: float = 1e-6, d1: int = 20) -> "GraceConfig":
        """Standard configuration: n = floor(0.7 d / s), one repeat."""
        if s < 1:
            raise ValueError(f"need s >= 1, got s={s}")
        # 7d // 10s is floor(0.7 d / s) in exact integer arithmetic.
        return cls(epsilon=epsilon, n=max(1, 7 * d // (10 * s)), schedule=practical_schedule(d1))

    def validate(self, d: int) -> None:
        if type(self.epsilon) is bool or not 0 < self.epsilon < math.inf:  # True is no step.
            raise ValueError(f"need a finite epsilon > 0, got {self.epsilon}")
        for k in (self.n, self.m):  # type(k) is int first: the ABC check is slow.
            if type(k) is not int and (isinstance(k, bool) or not isinstance(k, numbers.Integral)):
                raise ValueError(f"need integers n and m, got n={self.n!r}, m={self.m!r}")
        if not 1 <= self.n <= d:
            raise ValueError(f"need 1 <= n <= d, got n={self.n}, d={d}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got m={self.m}")
        if not isinstance(self.schedule, DivisionSchedule):
            raise ValueError(f"need a DivisionSchedule, got schedule={self.schedule!r}")


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


def _probe_rows(f: BlackBoxFunction, x, positions, bounds, values, rows) -> list[float]:
    """As :func:`_probe`, through f.batch, in one list: probe k of member j is row rows[k, j].

    rows[k] is k * runs plus each member's run.  At most max(1, BATCH_FLOATS // d)
    rows go out a call, each call's matrix x broadcast with the probes' members
    scattered in at once when one call holds every row, else probe by probe.
    """
    runs, d = len(bounds) - 1, x.size
    count, per_call, out = len(values) * runs, max(1, BATCH_FLOATS // d), []
    for start in range(0, count, per_call):
        stop = min(start + per_call, count)
        probes = np.empty((stop - start, d))
        probes[:] = x
        if stop - start == count:
            probes[rows, positions] = np.asarray(values)  # A tuple costs more to scatter.
        # Rows start..stop - 1: per probe k among them, the runs i whose row k * runs + i is here.
        for k in range(start // runs, -(-stop // runs)) if stop - start < count else ():
            lo, hi = bounds[max(start - k * runs, 0)], bounds[min(stop - k * runs, runs)]
            probes[rows[k, lo:hi] - start, positions[lo:hi]] = values[k][lo:hi]
        out += f.batch_values(probes).tolist()
    return out


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
    sizes, blocks, ends = part.sizes, part.block_size, part.ends
    if min(sizes) < 2:
        raise ValueError("shrink_step needs at least 2 members in every run")
    labels, kept, first, degenerate, chunk = [], [], 0, 0, part
    # No distance compares >= nan, so a non-finite f_x reads no label.
    tolerance = DENOMINATOR_TOLERANCE * max(1.0, abs(f_x)) if math.isfinite(f_x) else math.nan
    while first < len(sizes):
        # Whole runs of at most CHUNK members, or one longer run: mostly one pass over part.
        last = max(bisect.bisect_right(ends, ends[first] + CHUNK, first + 1) - 1, first + 1)
        if last - first < len(sizes):  # One pass of several: a partition of its own runs.
            run, cut = slice(ends[first], ends[last]), slice(first, last)
            chunk = DependentPartition(
                part.indices[run], sizes[cut], blocks[cut], part.labels[run], part.signs[run]
            )
        indices, bounds = chunk.indices, chunk.ends
        positions, step = indices - 1, epsilon * chunk.signs
        moved, scaled = x[positions], step * chunk.labels
        values = (np.add(scaled, moved, out=scaled), moved + step)  # Same bits as moved + scaled.
        if f.batch is None:
            f_v, f_u = _probe(f, x, positions, moved, bounds, values)
        else:
            f_v = _probe_rows(f, x, positions, bounds, values, chunk.rows)  # Zipped to its runs.
            f_u = f_v[len(bounds) - 1 :]
        for start, size, block, v, u in zip(bounds, chunk.sizes, chunk.block_size, f_v, f_u):
            label = None
            # A non-finite v makes the ratio non-finite, so only u is checked on its own.
            if math.isfinite(u) and abs(denominator := u - f_x) >= tolerance:
                ratio = (v - f_x) / denominator
                if math.isfinite(ratio):
                    label = math.floor(ratio + 0.5) if ratio >= 0.0 else math.ceil(ratio - 0.5)
            labels.append(label)
            # The kept block starts (label - 1) blocks into its run; else it is empty.
            if label is not None and 1 <= label <= -(-size // block):
                begin = start + (label - 1) * block
                kept.append(indices[begin : min(begin + block, start + size)])
            else:
                kept.append(_NONE)
                degenerate += 1
        first = last
    return ShrinkOutcome(kept, labels, degenerate)


@functools.lru_cache(maxsize=64)
def _spans(size: int, schedule: DivisionSchedule, ragged: int = 0) -> tuple:
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
    return tuple(steps), tuple(starts), tuple(last)


@functools.lru_cache(maxsize=64)
def _plan(d: int, n: int, divisor: int) -> tuple:
    """(full, tail, sizes, blocks, ends, labels, rows) of the first shrink pass over d members.

    Pass 1 cuts ``full`` groups of n > 2, then a ragged group of ``tail`` > 2
    (else tail is 0); the rest are found as they are.  ends and rows are its
    :class:`DependentPartition` geometry.  labels and rows are None past d =
    1024, where families give no batch hook, so that no cached array grows with d.
    """
    full, rest = divmod(d, n)
    tail = rest if rest > 2 else 0
    sizes = (n,) * full + (tail,) * (tail > 0)
    blocks = tuple(-(-size // divisor) for size in sizes)
    shape = DependentPartition(None, sizes, blocks, None, None)  # Read for its geometry only.
    if d > 1024:
        return full, tail, sizes, blocks, tuple(shape.ends), None, None
    shape.rows.setflags(write=False)
    return full, tail, sizes, blocks, tuple(shape.ends), run_labels(sizes, blocks), shape.rows


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
    steps, starts, last = _spans(n, schedule, live.size - (groups - 1) * n)
    if np.ndim(keys) != 2 or keys.shape[0] != groups or keys.shape[1] < starts[-1]:
        raise ValueError(f"need keys of shape ({groups}, >= {starts[-1]}), got {np.shape(keys)}")
    full, tail, sizes, blocks, ends, labels, rows = _plan(live.size, n, steps[0])
    # Pass 1 reads each group's signs from the head of its key row; the ragged one's row is last.
    signs = key_signs(keys[:, :n].ravel()[: full * n + tail])
    labels = run_labels(sizes, blocks) if labels is None else labels
    part = DependentPartition(live[: signs.size], sizes, blocks, labels, signs)
    part.ends = ends
    if rows is not None:
        part.rows = rows
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
            elif block is not _NONE:
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
        width = _spans(cfg.n, cfg.schedule)[1][-1]
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
        rows = np.arange(len(listed))[None]
        probed = _probe_rows(f, x, positions, bounds, (moved + epsilon)[None], rows)
    else:  # Python numbers: every run holds one member, written by a scalar store.
        moved = moved.tolist()
        (probed,) = _probe(f, x, listed, moved, bounds, ([m + epsilon for m in moved],))
    return [(value - f_x) / epsilon for value in probed]
