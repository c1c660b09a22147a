"""Spans recorded from outside the package, around calls into each layer.

The traced run replaces functions at the names their callers look up
(modules import each other by name, so ``zosparse.estimator`` holds its
own reference to ``random_permutation``) and restores them afterwards.
Nothing under ``src/`` changes.  Spans stay in memory: one entry per
call with its name, start, end, parent span and the operation it belongs
to.  A span's self time is its duration minus the part of it that its
direct children cover.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("rng", "estimator", "blackbox", "optimizer", "harness", "cli", "theory")
ROOT = "bench.op"  # one per benchmark operation; its self time is the benchmark's own


class Recorder:
    """In-memory span store for one process; single-threaded by design.

    Spans live in flat arrays (name id, start, end, parent index, op id)
    so that a pass of a few hundred thousand spans stays small.
    """

    def __init__(self):
        self.table: list[str] = []  # span names, indexed by name id
        self._ids: dict[str, int] = {}
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.groups = array("l")
        self.counters: Counter = Counter()
        self.group = -1  # id shared by every span of the current operation
        self.truth: frozenset | None = None  # planted support of the current instance
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.groups.append(self.group)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, observe=None):
        """fn with a span around every call; observe(recorder, result) sees returns."""
        name_id = self._id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def clear(self) -> None:
        for store in (self.names, self.starts, self.ends, self.parents, self.groups):
            del store[:]

    def dump(self, path) -> None:
        """Write the spans as CSV: name, start and end in microseconds, parent, op."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_us,end_us,parent,op\n")
            for i, name_id in enumerate(self.names):
                start = 1e6 * (self.starts[i] - origin)
                end = 1e6 * (self.ends[i] - origin)
                out.write(
                    f"{self.table[name_id]},{start:.3f},{end:.3f},{self.parents[i]},{self.groups[i]}\n"
                )


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its direct children, clipped to it."""
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        clipped = [
            (max(starts[c], start), min(ends[c], end))
            for c in children.get(index, ())
            if ends[c] > start and starts[c] < end
        ]
        result.append(end - start - covered_length(clipped))
    return result


# Which estimator call an objective query belongs to, by nearest ancestor.
_PHASES = {
    "estimator.grace_estimate": "base",
    "estimator.shrink_step": "shrink",
    "estimator.finite_difference": "fd",
}


class Aggregate:
    """Per-name totals over the spans of one or more traced passes."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.duration: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.queries: Counter = Counter()  # objective calls by estimator phase
        self.estimate_objective_s = 0.0  # objective time inside estimates
        self.cell_s = 0.0  # instance building plus runs inside run_experiment
        self.ops = 0
        self.op_s = 0.0

    def add(self, recorder: Recorder) -> None:
        names = [recorder.table[name_id] for name_id in recorder.names]
        starts, ends, parents = recorder.starts, recorder.ends, recorder.parents
        selfs = self_times(starts, ends, parents)
        phase: list[str | None] = [None] * len(names)
        in_experiment = [False] * len(names)
        for i, name in enumerate(names):
            parent = parents[i]
            duration = ends[i] - starts[i]
            phase[i] = _PHASES.get(name, phase[parent] if parent >= 0 else None)
            in_experiment[i] = name == "harness.run_experiment" or (
                parent >= 0 and in_experiment[parent]
            )
            self.calls[name] += 1
            self.duration[name] += duration
            self.self_time[name] += selfs[i]
            if name == ROOT:
                self.ops += 1
                self.op_s += duration
            elif name == "blackbox.objective" and phase[i] is not None:
                self.queries[phase[i]] += 1
                self.estimate_objective_s += duration
            elif name in ("blackbox.make_instance", "optimizer.run_optimizer") and parent >= 0:
                if in_experiment[parent]:
                    self.cell_s += duration

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)


def per_layer_metrics(agg: Aggregate, counters: Counter) -> dict:
    """Span-derived layer metrics; totals are per benchmark operation."""
    ops = max(agg.ops, 1)
    wall = agg.op_s or math.nan
    estimates = agg.calls["estimator.grace_estimate"]
    completed = counters["estimates.completed"]
    estimate_queries = sum(agg.queries.values())

    def per_call_us(name, total):
        return 1e6 * total[name] / agg.calls[name] if agg.calls[name] else 0.0

    metrics = {
        "rng.derive.calls": agg.calls["rng.derive"] / ops,
        "rng.derive.us_per_call": per_call_us("rng.derive", agg.duration),
        "rng.random_permutation.calls": agg.calls["rng.random_permutation"] / ops,
        "rng.random_permutation.self_s": agg.self_time["rng.random_permutation"] / ops,
        "rng.partition_groups.self_s": agg.self_time["rng.partition_groups"] / ops,
        "rng.dependent_partition.calls": agg.calls["rng.dependent_partition"] / ops,
        "rng.dependent_partition.self_s": agg.self_time["rng.dependent_partition"] / ops,
        "estimator.overhead_us_per_query": (
            1e6
            * (agg.duration["estimator.grace_estimate"] - agg.estimate_objective_s)
            / estimate_queries
            if estimate_queries
            else 0.0
        ),
        "estimator.grace_estimate.self_s": agg.self_time["estimator.grace_estimate"] / ops,
        "estimator.locate_in_group.self_s": agg.self_time["estimator.locate_in_group"] / ops,
        "estimator.shrink_step.calls": agg.calls["estimator.shrink_step"] / ops,
        "estimator.shrink_step.self_us_per_call": per_call_us(
            "estimator.shrink_step", agg.self_time
        ),
        "estimator.shrink_step.useful_ratio": (
            counters["shrink.useful"] / agg.calls["estimator.shrink_step"]
            if agg.calls["estimator.shrink_step"]
            else 0.0
        ),
        "estimator.queries_base_per_estimate": agg.queries["base"] / max(estimates, 1),
        "estimator.queries_shrink_per_estimate": agg.queries["shrink"] / max(estimates, 1),
        "estimator.queries_fd_per_estimate": agg.queries["fd"] / max(estimates, 1),
        "estimator.candidates_per_estimate": counters["candidates"] / max(completed, 1),
        "estimator.zero_value_candidates_per_estimate": counters["zero_value"]
        / max(completed, 1),
        "blackbox.objective.calls": agg.calls["blackbox.objective"] / ops,
        "blackbox.objective.self_us_per_call": per_call_us("blackbox.objective", agg.self_time),
        "blackbox.objective.share": agg.self_time["blackbox.objective"] / wall,
        "blackbox.ledger.self_us_per_call": per_call_us("blackbox.ledger", agg.self_time),
        "blackbox.make_instance_ms": 1e-3 * per_call_us("blackbox.make_instance", agg.duration),
        "optimizer.steps_per_run": (
            counters["steps"] / agg.calls["optimizer.run_optimizer"]
            if agg.calls["optimizer.run_optimizer"]
            else 0.0
        ),
        "theory.schedule_value.calls": agg.calls["theory.schedule_value"] / ops,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = agg.layer_self(layer) / wall
    metrics["trace.unattributed_share"] = agg.self_time[ROOT] / wall
    return metrics


def detail_metrics(agg: Aggregate, counters: Counter) -> dict:
    """Layer figures that exist only on some workloads; printed, not gated."""
    ops = max(agg.ops, 1)
    detail = {
        "optimizer.run_optimizer.self_s": agg.self_time["optimizer.run_optimizer"] / ops,
        "harness.parse_spec_ms": 1e3 * agg.duration["harness.parse_spec"] / ops,
        "harness.run_experiment.self_s": agg.self_time["harness.run_experiment"] / ops,
        "cli.main.overhead_ms": 1e3 * agg.self_time["cli.main"] / ops,
        "trace.ops": agg.ops,
        "trace.spans_per_op": sum(agg.calls.values()) / ops,
    }
    if counters["truth.estimates"]:
        detail["estimator.spurious_per_estimate"] = (
            counters["spurious"] / counters["truth.estimates"]
        )
    return detail


# --- patching ---


def _observe_shrink(recorder: Recorder, outcome) -> None:
    if not outcome.degenerate:
        recorder.counters["shrink.useful"] += 1


def _observe_estimate(recorder: Recorder, estimate) -> None:
    counters = recorder.counters
    counters["estimates.completed"] += 1
    counters["candidates"] += len(estimate.entries)
    counters["zero_value"] += sum(1 for value in estimate.entries.values() if value == 0.0)
    if recorder.truth is not None:
        counters["truth.estimates"] += 1
        counters["spurious"] += sum(1 for j in estimate.entries if j not in recorder.truth)


def _observe_run(recorder: Recorder, trace) -> None:
    recorder.counters["steps"] += len(trace.records)


@contextmanager
def traced(recorder: Recorder, mods):
    """Patch every traced name in the modules of ``mods``; restore on exit."""
    blackbox = mods.blackbox

    def maker(fn):
        def build(*args, **kwargs):
            instance = fn(*args, **kwargs)
            objective = instance.objective
            instance.objective = blackbox.BlackBoxFunction(
                objective.dim, recorder.wrap("blackbox.objective", objective.eval)
            )
            return instance

        return recorder.wrap("blackbox.make_instance", build)

    def ledger(fn):
        def build(f, cap=None):
            counted, book = fn(f, cap)
            wrapped = recorder.wrap("blackbox.ledger", counted.eval)
            return blackbox.BlackBoxFunction(counted.dim, wrapped), book

        return build

    plain = [
        (mods.rng.RngStream, "derive", "rng.derive", None),
        (mods.rng, "random_permutation", "rng.random_permutation", None),
        (mods.estimator, "random_permutation", "rng.random_permutation", None),
        (mods.estimator, "partition_groups", "rng.partition_groups", None),
        (mods.estimator, "dependent_partition", "rng.dependent_partition", None),
        (mods.estimator, "shrink_step", "estimator.shrink_step", _observe_shrink),
        (mods.estimator, "locate_in_group", "estimator.locate_in_group", None),
        (mods.estimator, "finite_difference", "estimator.finite_difference", None),
        (mods.estimator, "grace_estimate", "estimator.grace_estimate", _observe_estimate),
        (mods.optimizer, "grace_estimate", "estimator.grace_estimate", _observe_estimate),
        (mods.optimizer, "run_optimizer", "optimizer.run_optimizer", _observe_run),
        (mods.harness, "run_optimizer", "optimizer.run_optimizer", _observe_run),
        (mods.harness, "load_graph", "blackbox.load_graph", None),
        (mods.cli, "parse_spec", "harness.parse_spec", None),
        (mods.cli, "run_experiment", "harness.run_experiment", None),
        (mods.cli, "main", "cli.main", None),
        (mods.theory.DivisionSchedule, "value", "theory.schedule_value", None),
    ]
    replacements = [
        (owner, attr, recorder.wrap(name, getattr(owner, attr), observe))
        for owner, attr, name, observe in plain
    ]
    for owner in (mods.blackbox, mods.harness):
        for attr in ("make_distance", "make_planted_linear", "make_attack"):
            replacements.append((owner, attr, maker(getattr(owner, attr))))
    for owner in (mods.blackbox, mods.optimizer):
        replacements.append((owner, "with_ledger", ledger(owner.with_ledger)))

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
