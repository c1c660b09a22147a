"""Measure one workload: untraced for the end-to-end metrics, traced for the layers.

Both modes are closed loops in this one process; only the sweep's own
worker pool adds processes.  A mode repeats the workload's fixed pass of
operations until its time is up, timing each operation alone and checking
its output between operations, outside the timed interval.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from . import THREAD_VARS
from .tracing import LAYERS, ROOT, Aggregate, Recorder, detail_metrics, per_layer_metrics, traced
from .workloads import CheckError, Modules, OpOutcome

SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "results_per_s": "1/s",
    "queries_per_estimate": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rng.derive.calls": "count",
    "rng.derive.us_per_call": "us",
    "rng.random_permutation.calls": "count",
    "rng.random_permutation.self_s": "s",
    "rng.partition_groups.self_s": "s",
    "rng.dependent_partition.calls": "count",
    "rng.dependent_partition.self_s": "s",
    "estimator.overhead_us_per_query": "us",
    "estimator.grace_estimate.self_s": "s",
    "estimator.locate_in_group.self_s": "s",
    "estimator.shrink_step.calls": "count",
    "estimator.shrink_step.self_us_per_call": "us",
    "estimator.shrink_step.useful_ratio": "ratio",
    "estimator.queries_base_per_estimate": "count",
    "estimator.queries_shrink_per_estimate": "count",
    "estimator.queries_fd_per_estimate": "count",
    "estimator.candidates_per_estimate": "count",
    "estimator.zero_value_candidates_per_estimate": "count",
    "blackbox.objective.calls": "count",
    "blackbox.objective.self_us_per_call": "us",
    "blackbox.objective.share": "ratio",
    "blackbox.ledger.self_us_per_call": "us",
    "blackbox.make_instance_ms": "ms",
    "optimizer.steps_per_run": "count",
    "harness.csv_bytes": "count",
    "harness.failed_cells": "count",
    "harness.pool_efficiency": "ratio",
    "theory.schedule_value.calls": "count",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


def tail(samples) -> tuple[float, float | None]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum is
    returned with percentile None.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], None
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (the pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# The machine's speed drifts: a fixed pure-Python loop measured 14 to 21 ms
# within one 40-second window on the 2-vCPU baseline host.  So a calibration
# unit runs after every tenth of a second of timed work, and each interval
# is reported at the reference speed, where one unit takes REFERENCE_S, by
# the median of the four units around it.  The unit mixes numpy scalar
# indexing and small-array arithmetic, the kind of work the program does;
# of the units tried it tracked the drift best.
REFERENCE_S = 0.0045
CALIBRATE_EVERY_S = 0.1
_SWAP_TARGETS = np.random.Generator(np.random.Philox(7)).integers(np.arange(1023), 1024)


def calibration_unit() -> float:
    """Seconds taken by a fixed mix of numpy scalar swaps and small-array probes."""
    started = perf_counter()
    images = np.arange(1, 1025, dtype=np.int64)
    for _ in range(4):
        for i in range(1023):
            j = _SWAP_TARGETS[i]
            images[i], images[j] = images[j], images[i]
    point = np.zeros(512)
    for k in range(200):
        probe = point.copy()
        probe[images[k : k + 20] % 512] += 1e-6
        float(probe @ probe)
    return perf_counter() - started


class Clock:
    """Raw interval times plus the calibration units measured around them."""

    def __init__(self):
        self.units = [calibration_unit()]
        self.marks: list[tuple[float, int]] = []  # (raw seconds, index of the unit before)
        self._since = 0.0

    def record(self, seconds: float) -> None:
        self.marks.append((seconds, len(self.units) - 1))
        self._since += seconds
        if self._since >= CALIBRATE_EVERY_S:
            self.units.append(calibration_unit())
            self._since = 0.0

    def scaled(self) -> list[float]:
        """Each interval at reference speed, by the median of the four units around it."""
        if self.marks and self.marks[-1][1] == len(self.units) - 1:
            self.units.append(calibration_unit())
            self._since = 0.0
        units = self.units
        return [
            seconds * REFERENCE_S / median(units[max(k - 1, 0) : k + 3]) for seconds, k in self.marks
        ]

    @property
    def raw(self) -> list[float]:
        return [seconds for seconds, _ in self.marks]


class Measurement:
    """Repeated passes over one workload state, with their tallies."""

    def __init__(self, workload, state, jobs=None, recorder: Recorder | None = None):
        self.workload = workload
        self.state = state
        self.jobs = jobs
        self.recorder = recorder
        self.clock = Clock()
        self.reference: list | None = None  # fingerprints of the first pass
        self.first_outputs: list | None = None
        self.first_grace = (0, 0)  # grace queries and steps of the first pass
        self.passes = 0
        self.attempted = self.failed = 0
        self.queries = self.grace_steps = self.grace_queries = self.csv_bytes = 0

    def _run(self, i):
        if self.recorder is None:
            started = perf_counter()
            output = self.workload.run(self.state, i, self.jobs)
            return output, perf_counter() - started
        self.recorder.group += 1
        self.recorder.truth = self.workload.truth(self.state, i)
        started = perf_counter()
        with self.recorder.span(ROOT):
            output = self.workload.run(self.state, i, self.jobs)
        return output, perf_counter() - started

    def warm_up(self) -> None:
        """One untimed operation, so lazy set-up and caches are done before timing."""
        output, _ = self._run(0)
        self.workload.check(self.state, 0, output)

    def one_pass(self, deadline: float | None = None) -> None:
        """Run every operation once, or until the deadline once a first pass is done."""
        fingerprints, outputs = [], []
        per_op = self.state["results_per_op"]
        for i in range(self.workload.ops(self.state)):
            if self.reference is not None and deadline is not None and perf_counter() >= deadline:
                break
            try:
                output, seconds = self._run(i)
            except Exception:  # a failing operation is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                self.attempted += per_op
                self.failed += per_op
                fingerprints.append(None)
                outputs.append(None)
                continue
            self.clock.record(seconds)
            outcome: OpOutcome = self.workload.check(self.state, i, output)
            if self.reference is not None and outcome.fingerprint != self.reference[i]:
                raise CheckError(f"{self.workload.name} op {i}: output differs between repetitions")
            fingerprints.append(outcome.fingerprint)
            outputs.append(output)
            self.attempted += outcome.results
            self.failed += outcome.failed
            self.queries += outcome.queries
            self.grace_steps += outcome.grace_steps
            self.grace_queries += outcome.grace_queries
            self.csv_bytes += outcome.csv_bytes
        if self.reference is None:
            self.reference, self.first_outputs = fingerprints, outputs
            self.first_grace = (self.grace_queries, self.grace_steps)
        self.passes += 1


def measure(workload, src, seed, seconds, sizes, workdir) -> tuple[dict, dict, Measurement]:
    """Untraced run: the end-to-end metrics, with details and the tallies."""
    setup = Clock()
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        mods = Modules(src)  # a fresh import of the package
        state = workload.setup(mods, seed, sizes, workdir)
        setup.record(perf_counter() - started)
        setup.units.append(calibration_unit())
    run = Measurement(workload, state)
    run.warm_up()
    deadline = perf_counter() + seconds
    while run.passes == 0 or perf_counter() < deadline:
        run.one_pass(deadline)
    # Output-only figures need every operation of the first pass.
    quality = workload.quality(state, run.first_outputs) if None not in run.first_outputs else {}

    scaled, raw = run.clock.scaled(), run.clock.raw
    tail_s, tail_percentile = tail(scaled)
    values = {
        "setup_s": median(setup.scaled()),
        "queries_per_s": run.queries / sum(scaled),
        "op_ms_p50": 1e3 * median(scaled),
        "op_ms_tail": 1e3 * tail_s,
        "results_per_s": (run.attempted - run.failed) / sum(scaled),
        # From the first, complete pass, so that it is exact for a seed.
        "queries_per_estimate": run.first_grace[0] / run.first_grace[1],
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    detail = {
        "samples": len(scaled),
        "passes": run.passes,
        "tail_percentile": tail_percentile,
        "setup_samples": SETUP_REPEATS,
        "failed_share": run.failed / run.attempted,
        "wall_setup_s": median(setup.raw),
        "wall_op_ms_p50": 1e3 * median(raw),
        "wall_op_ms_tail": 1e3 * tail(raw)[0],
        "wall_queries_per_s": run.queries / sum(raw),
        "calibration_ms_p50": 1e3 * median(run.clock.units),
        **quality,
    }
    return metrics, detail, run


def measure_traced(workload, src, seed, seconds, sizes, workdir, spans_path=None):
    """Traced run: per-layer metrics, tracing overhead, details and the tallies.

    Each cycle runs one untraced pass and then the same pass traced; the
    sweep adds an untraced pass on one worker, because its traced pass
    runs on one worker so that every span stays in this process.
    """
    mods = Modules(src)
    state = workload.setup(mods, seed, sizes, Path(workdir) / "plain")
    recorder = Recorder()
    with traced(recorder, mods):
        traced_state = workload.setup(mods, seed, sizes, Path(workdir) / "traced")
    setup_agg = Aggregate()
    setup_agg.add(recorder)
    recorder.clear()

    pooled = workload.name == "sweep"
    plain = Measurement(workload, state)
    serial = Measurement(workload, state, jobs=1) if pooled else plain
    tracing = Measurement(workload, traced_state, jobs=1, recorder=recorder)
    plain.warm_up()
    agg = Aggregate()
    deadline = perf_counter() + seconds
    while tracing.passes == 0 or perf_counter() < deadline:
        plain.one_pass()
        if pooled:
            serial.reference = plain.reference
            serial.one_pass()
        tracing.reference = plain.reference
        with traced(recorder, mods):
            tracing.one_pass()
        agg.add(recorder)
        if spans_path is not None and tracing.passes == 1:
            recorder.dump(spans_path)
        recorder.clear()
    plain_s, serial_s, traced_s = (sum(m.clock.scaled()) for m in (plain, serial, tracing))
    overhead = traced_s / serial_s - 1.0
    # Span times are raw; bring the traced cell time to reference speed too.
    traced_factor = traced_s / sum(tracing.clock.raw)

    metrics = per_layer_metrics(agg, recorder.counters)
    builds = setup_agg.calls["blackbox.make_instance"] + agg.calls["blackbox.make_instance"]
    build_s = setup_agg.duration["blackbox.make_instance"] + agg.duration["blackbox.make_instance"]
    jobs = sizes.sweep_jobs if pooled else 1
    ops = max(agg.ops, 1)
    metrics.update(
        {
            "blackbox.make_instance_ms": 1e3 * build_s / builds if builds else 0.0,
            "harness.csv_bytes": tracing.csv_bytes / ops,
            "harness.failed_cells": tracing.failed / ops if pooled else 0.0,
            # Cell time is measured traced on one worker; take the tracing
            # overhead out before comparing it with the pool's untraced wall.
            "harness.pool_efficiency": (
                agg.cell_s * traced_factor / (1.0 + overhead) / (jobs * plain_s) if pooled else 0.0
            ),
            "trace.overhead_share": overhead,
        }
    )
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    detail = {
        **detail_metrics(agg, recorder.counters),
        "trace.passes": tracing.passes,
        "trace.untraced_s": serial_s,
        "trace.traced_s": traced_s,
    }
    return metrics, detail, [plain, serial, tracing] if pooled else [plain, tracing]
