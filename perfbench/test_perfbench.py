"""Tests of the benchmark itself: span arithmetic, input generators, smoke runs."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import runner, tracing
from perfbench.workloads import (
    TINY,
    WORKLOADS,
    CheckError,
    Modules,
    attack_graph,
    sweep_spec,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture
def package_restored():
    """The benchmark re-imports zosparse; put the test session's modules back."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "zosparse"}
    yield
    for name in [k for k in sys.modules if k.split(".")[0] == "zosparse"]:
        del sys.modules[name]
    sys.modules.update(saved)


# --- span arithmetic ---


def test_covered_length_merges_overlaps_and_gaps():
    assert tracing.covered_length([]) == 0.0
    assert tracing.covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracing.covered_length([(4.0, 5.0), (0.0, 10.0)]) == 10.0


def test_self_times_subtract_direct_children_only():
    # 0: [0, 10] has children 1: [1, 4] and 3: [6, 9]; 1 has child 2: [2, 3].
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [4.0, 2.0, 1.0, 3.0]


def test_self_times_count_overlapping_children_once_and_clip_them():
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs[0] == 10.0 - 5.0 - 2.0  # [1, 6] covered once, [8, 10] clipped


def test_recorder_spans_nest_and_sum_to_the_root(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(ticks)))
    recorder = tracing.Recorder()
    inner = recorder.wrap("rng.inner", lambda: None)

    def outer():
        inner()
        inner()

    traced_outer = recorder.wrap("estimator.outer", outer)
    recorder.group = 7
    with recorder.span(tracing.ROOT):
        traced_outer()
    names = [recorder.table[i] for i in recorder.names]
    assert names == [tracing.ROOT, "estimator.outer", "rng.inner", "rng.inner"]
    assert list(recorder.parents) == [-1, 0, 1, 1]
    assert set(recorder.groups) == {7}
    # root [0, 7], outer [1, 6], inner [2, 3] and [4, 5]
    assert tracing.self_times(recorder.starts, recorder.ends, recorder.parents) == [
        2.0,
        3.0,
        1.0,
        1.0,
    ]
    agg = tracing.Aggregate()
    agg.add(recorder)
    assert agg.ops == 1 and agg.op_s == 7.0
    shares = sum(agg.layer_self(layer) for layer in tracing.LAYERS) + agg.self_time[tracing.ROOT]
    assert shares == agg.op_s


def test_objective_queries_are_attributed_to_their_estimator_phase(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(ticks)))
    recorder = tracing.Recorder()
    objective = recorder.wrap("blackbox.objective", lambda: 1.0)
    shrink = recorder.wrap("estimator.shrink_step", lambda: (objective(), objective()))
    fd = recorder.wrap("estimator.finite_difference", objective)

    def estimate():
        objective()
        shrink()
        fd()

    with recorder.span(tracing.ROOT):
        recorder.wrap("estimator.grace_estimate", estimate)()
        objective()  # outside any estimate: not an estimator query
    agg = tracing.Aggregate()
    agg.add(recorder)
    assert dict(agg.queries) == {"base": 1, "shrink": 2, "fd": 1}
    metrics = tracing.per_layer_metrics(agg, recorder.counters)
    assert metrics["estimator.queries_shrink_per_estimate"] == 2.0
    assert metrics["blackbox.objective.calls"] == 5.0
    total = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert math.isclose(total + metrics["trace.unattributed_share"], 1.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert runner.tail(samples) == (90, 90.0)
    assert runner.tail([3.0, 1.0, 2.0]) == (3.0, None)


def test_clock_scales_by_the_median_unit_so_one_slow_unit_is_ignored(monkeypatch):
    units = iter([runner.REFERENCE_S, runner.REFERENCE_S, 100 * runner.REFERENCE_S])
    monkeypatch.setattr(runner, "calibration_unit", lambda: next(units))
    clock = runner.Clock()
    clock.record(0.2)  # a unit runs after each tenth of a second of work
    clock.record(0.3)
    assert clock.raw == [0.2, 0.3]
    assert clock.scaled() == [0.2, 0.3]
    units = iter([1.0, 2.0, 2.0])
    clock = runner.Clock()
    clock.record(0.01)  # too short to trigger a unit; scaled() adds the closing one
    assert clock.scaled() == [0.01 * runner.REFERENCE_S / 1.5]


# --- generators ---


def test_attack_graph_is_deterministic_connected_and_seed_dependent():
    text = attack_graph(5, 32, 32)
    assert attack_graph(5, 32, 32) == text
    assert attack_graph(6, 32, 32) != text
    assert "\n1 2\n" in text  # the attacked pair is adjacent
    header, *edges = text.splitlines()
    assert header == f"32 {len(edges)}" and len(edges) == 64
    degree = [0] * 33
    for line in edges:
        a, b = map(int, line.split())
        degree[a] += 1
        degree[b] += 1
    assert min(degree[1:]) >= 2


def test_sweep_spec_parses_and_depends_on_the_seed(package_restored):
    mods = Modules(SRC)
    spec = mods.harness.parse_spec(sweep_spec(4, TINY))
    assert spec.family == "attack" and [m.method for m in spec.methods] == [
        "grace",
        "rs",
        "zo-signsgd",
        "gld",
    ]
    assert sweep_spec(4, TINY) == sweep_spec(4, TINY)
    assert sweep_spec(5, TINY) != sweep_spec(4, TINY)


@pytest.mark.parametrize("name", ["descent", "scaling"])
def test_instances_are_deterministic_given_the_seed(name, tmp_path, package_restored):
    workload = WORKLOADS[name]
    mods = Modules(SRC)

    def supports(seed):
        state = workload.setup(mods, seed, TINY, tmp_path)
        return [instance.metadata["support"] for instance in state["instances"]]

    assert supports(11) == supports(11)
    assert supports(11) != supports(12)


# --- checks ---


def test_scaling_check_rejects_a_query_count_the_ledger_disagrees_with(tmp_path, package_restored):
    workload = WORKLOADS["scaling"]
    state = workload.setup(Modules(SRC), 2, TINY, tmp_path)
    estimate, counted = workload.run(state, 0)
    workload.check(state, 0, (estimate, counted))
    with pytest.raises(CheckError):
        workload.check(state, 0, (estimate, counted + 1))


# --- smoke runs at tiny sizes ---


@pytest.mark.parametrize("name", ["descent", "scaling", "sweep"])
def test_smoke_untraced_and_traced(name, tmp_path, package_restored):
    workload = WORKLOADS[name]
    metrics, detail, run = runner.measure(workload, SRC, 3, 0.0, TINY, tmp_path / "plain")
    assert list(metrics) == list(runner.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())
    assert run.failed == 0 and run.attempted >= 1
    assert detail["failed_share"] == 0.0

    layers, _, runs = runner.measure_traced(
        workload, SRC, 3, 0.0, TINY, tmp_path / "traced", tmp_path / "spans.csv"
    )
    assert list(layers) == list(runner.PER_LAYER_UNITS)
    assert layers["estimator.queries_base_per_estimate"]["value"] == 1.0
    shares = sum(layers[f"{layer}.self_share"]["value"] for layer in tracing.LAYERS)
    assert math.isclose(shares + layers["trace.unattributed_share"]["value"], 1.0)
    assert (tmp_path / "spans.csv").read_text().startswith("name,start_us")
    # Tracing patches are undone: the modules hold their own functions again.
    mods = runs[-1].state["mods"]
    assert not hasattr(mods.estimator.shrink_step, "__wrapped__")


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
