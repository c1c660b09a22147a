"""The three workloads: inputs made from a seed, one operation, output checks.

Each workload is a fixed pass of operations built from the workload seed.
The runner repeats the pass until its time is up, so every figure that
depends only on outputs (queries per estimate, recall, final objective,
CSV digest) is exact for a seed, while timings pool every repetition.

- ``descent``: one 5000-query grace descent on a distance-512/10 instance.
  The objective is cheap, so the estimator's and rng's own time dominate.
- ``scaling``: one ``grace_estimate`` on a planted sparse linear objective
  over d in {256..16384} x s in {4..32}.  f is almost free and d is large,
  so the O(d) permutation and grouping steps set the tail; it also carries
  the paper's query count and the support recall.
- ``sweep``: one ``zosparse run --jobs 2`` over the attack family with all
  four methods.  The dense objective dominates and only a quarter of the
  cells use the estimator; the pool, spec parsing, CSV writing, baselines
  and per-step stream derivation all do real work here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

MODULES = ("rng", "theory", "blackbox", "estimator", "optimizer", "harness", "cli")


class CheckError(AssertionError):
    """An output of the program is wrong; the benchmark result is void."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; FULL is the benchmark, TINY the smoke test."""

    descent_d: int = 512
    descent_s: int = 10
    descent_budget: int = 5000
    descent_eta: float = 0.5
    descent_instances: int = 16
    scaling_d: tuple = (256, 1024, 4096, 16384)
    scaling_s: tuple = (4, 8, 16, 32)
    scaling_repeats: int = 4
    scaling_epsilon: float = 1e-3
    sweep_vertices: int = 32
    sweep_chords: int = 32
    sweep_budget: int = 250
    sweep_etas: tuple = (0.02, 0.01)
    sweep_run_seeds: int = 3
    sweep_jobs: int = 2


FULL = Sizes()
TINY = Sizes(
    descent_d=64,
    descent_s=4,
    descent_budget=300,
    descent_instances=2,
    scaling_d=(64, 256),
    scaling_s=(2, 4),
    scaling_repeats=1,
    sweep_vertices=8,
    sweep_chords=4,
    sweep_budget=60,
    sweep_etas=(0.02,),
    sweep_run_seeds=1,
)


class Modules:
    """The package's modules, looked up at call time so tracing can patch them."""

    def __init__(self, src: Path):
        src = Path(src).resolve()
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules if m == "zosparse" or m.startswith("zosparse.")]:
            del sys.modules[name]
        for name in MODULES:
            module = importlib.import_module(f"zosparse.{name}")
            if src not in Path(module.__file__).resolve().parents:
                raise ImportError(f"zosparse.{name} loaded from {module.__file__}, not {src}")
            setattr(self, name, module)


@dataclass
class OpOutcome:
    """What one operation produced, as the runner counts it."""

    queries: int  # objective queries completed
    results: int  # runs, estimates or cells attempted
    failed: int  # of those, how many failed
    grace_steps: int  # grace estimates begun
    grace_queries: int  # queries spent by grace runs
    fingerprint: object  # equal on every repetition of the same operation
    csv_bytes: int = 0


def _strictly_increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


# --- descent ---


class Descent:
    name = "descent"

    def setup(self, mods: Modules, seed: int, sizes: Sizes, workdir: Path):
        stream = mods.rng.RngStream(seed)
        instances = [
            mods.blackbox.make_distance(sizes.descent_d, sizes.descent_s, stream.derive(0, i))
            for i in range(sizes.descent_instances)
        ]
        return {
            "mods": mods,
            "seed": seed,
            "sizes": sizes,
            "instances": instances,
            "results_per_op": 1,
            "grace": mods.estimator.GraceConfig.defaults(sizes.descent_d, sizes.descent_s),
            "opt": mods.optimizer.OptimizerConfig(
                method="grace", step_size=sizes.descent_eta, budget=sizes.descent_budget
            ),
        }

    def ops(self, state) -> int:
        return len(state["instances"])

    def truth(self, state, i):
        return frozenset(state["instances"][i].metadata["support"])

    def run(self, state, i, jobs=None):
        mods, instance = state["mods"], state["instances"][i]
        stream = mods.rng.RngStream(state["seed"]).derive(1, i)
        return mods.optimizer.run_optimizer(
            instance.objective, instance.x1, state["opt"], stream, state["grace"]
        )

    def check(self, state, i, trace) -> OpOutcome:
        budget = state["sizes"].descent_budget
        queries = [record.queries for record in trace.records]
        if not queries:
            raise CheckError(f"descent {i}: empty trace")
        if not _strictly_increasing(queries):
            raise CheckError(f"descent {i}: trace queries do not strictly increase")
        if queries[-1] > budget:
            raise CheckError(f"descent {i}: {queries[-1]} queries exceed budget {budget}")
        if not all(math.isfinite(record.value) for record in trace.records):
            raise CheckError(f"descent {i}: non-finite objective in trace")
        last = trace.records[-1]
        return OpOutcome(
            queries=last.queries,
            results=1,
            failed=0,
            grace_steps=len(trace.records),
            grace_queries=last.queries,
            fingerprint=(last.queries, last.value, len(trace.records)),
        )

    def quality(self, state, traces) -> dict:
        """Replays that check the ledger from outside and score the first estimate."""
        mods, sizes = state["mods"], state["sizes"]
        instance = state["instances"][0]
        counted, ledger = mods.blackbox.with_ledger(instance.objective)
        stream = mods.rng.RngStream(state["seed"]).derive(1, 0)
        replay = mods.optimizer.run_optimizer(
            counted, instance.x1, state["opt"], stream, state["grace"]
        )
        if not traces[0].records[-1].queries <= ledger.count <= sizes.descent_budget:
            raise CheckError(
                f"descent 0: outside ledger counts {ledger.count} queries, trace ends at "
                f"{traces[0].records[-1].queries}, budget {sizes.descent_budget}"
            )
        if replay.records[-1].value != traces[0].records[-1].value:
            raise CheckError("descent 0: replay reached a different final value")
        found = planted = 0
        for i, instance in enumerate(state["instances"]):
            stream = mods.rng.RngStream(state["seed"]).derive(1, i).derive(1)
            first = mods.estimator.grace_estimate(
                instance.objective, instance.x1, state["grace"], stream
            )
            support = set(instance.metadata["support"])
            found += len(support & set(first.entries))
            planted += len(support)
        return {
            "support_recall": found / planted,
            "final_normalized_p50": median(t.records[-1].normalized for t in traces),
        }


# --- scaling ---


class Scaling:
    name = "scaling"

    def setup(self, mods: Modules, seed: int, sizes: Sizes, workdir: Path):
        root = mods.rng.RngStream(seed)
        points, instances, configs = [], [], {}
        for d in sizes.scaling_d:
            for s in sizes.scaling_s:
                configs[d, s] = mods.estimator.GraceConfig.defaults(
                    d, s, epsilon=sizes.scaling_epsilon
                )
                for repeat in range(sizes.scaling_repeats):
                    points.append((d, s, repeat))
                    instances.append(
                        mods.blackbox.make_planted_linear(d, s, root.derive(d, s, repeat, 0))
                    )
        return {
            "mods": mods,
            "seed": seed,
            "points": points,
            "instances": instances,
            "results_per_op": 1,
            "configs": configs,
        }

    def ops(self, state) -> int:
        return len(state["points"])

    def truth(self, state, i):
        return frozenset(state["instances"][i].metadata["support"])

    def run(self, state, i, jobs=None):
        mods = state["mods"]
        d, s, repeat = state["points"][i]
        instance = state["instances"][i]
        stream = mods.rng.RngStream(state["seed"]).derive(d, s, repeat).derive(1)
        counted, ledger = mods.blackbox.with_ledger(instance.objective)
        estimate = mods.estimator.grace_estimate(counted, instance.x1, state["configs"][d, s], stream)
        return estimate, ledger.count

    def check(self, state, i, output) -> OpOutcome:
        estimate, counted = output
        d, s, _ = state["points"][i]
        if estimate.queries_used != counted:
            raise CheckError(
                f"scaling {i}: queries_used {estimate.queries_used} != ledger count {counted}"
            )
        coeffs = state["instances"][i].metadata["coeffs"]
        for j, value in estimate.entries.items():
            if not 1 <= j <= d:
                raise CheckError(f"scaling {i}: candidate {j} outside 1..{d}")
            if j in coeffs and abs(value - coeffs[j]) > 1e-9:
                raise CheckError(f"scaling {i}: entry {j} = {value!r}, planted {coeffs[j]!r}")
        return OpOutcome(
            queries=counted,
            results=1,
            failed=0,
            grace_steps=1,
            grace_queries=counted,
            fingerprint=(counted, tuple(sorted(estimate.entries.items()))),
        )

    def quality(self, state, outputs) -> dict:
        found = planted = spurious = 0
        for instance, (estimate, _) in zip(state["instances"], outputs):
            support = set(instance.metadata["support"])
            found += len(support & set(estimate.entries))
            spurious += len(set(estimate.entries) - support)
            planted += len(support)
        return {
            "support_recall": found / planted,
            "spurious_per_estimate": spurious / len(outputs),
        }


# --- sweep ---

METHODS = ("grace", "rs", "zo-signsgd", "gld")
CSV_NAMES = ("trace.csv", "runs.csv", "summary.csv")


def attack_graph(seed: int, vertices: int, chords: int) -> str:
    """Edge list of a ring 1-2-...-n-1 plus random chords drawn from the seed.

    The ring keeps the graph connected with every degree at least 2, and
    makes the sweep's attacked pair, the harness default (1, 2), adjacent
    for every seed.  With a pair drawn from the seed, queries per estimate
    moved by about 10% from seed to seed.
    """
    rng = np.random.default_rng([seed, vertices, chords])
    edges = {(min(i, i % vertices + 1), max(i, i % vertices + 1)) for i in range(1, vertices + 1)}
    target = len(edges) + min(chords, vertices * (vertices - 1) // 2 - len(edges))
    while len(edges) < target:
        a, b = (int(k) for k in rng.integers(1, vertices + 1, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    lines = [f"{vertices} {len(edges)}"] + [f"{a} {b}" for a, b in sorted(edges)]
    return "\n".join(lines) + "\n"


def sweep_spec(seed: int, sizes: Sizes) -> str:
    run_seeds = " ".join(str(seed * 10 + k) for k in range(sizes.sweep_run_seeds))
    lines = [
        "[experiment]",
        f"budget = {sizes.sweep_budget}",
        "eta-grid = " + " ".join(repr(eta) for eta in sizes.sweep_etas),
        f"instance-seeds = {seed}",
        f"run-seeds = {run_seeds}",
        "",
        "[family]",
        "name = attack",
        "graph = graph.txt",
        "hops = 4",
        "",
    ]
    for method in METHODS:
        lines += [f"[method:{method}]", f"method = {method}", ""]
    return "\n".join(lines)


class Sweep:
    name = "sweep"

    def setup(self, mods: Modules, seed: int, sizes: Sizes, workdir: Path):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        text = attack_graph(seed, sizes.sweep_vertices, sizes.sweep_chords)
        (workdir / "graph.txt").write_text(text, encoding="utf-8")
        spec_path = workdir / "spec.ini"
        spec_path.write_text(sweep_spec(seed, sizes), encoding="utf-8")
        spec = mods.harness.parse_spec(spec_path.read_text(encoding="utf-8"))
        mods.blackbox.load_graph(text)
        cells = (
            len(spec.methods) * len(spec.instance_seeds) * len(spec.run_seeds) * len(spec.eta_grid)
        )
        return {
            "mods": mods,
            "sizes": sizes,
            "spec_path": spec_path,
            "output": workdir / "out",
            "results_per_op": cells,
            "digest": None,
        }

    def ops(self, state) -> int:
        return 1

    def truth(self, state, i):
        return None  # the attack objective has no planted support

    def run(self, state, i, jobs=None):
        jobs = state["sizes"].sweep_jobs if jobs is None else jobs
        argv = ["run", str(state["spec_path"]), "--jobs", str(jobs), "--output", str(state["output"])]
        with contextlib.redirect_stdout(io.StringIO()):
            return state["mods"].cli.main(argv)

    def check(self, state, i, status) -> OpOutcome:
        out = state["output"]
        blobs = [(out / name).read_bytes() for name in CSV_NAMES]
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        rows = list(csv.DictReader(io.StringIO(blobs[1].decode("utf-8"))))
        if len(rows) != state["results_per_op"]:
            raise CheckError(
                f"sweep: runs.csv has {len(rows)} rows for {state['results_per_op']} cells"
            )
        failed = sum(row["status"] != "ok" for row in rows)
        if status != (1 if failed else 0):
            raise CheckError(f"sweep: exit status {status} with {failed} failed cells")
        if state["digest"] is None:
            _check_trace(blobs[0])
            state["digest"] = digest
        ok = [row for row in rows if row["status"] == "ok"]
        grace = [row for row in ok if row["method"] == "grace"]
        return OpOutcome(
            queries=sum(int(row["queries"]) for row in ok),
            results=len(rows),
            failed=failed,
            grace_steps=sum(int(row["steps"]) for row in grace),
            grace_queries=sum(int(row["queries"]) for row in grace),
            fingerprint=digest,
            csv_bytes=sum(len(blob) for blob in blobs),
        )

    def quality(self, state, statuses) -> dict:
        text = (state["output"] / "trace.csv").read_text(encoding="utf-8")
        finals = {}
        for row in csv.DictReader(io.StringIO(text)):
            key = (row["method"], row["instance-seed"], row["run-seed"], row["eta"])
            finals[key] = float(row["normalized-objective"])
        return {
            "final_normalized_p50": median(finals.values()),
            "csv_sha256": state["digest"],
        }


def _check_trace(blob: bytes) -> None:
    per_cell: dict[tuple, list[int]] = {}
    for row in csv.DictReader(io.StringIO(blob.decode("utf-8"))):
        key = (row["method"], row["instance-seed"], row["run-seed"], row["eta"])
        per_cell.setdefault(key, []).append(int(row["cumulative-queries"]))
    for key, queries in per_cell.items():
        if not _strictly_increasing(queries):
            raise CheckError(f"sweep: trace queries do not strictly increase in cell {key}")


WORKLOADS = {workload.name: workload for workload in (Descent(), Scaling(), Sweep())}
