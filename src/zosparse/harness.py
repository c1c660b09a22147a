"""Experiment orchestration: config files, sweeps, CSV traces, the scaling probe.

An experiment is a cartesian sweep over instance seeds, run seeds,
methods, and step sizes, every run capped at the same query budget.
Results land in three CSV files: ``trace.csv`` (one row per recorded
step), ``runs.csv`` (one status row per run, failures included), and
``summary.csv`` (per method and step size: mean and standard error of
the best normalized objective, with the winning step size marked).

Output is deterministic byte for byte: rows are sorted by key rather
than completion order, floats are printed with 17 significant digits,
and files use UTF-8 with bare newlines.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Instances are built through FAMILIES; make_attack and make_distance stay
# bound because the benchmark's tracer (perfbench/tracing.py) replaces the
# makers, load_graph and run_optimizer on this module by name.
from .blackbox import FAMILIES, load_graph
from .blackbox import make_attack, make_distance, make_planted_linear  # noqa: F401
from .estimator import GraceConfig, grace_estimate
from .optimizer import OptimizerConfig, run_optimizer
from .rng import RngStream

__all__ = [
    "ExperimentSpecError",
    "MethodSpec",
    "ExperimentSpec",
    "parse_spec",
    "ExperimentResult",
    "run_experiment",
    "query_scaling_probe",
    "scaling_correlation",
    "write_scaling_csv",
    "OUTPUT_DIR_VAR",
]

OUTPUT_DIR_VAR = "ZOSPARSE_OUT"

# The spec keys each method reads, with their types; a baseline's keys are
# the OptimizerConfig fields of the same name.
METHOD_KEYS = {
    "grace": {"s": int, "epsilon": float, "n": int, "m": int, "d1": int},
    "rs": {"mu": float},
    "zo-signsgd": {"mu": float, "directions": int},
    "gld": {"scales": int},
}

# The [experiment] keys with their types; the three lists are split when read.
EXPERIMENT_KEYS = {"budget": int, "max-steps": int, "output": str}
EXPERIMENT_KEYS.update(dict.fromkeys(("eta-grid", "instance-seeds", "run-seeds"), str))


class ExperimentSpecError(ValueError):
    """Invalid experiment document; the message names the offending key."""


@dataclass
class MethodSpec:
    """One method column of the sweep: a label, the algorithm, its knobs."""

    name: str
    method: str
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentSpec:
    """Everything a sweep needs, as :func:`parse_spec` reads it from an INI document."""

    family: str
    family_params: dict
    methods: list
    instance_seeds: list
    run_seeds: list
    budget: int
    eta_grid: list
    max_steps: int | None = None
    output: str | None = None


def _typed(section: str, keys: dict, required: tuple, params: dict) -> dict:
    """params with each value in its key's type; unknown and missing keys raise."""
    typed = {}
    for key, value in params.items():
        if key not in keys:
            raise ExperimentSpecError(f"[{section}] unknown key {key!r}; expected {sorted(keys)}")
        try:
            typed[key] = keys[key](value)
        except (TypeError, ValueError) as err:
            raise ExperimentSpecError(f"[{section}] {key}: {err}") from None
    for key in required:
        if key not in typed:
            raise ExperimentSpecError(f"[{section}] needs a {key} key")
    return typed


def _checked(spec: ExperimentSpec) -> ExperimentSpec:
    """spec with typed parameters; rejects what would fail or be ignored in every cell."""
    families = tuple(FAMILIES)
    if spec.family not in families:
        raise ExperimentSpecError(f"[family] unknown family {spec.family!r}; expected {families}")
    if spec.budget < 1 or (spec.max_steps is not None and spec.max_steps < 1):
        raise ExperimentSpecError("[experiment] budget and max-steps: need integers >= 1")
    if not spec.eta_grid or not all(0 < eta < math.inf for eta in spec.eta_grid):
        raise ExperimentSpecError("[experiment] eta-grid: need finite step sizes > 0")
    row = FAMILIES[spec.family]
    methods = []
    for method in spec.methods:
        section = f"method:{method.name}"
        if method.method not in METHOD_KEYS:
            raise ExperimentSpecError(f"[{section}] unknown method {method.method!r}")
        params = _typed(section, METHOD_KEYS[method.method], (), method.params)
        for key, value in params.items():  # No cell's d brings these into range.
            least, real = 2 if key == "d1" else 1, isinstance(value, float)
            if (not 0 < value < math.inf) if real else value < least:
                need = "a finite value > 0" if real else f"an integer >= {least}"
                raise ExperimentSpecError(f"[{section}] {key}: need {need}, got {value!r}")
        methods.append(replace(method, params=params))
    family_params = _typed("family", row.keys, row.required, spec.family_params)
    return replace(spec, family_params=family_params, methods=methods)


def _int_list(section: str, key: str, raw: str) -> list:
    try:
        values = [int(tok) for tok in raw.split()]
    except ValueError:
        raise ExperimentSpecError(f"[{section}] {key}: expected integers") from None
    if not values:
        raise ExperimentSpecError(f"[{section}] {key}: must be nonempty")
    return values


def parse_spec(text: str) -> ExperimentSpec:
    """Parse an experiment document; the README's "Running experiments" gives the format."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ExperimentSpecError(str(err)) from None
    if parser.defaults():
        # configparser copies these keys into every section; blame none of those.
        raise ExperimentSpecError("unknown section [DEFAULT]; its keys would reach every section")
    if "experiment" not in parser or "family" not in parser:
        raise ExperimentSpecError("need [experiment] and [family] sections")

    exp = _typed("experiment", EXPERIMENT_KEYS, ("budget",), dict(parser["experiment"]))
    try:
        eta_grid = [float(tok) for tok in exp.get("eta-grid", "").split()]
    except ValueError:
        raise ExperimentSpecError("[experiment] eta-grid: expected floats") from None
    instance_seeds = _int_list("experiment", "instance-seeds", exp.get("instance-seeds", ""))
    run_seeds = _int_list("experiment", "run-seeds", exp.get("run-seeds", ""))

    fam = parser["family"]
    if "name" not in fam:
        raise ExperimentSpecError("[family] needs a name")
    family_params = {k: v for k, v in fam.items() if k != "name"}

    methods = []
    for section in parser.sections():
        if section in ("experiment", "family"):
            continue
        if not section.startswith("method:"):
            raise ExperimentSpecError(
                f"unknown section [{section}]; expected [experiment], [family] and [method:NAME]"
            )
        name = section.split(":", 1)[1]
        body = parser[section]
        if "method" not in body:
            raise ExperimentSpecError(f"[{section}] needs a method key")
        params = {k: v for k, v in body.items() if k != "method"}
        methods.append(MethodSpec(name, body["method"], params))
    if not methods:
        raise ExperimentSpecError("need at least one [method:NAME] section")

    spec = ExperimentSpec(
        family=fam["name"],
        family_params=family_params,
        methods=methods,
        instance_seeds=instance_seeds,
        run_seeds=run_seeds,
        budget=exp["budget"],
        eta_grid=eta_grid,
        max_steps=exp.get("max-steps"),
        output=exp.get("output"),
    )
    return _checked(spec)


# --- running ---


@dataclass
class ExperimentResult:
    output_dir: Path
    trace_path: Path
    runs_path: Path
    summary_path: Path
    num_runs: int
    num_failures: int


def _optimizer_config(method: MethodSpec, eta: float, spec: ExperimentSpec) -> OptimizerConfig:
    knobs = {} if method.method == "grace" else method.params
    return OptimizerConfig(
        method=method.method,
        step_size=eta,
        budget=spec.budget,
        max_steps=spec.max_steps,
        **knobs,
    )


def _grace_config(method: MethodSpec, spec: ExperimentSpec, d: int) -> GraceConfig:
    params = method.params
    s = params.get("s", spec.family_params.get("s", 1))
    cfg = GraceConfig.defaults(d, s, d1=params.get("d1", FAMILIES[spec.family].grace_d1))
    return replace(cfg, **{key: params[key] for key in ("epsilon", "n", "m") if key in params})


def _execute_unit(payload):
    """One (instance seed, run seed, method, eta) cell; runs in a worker."""
    spec, family_params, instance_seed, run_seed, method_index, eta_index = payload
    method = spec.methods[method_index]
    eta = spec.eta_grid[eta_index]
    key = (method_index, instance_seed, run_seed, eta_index)
    try:
        instance = FAMILIES[spec.family].build(family_params, RngStream(instance_seed))
        f = instance.objective
        opt = _optimizer_config(method, eta, spec)
        grace = _grace_config(method, spec, f.dim) if method.method == "grace" else None
        rng = RngStream(run_seed).derive(instance_seed, method_index, eta_index)
        trace = run_optimizer(f, instance.x1, opt, rng, grace)
    except Exception as err:  # a failed run must not sink the sweep
        return key, "failed", f"{type(err).__name__}: {err}", [], None
    rows = [
        (record.step, record.queries, record.value, record.normalized)
        for record in trace.records
    ]
    if trace.records:
        initial = trace.records[0].value
        best_normalized = trace.best_value / initial if initial != 0.0 else math.nan
        stats = (len(trace.records), trace.records[-1].queries, trace.best_value, best_normalized)
    else:
        stats = (0, 0, math.nan, math.nan)
    return key, "ok", "", rows, stats


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def resolve_output_dir(explicit: str | None, spec_output: str | None) -> Path:
    """Explicit argument, then the spec's output key, then $ZOSPARSE_OUT, then ./results."""
    chosen = explicit or spec_output or os.environ.get(OUTPUT_DIR_VAR) or "results"
    return Path(chosen)


def run_experiment(
    spec: ExperimentSpec, output_dir: str | None = None, jobs: int = 1
) -> ExperimentResult:
    """Run the full sweep and write trace.csv, runs.csv, and summary.csv.

    Reruns with an identical spec produce byte-identical files.  A failing
    run, such as grace reaching a point where attack reads +inf, becomes a
    failed row in runs.csv while the rest of the sweep proceeds; startup
    problems (unreadable graph, bad spec) raise instead.
    """
    spec = _checked(spec)
    family_params = dict(spec.family_params)
    if "graph" in family_params:
        family_params["graph"] = load_graph(Path(family_params["graph"]).read_text("utf-8"))

    payloads = [
        (spec, family_params, instance_seed, run_seed, method_index, eta_index)
        for method_index in range(len(spec.methods))
        for instance_seed in spec.instance_seeds
        for run_seed in spec.run_seeds
        for eta_index in range(len(spec.eta_grid))
    ]
    workers = min(jobs, len(payloads))  # a fork pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_unit, payloads, chunksize=1))
    else:
        outcomes = [_execute_unit(p) for p in payloads]
    outcomes.sort(key=lambda item: item[0])

    out = resolve_output_dir(output_dir, spec.output)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    runs_path = out / "runs.csv"
    summary_path = out / "summary.csv"

    num_failures = 0
    per_cell: dict[tuple[int, int], list[float]] = {}  # (method_index, eta_index) -> best normalized
    with open(trace_path, "w", encoding="utf-8", newline="") as trace_file, open(
        runs_path, "w", encoding="utf-8", newline=""
    ) as runs_file:
        trace_writer = csv.writer(trace_file, lineterminator="\n")
        trace_writer.writerow(
            [
                "benchmark",
                "method",
                "instance-seed",
                "run-seed",
                "eta",
                "step",
                "cumulative-queries",
                "f-value",
                "normalized-objective",
            ]
        )
        runs_writer = csv.writer(runs_file, lineterminator="\n")
        runs_writer.writerow(
            [
                "benchmark",
                "method",
                "instance-seed",
                "run-seed",
                "eta",
                "status",
                "steps",
                "queries",
                "best-value",
                "best-normalized",
                "detail",
            ]
        )
        for key, status, detail, rows, stats in outcomes:
            method_index, instance_seed, run_seed, eta_index = key
            method = spec.methods[method_index]
            eta = spec.eta_grid[eta_index]
            shared = [spec.family, method.name, instance_seed, run_seed, _fmt(eta)]
            if status == "failed":
                num_failures += 1
                runs_writer.writerow(shared + ["failed", "", "", "", "", detail])
                continue
            steps, queries, best_value, best_normalized = stats
            runs_writer.writerow(
                shared + ["ok", steps, queries, _fmt(best_value), _fmt(best_normalized), ""]
            )
            per_cell.setdefault((method_index, eta_index), []).append(best_normalized)
            for step, step_queries, value, normalized in rows:
                trace_writer.writerow(shared + [step, step_queries, _fmt(value), _fmt(normalized)])

    with open(summary_path, "w", encoding="utf-8", newline="") as summary_file:
        summary_writer = csv.writer(summary_file, lineterminator="\n")
        summary_writer.writerow(
            [
                "benchmark",
                "method",
                "eta",
                "num-runs",
                "mean-best-normalized",
                "stderr-best-normalized",
                "selected",
            ]
        )
        for method_index, method in enumerate(spec.methods):
            cells = []
            for eta_index, eta in enumerate(spec.eta_grid):
                values = per_cell.get((method_index, eta_index))
                if not values:
                    continue
                mean = float(np.mean(values))
                stderr = (
                    float(np.std(values, ddof=1) / math.sqrt(len(values)))
                    if len(values) > 1
                    else 0.0
                )
                cells.append((eta_index, eta, len(values), mean, stderr))
            if not cells:
                continue
            best_index = min(range(len(cells)), key=lambda i: (cells[i][3], i))
            for i, (eta_index, eta, count, mean, stderr) in enumerate(cells):
                summary_writer.writerow(
                    [
                        spec.family,
                        method.name,
                        _fmt(eta),
                        count,
                        _fmt(mean),
                        _fmt(stderr),
                        1 if i == best_index else 0,
                    ]
                )

    return ExperimentResult(
        output_dir=out,
        trace_path=trace_path,
        runs_path=runs_path,
        summary_path=summary_path,
        num_runs=len(outcomes),
        num_failures=num_failures,
    )


# --- query scaling probe ---


def query_scaling_probe(d_list, s_list, repeats: int = 5, seed: int = 0) -> list:
    """Mean queries per estimate on planted sparse linear objectives.

    Returns rows (d, s, mean queries, s * log2 log2(d/s)); the logs are
    base 2 because each shrink iteration keeps at most ceil(size/2)
    members.  The predictor is NaN when d/s is too small for the double
    logarithm.
    """
    if not d_list or not s_list:
        raise ValueError("need nonempty d and s lists")
    if repeats < 1:
        raise ValueError(f"need repeats >= 1, got {repeats}")
    rows = []
    for d in d_list:
        for s in s_list:
            if s > d:
                continue
            total = 0
            for repeat in range(repeats):
                rng = RngStream(seed).derive(d, s, repeat)
                instance = make_planted_linear(d, s, rng.derive(0))
                cfg = GraceConfig.defaults(d, s, epsilon=1e-3)
                estimate = grace_estimate(instance.objective, instance.x1, cfg, rng.derive(1))
                total += estimate.queries_used
            ratio = d / s
            predictor = s * math.log2(math.log2(ratio)) if ratio > 2.0 else math.nan
            rows.append((d, s, total / repeats, predictor))
    return rows


def scaling_correlation(rows) -> float:
    """Pearson correlation between mean queries and the predictor column."""
    usable = [(queries, predictor) for _, _, queries, predictor in rows if math.isfinite(predictor)]
    if len(usable) < 2:
        return math.nan
    queries, predictors = zip(*usable)
    return float(np.corrcoef(queries, predictors)[0, 1])


def write_scaling_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["d", "s", "mean-queries", "s-loglog-d-over-s"])
        for d, s, mean_queries, predictor in rows:
            writer.writerow([d, s, _fmt(mean_queries), _fmt(predictor)])
