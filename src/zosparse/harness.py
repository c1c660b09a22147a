"""Experiment orchestration: config files, sweeps, CSV traces, the scaling probe.

An experiment is a cartesian sweep over instance seeds, run seeds,
methods, and step sizes, every run capped at the same query budget.
Results land in three CSV files: ``trace.csv`` (one row per recorded
step), ``runs.csv`` (one status row per run, failures included), and
``summary.csv`` (per method and step size: mean and standard error of
the best normalized objective, with the winning step size marked).

Each spec section has one key table (:data:`EXPERIMENT_KEYS`,
:data:`METHOD_KEYS`, a family's ``keys``) mapping each key to the parser of
its value.  :func:`_typed` alone applies them, alike to INI text and to the
values of an :class:`ExperimentSpec` built in Python, so that a bad value
raises :class:`ExperimentSpecError` before any cell runs.

Output is deterministic byte for byte: rows are sorted by key rather
than completion order, and :func:`_write_csv` writes every file, the
scaling grid's too, in one format: UTF-8, bare newlines, a header row,
and floats with 17 significant digits.
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
from .blackbox import FAMILIES, _Integer, _real, load_graph
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


def _nonempty(parse):
    """Parser of a nonempty list, from whitespace-separated text or a Python list, by parse."""

    def parse_list(value) -> list:
        values = [parse(item) for item in (value.split() if isinstance(value, str) else value)]
        if not values:
            raise ValueError("need a nonempty list")
        return values

    return parse_list


# Each section's keys with the parsers of their values; a baseline's keys
# are the OptimizerConfig fields of the same name, and each [experiment] key
# is the ExperimentSpec field with - for _.
_COUNT, _SEEDS = _Integer(1), _nonempty(_Integer(0))
METHOD_KEYS = {
    "grace": {"s": _COUNT, "epsilon": _real, "n": _COUNT, "m": _COUNT, "d1": _Integer(2)},
    "rs": {"mu": _real},
    "zo-signsgd": {"mu": _real, "directions": _COUNT},
    "gld": {"scales": _COUNT},
}
EXPERIMENT_KEYS = {"budget": _COUNT, "max-steps": _COUNT, "eta-grid": _nonempty(_real)}
EXPERIMENT_KEYS.update({"instance-seeds": _SEEDS, "run-seeds": _SEEDS, "output": str})
_EXPERIMENT_REQUIRED = ("budget", "eta-grid", "instance-seeds", "run-seeds")


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
    """params with each value read by its key's parser; unknown and missing keys raise."""
    typed = {}
    for key, value in params.items():
        if key not in keys:
            raise ExperimentSpecError(f"[{section}] unknown key {key!r}; expected {sorted(keys)}")
        try:
            typed[key] = keys[key](value)
        except (TypeError, ValueError, OverflowError) as err:  # float(10**400) overflows
            raise ExperimentSpecError(f"[{section}] {key}: {err}") from None
    for key in required:
        if key not in typed:
            raise ExperimentSpecError(f"[{section}] needs a {key} key")
    return typed


def _as_fields(exp: dict) -> dict:
    """[experiment] values keyed by their ExperimentSpec fields: each key with - for _."""
    return {key.replace("-", "_"): value for key, value in exp.items()}


def _checked(spec: ExperimentSpec) -> ExperimentSpec:
    """spec, each value read by its key's parser; rejects what each cell would fail or ignore."""
    families = tuple(FAMILIES)
    if spec.family not in families:
        raise ExperimentSpecError(f"[family] unknown family {spec.family!r}; expected {families}")
    given = {key: getattr(spec, key.replace("-", "_")) for key in EXPERIMENT_KEYS}
    given = {key: value for key, value in given.items() if value is not None}
    exp = _typed("experiment", EXPERIMENT_KEYS, _EXPERIMENT_REQUIRED, given)
    methods = []
    for method in spec.methods:
        section = f"method:{method.name}"
        if method.method not in METHOD_KEYS:
            raise ExperimentSpecError(f"[{section}] unknown method {method.method!r}")
        params = _typed(section, METHOD_KEYS[method.method], (), method.params)
        methods.append(replace(method, params=params))
    row = FAMILIES[spec.family]
    family_params = _typed("family", row.keys, row.required, spec.family_params)
    return replace(spec, family_params=family_params, methods=methods, **_as_fields(exp))


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
    exp = _typed("experiment", EXPERIMENT_KEYS, _EXPERIMENT_REQUIRED, dict(parser["experiment"]))

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
    return _checked(ExperimentSpec(fam["name"], family_params, methods, **_as_fields(exp)))


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
    """One (instance seed, run seed, method, eta) cell, in a worker.

    Returns the cell's key with its trace rows and best value, or with its
    error text when the run failed.
    """
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
        return key, f"{type(err).__name__}: {err}"
    rows = [(r.step, r.queries, r.value, r.normalized) for r in trace.records]
    return key, (rows, trace.best_value)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, header, rows) -> None:
    """header, then each row, in UTF-8 with bare newlines; floats get 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)


def _run_row(outcome) -> tuple:
    """A run's status, steps, queries, best value, best normalized and detail.

    An ok run has at least one trace row: the budget and step limit are >= 1,
    and every method records its first value.
    """
    if isinstance(outcome, str):
        return "failed", "", "", "", "", outcome
    rows, best_value = outcome
    initial = rows[0][2]
    best_normalized = best_value / initial if initial != 0.0 else math.nan
    return "ok", len(rows), rows[-1][1], best_value, best_normalized, ""


def _summary_rows(spec: ExperimentSpec, outcomes):
    """Per method and eta with an ok run: mean and stderr of best normalized, best mean marked."""
    per_cell: dict = {}  # (method_index, eta_index) -> each ok run's best normalized
    for (method_index, _, _, eta_index), outcome in outcomes:
        if not isinstance(outcome, str):
            per_cell.setdefault((method_index, eta_index), []).append(_run_row(outcome)[4])
    for method_index, method in enumerate(spec.methods):
        cells = []
        for eta_index, eta in enumerate(spec.eta_grid):
            values = per_cell.get((method_index, eta_index))
            if values:
                stderr = np.std(values, ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
                cells.append((_fmt(eta), len(values), float(np.mean(values)), float(stderr)))
        if cells:
            best = min(range(len(cells)), key=lambda i: (cells[i][2], i))
            for i, cell in enumerate(cells):
                yield (spec.family, method.name, *cell, 1 if i == best else 0)


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
    # Per run: its shared columns (benchmark, method, seeds, eta) and outcome.
    runs = [
        ((spec.family, spec.methods[m].name, seed, run_seed, _fmt(spec.eta_grid[e])), outcome)
        for (m, seed, run_seed, e), outcome in outcomes
    ]

    out = resolve_output_dir(output_dir, spec.output)
    out.mkdir(parents=True, exist_ok=True)
    shared = ("benchmark", "method", "instance-seed", "run-seed", "eta")
    trace_header = (*shared, "step", "cumulative-queries", "f-value", "normalized-objective")
    trace = (
        (*cells, *row)
        for cells, outcome in runs
        if not isinstance(outcome, str)
        for row in outcome[0]
    )
    _write_csv(out / "trace.csv", trace_header, trace)
    runs_header = (*shared, "status", "steps", "queries", "best-value", "best-normalized", "detail")
    _write_csv(out / "runs.csv", runs_header, ((*cells, *_run_row(o)) for cells, o in runs))
    summary_header = ("benchmark", "method", "eta", "num-runs", "mean-best-normalized")
    summary_header += ("stderr-best-normalized", "selected")
    _write_csv(out / "summary.csv", summary_header, _summary_rows(spec, outcomes))

    return ExperimentResult(
        output_dir=out,
        trace_path=out / "trace.csv",
        runs_path=out / "runs.csv",
        summary_path=out / "summary.csv",
        num_runs=len(outcomes),
        num_failures=sum(isinstance(outcome, str) for _, outcome in outcomes),
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
    _write_csv(path, ("d", "s", "mean-queries", "s-loglog-d-over-s"), rows)
