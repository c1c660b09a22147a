"""Experiment files, sweep execution, CSV output, CLI, verification."""

import configparser
import csv
import dataclasses
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zosparse.blackbox import (
    FAMILIES,
    BlackBoxFunction,
    load_graph,
    make_attack,
    make_distance,
    make_magnitude,
    make_planted_linear,
)
from zosparse import harness
from zosparse.cli import main
from zosparse.harness import (
    METHOD_KEYS,
    ExperimentSpec,
    ExperimentSpecError,
    MethodSpec,
    parse_spec,
    query_scaling_probe,
    resolve_output_dir,
    run_experiment,
    scaling_correlation,
    write_scaling_csv,
)
from zosparse.rng import RngStream
from zosparse.theory import verify_theory

PATH_3 = "3 2\n1 2\n2 3\n"
# An 8-vertex ring with three chords: d = 64, every degree at least 2.
RING_8 = "8 11\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n1 8\n1 5\n2 6\n3 7\n"

# What `zosparse verify` prints at the reference set, byte for byte.
VERIFY_OUTPUT = """\
PASS  ratio-test constant C1: 2.289547
PASS  C1 closed-form argmax ln(1/t): 0.648887 (margin gap 0.00e+00)
PASS  dominance constant C2: 134.8521
PASS  reduction over prior constant: 4295.5
PASS  schedule feasibility at defaults: x1=2.75086, A=1.03170
PASS  theoretical schedule (10 terms): starts [18, 29, 48, 83], nondecreasing=True, \
above lower bound=True, step mass monotone=True
PASS  practical schedule from 20: [20, 89, 839]
PASS  isolation inequality grid: 33885 combinations, 0 failures
PASS  partition probabilities (d <= 6, exact): 2588 tuples, 0 failures
PASS  overall
"""

# Spec keys that break no range check but that no family or method reads,
# each with the section it goes into.
UNREAD_KEYS = [
    ("[method:odd]\nmethod = rs", "color = red"),
    ("[method:odd]\nmethod = grace", "batch = 2"),
    ("[method:odd]\nmethod = grace", "directions = 3"),
    ("[method:odd]\nmethod = gld", "mu = 0.5"),
    ("[family]", "hops = 4"),
    ("[family]", "lam = 0.5"),
    ("[experiment]", "max_steps = 3"),
    ("[experiment]", "seeds = 1 2"),
]

# Sections parse_spec does not read, each with the name its error gives.
UNREAD_SECTIONS = [
    ("[methods:b]\nmethod = rs", "methods:b"),
    ("[runs]\ncount = 2", "runs"),
    ("[DEFAULT]\nfoo = 1", "DEFAULT"),
]

# Values that fail in every cell whatever d is, each with its method; the
# experiment's eta-grid is checked with them.
OUT_OF_RANGE = [
    ("grace", "epsilon", "0.0"),
    ("grace", "epsilon", "-0.001"),
    ("grace", "epsilon", "nan"),
    ("grace", "epsilon", "inf"),
    ("grace", "n", "0"),
    ("grace", "m", "0"),
    ("grace", "d1", "1"),
    ("grace", "s", "0"),
    ("rs", "mu", "-1"),
    ("rs", "mu", "inf"),
    ("zo-signsgd", "mu", "nan"),
    ("zo-signsgd", "directions", "0"),
    ("gld", "scales", "0"),
]


def with_unread(text, header, line):
    """text with line added to section header, appended when header is new."""
    if header in ("[family]", "[experiment]"):
        return text.replace(f"{header}\n", f"{header}\n{line}\n")
    return text + f"\n{header}\n{line}\n"


def small_spec(**overrides):
    base = dict(
        family="distance",
        family_params={"d": 16, "s": 3},
        methods=[MethodSpec("grace", "grace", {}), MethodSpec("gld", "gld", {})],
        instance_seeds=[1, 2],
        run_seeds=[5],
        budget=200,
        eta_grid=[0.2, 0.05],
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def serialize_spec(spec):
    """Render a spec as the INI document parse_spec reads back unchanged."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str

    def fmt(value):
        return repr(value) if isinstance(value, float) else str(value)

    parser["experiment"] = {
        "budget": str(spec.budget),
        "eta-grid": " ".join(repr(eta) for eta in spec.eta_grid),
        "instance-seeds": " ".join(str(s) for s in spec.instance_seeds),
        "run-seeds": " ".join(str(s) for s in spec.run_seeds),
    }
    if spec.max_steps is not None:
        parser["experiment"]["max-steps"] = str(spec.max_steps)
    if spec.output is not None:
        parser["experiment"]["output"] = spec.output
    parser["family"] = {"name": spec.family}
    for key, value in spec.family_params.items():
        parser["family"][key] = fmt(value)
    for method in spec.methods:
        section = f"method:{method.name}"
        parser[section] = {"method": method.method}
        for key, value in method.params.items():
            parser[section][key] = fmt(value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


# Values for each key type a spec reads: any int, any finite float, and
# text that an INI value holds without quoting.
TEXT = st.from_regex(r"[A-Za-z0-9_./-]{1,16}", fullmatch=True)
DRAWS = {
    int: st.integers(-(10**12), 10**12),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: TEXT,
}
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
SEEDS = st.lists(st.integers(0, 2**63), min_size=1, max_size=3)


def drawn_params(keys, required):
    """Strategy for a params dict: every required key, any subset of the rest."""
    return st.fixed_dictionaries(
        {key: DRAWS[keys[key]] for key in required},
        optional={key: DRAWS[kind] for key, kind in keys.items() if key not in required},
    )


def method_params(method):
    """Strategy for a method's params: any subset of its keys, each within its spec range."""
    least = {"d1": 2}  # Counts start at 1, the first divisor at 2; floats are finite and > 0.
    return st.fixed_dictionaries(
        {},
        optional={
            key: POSITIVE if kind is float else st.integers(least.get(key, 1), 10**12)
            for key, kind in METHOD_KEYS[method].items()
        },
    )


@st.composite
def specs(draw):
    """Valid specs over every family of FAMILIES and every method of METHOD_KEYS."""
    family = draw(st.sampled_from(list(FAMILIES)))
    label = st.from_regex(r"[a-z][a-z0-9-]{0,7}", fullmatch=True)
    names = draw(st.lists(label, min_size=1, max_size=4, unique=True))
    methods = []
    for name in names:
        method = draw(st.sampled_from(list(METHOD_KEYS)))
        methods.append(MethodSpec(name, method, draw(method_params(method))))
    return ExperimentSpec(
        family=family,
        family_params=draw(drawn_params(FAMILIES[family].keys, FAMILIES[family].required)),
        methods=methods,
        instance_seeds=draw(SEEDS),
        run_seeds=draw(SEEDS),
        budget=draw(st.integers(1, 10**12)),
        eta_grid=draw(st.lists(POSITIVE, min_size=1, max_size=3)),
        max_steps=draw(st.none() | st.integers(1, 10**12)),
        output=draw(st.none() | TEXT),
    )


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


class TestSpecDocuments:
    def test_round_trip_equality(self):
        spec = small_spec(
            max_steps=40,
            output="somewhere",
            methods=[
                MethodSpec("tuned", "grace", {"s": 3, "epsilon": 1e-05, "d1": 10}),
                MethodSpec("sign", "zo-signsgd", {"directions": 5, "mu": 0.5}),
            ],
        )
        assert parse_spec(serialize_spec(spec)) == spec

    def test_attack_round_trip(self):
        spec = small_spec(
            family="attack",
            family_params={"graph": "g.txt", "u": 1, "v": 3, "hops": 2, "lam": 0.25},
        )
        assert parse_spec(serialize_spec(spec)) == spec

    def test_missing_sections(self):
        with pytest.raises(ExperimentSpecError, match="experiment"):
            parse_spec("[family]\nname = distance\n")

    def test_bad_budget(self):
        text = serialize_spec(small_spec()).replace("budget = 200", "budget = soon")
        with pytest.raises(ExperimentSpecError, match="budget"):
            parse_spec(text)

    def test_unknown_family(self):
        text = serialize_spec(small_spec()).replace("name = distance", "name = maze")
        with pytest.raises(ExperimentSpecError, match="maze"):
            parse_spec(text)

    def test_unknown_key_rejected(self):
        for header, line in UNREAD_KEYS:
            text = with_unread(serialize_spec(small_spec()), header, line)
            with pytest.raises(ExperimentSpecError, match=line.split()[0]):
                parse_spec(text)
        for section, name in UNREAD_SECTIONS:
            with pytest.raises(ExperimentSpecError, match=name):
                parse_spec(serialize_spec(small_spec()) + f"\n{section}\n")

    @pytest.mark.parametrize("key", ["instance-seeds", "run-seeds"])
    def test_negative_seeds_rejected(self, key, tmp_path):
        seeds = {key.replace("-", "_"): [3, -1]}
        text = serialize_spec(small_spec(**seeds))
        with pytest.raises(ExperimentSpecError, match=rf"\[experiment\] {key}: need seeds >= 0"):
            parse_spec(text)
        with pytest.raises(ExperimentSpecError, match=key):
            run_experiment(small_spec(**seeds), output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_needs_a_method_section(self):
        spec = small_spec()
        text = "\n".join(
            line
            for line in serialize_spec(spec).splitlines()
            if not line.startswith("[method:") and not line.startswith("method =")
        )
        with pytest.raises(ExperimentSpecError, match="method"):
            parse_spec(text)

    def test_empty_eta_grid_rejected(self):
        text = serialize_spec(small_spec()).replace("eta-grid = 0.2 0.05", "eta-grid =")
        with pytest.raises(ExperimentSpecError, match="eta-grid"):
            parse_spec(text)

    @pytest.mark.parametrize("eta", ["nan", "inf", "0.1 -inf", "0"])
    def test_eta_grid_must_be_finite_and_positive(self, eta):
        text = serialize_spec(small_spec()).replace("eta-grid = 0.2 0.05", f"eta-grid = {eta}")
        with pytest.raises(ExperimentSpecError, match=r"\[experiment\] eta-grid"):
            parse_spec(text)

    @pytest.mark.parametrize("method, key, value", OUT_OF_RANGE)
    def test_method_values_that_fail_in_every_cell_are_rejected(self, method, key, value, tmp_path):
        odd = f"\n[method:odd]\nmethod = {method}\n{key} = {value}\n"
        text = serialize_spec(small_spec()) + odd
        with pytest.raises(ExperimentSpecError, match=rf"\[method:odd\] {key}: need"):
            parse_spec(text)
        spec = small_spec(methods=[MethodSpec("odd", method, {key: value})])
        with pytest.raises(ExperimentSpecError, match=rf"\[method:odd\] {key}: need"):
            run_experiment(spec, output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_float_params_survive_exactly(self):
        spec = small_spec(methods=[MethodSpec("rs", "rs", {"mu": 0.1 + 0.2})])
        rebuilt = parse_spec(serialize_spec(spec))
        assert rebuilt.methods[0].params["mu"] == 0.1 + 0.2

    @settings(max_examples=200, deadline=None)
    @given(specs())
    def test_round_trip_over_drawn_specs(self, spec):
        assert parse_spec(serialize_spec(spec)) == spec



class TestRunExperiment:
    def test_counts_and_files(self, tmp_path):
        result = run_experiment(small_spec(), output_dir=tmp_path / "out")
        assert result.num_runs == 8  # 2 methods x 2 instances x 1 run seed x 2 etas
        assert result.num_failures == 0
        for path in (result.trace_path, result.runs_path, result.summary_path):
            assert path.exists()
        assert len(read_csv(result.summary_path)) == 4  # 2 methods x 2 etas

    def test_single_run_summary_degenerates(self, tmp_path):
        spec = small_spec(instance_seeds=[1], run_seeds=[2], eta_grid=[0.1])
        result = run_experiment(spec, output_dir=tmp_path / "out")
        runs = read_csv(result.runs_path)
        summary = read_csv(result.summary_path)
        assert len(runs) == 2 and len(summary) == 2
        for method_row in summary:
            matching = [
                r for r in runs if r["method"] == method_row["method"] and r["status"] == "ok"
            ]
            assert len(matching) == 1
            assert float(method_row["mean-best-normalized"]) == pytest.approx(
                float(matching[0]["best-normalized"]), abs=1e-15
            )
            assert float(method_row["stderr-best-normalized"]) == 0.0
            assert method_row["selected"] == "1"

    def test_summary_recomputable_from_runs(self, tmp_path):
        result = run_experiment(small_spec(), output_dir=tmp_path / "out")
        runs = read_csv(result.runs_path)
        for row in read_csv(result.summary_path):
            values = [
                float(r["best-normalized"])
                for r in runs
                if r["method"] == row["method"] and r["eta"] == row["eta"]
            ]
            assert len(values) == int(row["num-runs"])
            assert float(row["mean-best-normalized"]) == pytest.approx(
                float(np.mean(values)), abs=1e-12
            )
            expected_se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
            assert float(row["stderr-best-normalized"]) == pytest.approx(expected_se, abs=1e-12)

    def test_selected_marks_minimal_mean(self, tmp_path):
        result = run_experiment(small_spec(), output_dir=tmp_path / "out")
        summary = read_csv(result.summary_path)
        for method in {row["method"] for row in summary}:
            rows = [row for row in summary if row["method"] == method]
            chosen = [row for row in rows if row["selected"] == "1"]
            assert len(chosen) == 1
            best = min(float(row["mean-best-normalized"]) for row in rows)
            assert float(chosen[0]["mean-best-normalized"]) == best

    def test_trace_consistent_with_runs(self, tmp_path):
        result = run_experiment(small_spec(), output_dir=tmp_path / "out")
        trace = read_csv(result.trace_path)
        for run in read_csv(result.runs_path):
            key = (run["method"], run["instance-seed"], run["run-seed"], run["eta"])
            rows = [
                t
                for t in trace
                if (t["method"], t["instance-seed"], t["run-seed"], t["eta"]) == key
            ]
            assert len(rows) == int(run["steps"])
            assert min(float(t["f-value"]) for t in rows) == pytest.approx(
                float(run["best-value"]), abs=1e-15
            )

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = small_spec()
        a = run_experiment(spec, output_dir=tmp_path / "a")
        b = run_experiment(spec, output_dir=tmp_path / "b")
        for first, second in [
            (a.trace_path, b.trace_path),
            (a.runs_path, b.runs_path),
            (a.summary_path, b.summary_path),
        ]:
            assert first.read_bytes() == second.read_bytes()

    def test_attack_csvs_alike_with_hooks_stripped(self, tmp_path, monkeypatch):
        # Attack's hook, and the +inf guard that carries it, change how a
        # step's points are sent, never a byte that a run writes.
        (tmp_path / "g.txt").write_text(RING_8, encoding="utf-8")
        spec = small_spec(
            family="attack",
            family_params={"graph": str(tmp_path / "g.txt")},
            methods=[MethodSpec(m, m, {}) for m in ("grace", "rs", "zo-signsgd", "gld")],
            instance_seeds=[1],
            run_seeds=[5, 6],
            eta_grid=[0.05],
            budget=90,
        )
        hooked = run_experiment(spec, output_dir=tmp_path / "hooked")
        row = FAMILIES["attack"]

        def build(params, rng):
            instance = row.build(params, rng)
            assert instance.objective.batch is not None
            instance.objective = BlackBoxFunction(instance.objective.dim, instance.objective.eval)
            return instance

        monkeypatch.setitem(FAMILIES, "attack", dataclasses.replace(row, build=build))
        plain = run_experiment(spec, output_dir=tmp_path / "plain")
        assert plain.num_failures == hooked.num_failures == 0
        for first, second in [
            (hooked.trace_path, plain.trace_path),
            (hooked.runs_path, plain.runs_path),
            (hooked.summary_path, plain.summary_path),
        ]:
            assert first.read_bytes() == second.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        spec = small_spec()
        serial = run_experiment(spec, output_dir=tmp_path / "serial", jobs=1)
        parallel = run_experiment(spec, output_dir=tmp_path / "parallel", jobs=2)
        assert serial.trace_path.read_bytes() == parallel.trace_path.read_bytes()
        assert serial.summary_path.read_bytes() == parallel.summary_path.read_bytes()

    @pytest.mark.parametrize(
        "jobs, cells, workers", [(64, 3, [3]), (2, 3, [2]), (64, 1, []), (1, 3, [])]
    )
    def test_pool_has_at_most_one_worker_per_cell(
        self, jobs, cells, workers, tmp_path, monkeypatch
    ):
        # A stand-in pool notes the worker count it is asked for and runs the
        # cells in this process, so that no worker process starts.
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        spec = small_spec(
            methods=[MethodSpec("grace", "grace", {})],
            instance_seeds=[1],
            eta_grid=[0.2, 0.1, 0.05][:cells],
        )
        result = run_experiment(spec, output_dir=tmp_path / "pool", jobs=jobs)
        assert asked == workers
        serial = run_experiment(spec, output_dir=tmp_path / "serial", jobs=1)
        assert result.num_runs == cells
        assert result.trace_path.read_bytes() == serial.trace_path.read_bytes()

    def test_failing_runs_become_failed_rows(self, tmp_path):
        spec = small_spec(family_params={"d": 4, "s": 9})  # s > d fails in-instance
        result = run_experiment(spec, output_dir=tmp_path / "out")
        assert result.num_failures == result.num_runs == 8
        runs = read_csv(result.runs_path)
        assert all(row["status"] == "failed" for row in runs)
        assert all("s=9" in row["detail"] for row in runs)
        assert read_csv(result.summary_path) == []

    def test_attack_needs_graph_param(self, tmp_path):
        spec = small_spec(family="attack", family_params={})
        with pytest.raises(ExperimentSpecError, match="graph"):
            run_experiment(spec, output_dir=tmp_path / "out")

    def test_attack_family_runs(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(PATH_3, encoding="utf-8")
        spec = small_spec(
            family="attack",
            family_params={"graph": str(graph_file), "hops": 2},
            methods=[MethodSpec("grace", "grace", {"s": 2})],
            instance_seeds=[1],
            eta_grid=[0.1],
            budget=120,
        )
        result = run_experiment(spec, output_dir=tmp_path / "out")
        assert result.num_failures == 0
        assert read_csv(result.runs_path)[0]["status"] == "ok"

    def test_attack_reads_inf_at_a_zero_degree_through_the_sweep(self, tmp_path):
        # On the path graph a grace step can leave a vertex with no weight.
        # The objective reads +inf there, so the run fails on its next
        # estimate's base value; every other cell runs.
        (tmp_path / "g.txt").write_text(PATH_3, encoding="utf-8")
        spec = small_spec(
            family="attack",
            family_params={"graph": str(tmp_path / "g.txt"), "hops": 2},
            methods=[MethodSpec(m, m, {}) for m in ("grace", "rs", "gld")],
            instance_seeds=[1, 2],
            run_seeds=[1, 2],
            eta_grid=[0.5, 1.0, 2.0, 4.0],
            budget=60,
        )
        result = run_experiment(spec, output_dir=tmp_path / "out")
        assert (result.num_runs, result.num_failures) == (48, 1)
        failed = [
            (row["method"], row["eta"], row["instance-seed"], row["run-seed"], row["detail"])
            for row in read_csv(result.runs_path)
            if row["status"] == "failed"
        ]
        detail = "ValueError: need a finite f(x) at the estimate's point, got inf"
        cells = ["0.5 1 1"]  # eta, instance seed, run seed
        assert sorted(failed) == sorted(("grace", *cell.split(), detail) for cell in cells)


# Two sweeps whose CSV bytes are pinned, each with its four methods: the
# path-graph attack spec of CI, whose grace cell (eta 0.5, seeds 1 1) fails
# on a +inf base value and whose zo-signsgd runs write inf and nan rows, and
# a small distance spec, whose hook batches the probes and baseline steps.
PINNED_SWEEPS = {
    "path": (
        "[experiment]\nbudget = 60\neta-grid = 0.5 1 2 4\n"
        "instance-seeds = 1 2\nrun-seeds = 1 2\n"
        "[family]\nname = attack\ngraph = g.txt\nhops = 2\n",
        {
            "trace.csv": "4040b82c062dc0f1e8089f788d2c6ad273c74be7867956823ff1bf3b1e11f034",
            "runs.csv": "be4a6aec56837bdadd2a1e1926d3ead78fdfdd0a5ff7181b2c1bc050a219c9e8",
            "summary.csv": "9fca398eed37b072d68ce62c2d5c62d2d232bf8df0f78d8f6aedc080d9853b72",
        },
    ),
    "distance": (
        "[experiment]\nbudget = 120\neta-grid = 0.5 0.1\n"
        "instance-seeds = 1 2\nrun-seeds = 3\n"
        "[family]\nname = distance\nd = 64\ns = 5\n",
        {
            "trace.csv": "ac786ca05a21872bb3c6852df5a6df79ee967a6c9768211baec9e97040a75ee0",
            "runs.csv": "15dcf77d193a780c3d23582d1745872b3104714e467e3aede0ff9aaaf2a944fb",
            "summary.csv": "4c0492ce91e702b27ee758d70278c1e4151ca6ffa4ee6d0dfc59f99978afc574",
        },
    ),
}


class TestPinnedCsvBytes:
    # Like the pins in test_pinned_outputs.py, these rest on numpy's
    # Generator streams, which may change between numpy versions.

    # zo-signsgd's sum at a +inf value warns and writes a nan iterate, as the
    # CLI does; an error filter would turn that run into a failed row.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", list(PINNED_SWEEPS))
    def test_sweep_csvs_are_pinned(self, name, tmp_path, monkeypatch):
        text, digests = PINNED_SWEEPS[name]
        (tmp_path / "g.txt").write_text(PATH_3, encoding="utf-8")
        methods = "".join(
            f"\n[method:{m}]\nmethod = {m}\n" for m in ("grace", "rs", "zo-signsgd", "gld")
        )
        monkeypatch.chdir(tmp_path)
        result = run_experiment(parse_spec(text + methods), output_dir=tmp_path / "out")
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (result.trace_path, result.runs_path, result.summary_path)
        }
        assert written == digests

    def test_scaling_csv_bytes(self, tmp_path):
        rows = [(4, 2, 3.0, math.nan), (256, 4, 21.2, 4 * math.log2(6))]
        rows.append((1024, 32, 1 / 3, math.inf))
        write_scaling_csv(rows, tmp_path / "scaling.csv")
        assert (tmp_path / "scaling.csv").read_bytes() == (
            b"d,s,mean-queries,s-loglog-d-over-s\n"
            b"4,2,3,nan\n"
            b"256,4,21.199999999999999,10.339850002884624\n"
            b"1024,32,0.33333333333333331,inf\n"
        )


# Per spec family: its keys in a spec, and the same instance made by the
# maker with the defaults spelled out, at instance seed 4.
EXPECTED_BUILDS = {
    "distance": ({"d": 16, "s": 3}, lambda graph: make_distance(16, 3, RngStream(4))),
    "magnitude": ({"d": 16, "s": 3}, lambda graph: make_magnitude(16, 3, 0.1, 0.2, RngStream(4))),
    "attack": ({"graph": "g.txt"}, lambda graph: make_attack(graph, 1, 2, 4, 100.0 / 3**2)),
    "planted-linear": ({"d": 16, "s": 3}, lambda graph: make_planted_linear(16, 3, RngStream(4))),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_spec_builds_the_maker_with_its_defaults(family, tmp_path, monkeypatch):
    (tmp_path / "g.txt").write_text(PATH_3, encoding="utf-8")
    params, make = EXPECTED_BUILDS[family]
    params = {k: str(tmp_path / v) if k == "graph" else v for k, v in params.items()}
    row, built = FAMILIES[family], []

    def build(p, rng):
        built.append(row.build(p, rng))
        return built[-1]

    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(row, build=build))
    spec = small_spec(
        family=family,
        family_params=params,
        methods=[MethodSpec("gld", "gld", {})],
        instance_seeds=[4],
        eta_grid=[0.1],
        budget=10,
    )
    run_experiment(spec, output_dir=tmp_path / "out")
    (instance,) = built
    expected = make(load_graph(PATH_3))
    np.testing.assert_array_equal(instance.x1, expected.x1)
    points = 0.1 * RngStream(0).gen.standard_normal((4, instance.objective.dim))
    for x in [instance.x1, *points]:
        assert instance.objective(x) == expected.objective(x)


class TestOutputResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("ZOSPARSE_OUT", "/env")
        assert resolve_output_dir("/arg", "/spec") == Path("/arg")

    def test_spec_over_environment(self, monkeypatch):
        monkeypatch.setenv("ZOSPARSE_OUT", "/env")
        assert resolve_output_dir(None, "/spec") == Path("/spec")

    def test_environment_over_default(self, monkeypatch):
        monkeypatch.setenv("ZOSPARSE_OUT", "/env")
        assert resolve_output_dir(None, None) == Path("/env")

    def test_default(self, monkeypatch):
        monkeypatch.delenv("ZOSPARSE_OUT", raising=False)
        assert resolve_output_dir(None, None) == Path("results")


class TestVerifyTheory:
    def test_all_checks_pass(self):
        report = verify_theory()
        assert report.all_passed
        assert len(report.checks) == 9

    def test_render_lists_every_check(self):
        report = verify_theory()
        text = report.render()
        assert text.count("PASS") == len(report.checks) + 1  # per check plus overall
        assert text.strip().endswith("overall")


class TestScalingProbe:
    def test_rows_cover_grid(self):
        rows = query_scaling_probe([32, 64], [2, 4], repeats=2, seed=1)
        assert [(d, s) for d, s, _, _ in rows] == [(32, 2), (32, 4), (64, 2), (64, 4)]
        for _, _, mean_queries, predictor in rows:
            assert mean_queries > 0
            assert math.isfinite(predictor)

    def test_skips_oversparse_cells(self):
        rows = query_scaling_probe([4], [2, 8], repeats=1)
        assert [(d, s) for d, s, _, _ in rows] == [(4, 2)]

    def test_predictor_nan_when_ratio_too_small(self):
        rows = query_scaling_probe([4], [2], repeats=1)
        assert math.isnan(rows[0][3])  # d/s = 2 leaves no room for log log

    def test_rejects_empty_grid_or_repeats(self):
        with pytest.raises(ValueError):
            query_scaling_probe([], [2])
        with pytest.raises(ValueError):
            query_scaling_probe([8], [2], repeats=0)

    def test_correlation_on_synthetic_rows(self):
        rows = [(0, 0, 2.0 * p, p) for p in (1.0, 2.0, 3.0, 4.0)]
        assert scaling_correlation(rows) == pytest.approx(1.0)

    def test_correlation_nan_without_finite_pairs(self):
        assert math.isnan(scaling_correlation([(4, 2, 10.0, math.nan)]))

    def test_csv_layout(self, tmp_path):
        rows = query_scaling_probe([32], [2], repeats=1)
        out = tmp_path / "scaling.csv"
        write_scaling_csv(rows, out)
        written = read_csv(out)
        assert len(written) == 1
        assert set(written[0]) == {"d", "s", "mean-queries", "s-loglog-d-over-s"}


class TestCli:
    def write_spec(self, tmp_path, spec):
        path = tmp_path / "experiment.ini"
        path.write_text(serialize_spec(spec), encoding="utf-8")
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        spec_path = self.write_spec(
            tmp_path, small_spec(instance_seeds=[1], eta_grid=[0.1], budget=100)
        )
        code = main(["run", str(spec_path), "--jobs", "1", "--output", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs, 0 failed" in out
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_run_reports_failures_in_exit_code(self, tmp_path):
        spec_path = self.write_spec(
            tmp_path,
            small_spec(family_params={"d": 4, "s": 9}, instance_seeds=[1], eta_grid=[0.1]),
        )
        code = main(["run", str(spec_path), "--jobs", "1", "--output", str(tmp_path / "out")])
        assert code == 1

    def test_run_resolves_graph_relative_to_spec(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text(PATH_3, encoding="utf-8")
        spec = small_spec(
            family="attack",
            family_params={"graph": "g.txt", "hops": 1},
            methods=[MethodSpec("gld", "gld", {})],
            instance_seeds=[1],
            eta_grid=[0.1],
            budget=60,
        )
        spec_path = self.write_spec(tmp_path, spec)
        code = main(["run", str(spec_path), "--jobs", "1", "--output", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("key", ["instance-seeds", "run-seeds"])
    def test_run_negative_seed_is_usage_error(self, key, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, small_spec(**{key.replace("-", "_"): [-1]}))
        code = main(["run", str(spec_path), "--jobs", "1", "--output", str(tmp_path / "out")])
        assert code == 2
        assert f"{key}: need seeds >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any cell ran

    def test_run_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_run_invalid_spec_is_usage_error(self, tmp_path, capsys):
        good = serialize_spec(small_spec())
        texts = [
            "[experiment]\nbudget = -3\n",
            good.replace("method = gld", "method = newton"),
            good.replace("s = 3\n", ""),
            good.replace("name = distance", "name = attack").replace("d = 16\ns = 3\n", ""),
            good.replace("budget = 200", "budget = 200\nmax-steps = abc"),
            good.replace("budget = 200", "budget = 200\nmax-steps = 0"),
        ]
        texts += [with_unread(good, header, line) for header, line in UNREAD_KEYS[4:]]
        texts += [good + f"\n{section}\n" for section, _ in UNREAD_SECTIONS]
        for text in texts:
            bad = tmp_path / "bad.ini"
            bad.write_text(text, encoding="utf-8")
            code = main(["run", str(bad), "--jobs", "1", "--output", str(tmp_path / "out")])
            assert code == 2
        assert not (tmp_path / "out").exists()  # rejected before any cell ran

    @pytest.mark.parametrize("method, key, value", OUT_OF_RANGE)
    def test_run_out_of_range_value_is_usage_error(self, method, key, value, tmp_path, capsys):
        (tmp_path / "g.txt").write_text("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n", encoding="utf-8")
        spec = small_spec(
            family="attack",
            family_params={"graph": "g.txt", "hops": 2},
            methods=[MethodSpec("odd", method, {key: value})],
            instance_seeds=[1],
            eta_grid=[0.1],
            budget=60,
        )
        spec_path = self.write_spec(tmp_path, spec)
        code = main(["run", str(spec_path), "--jobs", "1", "--output", str(tmp_path / "out")])
        assert code == 2
        assert f"[method:odd] {key}: need" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["-3", "0", "two"])
    def test_run_bad_jobs_is_usage_error(self, jobs, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(serialize_spec(small_spec()), encoding="utf-8")
        try:
            code = main(["run", str(spec), "--jobs", jobs, "--output", str(tmp_path / "out")])
        except SystemExit as stop:  # argparse rejects the value itself
            code = stop.code
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_subcommand(self, capsys):
        assert main(["verify"]) == 0
        assert capsys.readouterr().out == VERIFY_OUTPUT

    def test_scaling_subcommand(self, tmp_path, capsys):
        out_csv = tmp_path / "scaling.csv"
        code = main(
            ["scaling", "--d", "32", "64", "--s", "2", "--repeats", "1", "--output", str(out_csv)]
        )
        assert code == 0
        assert "correlation" in capsys.readouterr().out
        assert out_csv.exists()

    @pytest.mark.parametrize(
        "args", [["--repeats", "0"], ["--s", "0"], ["--d", "0"], ["--d", "4", "8", "--s", "16"]]
    )
    def test_scaling_bad_arguments_are_usage_errors(self, args, capsys):
        try:
            code = main(["scaling", *args])
        except SystemExit as stop:  # argparse rejects the value itself
            code = stop.code
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "correlation" not in captured.out

    def test_scaling_needs_two_points_with_a_predictor(self, capsys):
        # d/s = 4 and 2: only one point defines s*loglog(d/s), so no correlation exists.
        code = main(["scaling", "--d", "8", "--s", "2", "4", "--repeats", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: the correlation needs 2 points with d/s > 2, got 1" in captured.err
        assert captured.out == ""

    def test_graph_info_subcommand(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(PATH_3, encoding="utf-8")
        assert main(["graph-info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 3" in out
        assert "edges: 2" in out
        assert "connected: yes" in out

    def test_graph_info_disconnected(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("4 2\n1 2\n3 4\n", encoding="utf-8")
        assert main(["graph-info", str(graph_file)]) == 0
        assert "connected: no" in capsys.readouterr().out

    def test_graph_info_parse_error(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("nope\n", encoding="utf-8")
        assert main(["graph-info", str(graph_file)]) == 2
        assert "line 1" in capsys.readouterr().err
