"""Descent loops: update rules, trace semantics, query accounting."""

import math
from unittest import mock

import numpy as np
import pytest

from zosparse import blackbox, optimizer
from zosparse.blackbox import (
    BlackBoxFunction,
    load_graph,
    make_attack,
    make_distance,
    make_sparse_linear,
    with_ledger,
)
from zosparse.estimator import GraceConfig, grace_estimate
from zosparse.optimizer import (
    METHODS,
    OptimizerConfig,
    estimate_rs,
    run_optimizer,
    step_gld,
    step_zo_signsgd,
)
from zosparse.rng import RngStream, StepStreams


# An 8-vertex ring with three chords: d = 64, every degree at least 2.
RING_8 = "8 11\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n1 8\n1 5\n2 6\n3 7\n"


def quadratic_1d():
    return BlackBoxFunction(1, lambda x: float(x[0]) ** 2)


def stripped(f):
    return BlackBoxFunction(f.dim, f.eval)


def noting(f, calls):
    """f with a batch hook that loops over eval and notes each call's row count."""

    def batch(rows):
        calls.append(len(rows))
        return [f.eval(row) for row in rows]

    return BlackBoxFunction(f.dim, f.eval, batch)


class TestOptimizerConfig:
    def test_accepts_each_method(self):
        for method in METHODS:
            OptimizerConfig(method=method, step_size=0.1, budget=10)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            OptimizerConfig(method="newton", step_size=0.1, budget=10)

    def test_requires_a_stopping_rule(self):
        with pytest.raises(ValueError, match="stopping rule"):
            OptimizerConfig(method="rs", step_size=0.1)

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="rs", step_size=0.0, budget=10)
        with pytest.raises(ValueError):
            OptimizerConfig(method="rs", step_size=0.1, budget=0)
        with pytest.raises(ValueError):
            OptimizerConfig(method="rs", step_size=0.1, max_steps=0)
        for step_size in (math.inf, math.nan):
            with pytest.raises(ValueError, match="step_size"):
                OptimizerConfig(method="rs", step_size=step_size, budget=10)
        for mu in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="mu"):
                OptimizerConfig(method="rs", step_size=0.1, budget=10, mu=mu)

    def test_bool_step_size_is_rejected(self):
        # True compares as 1 and would step by 1.0; so would numpy's.
        for value in (True, False, np.True_):
            with pytest.raises(ValueError, match="step_size"):
                OptimizerConfig(method="rs", step_size=value, budget=10)

    def test_bool_mu_is_rejected(self):
        for value in (True, False, np.True_):
            with pytest.raises(ValueError, match="mu"):
                OptimizerConfig(method="rs", step_size=0.1, budget=10, mu=value)

    @pytest.mark.parametrize("key", ["budget", "max_steps", "directions", "scales"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.True_, "4", np.float64(2.0)])
    def test_counts_must_be_integers(self, key, value):
        # As GraceConfig's n and m: 2.5 steps would run 3, and True would cap at 1.
        settings = {"budget": 10, key: value}
        with pytest.raises(ValueError, match=f"integer {key}"):
            OptimizerConfig(method="gld", step_size=0.1, **settings)

    @pytest.mark.parametrize("key", ["budget", "max_steps", "directions", "scales"])
    def test_integer_counts_of_any_integer_type_pass(self, key):
        opt = OptimizerConfig(method="gld", step_size=0.1, **{"budget": 10, key: np.int64(3)})
        assert getattr(opt, key) == 3


class TestStepArguments:
    """The step functions check their arguments as OptimizerConfig does, with or without a hook."""

    @pytest.mark.parametrize("hooked", [True, False])
    @pytest.mark.parametrize(
        "method, args",
        [
            ("rs", {"mu": math.inf}),
            ("rs", {"mu": 0.0}),
            ("rs", {"mu": True}),
            ("rs", {"mu": np.True_}),
            ("zo-signsgd", {"mu": math.inf}),
            ("zo-signsgd", {"mu": math.nan}),
            ("zo-signsgd", {"eta": math.inf}),
            ("zo-signsgd", {"eta": -0.1}),
            ("zo-signsgd", {"eta": np.True_}),
            ("zo-signsgd", {"directions": 0}),
            ("zo-signsgd", {"directions": 2.0}),
            ("zo-signsgd", {"directions": True}),
            ("gld", {"eta": math.inf}),
            ("gld", {"eta": 0.0}),
            ("gld", {"eta": np.True_}),
            ("gld", {"scales": 0}),
            ("gld", {"scales": 2.5}),
            ("gld", {"scales": True}),
        ],
    )
    def test_rejects_what_the_config_rejects(self, method, args, hooked):
        f = make_distance(16, 3, RngStream(1)).objective
        f = f if hooked else stripped(f)
        k = {"mu": 1e-3, "eta": 0.1, "directions": 3, "scales": 2, **args}
        steps = {
            "rs": lambda x: estimate_rs(f, x, f(x), k["mu"], RngStream(2)),
            "zo-signsgd": lambda x: step_zo_signsgd(
                f, x, f(x), k["mu"], k["directions"], k["eta"], RngStream(2)
            ),
            "gld": lambda x: step_gld(f, x, f(x), k["eta"], k["scales"], RngStream(2)),
        }
        with pytest.raises(ValueError, match=next(iter(args))):
            steps[method](np.zeros(16))

    def test_accepts_numpy_counts(self):
        f = make_distance(16, 3, RngStream(1)).objective
        x = np.zeros(16)
        step_zo_signsgd(f, x, f(x), 1e-3, np.int64(2), 0.1, RngStream(2))
        step_gld(f, x, f(x), np.float64(0.1), np.int32(2), RngStream(2))


class TestEstimateRs:
    def test_unbiased_on_linear_function(self):
        # E[(c'u) u] = c for standard normal u; 100k draws, 3 sigma band.
        c = np.array([1.0, -2.0, 0.5])
        f = BlackBoxFunction(3, lambda x: float(c @ x))
        rng = RngStream(17)
        total = np.zeros(3)
        draws = 100_000
        for _ in range(draws):
            total += estimate_rs(f, np.zeros(3), 0.0, 1e-3, rng)
        mean = total / draws
        variances = (c @ c) + np.square(c)  # per-coordinate estimator variance
        bands = 3.0 * np.sqrt(variances / draws)
        np.testing.assert_array_less(np.abs(mean - c), bands)

    def test_one_query_per_estimate(self):
        counted, ledger = with_ledger(quadratic_1d())
        estimate_rs(counted, np.zeros(1), 0.0, 1e-3, RngStream(0))
        assert ledger.count == 1

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            estimate_rs(quadratic_1d(), np.zeros(1), 0.0, 0.0, RngStream(0))


class TestStepZoSignsgd:
    def test_constant_function_does_not_move(self):
        # All estimates vanish; sign(0) = 0 keeps every coordinate put.
        f = BlackBoxFunction(4, lambda x: 11.5)
        x = np.array([1.0, -2.0, 0.5, 0.0])
        moved = step_zo_signsgd(f, x, 11.5, 1e-3, 5, 0.1, RngStream(0))
        np.testing.assert_array_equal(moved, x)

    def test_moves_by_eta_in_sign_direction(self):
        c = np.array([3.0, -4.0])
        f = BlackBoxFunction(2, lambda x: float(c @ x))
        moved = step_zo_signsgd(f, np.zeros(2), 0.0, 1e-6, 40, 0.1, RngStream(1))
        np.testing.assert_allclose(moved, [-0.1, 0.1])

    def test_queries_equal_directions(self):
        counted, ledger = with_ledger(quadratic_1d())
        step_zo_signsgd(counted, np.zeros(1), 0.0, 1e-3, 7, 0.1, RngStream(2))
        assert ledger.count == 7


class TestStepGld:
    def test_never_worsens(self):
        f = quadratic_1d()
        rng = RngStream(3)
        x = np.array([2.0])
        for trial in range(30):
            next_x, value = step_gld(f, x, f(x), 0.5, 4, rng.derive(trial))
            assert value <= f(x)
            assert value == f(next_x)

    def test_all_candidates_worse_keeps_incumbent(self):
        # At the exact minimum every candidate is worse.
        f = quadratic_1d()
        x = np.zeros(1)
        next_x, value = step_gld(f, x, 0.0, 0.5, 4, RngStream(4))
        np.testing.assert_array_equal(next_x, x)
        assert value == 0.0

    def test_queries_equal_scales(self):
        counted, ledger = with_ledger(quadratic_1d())
        step_gld(counted, np.array([1.0]), 1.0, 0.5, 6, RngStream(5))
        assert ledger.count == 6

    def test_contracts_a_quadratic(self):
        opt = OptimizerConfig(method="gld", step_size=1.0, budget=400)
        trace = run_optimizer(quadratic_1d(), np.array([3.0]), opt, RngStream(6))
        assert trace.best_value < 0.01
        values = [r.value for r in trace.records]
        assert all(a >= b for a, b in zip(values, values[1:]))  # accepted path never worsens


class TestGraceDescent:
    def test_converges_on_sparse_quadratic(self):
        inst = make_distance(64, 4, RngStream(3))
        grace = GraceConfig.defaults(64, 4)
        opt = OptimizerConfig(method="grace", step_size=0.2, budget=2000)
        trace = run_optimizer(inst.objective, inst.x1, opt, RngStream(11), grace)
        assert trace.best_value < 1e-4 * trace.records[0].value

    def test_update_touches_only_estimated_support(self):
        inst = make_sparse_linear(32, {5: 1.0, 17: -2.0})
        grace = GraceConfig(epsilon=1e-3, n=8)
        opt = OptimizerConfig(method="grace", step_size=0.1, max_steps=2, budget=500)
        trace = run_optimizer(inst.objective, inst.x1, opt, RngStream(7), grace)
        assert len(trace.records) == 2
        moved = np.flatnonzero(trace.best_point) + 1
        # Coordinates moved are exactly the nonzero gradient entries found.
        assert set(moved.tolist()) <= {5, 17}
        assert trace.best_point[4] == pytest.approx(-0.1 * 1.0)

    def test_requires_grace_config(self):
        opt = OptimizerConfig(method="grace", step_size=0.1, budget=10)
        with pytest.raises(ValueError, match="GraceConfig"):
            run_optimizer(quadratic_1d(), np.zeros(1), opt, RngStream(0))

    def test_budget_death_mid_estimate_keeps_measured_row(self):
        inst = make_sparse_linear(32, {5: 1.0})
        grace = GraceConfig(epsilon=1e-3, n=8)
        opt = OptimizerConfig(method="grace", step_size=0.1, budget=3)
        trace = run_optimizer(inst.objective, inst.x1, opt, RngStream(1), grace)
        # The estimate needs more than 3 queries, but f(x1) was measured.
        assert len(trace.records) == 1
        assert trace.records[0].queries <= 3
        assert trace.records[0].value == 0.0


class TestTraceSemantics:
    def budgeted(self, method, budget, **kwargs):
        inst = make_distance(16, 3, RngStream(40))
        grace = GraceConfig.defaults(16, 3) if method == "grace" else None
        opt = OptimizerConfig(method=method, step_size=0.1, budget=budget, **kwargs)
        return run_optimizer(inst.objective, inst.x1, opt, RngStream(41), grace)

    def test_minimal_budget_yields_single_start_row(self):
        for method in METHODS:
            trace = self.budgeted(method, 1)
            assert len(trace.records) == 1, method
            first = trace.records[0]
            assert first.step == 1
            assert first.queries == 1
            assert first.normalized == 1.0
            assert trace.best_value == first.value

    def test_queries_strictly_increase(self):
        for method in METHODS:
            trace = self.budgeted(method, 200)
            queries = [r.queries for r in trace.records]
            assert all(a < b for a, b in zip(queries, queries[1:])), method
            assert queries[-1] <= 200

    @pytest.mark.parametrize(
        "method, budget, rows",
        [
            ("gld", 5, [(1, 5)]),
            ("gld", 6, [(1, 5), (2, 6)]),
            ("rs", 3, [(1, 2), (2, 3)]),
            ("zo-signsgd", 12, [(1, 11), (2, 12)]),
        ],
    )
    def test_budget_death_mid_step(self, method, budget, rows):
        # The step the budget cuts short still records its measured f(x_t).
        trace = self.budgeted(method, budget)
        assert [(r.step, r.queries) for r in trace.records] == rows
        if len(rows) == 2 and method == "gld":
            # f(x_2) of the cut step is the value an uncut run records.
            assert trace.records[1].value == self.budgeted(method, 200).records[1].value

    @pytest.mark.parametrize("extra", [0, 1])
    def test_grace_budget_death_mid_step(self, extra):
        # A budget of the uncut run's first step, plus one query into step 2.
        uncut = self.budgeted("grace", 200).records
        first = uncut[0].queries
        trace = self.budgeted("grace", first + extra)
        rows = [(1, first), (2, first + 1)][: 1 + extra]
        assert [(r.step, r.queries) for r in trace.records] == rows
        assert [r.value for r in trace.records] == [r.value for r in uncut[: 1 + extra]]

    def test_no_step_begins_once_the_budget_is_spent(self):
        first = self.budgeted("grace", 200).records[0].queries
        with mock.patch.object(optimizer, "grace_estimate", wraps=optimizer.grace_estimate) as step:
            trace = self.budgeted("grace", first)
        assert [(r.step, r.queries) for r in trace.records] == [(1, first)]
        assert step.call_count == 1

    def test_normalized_is_ratio_to_first(self):
        for method in METHODS:
            trace = self.budgeted(method, 200)
            initial = trace.records[0].value
            for record in trace.records:
                assert record.normalized == pytest.approx(record.value / initial)

    def test_normalized_nan_when_start_value_zero(self):
        f = make_sparse_linear(4, {2: 1.0}).objective  # f(0) = 0
        opt = OptimizerConfig(method="rs", step_size=0.1, budget=20)
        trace = run_optimizer(f, np.zeros(4), opt, RngStream(0))
        assert all(math.isnan(r.normalized) for r in trace.records)

    def test_determinism_across_reruns(self):
        for method in METHODS:
            a = self.budgeted(method, 300)
            b = self.budgeted(method, 300)
            assert [
                (r.step, r.queries, r.value, r.normalized) for r in a.records
            ] == [(r.step, r.queries, r.value, r.normalized) for r in b.records], method
            np.testing.assert_array_equal(a.best_point, b.best_point)

    def test_best_is_earliest_minimum(self):
        # A constant objective ties every row; the start point must win.
        f = BlackBoxFunction(3, lambda x: 5.0)
        opt = OptimizerConfig(method="gld", step_size=0.5, budget=40)
        trace = run_optimizer(f, np.array([1.0, 2.0, 3.0]), opt, RngStream(2))
        assert trace.best_value == 5.0
        np.testing.assert_array_equal(trace.best_point, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("budget, stop", [(5, {}), (10_000, {"max_steps": 1})])
    def test_gld_weighs_the_value_its_last_step_paid_for(self, budget, stop):
        # Step 1 pays for f(x_1) and 4 candidates; the run stops before a
        # second row could record the accepted one, which is still its best.
        trace = self.budgeted("gld", budget, **stop)
        inst = make_distance(16, 3, RngStream(40))
        f, x1 = inst.objective, inst.x1
        x2, value = step_gld(f, x1, f(x1), 0.1, 4, StepStreams(RngStream(41)).derive(1))
        assert [(r.step, r.queries, r.value) for r in trace.records] == [(1, 5, f(x1))]
        assert value < f(x1) and trace.best_value == value
        np.testing.assert_array_equal(trace.best_point, x2)

    def test_max_steps_limits_rows(self):
        trace = self.budgeted("rs", 10_000, max_steps=7)
        assert len(trace.records) == 7

    def test_per_step_query_arithmetic(self):
        rs = self.budgeted("rs", 10_000, max_steps=3)
        assert [r.queries for r in rs.records] == [2, 4, 6]
        sign = self.budgeted("zo-signsgd", 10_000, max_steps=2, directions=5)
        assert [r.queries for r in sign.records] == [6, 12]
        gld = self.budgeted("gld", 10_000, max_steps=2, scales=4)
        # First step pays for f(x1); later steps carry the accepted value.
        assert [r.queries for r in gld.records] == [5, 9]


class TestBatchedSteps:
    """A step's points go out in one call; the runs are those of one point a call."""

    @pytest.mark.parametrize("method", ["zo-signsgd", "gld", "rs"])
    @pytest.mark.parametrize("family", ["attack", "distance"])
    def test_budget_cut_runs_record_alike(self, method, family):
        # zo-signsgd's steps take 11 queries and gld's 4 or 5, so most
        # budgets run out in the middle of a batch.
        if family == "attack":
            inst = make_attack(load_graph(RING_8), 1, 2, 4, 100.0 / 64)
        else:
            inst = make_distance(64, 4, RngStream(3))
        assert inst.objective.batch is not None
        for budget in range(1, 100):
            opt = OptimizerConfig(method=method, step_size=0.05, budget=budget)
            plain = run_optimizer(stripped(inst.objective), inst.x1, opt, RngStream(4))
            trace = run_optimizer(inst.objective, inst.x1, opt, RngStream(4))
            assert trace.records == plain.records
            assert trace.best_value == plain.best_value
            np.testing.assert_array_equal(trace.best_point, plain.best_point)

    @pytest.mark.parametrize("per_call", [None, 3])
    def test_one_hook_call_per_step_within_the_float_bound(self, per_call):
        inst = make_distance(16, 3, RngStream(1))
        f, x = inst.objective, np.full(16, 0.1)
        bound = blackbox.BATCH_FLOATS if per_call is None else per_call * 16
        sign_calls, gld_calls = [], []
        with mock.patch.object(blackbox, "BATCH_FLOATS", bound):
            moved = step_zo_signsgd(noting(f, sign_calls), x, f(x), 1e-3, 10, 0.1, RngStream(2))
            best_x, best_value = step_gld(noting(f, gld_calls), x, f(x), 0.5, 4, RngStream(3))
        assert sign_calls == ([10] if per_call is None else [3, 3, 3, 1])
        assert gld_calls == ([4] if per_call is None else [3, 1])
        plain = stripped(f)
        np.testing.assert_array_equal(
            moved, step_zo_signsgd(plain, x, f(x), 1e-3, 10, 0.1, RngStream(2))
        )
        plain_x, plain_value = step_gld(plain, x, f(x), 0.5, 4, RngStream(3))
        np.testing.assert_array_equal(best_x, plain_x)
        assert best_value == plain_value

    def test_a_mis_shaped_batch_result_raises_in_every_caller(self):
        inst = make_distance(16, 3, RngStream(1))
        f, x = inst.objective, np.full(16, 0.1)
        short = BlackBoxFunction(16, f.eval, lambda rows: f.batch(rows)[:1])
        with pytest.raises(ValueError, match=r"batch returned shape \(1,\) for 10 points"):
            step_zo_signsgd(short, x, f(x), 1e-3, 10, 0.1, RngStream(2))
        with pytest.raises(ValueError, match=r"batch returned shape \(1,\) for 4 points"):
            step_gld(short, x, f(x), 0.5, 4, RngStream(3))
        with pytest.raises(ValueError, match=r"batch returned shape \(1,\) for \d+ points"):
            grace_estimate(short, x, GraceConfig.defaults(16, 3), RngStream(4))

    def test_step_t_draws_from_the_run_key_at_counter_t(self):
        # rs moves by one estimate a step, so its run can be replayed by hand.
        inst = make_distance(16, 3, RngStream(1))
        f, rng = inst.objective, RngStream(7, 2).derive(3)
        opt = OptimizerConfig(method="rs", step_size=0.1, max_steps=5)
        trace = run_optimizer(f, inst.x1, opt, rng)
        key = np.random.SeedSequence(7, spawn_key=(2, 3)).generate_state(2, np.uint64)
        x, values = inst.x1, []
        for step in range(1, 6):
            values.append(f(x))
            step_rng = RngStream(7, 2, (3, step))
            step_rng.gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, step, 0]))
            x = x - 0.1 * estimate_rs(f, x, values[-1], 1e-3, step_rng)
        assert [record.value for record in trace.records] == values
