"""Descent loops: update rules, trace semantics, query accounting."""

import math

import numpy as np
import pytest

from zosparse.blackbox import BlackBoxFunction, make_distance, make_sparse_linear, with_ledger
from zosparse.estimator import GraceConfig
from zosparse.optimizer import (
    METHODS,
    OptimizerConfig,
    estimate_rs,
    run_optimizer,
    step_gld,
    step_zo_signsgd,
)
from zosparse.rng import RngStream


def quadratic_1d():
    return BlackBoxFunction(1, lambda x: float(x[0]) ** 2)


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
            ("grace", 14, [(1, 14)]),
            ("grace", 15, [(1, 14), (2, 15)]),
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
        if len(rows) == 2 and method in ("grace", "gld"):
            # f(x_2) of the cut step is the value an uncut run records.
            assert trace.records[1].value == self.budgeted(method, 200).records[1].value

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
