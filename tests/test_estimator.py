"""Shrink procedure and sparse gradient estimation."""

import numpy as np
import pytest

from zosparse.blackbox import (
    BlackBoxFunction,
    BudgetExhaustedError,
    make_planted_linear,
    make_sparse_linear,
    with_ledger,
)
from zosparse.estimator import (
    GraceConfig,
    SparseGradient,
    default_max_iterations,
    finite_difference,
    grace_estimate,
    locate_in_group,
    shrink_step,
)
from zosparse.rng import RngStream, dependent_partition
from zosparse.theory import explicit_schedule, practical_schedule


def linear(d, coeffs):
    return make_sparse_linear(d, coeffs).objective


def located(f, *args, **kwargs):
    """locate_in_group's survivors and the queries a ledger counted for it."""
    counted, ledger = with_ledger(f)
    return locate_in_group(counted, *args, **kwargs), ledger.count


class TestShrinkStep:
    def test_isolates_single_signal_with_unit_blocks(self):
        # Block size 1 reads the signal's label exactly; any seed works.
        f = linear(4, {2: 3.0})
        for seed in range(20):
            outcome = shrink_step(f, np.zeros(4), 0.0, 1e-3, np.arange(1, 5), 4, RngStream(seed))
            assert not outcome.degenerate
            assert outcome.surviving.tolist() == [2]

    def test_keeps_whole_block_of_signal(self):
        f = linear(4, {3: 5.0})
        for seed in range(20):
            outcome = shrink_step(f, np.zeros(4), 0.0, 1e-3, np.arange(1, 5), 2, RngStream(seed))
            assert not outcome.degenerate
            assert outcome.surviving.size == 2
            assert 3 in outcome.surviving.tolist()

    def test_survivors_are_one_label_class(self):
        f = linear(4, {3: 5.0})
        for seed in range(20):
            outcome = shrink_step(f, np.zeros(4), 0.0, 1e-3, np.arange(1, 5), 2, RngStream(seed))
            part = dependent_partition(np.arange(1, 5), 2, RngStream(seed))
            expected = part.indices[part.labels == outcome.label]
            np.testing.assert_array_equal(outcome.surviving, expected)

    def test_constant_function_is_degenerate(self):
        f = BlackBoxFunction(4, lambda x: 7.0)
        outcome = shrink_step(f, np.zeros(4), 7.0, 1e-3, np.arange(1, 5), 2, RngStream(0))
        assert outcome.degenerate
        assert outcome.label is None
        assert outcome.surviving.size == 0

    def test_out_of_range_ratio_is_degenerate(self):
        # f = x1 + x2 + x3 with one sign flipped: the ratio becomes
        # h_a + h_b - h_c, which lands at 0 or 4 for most label draws,
        # outside the 3 block labels.
        f = linear(3, {1: 1.0, 2: 1.0, 3: 1.0})
        hits = 0
        for seed in range(200):
            outcome = shrink_step(f, np.zeros(3), 0.0, 1e-3, np.arange(1, 4), 3, RngStream(seed))
            if outcome.degenerate and outcome.label is not None:
                assert outcome.label < 1 or outcome.label > 3
                assert outcome.surviving.size == 0
                hits += 1
        assert hits > 0

    def test_half_ratio_rounds_away_from_zero(self):
        # Same construction: when {h1, h2} = {2, 3} the ratio is exactly
        # 2.5 and must round to 3, not to the even neighbor 2.
        f = linear(3, {1: 1.0, 2: 1.0})
        hits = 0
        for seed in range(200):
            part = dependent_partition(np.arange(1, 4), 3, RngStream(seed))
            if part.signs[0] != part.signs[1]:
                continue
            if {int(part.labels[0]), int(part.labels[1])} != {2, 3}:
                continue
            outcome = shrink_step(f, np.zeros(3), 0.0, 1e-3, np.arange(1, 4), 3, RngStream(seed))
            assert outcome.label == 3
            np.testing.assert_array_equal(outcome.surviving, part.indices[part.labels == 3])
            hits += 1
        assert hits > 0

    def test_survivor_count_bounded_by_block_size(self):
        rng = RngStream(5)
        f = linear(12, {4: 2.0, 9: -1.0})
        for trial in range(50):
            divisor = int(rng.gen.integers(2, 13))
            outcome = shrink_step(
                f, np.zeros(12), 0.0, 1e-3, np.arange(1, 13), divisor, rng.derive(trial)
            )
            block = -(-12 // divisor)
            assert outcome.surviving.size <= block < 12

    def test_rejects_single_member(self):
        f = linear(4, {2: 1.0})
        with pytest.raises(ValueError):
            shrink_step(f, np.zeros(4), 0.0, 1e-3, np.array([2]), 2, RngStream(0))

    def test_uses_exactly_two_queries(self):
        counted, ledger = with_ledger(make_sparse_linear(6, {2: 3.0}).objective)
        shrink_step(counted, np.zeros(6), 0.0, 1e-3, np.arange(1, 7), 3, RngStream(1))
        assert ledger.count == 2


class TestLocateInGroup:
    def test_tiny_group_needs_no_queries(self):
        f = linear(4, {2: 1.0})
        survivors, queries = located(
            f, np.zeros(4), 0.0, 1e-3, np.array([2, 4]), practical_schedule(20), rng=RngStream(0)
        )
        assert survivors.tolist() == [2, 4]
        assert queries == 0

    def test_single_member_group(self):
        f = linear(4, {2: 1.0})
        survivors, queries = located(
            f, np.zeros(4), 0.0, 1e-3, np.array([3]), practical_schedule(20), rng=RngStream(0)
        )
        assert survivors.tolist() == [3]
        assert queries == 0

    def test_degenerate_group_dies_in_one_iteration(self):
        f = BlackBoxFunction(8, lambda x: 0.0)
        survivors, queries = located(
            f, np.zeros(8), 0.0, 1e-3, np.arange(1, 9), practical_schedule(20), rng=RngStream(0)
        )
        assert survivors.size == 0
        assert queries == 2

    def test_signal_survives_with_dominant_coordinate(self):
        f = linear(16, {11: 4.0})
        for seed in range(10):
            survivors, queries = located(
                f,
                np.zeros(16),
                0.0,
                1e-3,
                np.arange(1, 17),
                practical_schedule(20),
                rng=RngStream(seed),
            )
            assert 11 in survivors.tolist()
            assert survivors.size <= 2
            assert queries % 2 == 0

    def test_zero_iteration_budget_truncates(self):
        f = linear(8, {5: 1.0})
        survivors, queries = located(
            f,
            np.zeros(8),
            0.0,
            1e-3,
            np.arange(1, 9),
            practical_schedule(20),
            max_iterations=0,
            rng=RngStream(0),
        )
        assert survivors.tolist() == [1, 2]
        assert queries == 0

    def test_iteration_safeguard_returns_stop_sized_set(self):
        f = linear(8, {5: 1.0})
        survivors, queries = located(
            f,
            np.zeros(8),
            0.0,
            1e-3,
            np.arange(1, 9),
            explicit_schedule([2]),
            max_iterations=1,
            rng=RngStream(3),
        )
        assert survivors.size == 2
        assert queries == 2

    def test_rejects_empty_group(self):
        f = linear(4, {1: 1.0})
        with pytest.raises(ValueError):
            locate_in_group(
                f, np.zeros(4), 0.0, 1e-3, np.array([]), practical_schedule(20), rng=RngStream(0)
            )

    def test_default_iteration_cap_values(self):
        assert default_max_iterations(4) == 13
        assert default_max_iterations(2) == 13  # floor at log2 log2 4
        assert default_max_iterations(65536) == 16


class TestGraceEstimate:
    def test_hand_traced_single_signal(self):
        # d=4, one group, unit blocks: 1 base query + 2 shrink + 1
        # forward difference = 4 queries, any seed.
        inst = make_sparse_linear(4, {2: 3.0})
        cfg = GraceConfig(s=1, epsilon=1e-3, n=4, schedule=explicit_schedule([4]))
        for seed in range(10):
            est = grace_estimate(inst.objective, inst.x1, cfg, RngStream(seed))
            assert est.entries == {2: pytest.approx(3.0)}
            assert est.queries_used == 4
            assert est.base_value == 0.0

    def test_zero_function_recovers_nothing(self):
        f = BlackBoxFunction(12, lambda x: 0.0)
        cfg = GraceConfig(s=2, epsilon=1e-3, n=4)
        est = grace_estimate(f, np.zeros(12), cfg, RngStream(1))
        assert est.entries == {}
        # One base query plus one degenerate iteration per group.
        assert est.queries_used == 1 + 2 * 3

    def test_linear_values_are_exact(self):
        inst = make_sparse_linear(32, {7: 1.25, 20: -0.75})
        cfg = GraceConfig(s=2, epsilon=1e-3, n=8)
        est = grace_estimate(inst.objective, inst.x1, cfg, RngStream(2))
        for j, g in est.entries.items():
            expected = {7: 1.25, 20: -0.75}.get(j, 0.0)
            assert g == pytest.approx(expected, abs=1e-9)

    def test_candidate_count_bounded(self):
        rng = RngStream(3)
        for trial in range(20):
            d = int(rng.gen.integers(8, 100))
            s = int(rng.gen.integers(1, 5))
            m = int(rng.gen.integers(1, 4))
            n = int(rng.gen.integers(1, d + 1))
            inst = make_planted_linear(d, s, rng.derive(trial, 0))
            cfg = GraceConfig(s=s, epsilon=1e-3, n=n, m=m)
            est = grace_estimate(inst.objective, inst.x1, cfg, rng.derive(trial, 1))
            assert len(est.entries) <= 2 * m * -(-d // n)

    def test_queries_match_ledger_exactly(self):
        rng = RngStream(4)
        for trial in range(50):
            d = int(rng.gen.integers(4, 120))
            s = int(rng.gen.integers(1, min(d, 6) + 1))
            inst = make_planted_linear(d, s, rng.derive(trial, 0))
            counted, ledger = with_ledger(inst.objective)
            cfg = GraceConfig(
                s=s, epsilon=1e-3, n=int(rng.gen.integers(1, d + 1)), m=int(rng.gen.integers(1, 3))
            )
            before = ledger.count
            est = grace_estimate(counted, inst.x1, cfg, rng.derive(trial, 1))
            assert est.queries_used == ledger.count - before

    def test_deterministic_given_seed(self):
        inst = make_planted_linear(64, 4, RngStream(5))
        cfg = GraceConfig.defaults(64, 4, epsilon=1e-3)
        a = grace_estimate(inst.objective, inst.x1, cfg, RngStream(9))
        b = grace_estimate(inst.objective, inst.x1, cfg, RngStream(9))
        assert a.entries == b.entries
        assert a.queries_used == b.queries_used

    def test_budget_exhaustion_attaches_partial(self):
        inst = make_planted_linear(64, 4, RngStream(6))
        counted, ledger = with_ledger(inst.objective, cap=5)
        cfg = GraceConfig.defaults(64, 4, epsilon=1e-3)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            grace_estimate(counted, inst.x1, cfg, RngStream(0))
        partial = excinfo.value.partial
        assert isinstance(partial, SparseGradient)
        assert partial.queries_used == ledger.count == 5
        assert partial.base_value == inst.objective(inst.x1)

    def test_budget_of_zero_leaves_no_base_value(self):
        inst = make_planted_linear(16, 2, RngStream(7))
        counted, ledger = with_ledger(inst.objective, cap=0)
        cfg = GraceConfig.defaults(16, 2)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            grace_estimate(counted, inst.x1, cfg, RngStream(0))
        assert excinfo.value.partial.base_value is None
        assert excinfo.value.partial.queries_used == 0

    def test_defaults_group_size(self):
        cfg = GraceConfig.defaults(512, 8)
        assert cfg.n == 44  # floor(0.7 * 512 / 8)
        assert cfg.m == 1
        assert GraceConfig.defaults(10, 7).n == 1  # floored at 1

    def test_validate_rejects_bad_configs(self):
        f = BlackBoxFunction(8, lambda x: 0.0)
        bad = [
            GraceConfig(s=0, epsilon=1e-3, n=4),
            GraceConfig(s=1, epsilon=0.0, n=4),
            GraceConfig(s=1, epsilon=1e-3, n=9),
            GraceConfig(s=1, epsilon=1e-3, n=4, m=0),
            GraceConfig(s=1, epsilon=1e-3, n=4, shrink_stop_size=0),
        ]
        for cfg in bad:
            with pytest.raises(ValueError):
                grace_estimate(f, np.zeros(8), cfg, RngStream(0))


class TestSparseGradient:
    def test_value_defaults_to_zero(self):
        g = SparseGradient(6, {2: 1.5}, queries_used=4)
        assert g.value(2) == 1.5
        assert g.value(3) == 0.0

    def test_support_is_sorted(self):
        g = SparseGradient(6, {5: 1.0, 2: -1.0, 4: 0.5}, queries_used=9)
        assert g.support == [2, 4, 5]

    def test_to_dense_layout(self):
        g = SparseGradient(4, {1: 2.0, 4: -1.0}, queries_used=5)
        np.testing.assert_array_equal(g.to_dense(), np.array([2.0, 0.0, 0.0, -1.0]))


class TestFiniteDifference:
    def test_exact_on_linear(self):
        f = linear(5, {3: 2.5})
        assert finite_difference(f, np.zeros(5), 0.0, 3, 1e-4) == pytest.approx(2.5)

    def test_uses_shared_base_value(self):
        # The base value is trusted as given, not re-queried.
        counted, ledger = with_ledger(make_sparse_linear(5, {3: 2.5}).objective)
        finite_difference(counted, np.zeros(5), 0.0, 3, 1e-4)
        assert ledger.count == 1

    def test_rejects_bad_arguments(self):
        f = linear(5, {3: 2.5})
        with pytest.raises(ValueError):
            finite_difference(f, np.zeros(5), 0.0, 0, 1e-4)
        with pytest.raises(ValueError):
            finite_difference(f, np.zeros(5), 0.0, 6, 1e-4)
        with pytest.raises(ValueError):
            finite_difference(f, np.zeros(5), 0.0, 3, 0.0)
