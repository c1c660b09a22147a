"""Benchmark objectives, query ledger, graph parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zosparse.blackbox import (
    BlackBoxFunction,
    BudgetExhaustedError,
    Graph,
    GraphParseError,
    load_graph,
    make_attack,
    make_distance,
    make_magnitude,
    make_planted_linear,
    make_sparse_linear,
    with_ledger,
)
from zosparse.rng import RngStream

PATH_3 = "3 2\n1 2\n2 3\n"


def ring_with_chords(n, seed):
    """A ring 1-2-...-n-1 plus n random chords: connected, every degree >= 2."""
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        adjacency[i, (i + 1) % n] = adjacency[(i + 1) % n, i] = 1
    for a, b in RngStream(seed).gen.integers(0, n, size=(n, 2)).tolist():
        if a != b:
            adjacency[a, b] = adjacency[b, a] = 1
    return Graph(n, adjacency)


class TestQueryLedger:
    def test_counts_completed_evaluations(self):
        f = BlackBoxFunction(2, lambda x: float(x[0] + x[1]))
        counted, ledger = with_ledger(f)
        counted(np.array([1.0, 2.0]))
        counted(np.array([3.0, 4.0]))
        assert ledger.count == 2

    def test_values_pass_through_unchanged(self):
        f = BlackBoxFunction(1, lambda x: float(x[0]) ** 2)
        counted, _ = with_ledger(f)
        assert counted(np.array([3.0])) == 9.0

    def test_cap_raises_before_evaluating(self):
        calls = []
        f = BlackBoxFunction(1, lambda x: calls.append(1) or 0.0)
        counted, ledger = with_ledger(f, cap=2)
        counted(np.zeros(1))
        counted(np.zeros(1))
        with pytest.raises(BudgetExhaustedError) as excinfo:
            counted(np.zeros(1))
        assert len(calls) == 2  # the third evaluation never ran
        assert ledger.count == 2
        assert excinfo.value.count == 2 and excinfo.value.cap == 2

    @pytest.mark.parametrize("cap", [-1, 2.5, True, np.float64(3.0), "3"])
    def test_rejects_a_cap_that_is_no_count(self, cap):
        f = BlackBoxFunction(1, lambda x: 0.0, lambda rows: np.zeros(len(rows)))
        with pytest.raises(ValueError, match="cap"):
            with_ledger(f, cap)

    @pytest.mark.parametrize("cap", [0, np.int64(2)])
    def test_accepts_integer_caps(self, cap):
        f = BlackBoxFunction(1, lambda x: 0.0, lambda rows: np.zeros(len(rows)))
        counted, ledger = with_ledger(f, cap)
        with pytest.raises(BudgetExhaustedError):
            counted.batch(np.zeros((3, 1)))
        assert ledger.count == cap

    def test_uncapped_by_default(self):
        f = BlackBoxFunction(1, lambda x: 0.0)
        counted, ledger = with_ledger(f)
        for _ in range(50):
            counted(np.zeros(1))
        assert ledger.count == 50

    def test_failed_evaluation_does_not_count(self):
        def explode(x):
            raise RuntimeError("boom")

        counted, ledger = with_ledger(BlackBoxFunction(1, explode), cap=5)
        with pytest.raises(RuntimeError):
            counted(np.zeros(1))
        assert ledger.count == 0

    def test_no_batch_without_a_hook(self):
        counted, _ = with_ledger(BlackBoxFunction(1, lambda x: 0.0))
        assert counted.batch is None

    def test_batch_counts_every_row(self):
        f = BlackBoxFunction(2, lambda x: float(x.sum()), lambda rows: rows.sum(axis=1))
        counted, ledger = with_ledger(f, cap=10)
        values = counted.batch(np.arange(8.0).reshape(4, 2))
        assert values.tolist() == [1.0, 5.0, 9.0, 13.0]
        counted(np.zeros(2))
        assert ledger.count == 5

    def test_batch_past_the_cap_evaluates_what_fits_in_every_ledger(self):
        seen = []

        def batch(rows):
            seen.append(len(rows))
            return rows[:, 0].copy()

        outer, outer_ledger = with_ledger(BlackBoxFunction(1, lambda x: float(x[0]), batch), cap=5)
        inner, inner_ledger = with_ledger(outer)
        inner(np.zeros(1))
        inner.batch(np.zeros((2, 1)))
        with pytest.raises(BudgetExhaustedError) as excinfo:
            inner.batch(np.zeros((4, 1)))
        assert seen == [2, 2]  # only the two rows under the cap ran
        assert outer_ledger.count == inner_ledger.count == 5
        assert excinfo.value.evaluated == 2
        assert excinfo.value.count == excinfo.value.cap == 5
        with pytest.raises(BudgetExhaustedError) as excinfo:
            inner.batch(np.zeros((3, 1)))
        assert seen == [2, 2]  # a full ledger evaluates nothing
        assert excinfo.value.evaluated == 0
        assert outer_ledger.count == inner_ledger.count == 5


class TestGraph:
    def test_loads_header_and_edges(self):
        graph = load_graph(PATH_3)
        assert graph.n == 3
        assert graph.num_edges == 2
        assert graph.degrees.tolist() == [1, 2, 1]

    def test_tolerates_trailing_blank_lines(self):
        graph = load_graph(PATH_3 + "\n\n")
        assert graph.num_edges == 2

    def test_duplicate_edges_collapse(self):
        graph = load_graph("2 2\n1 2\n2 1\n")
        assert graph.num_edges == 1

    def test_malformed_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            load_graph("three two\n")

    def test_malformed_edge_line_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            load_graph("3 2\n1 2\n2 x\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphParseError, match="line 2"):
            load_graph("2 1\n1 5\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            load_graph("2 1\n1 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError, match="declares 3"):
            load_graph("3 3\n1 2\n2 3\n")

    def test_empty_document(self):
        with pytest.raises(GraphParseError, match="line 1"):
            load_graph("")

    def test_constructor_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, np.array([[0, 1], [0, 0]]))

    def test_constructor_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            Graph(2, np.array([[1, 0], [0, 0]]))

    def test_constructor_rejects_weights(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Graph(2, np.array([[0, 2], [2, 0]]))


class TestDistance:
    def test_zero_at_center(self):
        inst = make_distance(16, 3, RngStream(0))
        assert inst.objective(inst.metadata["center"]) == 0.0

    def test_value_at_origin(self):
        inst = make_distance(16, 3, RngStream(1))
        w, c = inst.metadata["weights"], inst.metadata["center"]
        assert inst.objective(inst.x1) == pytest.approx(float(c @ (w * c)))

    def test_start_point_is_origin(self):
        inst = make_distance(8, 2, RngStream(2))
        np.testing.assert_array_equal(inst.x1, np.zeros(8))

    def test_support_size_and_range(self):
        inst = make_distance(32, 5, RngStream(3))
        support = inst.metadata["support"]
        assert len(support) == 5
        assert all(1 <= j <= 32 for j in support)
        c = inst.metadata["center"]
        assert np.count_nonzero(c) == 5

    def test_gradient_matches_central_differences(self):
        rng = RngStream(4)
        for trial in range(100):
            d = int(rng.gen.integers(2, 65))
            s = int(rng.gen.integers(1, d + 1))
            inst = make_distance(d, s, rng.derive(trial))
            x = rng.gen.standard_normal(d)
            w, c = inst.metadata["weights"], inst.metadata["center"]
            analytic = 2.0 * w * (x - c)
            h = 1e-6
            for pos in rng.gen.integers(0, d, size=3):
                bump = np.zeros(d)
                bump[pos] = h
                numeric = (inst.objective(x + bump) - inst.objective(x - bump)) / (2 * h)
                assert numeric == pytest.approx(analytic[pos], rel=1e-4, abs=1e-6)

    def test_deterministic_in_the_stream(self):
        a = make_distance(16, 3, RngStream(7))
        b = make_distance(16, 3, RngStream(7))
        np.testing.assert_array_equal(a.metadata["center"], b.metadata["center"])
        np.testing.assert_array_equal(a.metadata["weights"], b.metadata["weights"])

    @pytest.mark.parametrize("shape", [(30, 512), (1, 512), (7, 3), (64, 1000)])
    def test_batch_is_bit_identical_to_eval(self, shape):
        k, d = shape
        inst = make_distance(d, min(10, d), RngStream(k * d))
        rows = RngStream(d).gen.standard_normal(shape) * np.logspace(-8, 3, k)[:, None]
        expected = [inst.objective(row) for row in rows]
        assert inst.objective.batch(rows).tolist() == expected

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            make_distance(4, 5, RngStream(0))


class TestMagnitude:
    def test_start_value_frozen(self):
        # s - s*tanh(w^2) at s=5, w=0.2; series for tanh(0.04) gives 0.03997868.
        inst = make_magnitude(512, 5, 0.1, 0.2, RngStream(0))
        assert inst.objective(inst.x1) == pytest.approx(4.8001066, abs=1e-6)

    def test_origin_value_is_sparsity(self):
        inst = make_magnitude(64, 4, 0.1, 0.2, RngStream(1))
        assert inst.objective(np.zeros(64)) == pytest.approx(4.0)

    def test_start_point_magnitudes(self):
        inst = make_magnitude(64, 4, 0.1, 0.2, RngStream(2))
        support = np.array(inst.metadata["support"]) - 1
        np.testing.assert_allclose(np.abs(inst.x1[support]), 0.2)
        off = np.delete(inst.x1, support)
        np.testing.assert_array_equal(off, np.zeros(60))

    def test_saturated_support_approaches_zero(self):
        inst = make_magnitude(32, 3, 0.1, 0.2, RngStream(3))
        x = np.zeros(32)
        x[np.array(inst.metadata["support"]) - 1] = 50.0
        assert inst.objective(x) == pytest.approx(0.0, abs=1e-9)

    def test_nonsignal_mass_is_taxed(self):
        inst = make_magnitude(32, 3, 0.5, 0.2, RngStream(4))
        x = np.array(inst.x1)
        free = [p for p in range(32) if (p + 1) not in inst.metadata["support"]]
        x[free[0]] = 0.1  # smaller than w, stays outside the top s
        assert inst.objective(x) > inst.objective(inst.x1)

    @given(
        x=hnp.arrays(
            dtype=float,
            shape=12,
            elements=st.floats(-3, 3, allow_nan=False),
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_coordinate_permutation(self, x, seed):
        inst = make_magnitude(12, 3, 0.1, 0.2, RngStream(11))
        shuffled = x[RngStream(seed).gen.permutation(12)]
        assert inst.objective(shuffled) == pytest.approx(inst.objective(x), rel=1e-12)

    @pytest.mark.parametrize("d", [64, 101, 512, 1024])
    @pytest.mark.parametrize("k", [1, 2, 16, 64])
    def test_batch_is_bit_identical_to_eval(self, d, k):
        # SIMD loops for tanh and the row sums may differ between numpy builds,
        # so the hook's bit identity is pinned here, as for distance and attack.
        inst = make_magnitude(d, min(5, d), 0.1, 0.2, RngStream(d, k))
        assert inst.objective.batch is not None
        for scale in (1e-3, 0.2, 3.0):
            rows = inst.x1 + scale * RngStream(k, d).gen.standard_normal((k, d))
            expected = [inst.objective(row) for row in rows]
            assert inst.objective.batch(rows).tolist() == expected

    def test_no_hook_past_sixteen_rows_of_batch_floats(self):
        assert make_magnitude(2048, 5, 0.1, 0.2, RngStream(0)).objective.batch is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_magnitude(8, 0, 0.1, 0.2, RngStream(0))
        with pytest.raises(ValueError):
            make_magnitude(8, 2, 0.0, 0.2, RngStream(0))
        with pytest.raises(ValueError):
            make_magnitude(8, 2, 0.1, -1.0, RngStream(0))


class TestAttack:
    def test_one_hop_path_value(self):
        inst = make_attack(load_graph(PATH_3), 1, 2, 1, 0.0)
        # Unperturbed normalized adjacency entry: 1/sqrt(deg1 * deg2).
        assert inst.objective(inst.x1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_second_hop_adds_nothing_on_a_path(self):
        inst1 = make_attack(load_graph(PATH_3), 1, 2, 1, 0.0)
        inst2 = make_attack(load_graph(PATH_3), 1, 2, 2, 0.0)
        v1 = inst1.objective(inst1.x1)
        v2 = inst2.objective(inst2.x1)
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_penalty_term(self):
        inst = make_attack(load_graph(PATH_3), 1, 2, 1, 2.5)
        x = np.zeros(9)
        x[4] = 0.1
        base = make_attack(load_graph(PATH_3), 1, 2, 1, 0.0)
        assert inst.objective(x) == pytest.approx(base.objective(x) + 2.5 * 0.01)

    def test_matches_matrix_power_oracle(self):
        rng = RngStream(21)
        for trial in range(20):
            n = int(rng.gen.integers(3, 12))
            adjacency = np.zeros((n, n), dtype=np.int64)
            for i in range(1, n):  # random tree keeps every degree positive
                parent = int(rng.gen.integers(0, i))
                adjacency[i, parent] = adjacency[parent, i] = 1
            graph = Graph(n, adjacency)
            hops = int(rng.gen.integers(1, 5))
            inst = make_attack(graph, 1, 2, hops, 0.3)
            x = 0.4 * rng.gen.standard_normal(n * n)
            magnitude = np.abs(x.reshape(n, n))
            base = adjacency.astype(float)
            perturbed = np.maximum(base * (1 - magnitude) + (1 - base) * magnitude, 0.0)
            scale = 1 / np.sqrt(perturbed.sum(axis=1))
            normalized = perturbed * np.outer(scale, scale)
            expected = sum(
                np.linalg.matrix_power(normalized, p)[0, 1] for p in range(1, hops + 1)
            ) + 0.3 * float(x @ x)
            assert inst.objective(x) == pytest.approx(expected, abs=1e-10)

    def test_bit_identical_to_the_plain_formula(self):
        # The objective hoists 1 - A and scales by a broadcast product; the
        # formula as written, with np.outer, must give the same bits.
        rng = RngStream(22)
        n = 12
        adjacency = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in rng.gen.choice(n, size=3, replace=False).tolist():
                if j != i:
                    adjacency[i, j] = adjacency[j, i] = 1
        graph = Graph(n, adjacency)
        inst = make_attack(graph, 1, 2, 4, 0.3)
        base = adjacency.astype(float)
        for _ in range(200):
            x = 0.3 * rng.gen.standard_normal(n * n)
            magnitude = np.abs(x.reshape(n, n))
            perturbed = np.maximum(base * (1.0 - magnitude) + (1.0 - base) * magnitude, 0.0)
            scale = 1.0 / np.sqrt(perturbed.sum(axis=1))
            normalized = perturbed * np.outer(scale, scale)
            power, total = normalized, normalized[0, 1]
            for _ in range(3):
                power = power @ normalized
                total += power[0, 1]
            assert inst.objective(x) == float(total + 0.3 * (x @ x))

    @pytest.mark.parametrize("n", [5, 12, 32])
    @pytest.mark.parametrize("k", [1, 2, 10, 64])
    def test_batch_is_bit_identical_to_eval(self, n, k):
        inst = make_attack(ring_with_chords(n, n), 1, 2, 4, 100.0 / n**2)
        assert inst.objective.batch is not None
        for scale in (1e-6, 0.02, 0.3):
            rows = scale * RngStream(n, k).gen.standard_normal((k, n * n))
            expected = [inst.objective(row) for row in rows]
            assert inst.objective.batch(rows).tolist() == expected

    def test_degenerate_row_reads_inf_in_a_batch_and_in_eval(self):
        inst = make_attack(load_graph(PATH_3), 1, 2, 2, 0.5)
        rows = 0.05 * RngStream(3).gen.standard_normal((4, 9))
        rows[2, :3] = 0.0, 1.0, 0.0  # vertex 1 loses its only edge and gains none
        expected = [inst.objective(row) for row in rows[[0, 1, 3]]]
        values = inst.objective.batch(rows).tolist()
        assert values[2] == math.inf and inst.objective(rows[2]) == math.inf
        assert values[:2] + values[3:] == expected

    def test_degenerate_degree_reads_inf(self):
        inst = make_attack(load_graph("2 1\n1 2\n"), 1, 2, 1, 0.0)
        x = np.array([0.0, 1.0, 1.0, 0.0])  # kills the only edge
        assert inst.objective(x) == math.inf
        assert inst.objective.batch(np.stack([x, x])).tolist() == [math.inf, math.inf]

    def test_rejects_bad_vertices(self):
        graph = load_graph(PATH_3)
        with pytest.raises(ValueError):
            make_attack(graph, 0, 2, 1, 0.0)
        with pytest.raises(ValueError):
            make_attack(graph, 2, 2, 1, 0.0)
        with pytest.raises(ValueError):
            make_attack(graph, 1, 2, 0, 0.0)


class TestLinearFamilies:
    def test_sparse_linear_evaluates_inner_product(self):
        inst = make_sparse_linear(6, {2: 3.0, 5: -1.5})
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert inst.objective(x) == pytest.approx(2 * 3.0 + 5 * -1.5)

    def test_sparse_linear_empty_support(self):
        inst = make_sparse_linear(4, {})
        assert inst.objective(np.ones(4)) == 0.0

    def test_sparse_linear_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_sparse_linear(4, {5: 1.0})

    def test_planted_coefficients_in_range(self):
        inst = make_planted_linear(64, 6, RngStream(5))
        coeffs = inst.metadata["coeffs"]
        assert len(coeffs) == 6
        assert all(0.5 <= c <= 1.5 for c in coeffs.values())
        assert inst.metadata["support"] == tuple(sorted(coeffs))

    def test_planted_gradient_is_coefficient_vector(self):
        inst = make_planted_linear(32, 4, RngStream(6))
        for j, c in inst.metadata["coeffs"].items():
            bump = np.zeros(32)
            bump[j - 1] = 1.0
            assert inst.objective(bump) - inst.objective(np.zeros(32)) == pytest.approx(c)
