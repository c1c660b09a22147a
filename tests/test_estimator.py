"""Shrink procedure and sparse gradient estimation."""

import dataclasses
import itertools
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zosparse import estimator
from zosparse.blackbox import (
    BlackBoxFunction,
    BudgetExhaustedError,
    Graph,
    make_attack,
    make_distance,
    make_magnitude,
    make_planted_linear,
    make_sparse_linear,
    with_ledger,
)
from zosparse.estimator import (
    GraceConfig,
    SparseGradient,
    finite_difference,
    grace_estimate,
    locate_in_group,
    shrink_step,
)
from zosparse.optimizer import OptimizerConfig, run_optimizer
from zosparse.rng import RngStream, dependent_partition, partition_groups, random_permutation
from zosparse.theory import DivisionSchedule, practical_schedule


def linear(d, coeffs):
    return make_sparse_linear(d, coeffs).objective


def key_row(seed, width):
    """A 1-d sign key row drawn from a fresh stream."""
    return RngStream(seed).gen.random(width)


def shuffled(n, seed):
    """1..n in a random order, as partition_groups hands a group to the estimator."""
    return random_permutation(n, RngStream(seed, 1))


def hooked(f, calls=None):
    """f with a batch hook that loops over eval, noting each call's row count in calls."""

    def batch(rows):
        if calls is not None:
            calls.append(len(rows))
        return [f.eval(row) for row in rows]

    return BlackBoxFunction(f.dim, f.eval, batch)


def unhooked(f):
    return BlackBoxFunction(f.dim, f.eval)


def shrunk(f, x, f_x, epsilon, members, divisor, keys, sizes=None, offsets=None):
    """shrink_step over dependent_partition's cut of members."""
    part = dependent_partition(members, divisor, keys, sizes, offsets)
    return shrink_step(f, x, f_x, epsilon, part)


def located(f, x, f_x, epsilon, members, schedule, *, keys):
    """locate_in_group's survivors for one group, and the queries a ledger counted for it."""
    counted, ledger = with_ledger(f)
    members = np.asarray(members)
    found = locate_in_group(
        counted, x, f_x, epsilon, members, max(members.size, 1), schedule, keys=keys[None, :]
    )
    return np.array(found, dtype=np.int64), ledger.count


class TestShrinkStep:
    def test_isolates_single_signal_with_unit_blocks(self):
        # Block size 1 reads the signal's label exactly; any seed works.
        f = linear(4, {2: 3.0})
        for seed in range(20):
            outcome = shrunk(f, np.zeros(4), 0.0, 1e-3, np.arange(1, 5), 4, key_row(seed, 4))
            assert not outcome.degenerate
            assert outcome.kept[0].tolist() == [2]

    def test_keeps_whole_block_of_signal(self):
        f = linear(4, {3: 5.0})
        for seed in range(20):
            outcome = shrunk(f, np.zeros(4), 0.0, 1e-3, shuffled(4, seed), 2, key_row(seed, 4))
            assert not outcome.degenerate
            assert outcome.kept[0].size == 2
            assert 3 in outcome.kept[0].tolist()

    def test_survivors_are_one_label_class(self):
        f = linear(4, {3: 5.0})
        for seed in range(20):
            members = shuffled(4, seed)
            outcome = shrunk(f, np.zeros(4), 0.0, 1e-3, members, 2, key_row(seed, 4))
            part = dependent_partition(members, 2, key_row(seed, 4))
            expected = part.indices[part.labels == outcome.labels[0]]
            np.testing.assert_array_equal(outcome.kept[0], expected)

    def test_constant_function_is_degenerate(self):
        f = BlackBoxFunction(4, lambda x: 7.0)
        outcome = shrunk(f, np.zeros(4), 7.0, 1e-3, np.arange(1, 5), 2, key_row(0, 4))
        assert outcome.degenerate == 1
        assert outcome.labels == [None]
        assert outcome.kept[0].size == 0

    def test_out_of_range_ratio_is_degenerate(self):
        # f = x1 + x2 + x3 with one sign flipped: the ratio becomes
        # h_a + h_b - h_c, which lands at 0 or 4 for most label draws,
        # outside the 3 block labels.
        f = linear(3, {1: 1.0, 2: 1.0, 3: 1.0})
        hits = 0
        for seed in range(200):
            outcome = shrunk(f, np.zeros(3), 0.0, 1e-3, shuffled(3, seed), 3, key_row(seed, 3))
            (label,) = outcome.labels
            if outcome.degenerate and label is not None:
                assert label < 1 or label > 3
                assert outcome.kept[0].size == 0
                hits += 1
        assert hits > 0

    def test_half_ratio_rounds_away_from_zero(self):
        # Same construction: when {h1, h2} = {2, 3} the ratio is exactly
        # 2.5 and must round to 3, not to the even neighbor 2.
        f = linear(3, {1: 1.0, 2: 1.0})
        hits = 0
        for seed in range(200):
            members = shuffled(3, seed)
            part = dependent_partition(members, 3, key_row(seed, 3))
            sign = dict(zip(part.indices.tolist(), part.signs.tolist()))
            label = dict(zip(part.indices.tolist(), part.labels.tolist()))
            if sign[1] != sign[2] or {label[1], label[2]} != {2, 3}:
                continue
            outcome = shrunk(f, np.zeros(3), 0.0, 1e-3, members, 3, key_row(seed, 3))
            assert outcome.labels == [3]
            np.testing.assert_array_equal(outcome.kept[0], part.indices[part.labels == 3])
            hits += 1
        assert hits > 0

    def test_survivor_count_bounded_by_block_size(self):
        rng = RngStream(5)
        f = linear(12, {4: 2.0, 9: -1.0})
        for trial in range(50):
            divisor = int(rng.gen.integers(2, 13))
            outcome = shrunk(
                f, np.zeros(12), 0.0, 1e-3, np.arange(1, 13), divisor, key_row(trial, 12)
            )
            block = -(-12 // divisor)
            assert outcome.kept[0].size <= block < 12

    def test_rejects_single_member(self):
        f = linear(4, {2: 1.0})
        with pytest.raises(ValueError):
            shrunk(f, np.zeros(4), 0.0, 1e-3, np.array([2]), 2, key_row(0, 1))

    def test_uses_exactly_two_queries(self):
        counted, ledger = with_ledger(make_sparse_linear(6, {2: 3.0}).objective)
        shrunk(counted, np.zeros(6), 0.0, 1e-3, np.arange(1, 7), 3, key_row(1, 6))
        assert ledger.count == 2

    @pytest.mark.parametrize("probe", ["scaled", "unscaled"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_probe_leaves_no_survivors(self, bad, probe):
        # shrink_step queries the scaled probe first, then the unscaled one.
        values = iter([bad, 1.0] if probe == "scaled" else [1.0, bad])
        f = BlackBoxFunction(4, lambda x: next(values))
        outcome = shrunk(f, np.zeros(4), 0.0, 1e-3, np.arange(1, 5), 2, key_row(0, 4))
        assert outcome.degenerate == 1
        assert outcome.labels == [None]
        assert outcome.kept[0].size == 0

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 40), min_size=1, max_size=6),
        divisor=st.integers(2, 12),
        signals=st.lists(st.integers(1, 200), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_runs_shrink_as_they_would_alone(self, sizes, divisor, signals, seed):
        # One call over several runs reads each run's keys at its own offset and
        # gives every run the label, kept block and query count it gets alone.
        d = sum(sizes)
        f = linear(d, {(j - 1) % d + 1: 1.5**k for k, j in enumerate(signals)})
        members = shuffled(d, seed)
        keys = key_row(seed, 3 * d)
        offsets = [3 * start for start in itertools.accumulate(sizes[:-1], initial=0)]
        counted, ledger = with_ledger(f)
        outcome = shrunk(
            counted, np.zeros(d), 0.0, 1e-3, members, divisor, keys, sizes, offsets
        )
        assert ledger.count == 2 * len(sizes)
        start = 0
        for run, (size, offset) in enumerate(zip(sizes, offsets)):
            alone = shrunk(
                f, np.zeros(d), 0.0, 1e-3, members[start : start + size], divisor,
                keys[offset : offset + size],
            )
            assert outcome.labels[run] == alone.labels[0]
            np.testing.assert_array_equal(outcome.kept[run], alone.kept[0])
            start += size
        assert outcome.degenerate == sum(block.size == 0 for block in outcome.kept)

    def test_chunked_passes_match_one_pass(self):
        # Runs are probed in passes of at most CHUNK members (or one longer
        # run); where the passes split changes no moved coordinate, probe
        # value, label, kept block or query, with or without a hook, and no
        # pass exceeds its bound.
        sizes = [7, 9, 5, 12, 3, 8]
        d = sum(sizes)
        f = linear(d, {4: 1.0, 11: -2.0, 30: 0.5, 41: 3.0, 42: -1.5, 20: 2.5})
        members, keys = shuffled(d, 3), key_row(3, 2 * d)
        offsets = [2 * start for start in itertools.accumulate(sizes[:-1], initial=0)]
        part, probe = dependent_partition(members, 3, keys, sizes, offsets), estimator._probe

        def shrunk_in(chunk, objective=f):
            passes = []

            def recording(f, x, positions, moved, bounds, values):
                passes.append((positions.copy(), list(bounds), [row.copy() for row in values]))
                return probe(f, x, positions, moved, bounds, values)

            with mock.patch.object(estimator, "CHUNK", chunk), mock.patch.object(
                estimator, "_probe", recording
            ):
                outcome = shrink_step(objective, np.zeros(d), 0.0, 1e-3, part)
            return outcome, passes

        whole, (one,) = shrunk_in(2**16)
        for chunk in (1, 10, 16, 20):
            (split, passes), (rows, _) = shrunk_in(chunk), shrunk_in(chunk, hooked(f))
            for outcome in (split, rows):
                assert outcome.labels == whole.labels and outcome.degenerate == whole.degenerate
                for a, b in zip(outcome.kept, whole.kept):
                    np.testing.assert_array_equal(a, b)
            assert len(passes) > 1
            assert all(b[-1] <= max(chunk, max(np.diff(b))) for _, b, _ in passes)
            np.testing.assert_array_equal(np.concatenate([p for p, _, _ in passes]), one[0])
            for k in range(2):
                np.testing.assert_array_equal(
                    np.concatenate([values[k] for _, _, values in passes]), one[2][k]
                )

    def test_probe_point_is_restored(self):
        # Each probe is written into x and taken out again, also when f raises.
        x = np.linspace(-1.0, 1.0, 12)
        original = x.copy()
        seen = []

        def evaluate(point):
            seen.append(np.flatnonzero(point != original).tolist())
            return float(point @ np.arange(12.0))

        f = BlackBoxFunction(12, evaluate)
        shrunk(f, x, 0.0, 1e-3, shuffled(12, 4), 3, key_row(4, 12), [5, 7])
        np.testing.assert_array_equal(x, original)
        # Probes v and u of a run move the same coordinates, one run at a time.
        assert seen[0] == seen[1] and seen[2] == seen[3] and len(seen[0]) == 5

        def failing(point):
            raise RuntimeError("objective failed")

        with pytest.raises(RuntimeError):
            shrunk(
                BlackBoxFunction(12, failing), x, 0.0, 1e-3, np.arange(1, 13), 3, key_row(4, 12)
            )
        np.testing.assert_array_equal(x, original)


def read_label(f_x, f_v, f_u, num_blocks):
    """The ratio test as one function, as it stood before shrink_step read it inline.

    The label is (f_v - f_x) / (f_u - f_x) rounded half away from zero.  None
    is read from a non-finite value or ratio, or from a denominator below
    DENOMINATOR_TOLERANCE * max(1, |f_x|).  A label locates when it lies in
    1..num_blocks.
    """
    if not (math.isfinite(f_x) and math.isfinite(f_v) and math.isfinite(f_u)):
        return None, False
    denominator = f_u - f_x
    if abs(denominator) < estimator.DENOMINATOR_TOLERANCE * max(1.0, abs(f_x)):
        return None, False
    ratio = (f_v - f_x) / denominator
    if not math.isfinite(ratio):
        return None, False
    label = math.floor(ratio + 0.5) if ratio >= 0.0 else math.ceil(ratio - 0.5)
    return label, 1 <= label <= num_blocks


SPECIAL = [math.nan, math.inf, -math.inf]


@st.composite
def probe_pairs(draw, f_x):
    """(f_v, f_u) for one run: non-finite values, denominators on either side of
    the tolerance, exact halves, huge ratios, or any two floats."""
    if draw(st.booleans()):
        anything = st.floats() | st.sampled_from(SPECIAL)
        return draw(anything), draw(anything)
    scale = max(1.0, abs(f_x)) if math.isfinite(f_x) else 1.0
    tolerance = estimator.DENOMINATOR_TOLERANCE * scale
    denominator = draw(
        st.sampled_from([1.0, -2.0, 0.25, 0.0])
        | st.sampled_from([1.0, 1 - 2**-10, 1 + 2**-10, -1.0, -(1 - 2**-10)]).map(
            lambda k: k * tolerance
        )
    )
    ratio = draw(
        st.sampled_from([k + 0.5 for k in range(-3, 6)])
        | st.sampled_from([1e300, -1e300, 2.0**1000, 1.0, 2.0])
        | st.floats(-8.0, 8.0)
    )
    base = f_x if math.isfinite(f_x) else 0.0
    return base + ratio * denominator, base + denominator


@st.composite
def label_cases(draw):
    f_x = draw(
        st.sampled_from([0.0, 1.0, -2.5, 3e12, -7e-300, 1e300, *SPECIAL]) | st.floats(-1e6, 1e6)
    )
    sizes = draw(st.lists(st.integers(2, 7), min_size=1, max_size=6))
    return f_x, sizes, [draw(probe_pairs(f_x)) for _ in sizes]


class TestInlineLabel:
    """shrink_step reads every run's label as read_label does."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=label_cases(),
        divisor=st.integers(2, 4),
        hook=st.booleans(),
        chunk=st.sampled_from([None, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_labels_kept_blocks_and_degenerate_count_match(self, case, divisor, hook, chunk, seed):
        f_x, sizes, pairs = case
        d, epsilon = sum(sizes), 1e-3
        part = dependent_partition(shuffled(d, seed), divisor, key_row(seed, d), sizes)
        run_of = dict(zip(part.indices.tolist(), np.arange(len(sizes)).repeat(sizes).tolist()))

        def scripted(point):
            # From x = 0, a probe moves one run; only probe v moves a member by a label >= 2.
            f_v, f_u = pairs[run_of[int(np.flatnonzero(point)[0]) + 1]]
            return f_v if np.abs(point).max() > 1.5 * epsilon else f_u

        f = BlackBoxFunction(d, scripted)
        f = hooked(f) if hook else f
        with mock.patch.object(estimator, "CHUNK", chunk or estimator.CHUNK):
            outcome = shrink_step(f, np.zeros(d), f_x, epsilon, part)
        labels, degenerate, start = [], 0, 0
        for size, block, (f_v, f_u), kept in zip(sizes, part.block_size, pairs, outcome.kept):
            label, locates = read_label(f_x, f_v, f_u, -(-size // block))
            labels.append(label)
            degenerate += not locates
            begin = start + (label - 1) * block if locates else start + size
            want = part.indices[begin : min(begin + block, start + size)]
            np.testing.assert_array_equal(kept, want)
            start += size
        assert outcome.labels == labels
        assert all(type(label) is int for label in labels if label is not None)
        assert outcome.degenerate == degenerate

    @pytest.mark.parametrize("f_x", SPECIAL)
    def test_non_finite_base_value_reads_no_label(self, f_x):
        f = linear(6, {2: 3.0})
        outcome = shrunk(f, np.zeros(6), f_x, 1e-3, np.arange(1, 7), 3, key_row(1, 6))
        assert outcome.labels == [None] and outcome.degenerate == 1


class TestSpans:
    @pytest.mark.parametrize("d1, stored", [(20, 8), (10, 9)])
    def test_practical_schedule_shrinks_any_group_within_its_terms(self, d1, stored):
        # 10 is the attack family's grace_d1; 2^63 - 1 is above any group size.
        schedule = practical_schedule(d1)
        steps, starts, _ = estimator._spans(2**63 - 1, schedule)
        assert len(schedule.terms) == stored and len(steps) == 6
        assert steps == schedule.terms[:6]
        bound = 2**63 - 1
        for divisor, start, end in zip(steps, starts, starts[1:]):
            assert end - start == bound > 2
            bound = -(-bound // divisor)
        assert bound <= 2

    def test_schedule_terms_are_frozen(self):
        schedule = practical_schedule(20)
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.terms = (2,)

    def test_equal_schedules_share_one_cache_entry(self):
        first, second = practical_schedule(20), DivisionSchedule(practical_schedule(20).terms)
        assert first is not second and first == second
        estimator._spans.cache_clear()
        assert estimator._spans(5000, first, 33) == estimator._spans(5000, second, 33)
        assert estimator._spans.cache_info()[:2] == (1, 1)  # One hit, one miss.

    def test_steady_state_walks_no_schedule(self):
        f = make_distance(128, 4, RngStream(3)).objective
        cfg = GraceConfig.defaults(128, 4, d1=7)
        grace_estimate(f, np.zeros(128), cfg, RngStream(1))
        value = DivisionSchedule.value
        with mock.patch.object(DivisionSchedule, "value", autospec=True, side_effect=value) as walk:
            for seed in range(2, 6):
                grace_estimate(f, np.zeros(128), cfg, RngStream(seed))
            assert walk.call_count == 0
            estimator._spans(128, DivisionSchedule([5, 4]))  # A new schedule is walked.
            assert walk.call_count > 0


class TestLocateInGroup:
    def test_tiny_group_needs_no_queries(self):
        f = linear(4, {2: 1.0})
        survivors, queries = located(
            f, np.zeros(4), 0.0, 1e-3, np.array([2, 4]), practical_schedule(20), keys=key_row(0, 2)
        )
        assert survivors.tolist() == [2, 4]
        assert queries == 0

    def test_single_member_group(self):
        f = linear(4, {2: 1.0})
        survivors, queries = located(
            f, np.zeros(4), 0.0, 1e-3, np.array([3]), practical_schedule(20), keys=key_row(0, 1)
        )
        assert survivors.tolist() == [3]
        assert queries == 0

    def test_degenerate_group_dies_in_one_iteration(self):
        f = BlackBoxFunction(8, lambda x: 0.0)
        survivors, queries = located(
            f, np.zeros(8), 0.0, 1e-3, np.arange(1, 9), practical_schedule(20), keys=key_row(0, 8)
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
                keys=key_row(seed, 32),
            )
            assert 11 in survivors.tolist()
            assert survivors.size <= 2
            assert queries % 2 == 0

    @pytest.mark.parametrize("k", [2, 12, 19])
    def test_halving_ends_with_the_signal_kept(self, k):
        # Divisor 2 halves 2^k members down to two in k - 1 iterations.
        n = 2**k
        survivors, queries = located(
            linear(n, {n - 3: 1.0}),
            np.zeros(n),
            0.0,
            1e-3,
            np.arange(1, n + 1),
            DivisionSchedule([2]),
            keys=key_row(0, 2 * n),
        )
        assert n - 3 in survivors.tolist()
        assert queries == 2 * (k - 1)

    def test_rng_is_required(self):
        # The groups' randomness comes in as their key rows.
        f = linear(4, {1: 1.0})
        with pytest.raises(TypeError, match="keys"):
            locate_in_group(f, np.zeros(4), 0.0, 1e-3, np.arange(1, 5), 4, practical_schedule(20))

    def test_rejects_empty_group(self):
        f = linear(4, {1: 1.0})
        with pytest.raises(ValueError, match="empty group"):
            locate_in_group(
                f, np.zeros(4), 0.0, 1e-3, np.array([]), 1, practical_schedule(20),
                keys=key_row(0, 1)[None, :],
            )

    def test_rejects_float_members(self):
        # A cast would truncate these to members 1..5 and run on them.
        f = linear(5, {1: 1.0})
        with pytest.raises(ValueError, match="integers"):
            locate_in_group(
                f, np.zeros(5), 0.0, 1e-3, [1.0, 2.5, 3.9, 4.0, 5.0], 5, practical_schedule(20),
                keys=key_row(0, 5)[None, :],
            )

    def test_rejects_keys_too_narrow_for_the_schedule(self):
        # Groups of 4 need 4 key columns; with 3, group 1's first cut would
        # read the first key of group 2's row.
        f = linear(8, {1: 1.0})
        with pytest.raises(ValueError, match="keys of shape"):
            locate_in_group(
                f, np.zeros(8), 0.0, 1e-3, np.arange(1, 9), 4, DivisionSchedule([2]),
                keys=RngStream(0).gen.random((2, 3)),
            )

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 300),
        schedule=st.one_of(
            st.integers(2, 20).map(practical_schedule),
            st.sampled_from([[2], [3, 2]]).map(DivisionSchedule),
        ),
        signals=st.lists(st.integers(1, 300), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_members_never_exceed_the_key_bound(self, n, schedule, signals, seed):
        # b_1 = n and b_{t+1} = ceil(b_t / min(max(D_t, 2), b_t)) while b_t > 2;
        # iteration t reads the key columns after the first b_1 + ... + b_{t-1},
        # one per live member, and at most b_t members are live.
        bounds = [n]
        while bounds[-1] > 2:
            bound = bounds[-1]
            bounds.append(-(-bound // min(max(schedule.value(len(bounds)), 2), bound)))
        seen = []

        def recording(f, x, f_x, epsilon, part):
            seen.append((list(part.sizes), part.signs.copy()))
            return shrink_step(f, x, f_x, epsilon, part)

        coeffs = {(j - 1) % n + 1: 2.0**k for k, j in enumerate(signals)}
        row = key_row(seed, sum(bounds[:-1]))
        with mock.patch.object(estimator, "shrink_step", recording):
            survivors = locate_in_group(
                linear(n, coeffs), np.zeros(n), 0.0, 1e-3, np.arange(1, n + 1), n, schedule,
                keys=row[None, :],
            )
        assert len(seen) <= len(bounds) - 1
        for t, (sizes, signs) in enumerate(seen):
            assert len(sizes) == 1 and sizes[0] <= bounds[t]
            columns = row[sum(bounds[:t]) :][: sizes[0]]
            np.testing.assert_array_equal(signs, np.where(columns < 0.5, 1, -1))
        assert len(survivors) <= bounds[len(seen)]


def first_pass(dims, n, schedule, keys):
    """The partition locate_in_group cuts for its first shrink pass, or None if it makes none."""
    parts = []

    def recording(f, x, f_x, epsilon, part):
        parts.append(part)
        return shrink_step(f, x, f_x, epsilon, part)

    # A flat f leaves every run without a label, so pass 1 is the only pass.
    f = BlackBoxFunction(len(dims), lambda point: 0.0)
    with mock.patch.object(estimator, "shrink_step", recording):
        found = locate_in_group(f, np.zeros(len(dims)), 0.0, 1e-3, dims, n, schedule, keys=keys)
    assert len(parts) <= 1
    return (parts[0] if parts else None), found


def check_first_pass(d, n, schedule, seed):
    """Pass 1 equals dependent_partition over the groups of more than two members."""
    dims = shuffled(d, seed)
    width = estimator._spans(n, schedule)[1][-1]
    keys = RngStream(seed, 2).gen.random((-(-d // n), width))
    part, found = first_pass(dims, n, schedule, keys)
    sizes = [n] * (d // n) + [d % n] * (d % n > 2) if n > 2 else []
    if not sizes:
        assert part is None and found == dims.tolist()
        return
    offsets = [g * width for g in range(len(sizes))]
    divisor = max(schedule.value(1), 2)
    want = dependent_partition(dims[: sum(sizes)], divisor, keys.ravel(), sizes, offsets)
    np.testing.assert_array_equal(part.indices, want.indices)
    assert list(part.sizes) == want.sizes and list(part.block_size) == want.block_size
    for got, expected in ((part.labels, want.labels), (part.signs, want.signs)):
        assert got.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
    # The pass geometry that the plan caches is the one a partition derives.
    assert tuple(part.ends) == tuple(want.ends) == (0, *itertools.accumulate(sizes))
    np.testing.assert_array_equal(part.rows, want.rows)
    np.testing.assert_array_equal(part.rows[0], np.arange(len(sizes)).repeat(sizes))
    # The members of a ragged group of at most two are found as they are.
    assert found[: d - sum(sizes)] == dims[sum(sizes) :].tolist()


class TestFirstPassPlan:
    """Pass 1 of every repeat comes from a plan cached per (d, n, D_1)."""

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 300),
        data=st.data(),
        schedule=st.one_of(
            st.integers(2, 30).map(practical_schedule),
            st.builds(DivisionSchedule, st.just([2])),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_dependent_partition(self, d, data, schedule, seed):
        check_first_pass(d, data.draw(st.integers(1, d), label="n"), schedule, seed)

    @pytest.mark.parametrize(
        "d, n",
        [(1, 1), (2, 2), (9, 2), (10, 4), (9, 4), (12, 4), (7, 7), (3, 3), (300, 300), (2000, 35)],
    )
    @pytest.mark.parametrize("d1", [2, 20, None])
    def test_edge_shapes_equal_dependent_partition(self, d, n, d1):
        # n <= 2; ragged groups of 2, 1 and n; d = n; past d = 1024, uncached labels.
        schedule = DivisionSchedule([2]) if d1 is None else practical_schedule(d1)
        check_first_pass(d, n, schedule, d + n)

    def test_cache_is_keyed_on_what_the_plan_reads(self):
        inst = make_distance(512, 10, RngStream(4))
        x = inst.x1 + 0.01
        base = GraceConfig.defaults(512, 10)
        configs = [
            base,
            GraceConfig.defaults(512, 10, d1=10),
            replace(base, n=50),
            replace(base, schedule=DivisionSchedule([2])),
            base,
        ]

        def estimates(clear):
            seen = []
            for cfg in configs:
                if clear:
                    estimator._plan.cache_clear()
                estimate = grace_estimate(inst.objective, x, cfg, RngStream(5))
                seen.append((estimate.queries_used, estimate.entries))
            return seen

        assert estimates(False) == estimates(True)

    def test_cached_arrays_are_read_only_and_bounded(self):
        *_, ends, labels, rows = estimator._plan(512, 35, 20)
        for array in (labels, rows):
            with pytest.raises(ValueError):
                array[0] = 7
        assert type(ends) is tuple
        assert estimator._plan(2048, 35, 20)[5:] == (None, None)


class TestGraceEstimate:
    def test_hand_traced_single_signal(self):
        # d=4, one group, unit blocks: 1 base query + 2 shrink + 1
        # forward difference = 4 queries, any seed.
        inst = make_sparse_linear(4, {2: 3.0})
        cfg = GraceConfig(epsilon=1e-3, n=4, schedule=DivisionSchedule([4]))
        for seed in range(10):
            est = grace_estimate(inst.objective, inst.x1, cfg, RngStream(seed))
            assert est.entries == {2: pytest.approx(3.0)}
            assert est.queries_used == 4
            assert est.base_value == 0.0

    def test_exact_zero_difference_is_left_out(self):
        # Blocks of two: the signal's block survives whole, and its twin with
        # zero gradient measures exactly 0.0, which costs a query but no entry.
        inst = make_sparse_linear(4, {2: 3.0})
        cfg = GraceConfig(epsilon=1e-3, n=4, schedule=DivisionSchedule([2]))
        for seed in range(10):
            est = grace_estimate(inst.objective, inst.x1, cfg, RngStream(seed))
            assert est.entries == {2: pytest.approx(3.0)}
            assert est.queries_used == 5  # base, two probes, two differences

    def test_groups_draw_independently(self):
        # Each group's survivors come from its own key row alone: locate_in_group
        # run on that group and row alone gives them back, and a group whose
        # probes all read flat changes no other group's members, keys or survivors.
        inst = make_planted_linear(256, 4, RngStream(11))
        cfg = GraceConfig.defaults(256, 4, epsilon=1e-3)
        base = inst.objective(inst.x1)

        def groups_of(f):
            calls = []

            def recording(f, x, f_x, epsilon, dims, n, schedule, *, keys):
                survivors = locate_in_group(f, x, f_x, epsilon, dims, n, schedule, keys=keys)
                calls.append((dims, keys, set(survivors)))
                return survivors

            with mock.patch.object(estimator, "locate_in_group", recording):
                grace_estimate(f, inst.x1, cfg, RngStream(3))
            ((dims, keys, survivors),) = calls
            starts = range(0, dims.size, cfg.n)
            groups = [dims[start : start + cfg.n].tolist() for start in starts]
            return [(members, row, survivors & set(members)) for members, row in zip(groups, keys)]

        groups = groups_of(inst.objective)
        assert [len(members) for members, _, _ in groups] == [44] * 5 + [36]
        for members, row, survivors in groups:
            alone = locate_in_group(
                inst.objective, inst.x1.copy(), base, cfg.epsilon, np.array(members), len(members),
                cfg.schedule, keys=row[None, :],
            )
            assert set(alone) == survivors
        # The first group that locates a planted coordinate goes flat; later
        # groups would read shifted draws if the groups shared one stream.
        support = set(inst.metadata["coeffs"])
        flat = next(g for g, (_, _, found) in enumerate(groups) if support & found)
        assert flat < len(groups) - 1
        blanked = set(groups[flat][0])

        def blank(x):
            moved = np.flatnonzero(x != inst.x1) + 1
            return base if blanked.intersection(moved.tolist()) else inst.objective(x)

        again = groups_of(BlackBoxFunction(256, blank))
        assert len(again) == len(groups)
        for g, ((members, row, survivors), (members2, row2, survivors2)) in enumerate(
            zip(groups, again)
        ):
            assert members2 == members
            np.testing.assert_array_equal(row2, row)
            assert survivors2 == (set() if g == flat else survivors)

    def test_zero_function_recovers_nothing(self):
        f = BlackBoxFunction(12, lambda x: 0.0)
        cfg = GraceConfig(epsilon=1e-3, n=4)
        est = grace_estimate(f, np.zeros(12), cfg, RngStream(1))
        assert est.entries == {}
        # One base query plus one degenerate iteration per group.
        assert est.queries_used == 1 + 2 * 3

    def test_linear_values_are_exact(self):
        inst = make_sparse_linear(32, {7: 1.25, 20: -0.75})
        cfg = GraceConfig(epsilon=1e-3, n=8)
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
            cfg = GraceConfig(epsilon=1e-3, n=n, m=m)
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
                epsilon=1e-3, n=int(rng.gen.integers(1, d + 1)), m=int(rng.gen.integers(1, 3))
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
            GraceConfig(epsilon=0.0, n=4),
            GraceConfig(epsilon=math.inf, n=4),
            GraceConfig(epsilon=math.nan, n=4),
            GraceConfig(epsilon=1e-3, n=9),
            GraceConfig(epsilon=1e-3, n=4, m=0),
        ]
        for cfg in bad:
            with pytest.raises(ValueError):
                grace_estimate(f, np.zeros(8), cfg, RngStream(0))

    @pytest.mark.parametrize(
        "field, value",
        [("n", 10.5), ("n", 4.0), ("n", True), ("m", 2.0), ("m", True), ("m", "2")],
    )
    def test_validate_rejects_non_integer_n_and_m_before_any_query(self, field, value):
        counted, ledger = with_ledger(linear(16, {3: 1.0}))
        cfg = replace(GraceConfig(epsilon=1e-6, n=4), **{field: value})
        with pytest.raises(ValueError, match="integers n and m"):
            grace_estimate(counted, np.zeros(16), cfg, RngStream(0))
        assert ledger.count == 0

    @pytest.mark.parametrize("schedule", [(2,), [2], None, 20])
    def test_validate_rejects_a_schedule_that_is_no_division_schedule(self, schedule):
        counted, ledger = with_ledger(linear(16, {3: 1.0}))
        cfg = GraceConfig(epsilon=1e-6, n=4, schedule=schedule)
        with pytest.raises(ValueError, match="DivisionSchedule"):
            grace_estimate(counted, np.zeros(16), cfg, RngStream(0))
        assert ledger.count == 0

    def test_validate_rejects_a_bool_epsilon_before_any_query(self):
        # True compares as 1 and would probe with steps of 1.0.
        counted, ledger = with_ledger(linear(16, {3: 1.0}))
        for value in (True, False):
            with pytest.raises(ValueError, match="epsilon"):
                GraceConfig(epsilon=value, n=4).validate(8)
            with pytest.raises(ValueError, match="epsilon"):
                grace_estimate(counted, np.zeros(16), GraceConfig(value, 4), RngStream(0))
        assert ledger.count == 0

    def test_validate_takes_numpy_integers(self):
        cfg = GraceConfig(epsilon=1e-3, n=np.int64(4), m=np.int64(2))
        plain = GraceConfig(epsilon=1e-3, n=4, m=2)
        f = linear(16, {3: 1.0})
        got = grace_estimate(f, np.zeros(16), cfg, RngStream(0))
        want = grace_estimate(f, np.zeros(16), plain, RngStream(0))
        assert got.entries == want.entries and got.queries_used == want.queries_used

    def test_defaults_reject_sparsity_below_one(self):
        for s in (0, -1):
            with pytest.raises(ValueError, match="s >= 1"):
                GraceConfig.defaults(8, s)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_base_value_raises(self, bad):
        counted, ledger = with_ledger(BlackBoxFunction(256, lambda x: bad))
        with pytest.raises(ValueError, match=f"got {bad}"):
            grace_estimate(counted, np.zeros(256), GraceConfig.defaults(256, 6), RngStream(0))
        assert ledger.count == 1  # the base value only; no shrink query follows

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(2, 48),
        s=st.integers(1, 4),
        m=st.integers(1, 2),
        seed=st.integers(0, 2**32),
        poisoned=st.dictionaries(
            st.integers(0, 60), st.sampled_from([math.inf, -math.inf, math.nan]), max_size=12
        ),
    )
    def test_non_finite_values_never_reach_the_entries(self, d, s, m, seed, poisoned):
        # poisoned maps a query's position in call order to the value f returns there.
        inst = make_planted_linear(d, min(s, d), RngStream(seed))
        order = itertools.count()

        def evaluate(x):
            return poisoned.get(next(order), inst.objective(x))

        counted, ledger = with_ledger(BlackBoxFunction(d, evaluate))
        cfg = replace(GraceConfig.defaults(d, s, epsilon=1e-3), m=m)
        if 0 in poisoned:
            with pytest.raises(ValueError, match="finite f"):
                grace_estimate(counted, inst.x1, cfg, RngStream(seed).derive(1))
            assert ledger.count == 1
            return
        est = grace_estimate(counted, inst.x1, cfg, RngStream(seed).derive(1))
        assert all(math.isfinite(value) for value in est.entries.values())
        assert est.queries_used == ledger.count

    def test_readme_example_is_pinned(self):
        # Runs the README's quick example from its text.  A change that re-keys
        # the random streams must update these figures and the README on purpose.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        snippet = readme.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(snippet, namespace)
        grad = namespace["grad"]
        assert grad.queries_used == 23
        assert sorted(grad.entries) == [45, 102, 117, 142]

    def test_non_finite_difference_is_left_out(self):
        # Probes move all four coordinates; only the forward difference moves one.
        f = BlackBoxFunction(4, lambda x: math.inf if np.count_nonzero(x) == 1 else 3.0 * x[1])
        cfg = GraceConfig(epsilon=1e-3, n=4, schedule=DivisionSchedule([4]))
        est = grace_estimate(f, np.zeros(4), cfg, RngStream(0))
        assert est.entries == {}
        assert est.queries_used == 4  # the dropped difference is still counted


class TestBatchedProbes:
    """An objective's batch hook changes how probes are sent, never what comes back."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(2, 160),
        data=st.data(),
        m=st.integers(1, 2),
        schedule=st.one_of(
            st.integers(2, 20).map(practical_schedule),
            st.sampled_from([[2], [3, 2]]).map(DivisionSchedule),
        ),
        family=st.sampled_from([make_distance, make_planted_linear]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hook_changes_no_result(self, d, data, m, schedule, family, seed):
        # n need not divide d, so the last group is often ragged; schedules with
        # small divisors shrink large groups over several iterations.
        n = data.draw(st.integers(1, d), label="n")
        s = data.draw(st.integers(1, min(d, 6)), label="s")
        inst = family(d, s, RngStream(seed))
        x = inst.x1 + 0.01 * RngStream(seed, 1).gen.standard_normal(d)
        cfg = GraceConfig(epsilon=1e-3, n=n, m=m, schedule=schedule)
        plain = grace_estimate(unhooked(inst.objective), x, cfg, RngStream(seed, 2))
        for f in (hooked(inst.objective), inst.objective):
            est = grace_estimate(f, x, cfg, RngStream(seed, 2))
            assert list(est.entries.items()) == list(plain.entries.items())
            assert est.queries_used == plain.queries_used
            assert est.base_value == plain.base_value

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["distance", "attack", "magnitude"]),
        data=st.data(),
        m=st.integers(2, 3),
        schedule=st.one_of(
            st.integers(2, 6).map(practical_schedule),
            st.sampled_from([[2], [3, 2]]).map(DivisionSchedule),
        ),
        per_call=st.sampled_from([None, 1, 3, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_family_hooks_change_no_result(self, family, data, m, schedule, per_call, seed):
        # The hooks as the families ship them.  Small divisors shrink groups over
        # several passes; a small BATCH_FLOATS sends every pass and the forward
        # differences in several calls, some cut between the two probes of a run.
        if family == "attack":
            vertices = data.draw(st.integers(4, 9), label="vertices")
            ring = np.roll(np.eye(vertices, dtype=np.int64), 1, axis=1)
            inst = make_attack(Graph(vertices, ring + ring.T), 1, 2, 3, 0.1)
        else:
            d = data.draw(st.integers(8, 300), label="d")
            make = make_distance if family == "distance" else make_magnitude
            args = (0.1, 0.2) if family == "magnitude" else ()
            inst = make(d, min(5, d), *args, RngStream(seed))
        d = inst.objective.dim
        x = inst.x1 + 0.01 * RngStream(seed, 1).gen.standard_normal(d)
        cfg = GraceConfig(1e-3, data.draw(st.integers(3, d), label="n"), m, schedule)
        plain = grace_estimate(unhooked(inst.objective), x, cfg, RngStream(seed, 2))
        bound = estimator.BATCH_FLOATS if per_call is None else per_call * d
        with mock.patch.object(estimator, "BATCH_FLOATS", bound):
            est = grace_estimate(inst.objective, x, cfg, RngStream(seed, 2))
        assert inst.objective.batch is not None
        assert list(est.entries.items()) == list(plain.entries.items())
        assert est.queries_used == plain.queries_used
        assert est.base_value == plain.base_value

    @pytest.mark.parametrize("hook", [False, True])
    @pytest.mark.parametrize("schedule", [practical_schedule(20), DivisionSchedule([3, 2])])
    def test_phase_queries_sum_to_queries_used(self, hook, schedule):
        # Wrapped by name, as a tracer finds the phases: one base value, two
        # queries per run a shrink pass probes, one per candidate differenced.
        inst = make_distance(512, 10, RngStream(8))
        x = inst.x1 + 0.05
        counted, ledger = with_ledger(inst.objective if hook else unhooked(inst.objective))
        spent, expected = {"shrink": 0, "fd": 0}, {"shrink": 0, "fd": 0}

        def tallied(name, function, width):
            def wrapped(*args):
                before = ledger.count
                expected[name] += width(args)
                try:
                    return function(*args)
                finally:
                    spent[name] += ledger.count - before

            return wrapped

        shrink = tallied("shrink", shrink_step, lambda args: 2 * len(args[4].sizes))
        differences = tallied("fd", finite_difference, lambda args: len(args[3]))
        cfg = GraceConfig(1e-6, 35, 2, schedule)
        with mock.patch.object(estimator, "shrink_step", shrink):
            with mock.patch.object(estimator, "finite_difference", differences):
                est = grace_estimate(counted, x, cfg, RngStream(3))
        assert spent == expected and spent["fd"] > 0
        assert 1 + spent["shrink"] + spent["fd"] == est.queries_used == ledger.count
        plain = grace_estimate(unhooked(inst.objective), x, cfg, RngStream(3))
        assert est.entries == plain.entries and est.queries_used == plain.queries_used

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(4, 64),
        m=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        poison=st.dictionaries(
            st.integers(1, 64), st.sampled_from([math.inf, -math.inf, math.nan]), max_size=6
        ),
    )
    def test_non_finite_rows_drop_as_without_the_hook(self, d, m, seed, poison):
        # f is non-finite wherever a poisoned coordinate moved: its group's probes
        # and its forward difference, and nothing else.
        inst = make_planted_linear(d, min(4, d), RngStream(seed))
        poison = {j: value for j, value in poison.items() if j <= d}

        def evaluate(x):
            for j in (np.flatnonzero(x != inst.x1) + 1).tolist():
                if j in poison:
                    return poison[j]
            return inst.objective(x)

        f = BlackBoxFunction(d, evaluate)
        cfg = replace(GraceConfig.defaults(d, min(4, d), epsilon=1e-3), m=m)
        plain = grace_estimate(f, inst.x1, cfg, RngStream(seed, 1))
        est = grace_estimate(hooked(f), inst.x1, cfg, RngStream(seed, 1))
        assert list(est.entries.items()) == list(plain.entries.items())
        assert est.queries_used == plain.queries_used
        assert not set(poison) & set(est.entries)
        assert all(math.isfinite(value) for value in est.entries.values())

    def test_caps_mid_iteration_and_mid_difference_count_alike(self):
        # Groups of 11 with divisor 2 shrink over three iterations, so the caps
        # below land in every iteration and in the forward differences.
        inst = make_distance(64, 4, RngStream(2))
        x = inst.x1 + 0.01
        cfg = replace(GraceConfig.defaults(64, 4), schedule=DivisionSchedule([2]))
        total = grace_estimate(inst.objective, x, cfg, RngStream(5)).queries_used
        assert total > 20
        for cap in range(total + 2):
            seen = []
            for f in (unhooked(inst.objective), inst.objective):
                counted, ledger = with_ledger(f, cap)
                try:
                    est, raised = grace_estimate(counted, x, cfg, RngStream(5)), False
                except BudgetExhaustedError as error:
                    est, raised = error.partial, True
                seen.append((raised, est.queries_used, est.base_value, ledger.count))
            assert seen[0] == seen[1]
            assert seen[0][0] == (cap < total)

    def test_budget_cut_runs_record_alike(self):
        inst = make_distance(64, 4, RngStream(3))
        cfg = GraceConfig.defaults(64, 4)
        for budget in range(1, 200, 7):
            opt = OptimizerConfig(method="grace", step_size=0.5, budget=budget)
            plain = run_optimizer(unhooked(inst.objective), inst.x1, opt, RngStream(4), cfg)
            trace = run_optimizer(inst.objective, inst.x1, opt, RngStream(4), cfg)
            assert trace.records == plain.records
            assert trace.best_value == plain.best_value
            np.testing.assert_array_equal(trace.best_point, plain.best_point)

    @pytest.mark.parametrize("bound", [100, 10])
    def test_batch_calls_respect_the_float_bound(self, bound):
        # d = 16: a bound of 100 floats allows 6 rows a call, one of 10 allows 1.
        inst = make_distance(16, 3, RngStream(1))
        cfg = GraceConfig(epsilon=1e-3, n=4, m=2, schedule=DivisionSchedule([2]))
        calls = []
        with mock.patch.object(estimator, "BATCH_FLOATS", bound):
            est = grace_estimate(hooked(inst.objective, calls), inst.x1, cfg, RngStream(3))
        plain = grace_estimate(unhooked(inst.objective), inst.x1, cfg, RngStream(3))
        assert max(calls) == max(1, bound // 16)
        assert sum(calls) == est.queries_used - 1  # all but the base value
        assert est.entries == plain.entries and est.queries_used == plain.queries_used

    @pytest.mark.parametrize("per_call", [None, 3, 1])
    def test_rows_are_x_with_one_runs_probe_in_k_runs_plus_i_order(self, per_call):
        # Probe k of run i is row k * runs + i: x everywhere but at run i's
        # members, which hold probe k's values (v = x + eps * sign * label,
        # u = x + eps * sign).  Past BATCH_FLOATS the same rows come in
        # order over several calls, some of them cut between the v and u rows.
        sizes, offsets, divisor, epsilon = [4, 7, 3, 9, 5], [0, 9, 20, 30, 45], 3, 1e-3
        d = sum(sizes) + 6
        x = np.linspace(-1.0, 2.0, d)
        members, keys = shuffled(d, 7)[: sum(sizes)], key_row(7, 60)
        matrices = []

        def batch(rows):
            matrices.append(rows.copy())
            return rows @ np.arange(1.0, d + 1)

        f = BlackBoxFunction(d, lambda point: float(point @ np.arange(1.0, d + 1)), batch)
        bound = estimator.BATCH_FLOATS if per_call is None else per_call * d
        with mock.patch.object(estimator, "BATCH_FLOATS", bound):
            shrunk(f, x.copy(), 0.0, epsilon, members, divisor, keys, sizes, offsets)
        part = dependent_partition(members, divisor, keys, sizes, offsets)
        positions, step = part.indices - 1, epsilon * part.signs
        values = (x[positions] + step * part.labels, x[positions] + step)
        expected = np.tile(x, (2 * len(sizes), 1))
        starts = list(itertools.accumulate(sizes, initial=0))
        for k, row in enumerate(values):
            for i, (lo, hi) in enumerate(zip(starts, starts[1:])):
                expected[k * len(sizes) + i, positions[lo:hi]] = row[lo:hi]
        assert len(matrices) == (1 if per_call is None else -(-2 * len(sizes) // per_call))
        assert all(len(rows) <= (per_call or 2 * len(sizes)) for rows in matrices)
        np.testing.assert_array_equal(np.concatenate(matrices), expected)

    def test_no_hook_call_without_rows(self):
        # A raw hooked objective, with no ledger in front, never gets an empty matrix.
        def batch(rows):
            if len(rows) == 0:
                raise AssertionError("batch called with zero rows")
            return np.full(len(rows), 7.0)

        f = BlackBoxFunction(12, lambda point: 7.0, batch)
        assert finite_difference(f, np.zeros(12), 7.0, [], 1e-3) == []
        # A constant f leaves every group without signal, so no candidate survives.
        est = grace_estimate(f, np.zeros(12), GraceConfig(epsilon=1e-3, n=5, m=2), RngStream(0))
        assert est.entries == {} and est.queries_used > 1


class TestProbePoint:
    """f sees one private copy of x, moved only where a probe moves it."""

    @pytest.mark.parametrize("hook", [False, True])
    def test_callers_x_is_never_written(self, hook):
        inst = make_distance(64, 4, RngStream(1))
        cfg = GraceConfig.defaults(64, 4)
        x = inst.x1 + 0.01
        x.setflags(write=False)
        before = x.copy()
        f = hooked(inst.objective) if hook else unhooked(inst.objective)
        est = grace_estimate(f, x, cfg, RngStream(2))
        np.testing.assert_array_equal(x, before)
        plain = grace_estimate(unhooked(inst.objective), before, cfg, RngStream(2))
        assert est.entries == plain.entries and est.queries_used == plain.queries_used

    def test_points_differ_from_x_only_where_probed(self):
        # The base query sees x itself.  A shrink iteration's two probes of a
        # group move the same coordinates, all of them live members of that
        # group; a forward difference moves its candidate alone.
        inst = make_planted_linear(96, 4, RngStream(5))
        x = np.linspace(0.5, 1.5, 96)
        cfg = replace(
            GraceConfig.defaults(96, 4, epsilon=1e-3), m=2, schedule=DivisionSchedule([3])
        )
        moved, repeats, measured = [], [], []

        def evaluate(point):
            assert point is not x
            moved.append(frozenset((np.flatnonzero(point != x) + 1).tolist()))
            return inst.objective(point)

        def grouping(d, n, omega):
            dims = partition_groups(d, n, omega)
            repeats.append([set(dims[start : start + n].tolist()) for start in range(0, d, n)])
            return dims

        def differences(f, x, f_x, indices, epsilon):
            measured.extend(indices)
            return finite_difference(f, x, f_x, indices, epsilon)

        with mock.patch.object(estimator, "partition_groups", grouping), mock.patch.object(
            estimator, "finite_difference", differences
        ):
            est = grace_estimate(BlackBoxFunction(96, evaluate), x, cfg, RngStream(6))
        assert len(moved) == est.queries_used and moved[0] == frozenset()
        shrink, fd = moved[1 : len(moved) - len(measured)], moved[len(moved) - len(measured) :]
        assert fd == [frozenset([j]) for j in measured]
        groups = [group for groups in repeats for group in groups]
        for v, u in zip(shrink[::2], shrink[1::2]):
            assert v == u and len(v) >= 3
            assert sum(v <= group for group in groups) == 1

    def test_eval_receives_the_same_buffer_back_restored(self):
        # Without a hook the probes share one buffer, which is x again
        # between two runs' probes.
        f = linear(40, {3: 1.0, 17: 2.0, 33: -1.0})
        x = np.arange(40.0)
        buffers = []

        def evaluate(point):
            buffers.append(point)
            return f.eval(point)

        cfg = GraceConfig(epsilon=1e-3, n=10)
        grace_estimate(BlackBoxFunction(40, evaluate), x, cfg, RngStream(1))
        assert len({id(buffer) for buffer in buffers}) == 1
        np.testing.assert_array_equal(buffers[0], x)


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
        assert finite_difference(f, np.zeros(5), 0.0, [3], 1e-4) == [pytest.approx(2.5)]

    def test_uses_shared_base_value(self):
        # The base value is trusted as given, not re-queried.
        counted, ledger = with_ledger(make_sparse_linear(5, {3: 2.5}).objective)
        finite_difference(counted, np.zeros(5), 0.0, [3], 1e-4)
        assert ledger.count == 1

    def test_rejects_bad_arguments(self):
        f = linear(5, {3: 2.5})
        with pytest.raises(ValueError):
            finite_difference(f, np.zeros(5), 0.0, [0], 1e-4)
        with pytest.raises(ValueError):
            finite_difference(f, np.zeros(5), 0.0, [2, 6], 1e-4)
        with pytest.raises(ValueError, match="integers"):
            finite_difference(f, np.zeros(5), 0.0, [2.5], 1e-4)
        for epsilon in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                finite_difference(f, np.zeros(5), 0.0, [3], epsilon)

    @pytest.mark.parametrize("hook", [False, True])
    def test_one_query_per_dimension_in_order(self, hook):
        f = linear(6, {2: 1.5, 5: -2.0})
        counted, ledger = with_ledger(hooked(f) if hook else f)
        x = np.zeros(6)
        got = finite_difference(counted, x, 0.0, [5, 1, 2], 1e-3)
        assert got == [pytest.approx(-2.0), 0.0, pytest.approx(1.5)]
        assert ledger.count == 3
        assert finite_difference(counted, x, 0.0, [], 1e-3) == []
        np.testing.assert_array_equal(x, np.zeros(6))
