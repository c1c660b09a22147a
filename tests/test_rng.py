"""Seeded randomness: streams, permutations, partitions."""

import math
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zosparse import estimator
from zosparse.blackbox import BlackBoxFunction, make_sparse_linear
from zosparse.estimator import GraceConfig, grace_estimate
from zosparse.rng import (
    DependentPartition,
    RngStream,
    StepStreams,
    dependent_partition,
    partition_groups,
    random_permutation,
)
from zosparse.theory import DivisionSchedule


# The grouping loop that partition_groups replaced, kept as a reference.


def _reference_groups(d, n, omega):
    labels = (np.asarray(omega, dtype=np.int64) + n - 1) // n
    return [np.flatnonzero(labels == k) + 1 for k in range(1, -(-d // n) + 1)]


def _groups(d, n, omega):
    """partition_groups' flat result cut into its groups of n."""
    dims = partition_groups(d, n, omega)
    assert dims.shape == (d,)
    return [dims[start : start + n] for start in range(0, d, n)]


def _keys(seed, width):
    """A 1-d sign key row for dependent_partition."""
    return RngStream(seed).gen.random(width)


def _pattern(part):
    """A partition's labels, read in ascending order of the members."""
    return tuple(part.labels[np.argsort(part.indices)].tolist())


# 0.999 quantiles of the chi-square law by degrees of freedom: a seeded
# test of a uniform draw fails at one seed in a thousand.
CHI2_999 = {1: 10.828, 5: 20.515, 15: 37.697, 23: 49.728, 350: 437.488}


def _chi_square_uniform(counts, cells):
    """Pearson's statistic of counts against the uniform law over cells outcomes."""
    assert len(counts) == cells
    expected = sum(counts.values()) / cells
    return sum((count - expected) ** 2 / expected for count in counts.values())


def _draws(gen):
    """Draws of every kind a step makes; the permutation leaves half a 64-bit word."""
    return (
        gen.permutation(7).tolist(),
        gen.random(3).tolist(),
        gen.standard_normal(5).tolist(),
        gen.permutation(300).tolist(),
    )


key_words = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80), st.just(0))


def _counter_gen(seed, stream, path, step):
    """A fresh generator on RngStream(seed, stream, path)'s key at counter (0, 0, step, 0)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream, *path))
    key = seq.generate_state(2, np.uint64)
    counter = np.array([0, 0, step, 0], np.uint64)  # A list of ints >= 2**63 warns in numpy.
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(42).gen.random(8)
        b = RngStream(42).gen.random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).gen.random(8)
        b = RngStream(2).gen.random(8)
        assert not np.array_equal(a, b)

    def test_streams_are_independent(self):
        base = RngStream(7)
        a = RngStream(7, stream=0).gen.random(8)
        b = RngStream(7, stream=1).gen.random(8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, base.gen.random(8))

    def test_derive_is_deterministic(self):
        a = RngStream(5).derive(1, 2).gen.random(4)
        b = RngStream(5).derive(1, 2).gen.random(4)
        np.testing.assert_array_equal(a, b)

    def test_derive_extends_path(self):
        child = RngStream(5).derive(1).derive(2)
        flat = RngStream(5).derive(1, 2)
        np.testing.assert_array_equal(child.gen.random(4), flat.gen.random(4))

    def test_derived_streams_differ_from_parent(self):
        parent = RngStream(9)
        child = RngStream(9).derive(0)
        assert not np.array_equal(parent.gen.random(8), child.gen.random(8))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_repr_mentions_seed_and_path(self):
        text = repr(RngStream(3).derive(1, 4))
        assert "3" in text and "1" in text and "4" in text

    def test_keys_its_generator_on_first_read(self):
        seeds = mock.Mock(wraps=np.random.SeedSequence)
        with mock.patch("zosparse.rng.np.random.SeedSequence", seeds):
            child = RngStream(5, 2, (1,)).derive(3).derive(4)
            assert seeds.call_count == 0
            gen = child.gen
            assert seeds.call_count == 1
            assert child.gen is gen
            child.gen.random(3)
            assert seeds.call_count == 1

    @settings(max_examples=100, deadline=None)
    @given(seed=key_words, stream=key_words, path=st.lists(key_words, max_size=3))
    def test_draws_equal_a_seed_sequence_philox(self, seed, stream, path):
        key = np.random.SeedSequence(entropy=seed, spawn_key=(stream, *path))
        want = np.random.Generator(np.random.Philox(key))
        assert _draws(RngStream(seed, stream, tuple(path)).gen) == _draws(want)

    @pytest.mark.parametrize("seed, stream, path", [(-1, 0, ()), (1, -2, ()), (1, 0, (3, -1))])
    def test_negative_keys_raise_before_any_draw(self, seed, stream, path):
        with pytest.raises(ValueError, match="nonnegative"):
            RngStream(seed, stream, path)
        with pytest.raises(ValueError, match="nonnegative"):
            RngStream(1).derive(3, -1)

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, False, np.True_, np.float64(2.0), "2"])
    def test_rejects_keys_that_are_no_integers(self, bad):
        # int() would truncate 2.7 to 2 and read True as 1, replaying another key's draws.
        rng = RngStream(1)
        for make in (
            lambda: RngStream(bad),
            lambda: RngStream(1, stream=bad),
            lambda: RngStream(1, path=(3, bad)),
            lambda: rng.derive(bad),
            lambda: StepStreams(rng).derive(bad),
            lambda: random_permutation(bad, rng),
        ):
            with pytest.raises(ValueError, match="integer"):
                make()

    def test_accepts_numpy_integer_keys(self):
        # Numpy integers name the same keys as Python ints.
        rng = RngStream(1)
        assert RngStream(np.int64(2)).gen.random() == RngStream(2).gen.random()
        (key,) = rng.derive(np.uint8(3)).path
        assert type(key) is int and key == 3
        step = StepStreams(rng).derive(np.int64(2)).gen.random()
        assert step == StepStreams(rng).derive(2).gen.random()
        images = random_permutation(np.int64(3), RngStream(4))
        np.testing.assert_array_equal(images, random_permutation(3, RngStream(4)))


class TestStepStreams:
    """Step t of StepStreams(rng) draws from rng's Philox key at counter (0, 0, t, 0)."""

    @pytest.mark.parametrize(
        "seed, stream, path",
        [(0, 0, ()), (5, 1, (2, 3)), (2**32, 0, ()), (2**64 + 5, 2**40, (2**33, 0, 7))],
    )
    def test_draws_equal_the_run_key_at_counter_step(self, seed, stream, path):
        source = StepStreams(RngStream(seed, stream, path))
        for step in [2, 2**64 - 1, 1, 2**32, 2, 1]:
            stream_of_step = source.derive(step)
            assert stream_of_step.path == (*path, step)
            assert _draws(stream_of_step.gen) == _draws(_counter_gen(seed, stream, path, step))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=key_words | st.integers(2**80, 2**200),
        stream=key_words,
        path=st.lists(key_words, max_size=3),
        steps=st.lists(st.integers(1, 2**64 - 1), min_size=1, max_size=6),
    )
    def test_any_steps_draw_at_their_counter(self, seed, stream, path, steps):
        source = StepStreams(RngStream(seed, stream, tuple(path)))
        for step in steps:
            want = _counter_gen(seed, stream, path, step).random(3).tolist()
            assert source.derive(step).gen.random(3).tolist() == want

    def test_steps_draw_apart_from_each_other_and_the_run(self):
        rng = RngStream(3, 1, (4,))
        source = StepStreams(rng)
        firsts = [tuple(source.derive(step).gen.random(4)) for step in (1, 2, 2**32, 2**64 - 1)]
        own = tuple(rng.gen.random(4))
        assert own == tuple(RngStream(3, 1, (4,)).gen.random(4))  # The steps left it alone.
        assert len({*firsts, own}) == 5

    def test_rejects_a_negative_step(self):
        with pytest.raises(ValueError, match="step"):
            StepStreams(RngStream(1)).derive(-1)

    @pytest.mark.parametrize("step", [0, 2**64])
    def test_rejects_step_zero_and_2_to_the_64(self, step):
        # Step 0 is the run's own stream; 2**64 does not fit counter word 2.
        with pytest.raises(ValueError, match="step"):
            StepStreams(RngStream(1)).derive(step)

    def test_one_seed_sequence_per_run(self):
        # The generator is keyed once, from the SeedSequence the constructor
        # builds for the run's key; each step only writes a new counter into it.
        rng = RngStream(3, 1, (4,))
        seeds = mock.Mock(wraps=np.random.SeedSequence)
        with mock.patch("zosparse.rng.np.random.SeedSequence", seeds):
            source = StepStreams(rng)
            draws = [_draws(source.derive(step).gen) for step in range(1, 5)]
        assert seeds.call_count == 1
        assert draws == [_draws(_counter_gen(3, 1, (4,), step)) for step in range(1, 5)]

    def test_never_calls_derive(self):
        # run_optimizer's steps must not pay for a SeedSequence each.
        with mock.patch.object(RngStream, "derive", side_effect=AssertionError("derive")):
            source = StepStreams(RngStream(3, 1, (4,)))
            for step in range(1, 5):
                source.derive(step).gen.random()


class TestRandomPermutation:
    def test_is_a_permutation(self):
        perm = random_permutation(10, RngStream(0))
        assert sorted(perm.tolist()) == list(range(1, 11))
        assert perm.dtype == np.int64

    def test_single_element(self):
        perm = random_permutation(1, RngStream(0))
        assert perm.tolist() == [1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            random_permutation(0, RngStream(0))

    def test_deterministic(self):
        a = random_permutation(20, RngStream(13))
        b = random_permutation(20, RngStream(13))
        np.testing.assert_array_equal(a, b)

    def test_uniform_over_small_permutations(self):
        # 60000 draws of S_3; each of the 6 orderings should land near 1/6.
        rng = RngStream(2024)
        counts = {}
        trials = 60000
        for _ in range(trials):
            key = tuple(random_permutation(3, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / trials - 1 / 6) < 0.01

    @pytest.mark.parametrize("n", [3, 4])
    def test_chi_square_uniform(self, n):
        rng = RngStream(29, path=(n,))
        counts = Counter(tuple(random_permutation(n, rng).tolist()) for _ in range(4000))
        cells = math.factorial(n)
        assert _chi_square_uniform(counts, cells) < CHI2_999[cells - 1]

    @given(n=st.integers(min_value=1, max_value=200), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_always_a_permutation(self, n, seed):
        perm = random_permutation(n, RngStream(seed))
        assert np.array_equal(np.sort(perm), np.arange(1, n + 1))


class TestPartitionGroups:
    def test_groups_partition_the_dimensions(self):
        rng = RngStream(3)
        omega = random_permutation(20, rng)
        groups = _groups(20, 6, omega)
        combined = np.concatenate(groups)
        assert sorted(combined.tolist()) == list(range(1, 21))

    def test_group_count_and_sizes(self):
        omega = np.arange(1, 21)
        groups = _groups(20, 6, omega)
        assert len(groups) == 4  # ceil(20 / 6)
        assert [len(g) for g in groups] == [6, 6, 6, 2]

    def test_identity_permutation_gives_contiguous_groups(self):
        omega = np.arange(1, 9)
        groups = _groups(8, 3, omega)
        assert groups[0].tolist() == [1, 2, 3]
        assert groups[1].tolist() == [4, 5, 6]
        assert groups[2].tolist() == [7, 8]

    def test_n_equals_d_single_group(self):
        omega = random_permutation(7, RngStream(0))
        groups = _groups(7, 7, omega)
        assert len(groups) == 1
        assert sorted(groups[0].tolist()) == list(range(1, 8))

    def test_rejects_bad_sizes(self):
        omega = np.arange(1, 9)
        with pytest.raises(ValueError):
            partition_groups(8, 0, omega)
        with pytest.raises(ValueError):
            partition_groups(8, 9, omega)

    def test_rejects_non_permutation(self):
        bad = [
            [1, 1, 2, 3],
            [0, 1, 2, 3],
            [1, 2, 3, 5],
            [1, 2, 3],
            [[1, 2], [3, 4]],
            [2, 2, 2, 2],
            [1.5, 2.9, 3.0, 4.2],  # a cast would truncate these to the identity
            [1.0, 2.0, 3.0, 4.0],
            [True, False, True, True],
        ]
        for omega in bad:
            with pytest.raises(ValueError, match="omega must be a permutation"):
                partition_groups(4, 2, np.array(omega))

    @pytest.mark.parametrize(
        "omega",
        [[1, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5], [-1, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 7]],
    )
    def test_rejects_non_permutation_below_a_larger_d(self, omega):
        # 1..d is sliced from the array of the largest d so far; the checks still hold.
        partition_groups(64, 5, random_permutation(64, RngStream(1)))
        with pytest.raises(ValueError, match="omega must be a permutation"):
            partition_groups(6, 2, np.array(omega))
        dims = partition_groups(6, 2, np.array([6, 5, 4, 3, 2, 1]))
        assert dims.tolist() == [6, 5, 4, 3, 2, 1]
        dims[:] = 0  # The result is the caller's own array.
        assert partition_groups(6, 2, np.arange(1, 7)).tolist() == [1, 2, 3, 4, 5, 6]

    def test_matches_reference_grouping(self):
        for d in (1, 2, 7, 20, 64, 513):
            sizes = {n for n in (1, 2, 3, d // 3, d - 1, d) if 1 <= n <= d}
            omegas = [np.arange(1, d + 1)]
            omegas += [random_permutation(d, RngStream(seed, path=(d,))) for seed in range(3)]
            for n in sorted(sizes):
                for omega in omegas:
                    got = _groups(d, n, omega)
                    want = _reference_groups(d, n, omega)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        # The same set, in the order omega gives it.
                        np.testing.assert_array_equal(np.sort(g), w)
                        assert g.dtype == w.dtype
                        assert np.all(np.diff(omega[g - 1]) > 0)

    @given(
        d=st.integers(min_value=1, max_value=60),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, d, seed, data):
        n = data.draw(st.integers(min_value=1, max_value=d))
        omega = random_permutation(d, RngStream(seed))
        groups = _groups(d, n, omega)
        assert len(groups) == -(-d // n)
        sizes = [len(g) for g in groups]
        assert all(size == n for size in sizes[:-1])
        assert 1 <= sizes[-1] <= n
        union = np.concatenate(groups)
        assert np.array_equal(np.sort(union), np.arange(1, d + 1))


class TestDependentPartition:
    def test_labels_cover_expected_range(self):
        members = np.arange(1, 13)
        part = dependent_partition(members, 4, _keys(5, 12))
        assert isinstance(part, DependentPartition)
        assert part.block_size == [3]
        assert part.labels.max() == 4
        assert sorted(part.labels.tolist()) == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]

    def test_ragged_final_block(self):
        members = np.arange(1, 11)
        part = dependent_partition(members, 4, _keys(5, 10))
        assert part.block_size == [3]  # ceil(10 / 4)
        counts = np.bincount(part.labels, minlength=5)[1:]
        assert counts.tolist() == [3, 3, 3, 1]
        assert part.labels.max() == 4

    def test_signs_are_unit(self):
        part = dependent_partition(np.arange(1, 31), 5, _keys(1, 30))
        assert set(part.signs.tolist()) <= {-1, 1}
        assert part.labels.dtype == part.signs.dtype == np.int64

    def test_divisor_larger_than_size(self):
        # Callers cap the divisor at the member count; block size 1 results.
        part = dependent_partition(np.array([3, 7, 9]), 3, _keys(0, 3))
        assert part.block_size == [1]
        assert sorted(part.labels.tolist()) == [1, 2, 3]

    def test_members_preserved_in_order(self):
        members = np.array([2, 5, 11, 17])
        part = dependent_partition(members, 2, _keys(8, 4))
        np.testing.assert_array_equal(part.indices, members)

    def test_deterministic(self):
        a = dependent_partition(np.arange(1, 21), 4, _keys(6, 20))
        b = dependent_partition(np.arange(1, 21), 4, _keys(6, 20))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.signs, b.signs)

    def test_rejects_divisor_below_two(self):
        with pytest.raises(ValueError):
            dependent_partition(np.arange(1, 5), 1, _keys(0, 4))

    def test_rejects_empty_members(self):
        for members in (np.array([], dtype=np.int64), []):  # [] reads as float64
            with pytest.raises(ValueError, match="empty index set"):
                dependent_partition(members, 2, _keys(0, 12))

    def test_rejects_nonpositive_or_float_members(self):
        # Repeats are not looked for: the estimator's runs are slices of one
        # drawn permutation.
        for members in ([0, 1], [2, -1, 3], [1.2, 2.7, 3.0], [1.0, 2.0]):
            with pytest.raises(ValueError, match="indices >= 1"):
                dependent_partition(np.array(members), 2, _keys(0, 3))

    def test_rejects_short_keys(self):
        with pytest.raises(ValueError, match="keys"):
            dependent_partition(np.arange(1, 6), 2, _keys(0, 4))

    def test_labels_are_contiguous_runs_in_the_given_order(self):
        members = np.array([9, 2, 7, 4, 1, 8, 3])
        part = dependent_partition(members, 3, _keys(4, 7))
        np.testing.assert_array_equal(part.indices, members)
        assert part.labels.tolist() == [1, 1, 1, 2, 2, 2, 3]

    def test_runs_are_cut_as_they_would_be_alone(self):
        # Several runs in one call: each reads the keys beside its members and
        # gets the labels and signs it gets alone.
        sizes = [5, 2, 9, 4]
        members = random_permutation(20, RngStream(8))
        keys = _keys(8, 20)
        part = dependent_partition(members, 3, keys, sizes)
        np.testing.assert_array_equal(part.indices, members)
        assert part.sizes == sizes and part.block_size == [2, 1, 3, 2]
        start = 0
        for size, block in zip(sizes, part.block_size):
            run = slice(start, start + size)
            alone = dependent_partition(members[run], 3, keys[run])
            assert alone.block_size == [block]
            np.testing.assert_array_equal(part.labels[start : start + size], alone.labels)
            np.testing.assert_array_equal(part.signs[start : start + size], alone.signs)
            start += size

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(
            st.one_of(st.sampled_from([1, 2, 3, 7]), st.integers(1, 60)), min_size=1, max_size=12
        ),
        long_run=st.sampled_from([None, 4097, 5000]),
        divisor=st.integers(2, 30),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_any_runs_are_cut_as_they_would_be_alone(self, lengths, long_run, divisor, seed, data):
        # Repeated lengths share a label pattern, runs of 1 and 2 members and
        # one run past 4096 all cut as they do alone, and alone a run gets
        # labels t // block + 1 and signs from its keys.
        sizes = list(lengths)
        if long_run is not None:
            sizes.insert(data.draw(st.integers(0, len(sizes))), long_run)
        keys = _keys(seed, sum(sizes))
        if data.draw(st.booleans()):
            keys = keys.repeat(2)[::2]  # the same keys, not contiguous
        members = random_permutation(sum(sizes), RngStream(seed, path=(1,)))
        part = dependent_partition(members, divisor, keys, sizes)
        assert part.labels.dtype == part.signs.dtype == np.int64
        assert part.sizes == sizes
        start = 0
        for size, block in zip(sizes, part.block_size):
            run = slice(start, start + size)
            alone = dependent_partition(members[run], divisor, keys[run])
            assert alone.block_size == [block] == [-(-size // divisor)]
            np.testing.assert_array_equal(alone.labels, np.arange(size) // block + 1)
            plain = np.where(keys[run] < 0.5, 1, -1)
            np.testing.assert_array_equal(alone.signs, plain)
            np.testing.assert_array_equal(part.labels[run], alone.labels)
            np.testing.assert_array_equal(part.signs[run], alone.signs)
            start += size

    def test_rejects_runs_that_do_not_fit(self):
        members = np.arange(1, 7)
        bad = [
            ([3, 2], 6),  # sizes sum to 5, not 6
            ([3, 3, 0], 6),  # an empty run
            ([3, 3], 7),  # one key too many: keys line up with the members
        ]
        for sizes, width in bad:
            with pytest.raises(ValueError):
                dependent_partition(members, 2, _keys(0, width), sizes)

    def test_signs_match_the_plain_threshold(self):
        # The signs are np.where(key < 1/2, 1, -1), exactly, at 1/2 too.
        keys = np.concatenate((_keys(9, 5000), [0.5, np.nextafter(0.5, 0.0), 0.0]))
        part = dependent_partition(np.arange(1, keys.size + 1), 2, keys)
        np.testing.assert_array_equal(part.signs, np.where(keys < 0.5, 1, -1))

    def test_chi_square_uniform_label_patterns(self):
        # Size 4, divisor 2: two blocks of two, so 4!/(2! 2!) = 6 label patterns;
        # a random order of the members makes every pattern equally likely.
        rng = RngStream(30)
        counts = Counter(
            _pattern(dependent_partition(random_permutation(4, rng), 2, rng.gen.random(4)))
            for _ in range(4000)
        )
        assert _chi_square_uniform(counts, 6) < CHI2_999[5]

    def test_chi_square_fair_signs(self):
        rng = RngStream(31)
        patterns = [
            tuple(dependent_partition(np.arange(1, 5), 2, rng.gen.random(4)).signs.tolist())
            for _ in range(4000)
        ]
        assert _chi_square_uniform(Counter(patterns), 16) < CHI2_999[15]
        signs = Counter(sign for pattern in patterns for sign in pattern)
        assert _chi_square_uniform(signs, 2) < CHI2_999[1]

    @given(
        size=st.integers(min_value=2, max_value=80),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_size_and_label_invariants(self, size, seed, data):
        divisor = data.draw(st.integers(min_value=2, max_value=size))
        members = np.arange(1, size + 1)
        part = dependent_partition(members, divisor, _keys(seed, size))
        expected_block = -(-size // divisor)
        assert part.block_size == [expected_block]
        labels = part.labels
        assert labels.min() >= 1
        assert labels.max() == -(-size // expected_block)
        counts = np.bincount(labels)[1:]
        assert all(count <= expected_block for count in counts)
        # Every label up to the maximum is occupied.
        assert all(count >= 1 for count in counts)


class TestEstimateDraws:
    """The blocks and signs that grace_estimate draws, as shrink_step sees them."""

    @staticmethod
    def _partitions(f, cfg, seed, estimates):
        """Per estimate, every run's partition it cut, run by run in call order."""
        seen = []
        shrink_step = estimator.shrink_step

        def recording(f, x, f_x, epsilon, part):
            start = 0
            for size, block in zip(part.sizes, part.block_size):
                run = slice(start, start + size)
                seen[-1].append(
                    DependentPartition(
                        part.indices[run], [size], [block], part.labels[run], part.signs[run]
                    )
                )
                start += size
            return shrink_step(f, x, f_x, epsilon, part)

        rng = RngStream(seed)
        with mock.patch.object(estimator, "shrink_step", recording):
            for _ in range(estimates):
                seen.append([])
                grace_estimate(f, np.zeros(f.dim), cfg, rng)
        return seen

    def test_first_cut_patterns_and_signs_are_uniform(self):
        # Two groups of 4 per estimate, each cut once into two blocks of two:
        # 6 label patterns and 16 sign patterns over the group's members.
        cfg = GraceConfig(epsilon=1e-3, n=4, schedule=DivisionSchedule([2]))
        runs = self._partitions(BlackBoxFunction(8, lambda x: 0.0), cfg, 32, 2000)
        parts = [part for run in runs for part in run]
        assert len(parts) == 4000
        assert _chi_square_uniform(Counter(map(_pattern, parts)), 6) < CHI2_999[5]
        signs = Counter(tuple(part.signs[np.argsort(part.indices)].tolist()) for part in parts)
        assert _chi_square_uniform(signs, 16) < CHI2_999[15]
        each = Counter(sign for part in parts for sign in part.signs.tolist())
        assert _chi_square_uniform(each, 2) < CHI2_999[1]

    def test_second_cut_is_uniform_given_the_first(self):
        # One group of 8: the first cut leaves two blocks of 4 (70 patterns) and
        # the signal at coordinate 1 keeps its block; the second cut splits that
        # block into two of 2 (6 patterns).  Within each first pattern, the
        # second is uniform: the sum of 70 Pearson statistics on 5 degrees of
        # freedom each follows the chi-square law on 350.
        f = make_sparse_linear(8, {1: 1.0}).objective
        cfg = GraceConfig(epsilon=1e-3, n=8, schedule=DivisionSchedule([2, 2]))
        given = defaultdict(Counter)
        for first, second in self._partitions(f, cfg, 33, 4200):
            assert 1 in second.indices and first.block_size == [4] and second.block_size == [2]
            given[_pattern(first)][_pattern(second)] += 1
        assert len(given) == 70
        total = sum(_chi_square_uniform(counts, 6) for counts in given.values())
        assert total < CHI2_999[350]
