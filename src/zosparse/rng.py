"""Seeded randomness: permutations, dimension groups, and block partitions.

All randomness in the toolkit flows through :class:`RngStream`, a
counter-based generator keyed by ``(seed, stream, path)``.  The same key
always replays the same draws, so an experiment is reproducible from the
seeds in its config alone, and derived child streams are independent of
the parent and of each other.  :class:`StepStreams` gives a run's
per-step streams ``rng.derive(step)`` on one reused generator, re-keyed
for each step, so no caller may keep a step's stream past its step.

Every draw is one numpy call in C: one permutation per repeat, which
groups the dimensions and orders each group, and one row of sign keys
per group.  Every shrink iteration cuts the live members into blocks in
that order.  The probes depend only on which members share a block, never
on the order within one, so given all that was observed, the kept block
is still in uniformly random order: each cut is a fresh dependent partition.
As a cut keeps one block whole and in order, a group's live members stay
one contiguous run, and :func:`dependent_partition` cuts many runs at once.

Indexing convention: dimensions are numbered 1..d in every index set,
permutation image, and block label handed out by this module.  Arrays
are stored 0-based as usual; position ``p`` corresponds to dimension
``p + 1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "StepStreams",
    "random_permutation",
    "partition_groups",
    "DependentPartition",
    "dependent_partition",
]


class RngStream:
    """Deterministic stream of randomness keyed by ``(seed, stream, path)``.

    Backed by Philox, which is counter-based: the key alone fixes the
    entire sequence, with no global state shared between streams.  Use
    :meth:`derive` to key independent sub-streams for subcomputations
    (one per optimization step, per run, per worker, ...).
    """

    def __init__(self, seed: int, stream: int = 0, path: tuple[int, ...] = ()):
        path = tuple(int(k) for k in path)
        if seed < 0 or stream < 0 or any(k < 0 for k in path):
            raise ValueError("seed, stream, and path keys must be nonnegative")
        self.seed = int(seed)
        self.stream = int(stream)
        self.path = path
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *path))
        self.gen = np.random.Generator(np.random.Philox(seq))

    def derive(self, *keys: int) -> "RngStream":
        """Child stream for a subcomputation; distinct key paths never collide."""
        return RngStream(self.seed, self.stream, self.path + keys)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream}, path={self.path})"


# numpy's SeedSequence constants: its hashes and mixes are uint32 arithmetic.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """n as SeedSequence reads it: 32-bit words, least significant first; [0] for 0."""
    return [n >> shift & _MASK for shift in range(0, max(n.bit_length(), 1), 32)]


class StepStreams:
    """``rng.derive(step)`` for each step of one run, on one reused generator.

    SeedSequence hashes its entropy words into a pool of four one after
    another, and the spawn key follows the seed's four words, so the pool
    after ``(seed, stream, *path)`` is kept and only a step's words are mixed
    in.  The resulting Philox key is written into one generator with counter
    0 and an empty buffer, which then draws exactly as a fresh
    ``rng.derive(step).gen``.  The stream returned for a step is re-keyed by
    the next call, so no caller may keep it past its step.
    """

    def __init__(self, rng: RngStream):
        seq = np.random.SeedSequence(entropy=rng.seed, spawn_key=(rng.stream, *rng.path))
        self._pool = [int(word) for word in seq.pool]
        # Every entropy word took four hashes; the seed is padded to four words.
        words = max(4, len(_words(rng.seed))) + sum(len(_words(k)) for k in seq.spawn_key)
        self._hash = _INIT_A * pow(_MULT_A, 4 * words, 2**32) & _MASK
        self._step = RngStream(rng.seed, rng.stream, rng.path)
        self._path = rng.path

    def key(self, step: int) -> list[int]:
        """SeedSequence(seed, spawn_key=(stream, *path, step)).generate_state(2, uint64)."""
        if step < 0:
            raise ValueError(f"need a step >= 0, got {step}")
        pool, hashed = list(self._pool), self._hash
        for word in _words(step):
            for i in range(4):
                value = word ^ hashed
                hashed = hashed * _MULT_A & _MASK
                value = value * hashed & _MASK
                mixed = (_MIX_L * pool[i] - _MIX_R * (value ^ value >> 16)) & _MASK
                pool[i] = mixed ^ mixed >> 16
        state, hashed = [], _INIT_B
        for value in pool:
            value ^= hashed
            hashed = hashed * _MULT_B & _MASK
            value = value * hashed & _MASK
            state.append(value ^ value >> 16)
        return [state[0] | state[1] << 32, state[2] | state[3] << 32]

    def derive(self, step: int) -> RngStream:
        """The stream of rng.derive(step), valid until the next call."""
        self._step.path = (*self._path, step)
        self._step.gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self.key(step)},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._step


def as_indices(values, message: str) -> np.ndarray:
    """values as int64; a non-integer dtype, which a cast would truncate, raises.

    Only the dtype is read, in O(1).  An empty array passes whatever its
    dtype, so that the caller can report it as empty.
    """
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{message}; got dtype {values.dtype}")
    return values.astype(np.int64, copy=False)


def random_permutation(n: int, rng: RngStream) -> np.ndarray:
    """Uniform random permutation of {1..n} in image form.

    ``images[p]`` is the image of ``p + 1``.  One ``Generator.permutation``
    draw, so the generator state consumed depends only on ``n``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return rng.gen.permutation(n) + 1


def partition_groups(d: int, n: int, omega: np.ndarray) -> np.ndarray:
    """Split {1..d} into ceil(d/n) groups of size n via the permutation omega.

    Dimension i joins group ceil(omega(i)/n): every group has n members but
    the last, which takes the remainder.  Returns the inverse permutation,
    built in O(d) with no draw: group k (from 0) is ``dims[k*n : (k+1)*n]``,
    in omega's (for a uniform omega, random) order.
    """
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    message = "omega must be a permutation of {1..d} in image form"
    omega = as_indices(omega, message)
    if omega.shape != (d,) or omega.min() < 1 or omega.max() > d:
        raise ValueError(message)
    dims = np.zeros(d, dtype=np.int64)
    dims[omega - 1] = np.arange(1, d + 1)
    # d images in 1..d leave a slot at 0 exactly when one repeats.
    if not dims.all():
        raise ValueError(message)
    return dims


@dataclass
class DependentPartition:
    """Random blocks plus signs over consecutive runs of one index array.

    Run i holds ``sizes[i]`` of ``indices``, in order; ``labels`` and
    ``signs`` align with them.  Within a run labels count up from 1 in
    stretches of ``block_size[i]``, the last possibly shorter, so class
    sizes are worst-case bounded (unlike independent per-index draws).
    """

    indices: np.ndarray
    sizes: list[int]
    block_size: list[int]
    labels: np.ndarray
    signs: np.ndarray


def dependent_partition(
    members, divisor: int, keys, sizes=None, offsets=None
) -> DependentPartition:
    """Cut each run of members into blocks of size ceil(|run|/divisor), with fresh signs.

    ``members`` is runs of lengths ``sizes`` (default: one run) end to end.
    A run's member t (from 0) gets label t // ceil(|run|/divisor) + 1, so
    blocks are random only when each run comes in random order.  Member t
    of run i reads its sign from ``keys[offsets[i] + t]`` (default: keys
    align with the members), a key < 1/2 giving +1, exactly fair.  Repeats
    are not looked for: the estimator's runs slice one checked permutation.
    """
    if divisor < 2:
        raise ValueError(f"need divisor >= 2, got {divisor}")
    indices = as_indices(members, "index set must hold indices >= 1").ravel()
    if indices.size == 0 or indices.min() < 1:
        raise ValueError("need a non-empty index set of indices >= 1")
    size = indices.size
    sizes = [size] if sizes is None else list(sizes)
    starts = list(itertools.accumulate(sizes, initial=0))
    offsets = starts[:-1] if offsets is None else list(offsets)
    if starts[-1] != size or min(sizes) < 1 or len(offsets) != len(sizes) or min(offsets) < 0:
        raise ValueError(f"need positive run sizes summing to {size}, one key offset >= 0 each")
    reach = max(offset + length for offset, length in zip(offsets, sizes))
    if np.ndim(keys) != 1 or reach > len(keys):
        raise ValueError(f"need 1-d keys with {reach} entries, got shape {np.shape(keys)}")
    blocks = [-(-length // divisor) for length in sizes]
    if len(sizes) == 1:
        labels = np.arange(1, -(-size // blocks[0]) + 1).repeat(blocks[0])[:size]
        drawn = keys[offsets[0] : reach]
    else:
        # Per member: its run's start, key offset and block size.
        start, offset, block = np.array([starts[:-1], offsets, blocks]).repeat(sizes, axis=1)
        rank = np.arange(size) - start
        labels = rank // block + 1
        drawn = keys[rank + offset]
    # As np.where(drawn < 0.5, 1, -1), at a quarter of its cost on long runs.
    signs = (drawn < 0.5).astype(np.int64) * 2 - 1
    return DependentPartition(indices, sizes, blocks, labels, signs)
