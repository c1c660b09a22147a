"""Seeded randomness: permutations, dimension groups, and block partitions.

All randomness in the toolkit flows through :class:`RngStream`, a
counter-based generator keyed by ``(seed, stream, path)`` on its first draw.
The same key always replays the same draws, so an experiment is
reproducible from the seeds in its config alone, and derived child streams
are independent of the parent and of each other.  :class:`StepStreams`
gives a run's per-step streams ``rng.derive(step)`` on one reused
generator, re-keyed per step, so no caller may keep one past its step.

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

import functools
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
    entire sequence, with no global state shared between streams.  The key
    is checked here, and :attr:`gen` is keyed on its first read.  Use
    :meth:`derive` for sub-streams (per optimization step, run, worker, ...).
    """

    def __init__(self, seed: int, stream: int = 0, path: tuple[int, ...] = ()):
        path = tuple(int(k) for k in path)
        if seed < 0 or stream < 0 or any(k < 0 for k in path):
            raise ValueError("seed, stream, and path keys must be nonnegative")
        self.seed = int(seed)
        self.stream = int(stream)
        self.path = path

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *self.path))
        return np.random.Generator(np.random.Philox(seq))

    def derive(self, *keys: int) -> "RngStream":
        """Child stream for a subcomputation; distinct key paths never collide."""
        return RngStream(self.seed, self.stream, self.path + keys)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream}, path={self.path})"


# numpy's SeedSequence constants: its hashes and mixes are uint32 arithmetic.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Steps keyed at once; it divides 2**32, so the steps of a block have equally many words.
_BLOCK = 256


def _words(n: int) -> list[int]:
    """n as SeedSequence reads it: 32-bit words, least significant first; [0] for 0."""
    return [n >> shift & _MASK for shift in range(0, max(n.bit_length(), 1), 32)]


def _hashes(start: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant: start, start * mult, ... (count terms), as uint32."""
    return np.array([start * pow(mult, i, 2**32) & _MASK for i in range(count)], np.uint32)


class StepStreams:
    """``rng.derive(step)`` for each step of one run, on one reused generator.

    SeedSequence hashes its entropy words into a pool of four one after
    another, and the spawn key follows the seed's four words, so the pool
    after ``(seed, stream, *path)`` is kept and only a step's words are mixed
    in.  That is done for a block of _BLOCK consecutive steps at once, one
    lane each, in numpy uint32 arrays, which wrap as SeedSequence's C code
    does.  The resulting Philox key is written into one generator with counter
    0 and an empty buffer, which then draws exactly as a fresh
    ``rng.derive(step).gen``.  The stream returned for a step is re-keyed by
    the next call, so no caller may keep it past its step.
    """

    def __init__(self, rng: RngStream):
        seq = np.random.SeedSequence(entropy=rng.seed, spawn_key=(rng.stream, *rng.path))
        self._pool = seq.pool.astype(np.uint32)
        # Every entropy word took four hashes; the seed is padded to four words.
        words = max(4, len(_words(rng.seed))) + sum(len(_words(k)) for k in seq.spawn_key)
        self._hash = _INIT_A * pow(_MULT_A, 4 * words, 2**32) & _MASK
        self._block, self._keys = -1, []
        self._step = RngStream(rng.seed, rng.stream, rng.path)
        self._step.gen = np.random.Generator(np.random.Philox(seq))  # Re-keyed by every derive.
        self._path = rng.path

    def key(self, step: int) -> list[int]:
        """SeedSequence(seed, spawn_key=(stream, *path, step)).generate_state(2, uint64).

        The list is shared with the block's cache: read it, never change it.
        """
        if step < 0:
            raise ValueError(f"need a step >= 0, got {step}")
        block, row = divmod(step, _BLOCK)
        if block != self._block:
            self._block, self._keys = block, self._block_keys(block * _BLOCK)
        return self._keys[row]

    def _block_keys(self, first: int) -> list[list[int]]:
        """The keys of steps first .. first + _BLOCK - 1; first is a multiple of _BLOCK."""
        words = np.array(_words(first), np.uint32) + np.zeros((_BLOCK, 1), np.uint32)
        words[:, 0] += np.arange(_BLOCK, dtype=np.uint32)  # Only word 0 differs in a block.
        pool = np.tile(self._pool, (_BLOCK, 1))
        hashed = _hashes(self._hash, _MULT_A, 4 * words.shape[1] + 1)
        for k in range(words.shape[1]):  # Word k's four hashes take constants 4k .. 4k + 4.
            value = (words[:, k, None] ^ hashed[4 * k : 4 * k + 4]) * hashed[4 * k + 1 : 4 * k + 5]
            mixed = _MIX_L * pool - _MIX_R * (value ^ value >> 16)
            pool = mixed ^ mixed >> 16
        hashed = _hashes(_INIT_B, _MULT_B, 5)
        pool = (pool ^ hashed[:-1]) * hashed[1:]
        return (pool ^ pool >> 16).astype("<u4", copy=False).view("<u8").tolist()

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


_COUNT = [np.arange(1, 1)]


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
    if _COUNT[0].size < d:  # 1..d for the largest d so far, read-only; smaller ones slice it.
        _COUNT[0] = np.arange(1, d + 1)
        _COUNT[0].setflags(write=False)
    dims = np.zeros(d + 1, dtype=np.int64)
    dims[omega] = _COUNT[0][:d]
    # d images in 1..d leave a slot of 1..d at 0 exactly when one repeats.
    if not dims[1:].all():
        raise ValueError(message)
    return dims[1:]


@dataclass
class DependentPartition:
    """Random blocks plus signs over consecutive runs of one index array.

    Run i holds ``sizes[i]`` of ``indices``, in order; ``labels`` and
    ``signs`` align with them.  Within a run labels count up from 1 in
    stretches of ``block_size[i]``, the last possibly shorter, so class
    sizes are worst-case bounded (unlike independent per-index draws).
    sizes and block_size may be tuples shared with a cache.
    """

    indices: np.ndarray
    sizes: list[int]
    block_size: list[int]
    labels: np.ndarray
    signs: np.ndarray

    @functools.cached_property
    def run_of(self) -> np.ndarray:
        """Each member's run, from 0; a caller holding it cached may set it instead."""
        return np.arange(len(self.sizes)).repeat(self.sizes)


@functools.lru_cache(maxsize=128)  # A d <= 16384 scaling pass cuts runs of 32 lengths.
def _label_bytes(length: int, block: int) -> bytes:  # Bytes join cheaper than np.concatenate.
    return np.arange(1, -(-length // block) + 1).repeat(block)[:length].tobytes()


def run_labels(sizes, blocks) -> np.ndarray:
    """Per run of sizes[i] members, labels 1, 2, ... in stretches of blocks[i]; read-only."""
    return np.frombuffer(b"".join(map(_label_bytes, sizes, blocks)), np.int64)


def key_signs(drawn: np.ndarray) -> np.ndarray:
    """np.where(drawn < 0.5, 1, -1), exactly fair, at a quarter of its cost on long runs."""
    signs = (drawn < 0.5).astype(np.int64)
    return np.subtract(np.multiply(signs, 2, out=signs), 1, out=signs)


def dependent_partition(
    members, divisor: int, keys, sizes=None, offsets=None
) -> DependentPartition:
    """Cut each run of members into blocks of size ceil(|run|/divisor), with fresh signs.

    ``members`` is runs of lengths ``sizes`` (default: one run) end to end.
    A run's member t (from 0) gets label t // ceil(|run|/divisor) + 1, from a
    cached read-only pattern per run length, so blocks are random only when
    each run comes in random order.  Member t of run i reads its sign from
    ``keys[offsets[i] + t]`` (default: keys align with the members; runs'
    key slices are joined), a key < 1/2 giving +1, exactly fair.  Repeats
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
        drawn = keys[offsets[0] : reach]
    else:
        view = memoryview(np.ascontiguousarray(keys))
        runs = b"".join([view[offset : offset + n] for offset, n in zip(offsets, sizes)])
        drawn = np.frombuffer(runs, keys.dtype)
    return DependentPartition(indices, sizes, blocks, run_labels(sizes, blocks), key_signs(drawn))
