"""Seeded randomness: permutations, dimension groups, and block partitions.

All randomness in the toolkit flows through :class:`RngStream`, a
counter-based generator keyed by ``(seed, stream, path)`` on its first draw.
The same key always replays the same draws, so an experiment is
reproducible from the seeds in its config alone, and derived child streams
are independent of the parent and of each other.  :class:`StepStreams`
keys step t of a run at counter (0, 0, t, 0) of the run's Philox key, on
one reused generator, so no caller may keep a step's stream past its step.

Every draw is one numpy call in C: one permutation per repeat, whose
slices of n are the groups in random order, and one sign key per live
member per shrink iteration, which cuts the live members into blocks in
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
import math
import numbers
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


def _integer(value, name: str) -> int:
    """value as an int; a bool or non-integer, which would replay another key's draws, raises."""
    if type(value) is int:  # First: the ABC check is slow, and a permutation runs per repeat.
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"need an integer {name}, got {value!r}")
    return int(value)


def _positive(value, name: str, zero: bool = False) -> None:
    """Raise unless value is a real in (0, inf), or [0, inf) with zero; a bool would act as 1.0."""
    if isinstance(value, (bool, np.bool_)) or not (0 < value < math.inf or zero and value == 0):
        raise ValueError(f"need a finite {name} {'>=' if zero else '>'} 0, got {value}")


class RngStream:
    """Deterministic stream of randomness keyed by ``(seed, stream, path)``.

    Backed by Philox, which is counter-based: the key alone fixes the
    entire sequence, with no global state shared between streams.  The key
    is checked here, and :attr:`gen` is keyed on its first read.  Use
    :meth:`derive` for sub-streams (per optimization step, run, worker, ...).
    """

    def __init__(self, seed: int, stream: int = 0, path: tuple[int, ...] = ()):
        path = tuple(_integer(k, "path key") for k in path)
        seed, stream = _integer(seed, "seed"), _integer(stream, "stream")
        if seed < 0 or stream < 0 or any(k < 0 for k in path):
            raise ValueError("seed, stream, and path keys must be nonnegative")
        self.seed = seed
        self.stream = stream
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


class StepStreams:
    """The per-step streams of one run, on one reused generator.

    Step t draws from the run's own Philox key at counter (0, 0, t, 0).
    Draws count up in counter words 0 and 1, which take 2**128 blocks to
    carry into word 2, so a step stays apart from every other step and from
    ``rng.gen`` (step 0).  A step's stream has path ``(*path, step)`` and is
    re-keyed by the next call, so no caller may keep it past its step.
    """

    def __init__(self, rng: RngStream):
        seq = np.random.SeedSequence(entropy=rng.seed, spawn_key=(rng.stream, *rng.path))
        self._key = seq.generate_state(2, np.uint64).tolist()
        self._step = RngStream(rng.seed, rng.stream, rng.path)
        self._step.gen = np.random.Generator(np.random.Philox(seq))  # Re-keyed by every derive.
        self._path = rng.path

    def derive(self, step: int) -> RngStream:
        """The stream of step, an integer 1 <= step < 2**64, valid until the next call."""
        step = _integer(step, "step")
        if not 1 <= step < 2**64:  # Step 0 would replay the run's own rng.gen.
            raise ValueError(f"need a step in 1 .. 2**64 - 1, got {step}")
        self._step.path = (*self._path, step)
        self._step.gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, step, 0], "key": self._key},
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
    n = _integer(n, "n")
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
    dims = np.zeros(d + 1, dtype=np.int64)
    dims[omega] = np.arange(1, d + 1)
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
    def ends(self) -> list[int]:
        """0, then where each run ends; a caller that caches it, or rows, may set it."""
        return list(itertools.accumulate(self.sizes, initial=0))

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Shape (2, members): probe k of the members of run i is row k * runs + i."""
        return np.arange(2 * len(self.sizes)).reshape(2, -1).repeat(self.sizes, axis=1)


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


def dependent_partition(members, divisor: int, keys, sizes=None) -> DependentPartition:
    """Cut each run of members into blocks of size ceil(|run|/divisor), with fresh signs.

    ``members`` is runs of lengths ``sizes`` (default: one run) end to end.
    A run's member t (from 0) gets label t // ceil(|run|/divisor) + 1, from a
    cached read-only pattern per run length, so blocks are random only when
    each run comes in random order.  Member i reads its sign from ``keys[i]``,
    one key per member, a key < 1/2 giving +1, exactly fair.  Repeats are not
    looked for: the estimator's runs slice one drawn permutation.
    """
    if divisor < 2:
        raise ValueError(f"need divisor >= 2, got {divisor}")
    indices = as_indices(members, "index set must hold indices >= 1").ravel()
    if indices.size == 0 or indices.min() < 1:
        raise ValueError("need a non-empty index set of indices >= 1")
    size = indices.size
    sizes = [size] if sizes is None else list(sizes)
    if sum(sizes) != size or min(sizes) < 1:
        raise ValueError(f"need positive run sizes summing to {size}")
    if np.ndim(keys) != 1 or len(keys) != size:
        raise ValueError(f"need 1-d keys, one per member, got shape {np.shape(keys)}")
    blocks = [-(-length // divisor) for length in sizes]
    return DependentPartition(indices, sizes, blocks, run_labels(sizes, blocks), key_signs(keys))
