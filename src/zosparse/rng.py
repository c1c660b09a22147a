"""Seeded randomness: permutations, dimension groups, and block partitions.

All randomness in the toolkit flows through :class:`RngStream`, a
counter-based generator keyed by ``(seed, stream, path)``.  The same key
always replays the same draws, so an experiment is reproducible from the
seeds in its config alone, and derived child streams are independent of
the parent and of each other.

Every draw is one numpy call in C; a block partition reads uniform keys
drawn in bulk, which the estimator keys by (repeat, group).

Indexing convention: dimensions are numbered 1..d in every index set,
permutation image, and block label handed out by this module.  Arrays
are stored 0-based as usual; position ``p`` corresponds to dimension
``p + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
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


def partition_groups(d: int, n: int, omega: np.ndarray) -> list[np.ndarray]:
    """Split {1..d} into ceil(d/n) groups of size n via the permutation omega.

    Dimension i joins group ceil(omega(i)/n), so every group has exactly
    n members except the last one, which takes the remainder.  Groups
    come back as sorted 1-based index arrays.  Built in O(d) from the
    inverse permutation: its k-th run of n entries holds the dimensions
    that omega sends into group k.  No randomness is drawn here.
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
    return [np.sort(dims[start : start + n]) for start in range(0, d, n)]


@dataclass
class DependentPartition:
    """Random blocks plus signs over one index set.

    ``indices`` is sorted ascending; ``labels`` and ``signs`` align with
    it positionally.  Labels run 1..num_blocks, and every label class
    has exactly ``block_size`` members except possibly the last one.
    The blocks all come from a single permutation, so class sizes are
    worst-case bounded (unlike independent per-index label draws).
    """

    indices: np.ndarray
    block_size: int
    labels: np.ndarray
    signs: np.ndarray

    @property
    def num_blocks(self) -> int:
        return -(-len(self.indices) // self.block_size)


def dependent_partition(members, divisor: int, keys) -> DependentPartition:
    """Cut an index set into blocks of size ceil(|S|/divisor), with fresh signs.

    Reads the first |S| columns of ``keys``, two rows of uniforms on [0, 1): the
    ranks of row 0 cut the blocks, and row 1 < 1/2 gives sign +1 (exactly fair).
    """
    if divisor < 2:
        raise ValueError(f"need divisor >= 2, got {divisor}")
    message = "index set must hold distinct indices >= 1"
    indices = np.sort(as_indices(members, message).ravel())
    if indices.size == 0:
        raise ValueError("empty index set")
    if indices[0] < 1 or np.count_nonzero(indices[1:] == indices[:-1]):
        raise ValueError(message)
    size = int(indices.size)
    if np.shape(keys)[-1] < size:
        raise ValueError(f"need keys with {size} columns, got shape {np.shape(keys)}")
    block_size = -(-size // divisor)
    labels, signs = block_labels(keys[0, :size], keys[1, :size], block_size)
    return DependentPartition(indices, block_size, labels, signs)


def block_labels(rank_keys, sign_keys, block_sizes):
    """Labels and signs from uniform keys, as :func:`dependent_partition` reads them.

    One group passes 1-d keys and an int block size; k groups pass (k, c)
    keys and (k, 1) block sizes.  A row's stable ranks in ``rank_keys`` cut
    its blocks: rank r gets label r // block_size + 1.  ``sign_keys`` < 1/2
    gives sign +1.  A column that holds no member of its row must hold a
    rank key >= 1, so that it ranks last.
    """
    order = rank_keys.argsort(kind="stable")
    labels = np.empty(order.shape, dtype=np.int64)
    by_rank = np.arange(order.shape[-1]) // block_sizes + 1
    if order.ndim == 1:
        labels[order] = by_rank
    else:
        labels[np.arange(len(order))[:, None], order] = by_rank
    return labels, np.where(sign_keys < 0.5, 1, -1)
