"""Query-counted objectives, benchmark families, and the graph loader.

A :class:`BlackBoxFunction` is the only channel to an objective:
optimizers see values, never structure.  :func:`with_ledger` threads an
exact evaluation count through a function, enforcing the query budget
that every experiment shares.

The benchmark families are a sparse quadratic bowl (``distance``), a
magnitude-ranking objective flat in most directions (``magnitude``), a
graph-connectivity attack over edge perturbations (``attack``), and an
exactly-solvable linear objective on a random support
(``planted-linear``), which the scaling probe uses.  :data:`FAMILIES`
holds, per family name, the keys, types and defaults that experiment
specs may set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rng import RngStream, _integer

__all__ = [
    "BATCH_FLOATS",
    "BlackBoxFunction",
    "QueryLedger",
    "BudgetExhaustedError",
    "with_ledger",
    "Graph",
    "GraphParseError",
    "load_graph",
    "BenchmarkInstance",
    "make_distance",
    "make_magnitude",
    "make_attack",
    "make_sparse_linear",
    "make_planted_linear",
    "Family",
    "FAMILIES",
]


# Most floats in one matrix handed to a batch hook.  Past about 2^14
# (128 KB), each (rows, d) temporary is a fresh large allocation, and a
# stacked call costs more than its rows one at a time.
BATCH_FLOATS = 2**14


def _rows_per_call(d: int) -> int:
    """Rows of d floats that one batch call takes: as many as fit in BATCH_FLOATS, at least 1."""
    return max(1, BATCH_FLOATS // d)


def _keeps_hook(d: int) -> bool:
    """Whether the families give dimension d a batch hook: while a call takes 16 rows (d <= 1024).

    At d = 2048, 8 rows a call, a hooked grace descent on distance took 1.4
    to 1.6 times the CPU time of a plain one on a 2-core x86-64 host.
    """
    return _rows_per_call(d) >= 16


@dataclass
class BlackBoxFunction:
    """A dimension-d objective evaluable only pointwise.

    eval must not keep or write to the array it is given: the estimator
    passes one buffer, moving a few coordinates between queries.  batch,
    when set, maps a (k, d) array of points to k values, each bit-identical
    to eval on that row.  It only saves time: the estimator's probes and
    the zo-signsgd and gld steps' points go through it by batch_values, at
    most BATCH_FLOATS floats a call, and an objective without it gets one
    point a call.
    """

    dim: int
    eval: Callable[[np.ndarray], float]
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> float:
        return self.eval(x)

    def batch_values(self, rows: np.ndarray) -> np.ndarray:
        """batch(rows) as floats; raises ValueError unless it holds one value per row."""
        values = np.asarray(self.batch(rows), dtype=float)
        if values.shape != (len(rows),):
            raise ValueError(f"batch returned shape {values.shape} for {len(rows)} points")
        return values


class BudgetExhaustedError(RuntimeError):
    """An evaluation would push the ledger past its cap.

    Raised before the evaluation happens, so the count never exceeds
    the cap.  A batch that would pass the cap first evaluates the rows
    that fit; ``evaluated`` holds how many, so that every ledger the
    error passes through counts them.  ``partial`` may carry in-progress
    bookkeeping from the raiser (see the estimator); any values inside
    are incomplete and must not be used as a gradient.
    """

    def __init__(self, count: int, cap: int, evaluated: int = 0):
        super().__init__(f"query budget exhausted: {count} queries used, cap {cap}")
        self.count = count
        self.cap = cap
        self.evaluated = evaluated
        self.partial = None


@dataclass
class QueryLedger:
    """Monotone count of completed evaluations, optionally capped."""

    count: int = 0
    cap: int | None = None


def with_ledger(f: BlackBoxFunction, cap: int | None = None) -> tuple[BlackBoxFunction, QueryLedger]:
    """Wrap f so every evaluation ticks a shared ledger.

    The count moves only on evaluations that complete; a call that would
    exceed the cap raises :class:`BudgetExhaustedError` without touching f.
    A batch of k rows counts k queries.  One that would pass the cap
    evaluates only the rows that fit, counts them, then raises, so the
    count ends where k single calls would have left it.
    """
    if cap is not None and _integer(cap, "cap") < 0:
        raise ValueError(f"need a cap of None or an integer >= 0, got {cap!r}")
    ledger = QueryLedger(0, cap)

    def counted(x):
        if ledger.cap is not None and ledger.count + 1 > ledger.cap:
            raise BudgetExhaustedError(ledger.count, ledger.cap)
        value = f.eval(x)
        ledger.count += 1
        return value

    def counted_batch(rows):
        fit = len(rows) if ledger.cap is None else min(len(rows), ledger.cap - ledger.count)
        try:
            values = f.batch(rows[:fit]) if fit else np.empty(0)
        except BudgetExhaustedError as error:
            ledger.count += error.evaluated  # rows an enclosing ledger let through
            raise
        ledger.count += fit
        if fit < len(rows):
            raise BudgetExhaustedError(ledger.count, ledger.cap, evaluated=fit)
        return values

    return BlackBoxFunction(f.dim, counted, counted_batch if f.batch is not None else None), ledger


class GraphParseError(ValueError):
    """Malformed edge-list document; the message names the offending line."""


@dataclass
class Graph:
    """Undirected simple graph as a dense symmetric 0/1 adjacency matrix."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        self.adjacency = a.astype(np.int64)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def _parse_int_pair(line_number: int, line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise GraphParseError(
            f"line {line_number}: expected two nonnegative integers, got {line.rstrip()!r}"
        )
    return int(parts[0]), int(parts[1])


def load_graph(text: str) -> Graph:
    """Parse an edge-list document: header line "n m", then m lines "a b".

    Vertices are 1-based.  Duplicate edges collapse; self-loops and
    out-of-range vertices are rejected with the offending line number.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise GraphParseError("line 1: expected header 'n m'")
    n, m = _parse_int_pair(1, lines[0])
    if n < 1:
        raise GraphParseError("line 1: need at least one vertex")
    if len(lines) - 1 != m:
        raise GraphParseError(
            f"header declares {m} edges but the document has {len(lines) - 1} edge lines"
        )
    adjacency = np.zeros((n, n), dtype=np.int64)
    for offset, line in enumerate(lines[1:]):
        line_number = offset + 2
        a, b = _parse_int_pair(line_number, line)
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphParseError(f"line {line_number}: vertex out of range 1..{n}")
        if a == b:
            raise GraphParseError(f"line {line_number}: self-loop at vertex {a}")
        adjacency[a - 1, b - 1] = 1
        adjacency[b - 1, a - 1] = 1
    return Graph(n, adjacency)


@dataclass
class BenchmarkInstance:
    """An objective, its start point, and what generated them.

    metadata always holds ``family`` and ``d``; the families add their
    parameters and the planted structure (support, center, ...) that
    tests and analytic gradients need.
    """

    objective: BlackBoxFunction
    x1: np.ndarray
    metadata: dict = field(default_factory=dict)


def _random_support(d: int, s: int, rng: RngStream) -> np.ndarray:
    """Uniform size-s subset of {0..d-1}, sorted (0-based positions)."""
    return np.sort(rng.gen.permutation(d)[:s])


def make_distance(d: int, s: int, rng: RngStream) -> BenchmarkInstance:
    """Sparse quadratic bowl f(x) = (x - c)' W (x - c) with diagonal W.

    The center c has exactly s nonzero coordinates with Unif(0,1)
    values; all d diagonal weights are Unif(0,1); the start point is the
    origin, so the initial gradient lives on the center's support.
    Draw order: support, center values, weights.
    """
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    positions = _random_support(d, s, rng)
    center = np.zeros(d)
    center[positions] = rng.gen.random(s)
    weights = rng.gen.random(d)

    def evaluate(x):
        delta = np.asarray(x, dtype=float) - center
        return float(delta @ (weights * delta))

    def evaluate_rows(rows):
        # A stack of (1, d) @ (d, 1) products runs the same dot kernel as
        # evaluate's 1-d product, so each row's value is bit-identical.
        delta = np.asarray(rows, dtype=float) - center
        return np.matmul(delta[:, None, :], (weights * delta)[:, :, None])[:, 0, 0]

    metadata = {
        "family": "distance",
        "d": d,
        "s": s,
        "support": tuple(int(p) + 1 for p in positions),
        "center": center,
        "weights": weights,
    }
    objective = BlackBoxFunction(d, evaluate, evaluate_rows if _keeps_hook(d) else None)
    return BenchmarkInstance(objective, np.zeros(d), metadata)


def make_magnitude(d: int, s: int, lam: float, w: float, rng: RngStream) -> BenchmarkInstance:
    """Magnitude-ranking objective: reward s large coordinates, tax the rest.

    f(x) = lam * sum of tanh(squared magnitudes) over all but the s
    largest, minus the same sum over the s largest, plus s.  Only the
    sorted squared magnitudes enter, so coordinate ties cannot change
    the value and f is invariant to coordinate permutations.  The start
    point puts +-w on a uniformly random size-s support.
    """
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    if lam <= 0 or w <= 0:
        raise ValueError("need lam > 0 and w > 0")
    positions = _random_support(d, s, rng)
    signs = 2.0 * rng.gen.integers(0, 2, size=s) - 1.0
    x1 = np.zeros(d)
    x1[positions] = w * signs

    def evaluate(x):
        squares = np.square(np.asarray(x, dtype=float))
        squares.sort()
        scores = np.tanh(squares)
        return float(lam * scores[: d - s].sum() - scores[d - s :].sum() + s)

    def evaluate_rows(rows):
        # Each row is squared, sorted and tanh'd alone, and each row sum runs
        # along one contiguous row as evaluate's does, so its value is bit-identical.
        scores = np.square(np.asarray(rows, dtype=float))
        scores.sort(axis=1)
        scores = np.tanh(scores)
        return lam * scores[:, : d - s].sum(axis=1) - scores[:, d - s :].sum(axis=1) + s

    metadata = {
        "family": "magnitude",
        "d": d,
        "s": s,
        "lam": lam,
        "w": w,
        "support": tuple(int(p) + 1 for p in positions),
    }
    objective = BlackBoxFunction(d, evaluate, evaluate_rows if _keeps_hook(d) else None)
    return BenchmarkInstance(objective, x1, metadata)


def make_attack(graph: Graph, u: int, v: int, hops: int, lam: float) -> BenchmarkInstance:
    """Connectivity attack: suppress short walks between two vertices.

    A point reshapes row-major to an n-by-n perturbation X.  The
    perturbed adjacency max(A(1-|X|) + (1-A)|X|, 0) is degree-normalized
    symmetrically, and the objective sums the (u,v) entries of its first
    ``hops`` powers plus a Frobenius penalty lam * ||X||^2.  A zero row
    sum leaves the normalization undefined, and the objective reads +inf
    there, in eval and in each such batch row alike.
    """
    n = graph.n
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"vertices must lie in 1..{n}, got u={u}, v={v}")
    if u == v:
        raise ValueError("need distinct vertices u != v")
    if hops < 1:
        raise ValueError(f"need hops >= 1, got {hops}")
    if lam < 0:
        raise ValueError(f"need lam >= 0, got {lam}")
    base = graph.adjacency.astype(float)
    complement = 1.0 - base

    def walks(x):
        """The walk sum over hops of the normalized adjacency, per (n, n) matrix of x."""
        magnitude = np.abs(x)
        perturbed = np.maximum(base * (1.0 - magnitude) + complement * magnitude, 0.0)
        degrees = perturbed.sum(axis=-1)
        dead = None
        if not degrees.all():  # +inf per matrix with a zero degree, taken as 1 so no 1/sqrt(0)
            dead = ~degrees.all(axis=-1)
            degrees[degrees == 0.0] = 1.0
        scale = 1.0 / np.sqrt(degrees)
        normalized = perturbed * (scale[..., :, None] * scale[..., None, :])
        power = normalized
        total = power[..., u - 1, v - 1]
        for _ in range(hops - 1):
            power = power @ normalized
            total = total + power[..., u - 1, v - 1]
        return total if dead is None else np.where(dead, np.inf, total)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return float(walks(x.reshape(n, n)) + lam * (x @ x))

    def evaluate_rows(rows):
        # Each row goes through evaluate's elementwise steps and the same
        # matmul and dot kernels, stacked, so its value is bit-identical.
        rows = np.asarray(rows, dtype=float)
        penalty = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
        return walks(rows.reshape(-1, n, n)) + lam * penalty

    metadata = {
        "family": "attack",
        "d": n * n,
        "n": n,
        "u": u,
        "v": v,
        "hops": hops,
        "lam": lam,
    }
    objective = BlackBoxFunction(n * n, evaluate, evaluate_rows if _keeps_hook(n * n) else None)
    return BenchmarkInstance(objective, np.zeros(n * n), metadata)


def make_planted_linear(d: int, s: int, rng: RngStream) -> BenchmarkInstance:
    """Sparse linear objective with Unif(0.5, 1.5) coefficients on a random support.

    The planted support is recorded in the metadata, making this the
    family of choice for recovery measurements: the gradient is exactly
    the coefficient vector, with zero curvature to blur the probes.
    """
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    positions = _random_support(d, s, rng)
    values = 0.5 + rng.gen.random(s)
    coeffs = {int(p) + 1: float(c) for p, c in zip(positions, values)}
    instance = make_sparse_linear(d, coeffs)
    instance.metadata.update({"family": "planted-linear", "s": s, "support": tuple(sorted(coeffs))})
    return instance


def make_sparse_linear(d: int, coeffs: dict) -> BenchmarkInstance:
    """Exactly linear objective sum_j c_j x_j; the gradient is c everywhere."""
    items = sorted((int(j), float(c)) for j, c in coeffs.items())
    if items and not (1 <= items[0][0] and items[-1][0] <= d):
        raise ValueError(f"coefficient indices must lie in 1..{d}")
    positions = np.array([j - 1 for j, _ in items], dtype=np.int64)
    values = np.array([c for _, c in items])

    def evaluate(x):
        if positions.size == 0:
            return 0.0
        return float(np.asarray(x, dtype=float)[positions] @ values)

    metadata = {"family": "sparse-linear", "d": d, "s": len(items), "coeffs": dict(items)}
    return BenchmarkInstance(BlackBoxFunction(d, evaluate), np.zeros(d), metadata)


# --- the family table: spec keys and defaults ---


@dataclass(frozen=True)
class Family:
    """One row of :data:`FAMILIES`: everything decided per family name.

    keys maps each parameter a spec may set to the type that parses its
    text; required lists those without a default.  build(params, rng)
    calls the maker with the defaults filled in.  The harness reads
    grace_d1, the estimator's first divisor d1.
    """

    keys: dict
    build: Callable[[dict, RngStream], BenchmarkInstance]
    required: tuple = ("d", "s")
    grace_d1: int = 20


# The builders look make_* up in this module when called, so that a maker
# replaced here (by a tracer or a test double) is the one they call.
FAMILIES = {
    "distance": Family({"d": int, "s": int}, lambda p, rng: make_distance(p["d"], p["s"], rng)),
    "magnitude": Family(
        {"d": int, "s": int, "lam": float, "w": float},
        lambda p, rng: make_magnitude(p["d"], p["s"], p.get("lam", 0.1), p.get("w", 0.2), rng),
    ),
    "attack": Family(
        {"graph": str, "u": int, "v": int, "hops": int, "lam": float},
        lambda p, rng: make_attack(
            p["graph"], p.get("u", 1), p.get("v", 2), p.get("hops", 4),
            p.get("lam", 100.0 / p["graph"].n ** 2),
        ),
        required=("graph",),
        grace_d1=10,
    ),
    "planted-linear": Family(
        {"d": int, "s": int}, lambda p, rng: make_planted_linear(p["d"], p["s"], rng)
    ),
}
