"""One descent loop over black-box objectives with exact query accounting.

:func:`run_optimizer` runs every method through the same loop.  The
sparse-estimate descent touches only the estimated support each step;
the three dense baselines (Gaussian smoothing descent, sign descent, and
local search over shrinking radii) move the whole iterate.  In every
method f at the current iterate is measured once per step and cached,
and every run stops on its query budget or step limit, whichever lands
first.

Trace rows carry (step, cumulative queries, f(x_t), f(x_t)/f(x_1)); the
row for step t is written after the sampling performed at x_t, and the
returned best point is the earliest visited iterate with minimal
objective, judged only from values already paid for.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .blackbox import BATCH_FLOATS, BlackBoxFunction, BudgetExhaustedError, with_ledger
from .estimator import GraceConfig, grace_estimate
from .rng import RngStream, StepStreams

__all__ = [
    "METHODS",
    "OptimizerConfig",
    "TraceRecord",
    "RunTrace",
    "estimate_rs",
    "step_zo_signsgd",
    "step_gld",
    "run_optimizer",
]

METHODS = ("grace", "rs", "zo-signsgd", "gld")

# Step-size grid of the standard tuning sweep.
ETA_GRID = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)


@dataclass
class OptimizerConfig:
    """Settings of one descent run.

    mu is the smoothing radius of the Gaussian baselines, directions the
    number of averaged estimates per sign-descent step, and scales the
    number of radii tried per local-search step.  At least one of budget
    and max_steps must be set.
    """

    method: str
    step_size: float
    budget: int | None = None
    max_steps: int | None = None
    mu: float = 1e-3
    directions: int = 10
    scales: int = 4

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        _check_positive("step_size", self.step_size)
        if self.budget is None and self.max_steps is None:
            raise ValueError("need a stopping rule: budget, max_steps, or both")
        for name in ("budget", "max_steps", "directions", "scales"):
            if getattr(self, name) is not None:
                _check_count(name, getattr(self, name))
        _check_positive("mu", self.mu)


def _check_positive(name: str, value) -> None:
    if type(value) is bool or not 0 < value < math.inf:  # True would act as 1.0.
        raise ValueError(f"need a finite {name} > 0, got {value}")


def _check_count(name: str, k) -> None:
    if type(k) is bool or not isinstance(k, numbers.Integral) or k < 1:  # True is no count.
        raise ValueError(f"need an integer {name} >= 1, got {k!r}")


@dataclass
class TraceRecord:
    step: int
    queries: int
    value: float
    normalized: float


@dataclass
class RunTrace:
    """Per-step records plus the best visited point.

    Queries are strictly increasing across records; best_value is the exact
    minimum of the values paid for, in a row or not, earliest minimizer kept.
    """

    records: list[TraceRecord]
    best_point: np.ndarray
    best_value: float


class _TraceBuilder:
    def __init__(self, x1: np.ndarray):
        self.records: list[TraceRecord] = []
        self.best_point = np.array(x1, dtype=float)
        self.best_value = math.inf
        self.initial_value: float | None = None

    def record(self, step: int, queries: int, value: float, point: np.ndarray) -> None:
        if self.records and queries <= self.records[-1].queries:
            return  # no new queries since the last row; nothing to account
        if self.initial_value is None:
            self.initial_value = value
        normalized = value / self.initial_value if self.initial_value != 0.0 else math.nan
        self.records.append(TraceRecord(step, queries, value, normalized))
        self.weigh(value, point)

    def weigh(self, value: float, point: np.ndarray) -> None:
        if value < self.best_value:
            self.best_value = value
            self.best_point = point.copy()

    def finish(self) -> RunTrace:
        return RunTrace(self.records, self.best_point, self.best_value)


def estimate_rs(
    f: BlackBoxFunction, x: np.ndarray, f_x: float, mu: float, rng: RngStream
) -> np.ndarray:
    """Gaussian-smoothing gradient estimate ((f(x + mu u) - f_x) / mu) u.

    One query with the cached f_x; u is standard normal.
    """
    _check_positive("mu", mu)
    direction = rng.gen.standard_normal(f.dim)
    return ((f(x + mu * direction) - f_x) / mu) * direction


def _values(f: BlackBoxFunction, points: np.ndarray) -> np.ndarray:
    """f at each row of points: through f.batch if set, BATCH_FLOATS a call, else row by row."""
    if f.batch is None:
        return np.array([f.eval(point) for point in points])
    per_call = max(1, BATCH_FLOATS // f.dim)
    calls = range(0, len(points), per_call)
    return np.concatenate([f.batch_values(points[i : i + per_call]) for i in calls])


def step_zo_signsgd(
    f: BlackBoxFunction,
    x: np.ndarray,
    f_x: float,
    mu: float,
    directions: int,
    eta: float,
    rng: RngStream,
) -> np.ndarray:
    """Average several smoothing estimates and move by the sign pattern.

    The directions are estimate_rs's, drawn as one (directions, d) block and
    queried in one call.  sign(0) = 0, so coordinates with a perfectly
    balanced estimate stay put.  Queries: directions per call.
    """
    _check_count("directions", directions)
    _check_positive("mu", mu)
    _check_positive("eta", eta)
    normals = rng.gen.standard_normal((directions, f.dim))
    scaled = ((_values(f, x + mu * normals) - f_x) / mu)[:, None] * normals
    total = np.zeros(f.dim)
    for estimate in scaled:  # summed in direction order, as one at a time
        total += estimate
    return x - eta * np.sign(total / directions)


def step_gld(
    f: BlackBoxFunction, x: np.ndarray, f_x: float, eta: float, scales: int, rng: RngStream
) -> tuple[np.ndarray, float]:
    """Gaussian local search over radii eta, eta/2, ..., eta/2^(scales-1).

    Evaluates one candidate per radius, all in one call, and keeps the best
    of the incumbent and the candidates (ties keep the incumbent, then the
    larger radius).  Returns the chosen point with its objective value so
    the caller need not re-query it.  Queries: scales per call.
    """
    _check_positive("eta", eta)
    _check_count("scales", scales)
    radii = np.array([eta / 2**k for k in range(scales)])
    candidates = x + radii[:, None] * rng.gen.standard_normal((scales, f.dim))
    best_x, best_value = x, f_x
    for candidate, value in zip(candidates, _values(f, candidates).tolist()):
        if value < best_value:
            best_x, best_value = candidate, value
    return best_x, best_value


def run_optimizer(
    f: BlackBoxFunction,
    x1: np.ndarray,
    opt: OptimizerConfig,
    rng: RngStream,
    grace: GraceConfig | None = None,
) -> RunTrace:
    """Descend with the configured method until the budget or step limit.

    grace moves x <- x - eta * g on the estimated support only.  Step t
    draws from rng's Philox key at counter (0, 0, t, 0), so a run is
    reproducible from (x1, configs, rng key) alone; the streams come from
    one :class:`~zosparse.rng.StepStreams`, whose generator is re-keyed
    every step.  No step begins once the budget is spent.  On budget
    exhaustion mid step the partial step is discarded; only its
    already-measured f(x_t) still enters the trace.
    """
    if opt.method == "grace" and grace is None:
        raise ValueError("method 'grace' needs a GraceConfig")
    counted, ledger = with_ledger(f, opt.budget)
    x = np.array(x1, dtype=float)
    trace = _TraceBuilder(x)
    carried = None  # gld re-uses the accepted candidate's value as the next f_x
    streams = StepStreams(rng)
    step = 0
    while ledger.count != opt.budget and (opt.max_steps is None or step < opt.max_steps):
        step += 1
        step_rng = streams.derive(step)
        f_x = carried
        try:
            if opt.method == "grace":
                estimate = grace_estimate(counted, x, grace, step_rng)
                f_x = estimate.base_value
                next_x = x.copy()
                for j, g in estimate.entries.items():
                    next_x[j - 1] -= opt.step_size * g
            else:
                if f_x is None:
                    f_x = counted(x)
                if opt.method == "gld":
                    next_x, carried = step_gld(counted, x, f_x, opt.step_size, opt.scales, step_rng)
                elif opt.method == "rs":
                    next_x = x - opt.step_size * estimate_rs(counted, x, f_x, opt.mu, step_rng)
                else:  # zo-signsgd
                    next_x = step_zo_signsgd(
                        counted, x, f_x, opt.mu, opt.directions, opt.step_size, step_rng
                    )
        except BudgetExhaustedError as error:
            # Only grace attaches a partial estimate, carrying its f(x_t) if
            # measured; record() drops a row that no new queries back.
            if error.partial is not None:
                f_x = error.partial.base_value
            if f_x is not None:
                trace.record(step, ledger.count, f_x, x)
            break
        trace.record(step, ledger.count, f_x, x)
        x = next_x
    if carried is not None:  # gld paid for f at the final x, which no row may hold
        trace.weigh(carried, x)
    return trace.finish()
