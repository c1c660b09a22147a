"""Division schedules, sharp constants, and executable checks of the analysis.

Everything here is pure computation.  Quantities claimed as exact
identities (schedule recurrences, falling factorials, partition
probabilities) use exact integer or rational arithmetic so the checks
are binary; the remaining constants come from 1-D maximization and
log/sqrt formulas in double precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "TheoryParams",
    "DivisionSchedule",
    "ScheduleFeasibility",
    "InfeasibleParametersError",
    "practical_schedule",
    "theoretical_schedule",
    "explicit_schedule",
    "verify_schedule_conditions",
    "theoretical_lower_bound",
    "delta_label",
    "delta_noise",
    "step_mass",
    "ratio_test_margin",
    "closed_form_maximizer",
    "compute_C1",
    "compute_C2",
    "BASELINE_CONSTANT",
    "falling_factorial",
    "check_egamma",
    "check_egamma_grid",
    "check_partition_probability",
    "partition_probability_suite",
]

# Constant of the strongest comparable prior recovery guarantee; the
# dependent partition brings it down by more than three orders of magnitude.
BASELINE_CONSTANT = 579263.0


def falling_factorial(n: int, m: int) -> int:
    """(n)_m = n (n-1) ... (n-m+1) as an exact integer; (n)_0 = 1."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    out = 1
    for k in range(m):
        out *= n - k
    return out


@dataclass(frozen=True)
class TheoryParams:
    """Knobs of the high-probability recovery analysis.

    delta is the total failure probability; phi sets the geometric decay
    of the per-iteration failure budgets and theta the share of each
    budget spent on label identification (the remainder covers noise
    shrinkage); D is the first divisor.  These four are all the schedule
    and the constants read.  The field defaults are the reference
    parameter set used throughout.
    """

    delta: float = 0.5
    phi: float = 0.64
    theta: float = 0.08
    D: int = 18

    def __post_init__(self):
        if not (0 < self.delta < 1 and 0 < self.phi < 1 and 0 < self.theta < 1):
            raise ValueError("need delta, phi, theta in (0, 1)")
        if self.D < 2:
            raise ValueError(f"need D >= 2, got D={self.D}")


def delta_label(p: TheoryParams, r: int) -> float:
    """Failure budget of iteration r spent on identifying the block label."""
    return p.theta * (1.0 - p.phi) * p.phi ** (r - 1) * p.delta


def delta_noise(p: TheoryParams, r: int) -> float:
    """Failure budget of iteration r spent on shrinking the off-target noise."""
    return (1.0 - p.theta) * (1.0 - p.phi) * p.phi ** (r - 1) * p.delta


def step_mass(p: TheoryParams, d_r: float, r: int) -> float:
    """The quantity D_r * delta_noise(r) * ln(3/delta_label(r)) / ln(3/delta_label(r+1)).

    The feasibility conditions and the schedule recurrence are all
    statements about this per-iteration mass; it must start at 3/2 or
    above and never decrease.
    """
    return (
        d_r
        * delta_noise(p, r)
        * math.log(3.0 / delta_label(p, r))
        / math.log(3.0 / delta_label(p, r + 1))
    )


@dataclass(frozen=True)
class ScheduleFeasibility:
    """Outcome of the three feasibility inequalities, plus the computed values.

    growth_ok:        phi * x1^{3/2} - x1 >= phi * delta_noise(1)
    base_ok:          x1 >= 3/2
    amplification_ok: A > 1
    where x1 = step_mass(p, D, 1) and A is the growth amplification.
    """

    growth_ok: bool
    base_ok: bool
    amplification_ok: bool
    amplification: float
    first_step_mass: float

    @property
    def all_ok(self) -> bool:
        return self.growth_ok and self.base_ok and self.amplification_ok


def verify_schedule_conditions(p: TheoryParams) -> ScheduleFeasibility:
    """Evaluate the feasibility inequalities behind the theoretical schedule."""
    x1 = step_mass(p, p.D, 1)
    growth_ok = p.phi * x1**1.5 - x1 >= p.phi * delta_noise(p, 1)
    base_ok = x1 >= 1.5
    if math.sqrt(x1) > 1.0:
        log_ratio = math.log(3.0 / delta_label(p, 1)) / math.log(3.0 / delta_label(p, 2))
        amplification = (
            (p.D - 1.0 / (math.sqrt(x1) - 1.0))
            * (1.0 - p.theta)
            * (1.0 - p.phi)
            * p.phi**2
            * p.delta
            * log_ratio
        )
    else:
        # A's formula needs sqrt(x1) > 1; report unamplified growth instead.
        amplification = -math.inf
    return ScheduleFeasibility(growth_ok, base_ok, amplification > 1.0, amplification, x1)


def theoretical_lower_bound(p: TheoryParams, r: int) -> float:
    """Doubly-exponential floor A^{(3/2)^{r-1}} / ((1-theta)(1-phi) phi^2 delta)."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    feas = verify_schedule_conditions(p)
    growth = feas.amplification ** (1.5 ** (r - 1))
    return growth / ((1.0 - p.theta) * (1.0 - p.phi) * p.phi**2 * p.delta)


class InfeasibleParametersError(ValueError):
    """Parameters violate a feasibility condition of the theoretical schedule."""

    def __init__(self, message: str, report: ScheduleFeasibility):
        super().__init__(message)
        self.report = report


@dataclass
class DivisionSchedule:
    """Divisor sequence D_1, D_2, ... consumed by the shrink loop.

    Terms extend lazily on demand: growth is doubly exponential, so an
    eager tail would hold astronomically large integers within a few
    dozen terms.  The explicit kind replays a fixed list and holds its
    last value past the end.
    """

    kind: str
    terms: list[int]
    params: TheoryParams | None = None

    def value(self, r: int) -> int:
        """D_r, 1-based."""
        if r < 1:
            raise ValueError(f"need r >= 1, got r={r}")
        if self.kind == "explicit":
            return self.terms[min(r, len(self.terms)) - 1]
        while len(self.terms) < r:
            self.terms.append(self._next_term())
        return self.terms[r - 1]

    def _next_term(self) -> int:
        last = self.terms[-1]
        if self.kind == "practical":
            # floor(D^{3/2}) = isqrt(D^3), exact in integers.
            return math.isqrt(last**3)
        ratio = step_mass(self.params, 1.0, len(self.terms))
        return math.floor(last**1.5 * math.sqrt(ratio))


def practical_schedule(d1: int) -> DivisionSchedule:
    """Schedule following D_{r+1} = floor(D_r^{3/2}) from the given start."""
    if d1 < 2:
        raise ValueError(f"need D1 >= 2, got {d1}")
    return DivisionSchedule("practical", [int(d1)])


def theoretical_schedule(p: TheoryParams) -> DivisionSchedule:
    """Schedule of the high-probability analysis, with its feasibility enforced."""
    feas = verify_schedule_conditions(p)
    if not feas.all_ok:
        failed = []
        if not feas.growth_ok:
            failed.append("growth condition phi*x1^(3/2) - x1 >= phi*delta_noise(1)")
        if not feas.base_ok:
            failed.append(f"base condition x1 >= 3/2 (x1 = {feas.first_step_mass:.6g})")
        if not feas.amplification_ok:
            failed.append(f"amplification A > 1 (A = {feas.amplification:.6g})")
        raise InfeasibleParametersError("; ".join(failed), feas)
    return DivisionSchedule("theoretical", [p.D], p)


def explicit_schedule(values) -> DivisionSchedule:
    """Fixed divisor list; the final value repeats past the end."""
    terms = [int(v) for v in values]
    if not terms or any(v < 2 for v in terms):
        raise ValueError("need a nonempty list of divisors >= 2")
    return DivisionSchedule("explicit", terms)


def ratio_test_margin(log_inv_t: float) -> float:
    """Noise amplification of the two-query ratio test at failure level t.

    Parameterized by ln(1/t); the maximum over t in (0,1) is the sharp
    constant returned by :func:`compute_C1`.
    """
    t = math.exp(-log_inv_t)
    base = math.log(3.0 / t)
    return (
        2.0 * math.sqrt(math.log(9.0 / (4.0 * t)) / base)
        + 0.5 * math.sqrt(math.log(18.0 / t) / base)
        - 0.25
    )


def closed_form_maximizer() -> float:
    """ln(1/t) at which ratio_test_margin peaks, in closed form."""
    ln43 = math.log(4.0 / 3.0)
    ln6 = math.log(6.0)
    numerator = 16.0 * math.log(2.0) * ln43**2 + math.log(4.0) * ln6**2
    denominator = ln6**2 - 16.0 * ln43**2
    return numerator / denominator - math.log(9.0)


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
    mid = (a + b) / 2.0
    return mid, fn(mid)


def compute_C1() -> float:
    """Sharp constant of the two-query ratio test.

    Maximizes :func:`ratio_test_margin` by golden-section search on
    ln(1/t) in [1e-6, 20] to tolerance 1e-10, cross-checking against the
    closed-form maximizer.
    """
    _, best = _golden_max(ratio_test_margin, 1e-6, 20.0, 1e-10)
    at_closed_form = ratio_test_margin(closed_form_maximizer())
    if abs(at_closed_form - best) > 1e-9:
        raise ArithmeticError("ratio-test maximum disagrees with its closed-form argmax")
    return best


def compute_C2(p: TheoryParams | None = None) -> float:
    """Group-level dominance constant (C1*D + 1/D) * sqrt(2 ln(3/(theta(1-phi)delta)))."""
    if p is None:
        p = TheoryParams()
    scale = math.sqrt(2.0 * math.log(3.0 / (p.theta * (1.0 - p.phi) * p.delta)))
    return (compute_C1() * p.D + 1.0 / p.D) * scale


def check_egamma(d: int, s: int, gamma) -> bool:
    """Exact check that the isolation product beats exp(-gamma).

    Compares (d - floor(gamma d / s))_{s-1} / (d - 1)_{s-1}, evaluated
    as an exact rational, against e^{-gamma}.  Pass gamma as a Fraction
    (e.g. Fraction(3, 10)) when the floor sits near a boundary; a float
    gamma is taken at its exact binary value.
    """
    g = Fraction(gamma)
    if not 0 < g < 1:
        raise ValueError(f"need 0 < gamma < 1, got {gamma}")
    if not 1 <= s <= d:
        raise ValueError("need 1 <= s <= d")
    drop = math.floor(g * d / s)
    lhs = Fraction(falling_factorial(d - drop, s - 1), falling_factorial(d - 1, s - 1))
    return lhs >= math.exp(-float(g))


def check_egamma_grid() -> tuple[int, list]:
    """Sweep the isolation inequality over the standard grid.

    Covers d in 10..200, s in 1..min(d, 20), gamma in tenths 0.1..0.9
    (passed as exact fractions).  Returns (checked, failures).
    """
    checked = 0
    failures = []
    for d in range(10, 201):
        for s in range(1, min(d, 20) + 1):
            for tenth in range(1, 10):
                if not check_egamma(d, s, Fraction(tenth, 10)):
                    failures.append((d, s, tenth))
                checked += 1
    return checked, failures


# --- exhaustive partition-probability checks (enumeration of all d! permutations) ---


def _group_sizes(d: int, n: int) -> list[int]:
    num_groups = -(-d // n)
    sizes = [n] * num_groups
    sizes[-1] = d - n * (num_groups - 1)
    return sizes


@lru_cache(maxsize=None)
def _group_bitmasks(d: int, n: int, k: int) -> tuple[int, ...]:
    """For every permutation of {1..d}: the bitmask of group k's members."""
    masks = []
    for perm in itertools.permutations(range(1, d + 1)):
        m = 0
        for p in range(d):
            if (perm[p] + n - 1) // n == k:
                m |= 1 << p
        masks.append(m)
    return tuple(masks)


def _validate_enumeration_args(d: int, n: int, k: int, h_set) -> frozenset:
    if d > 8:
        raise ValueError(f"enumeration of d! permutations is capped at d = 8, got d={d}")
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    if not 1 <= k <= -(-d // n):
        raise ValueError(f"group index k={k} out of range for d={d}, n={n}")
    h = frozenset(int(i) for i in h_set)
    if not h or not all(1 <= i <= d for i in h):
        raise ValueError("H must be a nonempty subset of {1..d}")
    return h


def check_partition_probability(d: int, n: int, k: int, h_set, j: int):
    """Exhaustively verify Pr[S cap H = {j}] for the group construction.

    S is group k of a uniformly random permutation.  Counts the event
    over all d! permutations and compares, as exact rationals, against
    (|S|/d) * (d-|S|)_{|H|-1} / (d-1)_{|H|-1}.  Also verifies the
    conditional membership probability Pr[i in S | S cap H = {j}] =
    (|S|-1)/(d-|H|) for every i outside H (skipped when the event has
    probability zero).  Returns (empirical, formula, equal) where equal
    covers both identities.
    """
    h = _validate_enumeration_args(d, n, k, h_set)
    j = int(j)
    if j not in h:
        raise ValueError(f"j={j} must belong to H")
    h_mask = sum(1 << (i - 1) for i in h)
    j_mask = 1 << (j - 1)
    masks = _group_bitmasks(d, n, k)
    event = [m for m in masks if m & h_mask == j_mask]

    s_size = _group_sizes(d, n)[k - 1]
    empirical = Fraction(len(event), len(masks))
    formula = Fraction(s_size, d) * Fraction(
        falling_factorial(d - s_size, len(h) - 1), falling_factorial(d - 1, len(h) - 1)
    )
    equal = empirical == formula

    if event and d > len(h):
        cond_formula = Fraction(s_size - 1, d - len(h))
        for i in range(1, d + 1):
            if i in h:
                continue
            joint = sum(1 for m in event if m >> (i - 1) & 1)
            equal = equal and Fraction(joint, len(event)) == cond_formula
    return empirical, formula, equal


def partition_probability_suite(max_d: int = 6, max_h: int = 3):
    """Run check_partition_probability over every tuple up to the given sizes.

    Covers all d <= max_d, n in {1..d}, valid k, nonempty H with
    |H| <= max_h, and j in H.  Returns (checked, failures) where each
    failure records the offending tuple with both rationals.
    """
    checked = 0
    failures = []
    for d in range(1, max_d + 1):
        dims = list(range(1, d + 1))
        subsets = [
            comb
            for size in range(1, min(max_h, d) + 1)
            for comb in itertools.combinations(dims, size)
        ]
        for n in range(1, d + 1):
            for k in range(1, -(-d // n) + 1):
                for h in subsets:
                    for j in h:
                        empirical, formula, equal = check_partition_probability(d, n, k, h, j)
                        checked += 1
                        if not equal:
                            failures.append((d, n, k, h, j, empirical, formula))
    return checked, failures
