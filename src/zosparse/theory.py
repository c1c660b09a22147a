"""Division schedules, sharp constants, and executable checks of the analysis.

The analysis is stated at one reference set, the constants DELTA, PHI, THETA
and D, and :func:`verify_theory` (``zosparse verify``) checks it there.
Everything here is pure computation.  Quantities claimed as exact identities
(schedule recurrences, falling factorials, partition probabilities) use exact
integer or rational arithmetic so the checks are binary; the remaining
constants come from 1-D maximization and log/sqrt formulas in double precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rng import _integer

__all__ = [
    "DELTA",
    "PHI",
    "THETA",
    "D",
    "DivisionSchedule",
    "ScheduleFeasibility",
    "practical_schedule",
    "theoretical_schedule",
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
    "CheckResult",
    "TheoryReport",
    "verify_theory",
]

# Constant of the strongest comparable prior recovery guarantee; the
# dependent partition brings it down by more than three orders of magnitude.
BASELINE_CONSTANT = 579263.0

# The reference set: DELTA is the total failure probability, PHI the geometric decay of the
# per-iteration budgets and THETA their share for the block label; D is the first divisor.
DELTA, PHI, THETA, D = 0.5, 0.64, 0.08, 18


def falling_factorial(n: int, m: int) -> int:
    """(n)_m = n (n-1) ... (n-m+1) as an exact integer; (n)_0 = 1."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    out = 1
    for k in range(m):
        out *= n - k
    return out


def delta_label(r: int) -> float:
    """Failure budget of iteration r spent on identifying the block label."""
    return THETA * (1.0 - PHI) * PHI ** (r - 1) * DELTA


def delta_noise(r: int) -> float:
    """Failure budget of iteration r spent on shrinking the off-target noise."""
    return (1.0 - THETA) * (1.0 - PHI) * PHI ** (r - 1) * DELTA


def step_mass(d_r: float, r: int) -> float:
    """The quantity D_r * delta_noise(r) * ln(3/delta_label(r)) / ln(3/delta_label(r+1)).

    The feasibility conditions and the schedule recurrence are all
    statements about this per-iteration mass; it must start at 3/2 or
    above and never decrease.
    """
    return (
        d_r
        * delta_noise(r)
        * math.log(3.0 / delta_label(r))
        / math.log(3.0 / delta_label(r + 1))
    )


@dataclass(frozen=True)
class ScheduleFeasibility:
    """Outcome of the three feasibility inequalities, plus the computed values.

    growth_ok:        phi * x1^{3/2} - x1 >= phi * delta_noise(1)
    base_ok:          x1 >= 3/2
    amplification_ok: A > 1
    where x1 = step_mass(D, 1) and A is the growth amplification.
    """

    growth_ok: bool
    base_ok: bool
    amplification_ok: bool
    amplification: float
    first_step_mass: float

    @property
    def all_ok(self) -> bool:
        return self.growth_ok and self.base_ok and self.amplification_ok


def verify_schedule_conditions() -> ScheduleFeasibility:
    """Evaluate the feasibility inequalities behind the theoretical schedule."""
    x1 = step_mass(D, 1)  # About 2.75, so sqrt(x1) > 1 as A's formula needs.
    growth_ok = PHI * x1**1.5 - x1 >= PHI * delta_noise(1)
    base_ok = x1 >= 1.5
    log_ratio = math.log(3.0 / delta_label(1)) / math.log(3.0 / delta_label(2))
    amplification = (
        (D - 1.0 / (math.sqrt(x1) - 1.0))
        * (1.0 - THETA)
        * (1.0 - PHI)
        * PHI**2
        * DELTA
        * log_ratio
    )
    return ScheduleFeasibility(growth_ok, base_ok, amplification > 1.0, amplification, x1)


def theoretical_lower_bound(r: int) -> float:
    """Doubly-exponential floor A^{(3/2)^{r-1}} / ((1-theta)(1-phi) phi^2 delta), r <= 25."""
    if not 1 <= r <= 25:  # From r = 26 on, A^{(3/2)^{r-1}} overflows a float.
        raise ValueError(f"need 1 <= r <= 25, the last r whose bound is a finite float, got r={r}")
    growth = verify_schedule_conditions().amplification ** (1.5 ** (r - 1))
    return growth / ((1.0 - THETA) * (1.0 - PHI) * PHI**2 * DELTA)


@dataclass(frozen=True)
class DivisionSchedule:
    """Divisors D_1, D_2, ... of the shrink loop: a finite tuple whose last divisor repeats.

    The builders compute every term up front, in exact integers, and stop at
    the first that reaches 2^63 or stops growing.  No group has that many
    members, so no shrink loop reads past the stored terms.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        # int() would read a bool, or truncate a float, as a divisor it does not name.
        terms = tuple(_integer(v, "divisor") for v in self.terms)
        if not terms or min(terms) < 2:
            raise ValueError(f"need a nonempty list of integer divisors >= 2, got {self.terms!r}")
        object.__setattr__(self, "terms", terms)

    def value(self, r: int) -> int:
        """D_r, 1-based; past the stored terms, the last one."""
        if r < 1:
            raise ValueError(f"need r >= 1, got r={r}")
        return self.terms[min(r, len(self.terms)) - 1]


def _grown(first: int, step) -> DivisionSchedule:
    """D_1 = first, D_{r+1} = step(D_r, r), to the first term >= 2^63 or not above the last."""
    terms = DivisionSchedule([first]).terms
    while terms[-1] < 2**63 and (len(terms) < 2 or terms[-2] < terms[-1]):
        terms += (step(terms[-1], len(terms)),)
    return DivisionSchedule(terms)


def practical_schedule(d1: int) -> DivisionSchedule:
    """Schedule following D_{r+1} = floor(D_r^{3/2}) = isqrt(D_r^3) from the given start."""
    return _grown(d1, lambda last, r: math.isqrt(last**3))


def theoretical_schedule() -> DivisionSchedule:
    """Schedule of the high-probability analysis from D; see :func:`verify_schedule_conditions`.

    D_{r+1} = floor(D_r^{3/2} sqrt(step_mass(1, r))), taken exactly at the float step mass.
    """
    return _grown(D, lambda last, r: math.isqrt(math.floor(last**3 * Fraction(step_mass(1.0, r)))))


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


def compute_C2() -> float:
    """Group-level dominance constant (C1*D + 1/D) * sqrt(2 ln(3/(theta(1-phi)delta)))."""
    scale = math.sqrt(2.0 * math.log(3.0 / (THETA * (1.0 - PHI) * DELTA)))
    return (compute_C1() * D + 1.0 / D) * scale


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

    S is group k of a uniformly random permutation, as ``rng.partition_groups``
    forms it.  The estimator slices its drawn permutation instead, which is
    that permutation's inverse, uniform too, so its groups have this law.
    Counts the event over all d! permutations and compares, as exact
    rationals, against (|S|/d) * (d-|S|)_{|H|-1} / (d-1)_{|H|-1}.  Also verifies the
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


# --- verification report ---


@dataclass
class CheckResult:
    name: str
    value: str
    passed: bool


@dataclass
class TheoryReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        lines = []
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(f"{verdict}  {check.name}: {check.value}")
        overall = "PASS" if self.all_passed else "FAIL"
        lines.append(f"{overall}  overall")
        return "\n".join(lines)


def verify_theory() -> TheoryReport:
    """Recompute every constant and identity of the analysis; report per item."""
    checks = []

    c1 = compute_C1()
    checks.append(
        CheckResult("ratio-test constant C1", f"{c1:.6f}", 2.2886 <= c1 <= 2.2905 and c1 < 2.29)
    )
    argmax = closed_form_maximizer()
    gap = abs(ratio_test_margin(argmax) - c1)
    checks.append(
        CheckResult(
            "C1 closed-form argmax ln(1/t)",
            f"{argmax:.6f} (margin gap {gap:.2e})",
            abs(argmax - 0.648887) < 1e-3 and gap < 1e-6,
        )
    )
    c2 = compute_C2()
    checks.append(CheckResult("dominance constant C2", f"{c2:.4f}", 134.78 <= c2 <= 134.98))
    factor = BASELINE_CONSTANT / c2
    checks.append(CheckResult("reduction over prior constant", f"{factor:.1f}", factor >= 4000.0))

    feasibility = verify_schedule_conditions()
    checks.append(
        CheckResult(
            "schedule feasibility at defaults",
            f"x1={feasibility.first_step_mass:.5f}, A={feasibility.amplification:.5f}",
            feasibility.all_ok,
        )
    )

    schedule = theoretical_schedule()
    terms = [schedule.value(r) for r in range(1, 11)]
    nondecreasing = all(a <= b for a, b in zip(terms, terms[1:]))
    above_bound = all(terms[r - 1] >= theoretical_lower_bound(r) for r in range(1, 11))
    masses = [step_mass(terms[r - 1], r) for r in range(1, 11)]
    mass_monotone = all(a <= b for a, b in zip(masses, masses[1:]))
    checks.append(
        CheckResult(
            "theoretical schedule (10 terms)",
            f"starts {terms[:4]}, nondecreasing={nondecreasing}, "
            f"above lower bound={above_bound}, step mass monotone={mass_monotone}",
            nondecreasing and above_bound and mass_monotone,
        )
    )

    practical = practical_schedule(20)
    first_three = [practical.value(r) for r in (1, 2, 3)]
    checks.append(
        CheckResult("practical schedule from 20", str(first_three), first_three == [20, 89, 839])
    )

    egamma_checked, egamma_failures = check_egamma_grid()
    checks.append(
        CheckResult(
            "isolation inequality grid",
            f"{egamma_checked} combinations, {len(egamma_failures)} failures",
            not egamma_failures,
        )
    )

    suite_checked, suite_failures = partition_probability_suite()
    checks.append(
        CheckResult(
            "partition probabilities (d <= 6, exact)",
            f"{suite_checked} tuples, {len(suite_failures)} failures",
            not suite_failures,
        )
    )
    return TheoryReport(checks)
