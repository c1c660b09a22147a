"""Analysis constants, schedules, and exact combinatorial identities.

Numeric reference values were recomputed independently from the defining
formulas (direct evaluation, no shared code) and frozen here.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from zosparse.theory import (
    BASELINE_CONSTANT,
    DELTA,
    PHI,
    THETA,
    D,
    DivisionSchedule,
    check_egamma,
    check_egamma_grid,
    check_partition_probability,
    closed_form_maximizer,
    compute_C1,
    compute_C2,
    delta_label,
    delta_noise,
    falling_factorial,
    partition_probability_suite,
    practical_schedule,
    ratio_test_margin,
    step_mass,
    theoretical_lower_bound,
    theoretical_schedule,
    verify_schedule_conditions,
)


class TestFallingFactorial:
    def test_known_values(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(5, 5) == 120
        assert falling_factorial(10, 1) == 10

    def test_zero_terms_is_one(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(0, 0) == 1

    def test_overlong_product_hits_zero(self):
        assert falling_factorial(3, 4) == 0


class TestReferenceSet:
    def test_constants_are_the_reference_set(self):
        assert (DELTA, PHI, THETA, D) == (0.5, 0.64, 0.08, 18)
        assert type(D) is int

    def test_budget_split_sums_to_geometric_slice(self):
        for r in (1, 2, 5):
            total = delta_label(r) + delta_noise(r)
            assert total == pytest.approx((1 - PHI) * PHI ** (r - 1) * DELTA)


class TestFeasibility:
    def test_first_step_mass_frozen_value(self):
        # Independent recomputation: 18 * 0.2208 * ln(3/0.0368) / ln(3/0.023552)
        x1 = step_mass(D, 1)
        assert x1 == pytest.approx(2.7508614459690537, abs=1e-12)

    def test_defaults_pass_all_conditions(self):
        report = verify_schedule_conditions()
        assert report.growth_ok and report.base_ok and report.amplification_ok
        assert report.all_ok

    def test_amplification_frozen_value(self):
        report = verify_schedule_conditions()
        assert report.amplification == pytest.approx(1.0317026943761873, abs=1e-12)
        assert report.amplification > 1.0

    def test_lower_bound_first_term(self):
        report = verify_schedule_conditions()
        denominator = (1 - THETA) * (1 - PHI) * PHI**2 * DELTA
        expected = report.amplification / denominator
        assert theoretical_lower_bound(1) == pytest.approx(expected)
        assert theoretical_lower_bound(1) <= D

    def test_lower_bound_is_doubly_exponential(self):
        b1 = theoretical_lower_bound(1)
        b2 = theoretical_lower_bound(2)
        b3 = theoretical_lower_bound(3)
        assert b2 / b1 < b3 / b2  # ratios themselves grow

    def test_lower_bound_rejects_bad_round(self):
        with pytest.raises(ValueError):
            theoretical_lower_bound(0)

    def test_lower_bound_is_a_finite_float_through_round_25(self):
        assert math.isfinite(theoretical_lower_bound(25))
        with pytest.raises(ValueError, match="r <= 25"):
            theoretical_lower_bound(26)


class TestSchedules:
    def test_practical_first_three_terms(self):
        sched = practical_schedule(20)
        assert [sched.value(r) for r in (1, 2, 3)] == [20, 89, 839]

    def test_practical_exact_integer_growth(self):
        # floor(89^1.5) computed exactly: isqrt(89^3) = isqrt(704969) = 839.
        assert math.isqrt(89**3) == 839
        sched = practical_schedule(839)
        assert sched.value(2) == math.isqrt(839**3) == 24302

    def test_practical_stalls_at_two(self):
        sched = practical_schedule(2)
        assert [sched.value(r) for r in (1, 2, 3, 4)] == [2, 2, 2, 2]
        assert sched.terms == (2, 2)

    def test_practical_rejects_degenerate_start(self):
        with pytest.raises(ValueError):
            practical_schedule(1)

    @pytest.mark.parametrize(
        "sched", [practical_schedule(20), practical_schedule(10), theoretical_schedule()]
    )
    def test_builders_stop_at_the_first_term_reaching_2_63(self, sched):
        assert sched.terms[-1] >= 2**63 > sched.terms[-2]
        assert all(a < b for a, b in zip(sched.terms, sched.terms[1:]))

    def test_theoretical_first_ten_terms(self):
        terms = [18, 29, 48, 83, 152, 303, 683, 1853, 6634, 35999]
        assert list(theoretical_schedule().terms[:10]) == terms

    def test_theoretical_value_past_the_float_range(self):
        # Past the stored terms the last one repeats, as an int; a float form
        # of the recurrence would leave the float range before r = 23.
        sched = theoretical_schedule()
        assert type(sched.value(23)) is int and sched.value(23) == sched.terms[-1]

    def test_theoretical_terms_follow_the_exact_recurrence(self):
        # D_{r+1} = floor(sqrt(D_r^3 * m_r)): D_{r+1}^2 <= D_r^3 m_r < (D_{r+1} + 1)^2.
        terms = theoretical_schedule().terms
        for r, (last, nxt) in enumerate(zip(terms, terms[1:]), start=1):
            target = last**3 * Fraction(step_mass(1.0, r))
            assert nxt**2 <= target < (nxt + 1) ** 2

    def test_theoretical_first_three_terms(self):
        sched = theoretical_schedule()
        assert [sched.value(r) for r in (1, 2, 3)] == [18, 29, 48]

    def test_theoretical_terms_nondecreasing(self):
        sched = theoretical_schedule()
        terms = [sched.value(r) for r in range(1, 11)]
        assert all(a <= b for a, b in zip(terms, terms[1:]))

    def test_theoretical_respects_lower_bound(self):
        sched = theoretical_schedule()
        for r in range(1, 11):
            assert sched.value(r) >= theoretical_lower_bound(r)

    def test_theoretical_step_mass_monotone(self):
        sched = theoretical_schedule()
        masses = [step_mass(sched.value(r), r) for r in range(1, 11)]
        assert all(a <= b for a, b in zip(masses, masses[1:]))

    def test_explicit_replays_and_holds_last(self):
        sched = DivisionSchedule([4, 9, 30])
        assert [sched.value(r) for r in (1, 2, 3, 4, 10)] == [4, 9, 30, 30, 30]

    def test_explicit_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DivisionSchedule([])
        with pytest.raises(ValueError):
            DivisionSchedule([4, 1])

    @pytest.mark.parametrize("bad", [2.5, 20.7, 20.0, True, np.float64(20.0), "20"])
    def test_builders_reject_a_divisor_that_is_no_integer(self, bad):
        # int() would truncate 2.5 to 2 and read True as 1.
        with pytest.raises(ValueError, match="need an integer divisor,"):
            practical_schedule(bad)
        with pytest.raises(ValueError, match="need an integer divisor,"):
            DivisionSchedule([4, bad])

    def test_builders_accept_numpy_integers(self):
        assert practical_schedule(np.int64(20)).value(3) == 839
        sched = DivisionSchedule(np.array([4, 9], dtype=np.int32))
        assert [sched.value(r) for r in (1, 2, 3)] == [4, 9, 9]
        assert all(type(v) is int for v in sched.terms)

    @pytest.mark.parametrize("d1, stored", [(20, 8), (10, 9)])
    def test_practical_schedule_shrinks_any_group_within_its_terms(self, d1, stored):
        # 10 is the attack family's grace_d1; 2^63 - 1 is above any group size.
        # A shrink iteration t keeps at most ceil(b_t / D_t) of b_t live members.
        schedule = practical_schedule(d1)
        assert len(schedule.terms) == stored
        bound, steps = 2**63 - 1, []
        while bound > 2:
            steps.append(schedule.value(len(steps) + 1))
            bound = -(-bound // steps[-1])
        assert len(steps) == 6 and tuple(steps) == schedule.terms[:6]

    def test_schedule_terms_are_frozen(self):
        schedule = practical_schedule(20)
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.terms = (2,)


class TestConstants:
    def test_c1_bracket(self):
        c1 = compute_C1()
        assert 2.2886 <= c1 <= 2.2905
        assert c1 < 2.29

    def test_c1_matches_closed_form_argmax(self):
        argmax = closed_form_maximizer()
        assert argmax == pytest.approx(0.648887, abs=1e-3)
        assert ratio_test_margin(argmax) == pytest.approx(compute_C1(), abs=1e-9)

    def test_margin_is_below_peak_away_from_argmax(self):
        peak = compute_C1()
        argmax = closed_form_maximizer()
        for offset in (-0.3, -0.1, 0.1, 0.3):
            assert ratio_test_margin(argmax + offset) < peak

    def test_c2_bracket(self):
        c2 = compute_C2()
        assert 134.78 <= c2 <= 134.98

    def test_c2_improvement_factor(self):
        assert BASELINE_CONSTANT / compute_C2() >= 4000.0

    def test_c2_formula_decomposition(self):
        scale = math.sqrt(2 * math.log(3 / (THETA * (1 - PHI) * DELTA)))
        assert compute_C2() == pytest.approx((compute_C1() * D + 1 / D) * scale)


class TestIsolationInequality:
    def test_trivial_when_s_is_one(self):
        # Empty product on the left: 1 >= e^{-gamma} always.
        assert check_egamma(10, 1, Fraction(1, 2))
        assert check_egamma(200, 1, Fraction(9, 10))

    def test_dense_support_case(self):
        assert check_egamma(10, 10, Fraction(9, 10))

    def test_exact_fraction_at_floor_boundary(self):
        # gamma*d/s = 1 exactly; binary 0.3 would floor to 0 instead.
        assert check_egamma(10, 3, Fraction(3, 10))

    def test_rejects_out_of_range_gamma(self):
        with pytest.raises(ValueError):
            check_egamma(10, 2, 0)
        with pytest.raises(ValueError):
            check_egamma(10, 2, 1)

    def test_grid_covers_and_passes(self):
        checked, failures = check_egamma_grid()
        assert checked == 33885
        assert failures == []


class TestPartitionProbability:
    def test_pair_example(self):
        empirical, formula, equal = check_partition_probability(4, 2, 1, {1, 2}, 1)
        assert formula == Fraction(1, 3)
        assert empirical == Fraction(1, 3)
        assert equal

    def test_singleton_h_is_group_density(self):
        empirical, formula, equal = check_partition_probability(5, 2, 1, {3}, 3)
        assert formula == Fraction(2, 5)
        assert equal

    def test_full_h_impossible_event(self):
        # |S| = 2 cannot intersect all of {1..4} in exactly one index.
        empirical, formula, equal = check_partition_probability(4, 2, 1, {1, 2, 3, 4}, 2)
        assert empirical == 0
        assert formula == 0
        assert equal

    def test_ragged_last_group(self):
        # d=5, n=2: group 3 has a single member, so (1/5) * (4)_1/(4)_1.
        empirical, formula, equal = check_partition_probability(5, 2, 3, {1, 4}, 4)
        assert equal
        assert formula == Fraction(1, 5)

    def test_rejects_large_d(self):
        with pytest.raises(ValueError):
            check_partition_probability(9, 2, 1, {1}, 1)

    def test_rejects_j_outside_h(self):
        with pytest.raises(ValueError):
            check_partition_probability(4, 2, 1, {1, 2}, 3)

    def test_suite_small_sizes_all_equal(self):
        checked, failures = partition_probability_suite(max_d=4, max_h=2)
        assert checked > 0
        assert failures == []
