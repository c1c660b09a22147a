"""grace_estimate against a group-by-group shrink, kept here as a reference.

The reference cuts each live group on its own, builds each probe as a fresh
copy of x and measures each candidate on its own copy.  It reads the draws
of the estimator's contract: per repeat one permutation, whose slices of n
are the groups, then per shrink iteration one uniform per live member, each
live group taking its slice in group order.  So the two must agree exactly,
in the entries and in the queries spent, also when a budget cuts the
estimate short.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zosparse.blackbox import (
    BlackBoxFunction,
    BudgetExhaustedError,
    make_distance,
    make_planted_linear,
    with_ledger,
)
from zosparse.estimator import DENOMINATOR_TOLERANCE, GraceConfig, grace_estimate
from zosparse.rng import RngStream, random_permutation
from zosparse.theory import DivisionSchedule, practical_schedule


def _label(f_x, f_v, f_u, blocks):
    if not all(map(math.isfinite, (f_x, f_v, f_u))):
        return 0
    denominator = f_u - f_x
    if abs(denominator) < DENOMINATOR_TOLERANCE * max(1.0, abs(f_x)):
        return 0
    ratio = (f_v - f_x) / denominator
    if not math.isfinite(ratio):
        return 0
    label = math.floor(ratio + 0.5) if ratio >= 0.0 else math.ceil(ratio - 0.5)
    return label if 1 <= label <= blocks else 0


def _cut(f, x, f_x, epsilon, members, step, row):
    """One shrink iteration of one group: the members whose block the ratio names."""
    block = -(-members.size // min(step, members.size))
    labels = np.arange(members.size) // block + 1
    signs = np.where(row < 0.5, 1, -1)
    probe_v, probe_u = x.copy(), x.copy()
    probe_v[members - 1] += epsilon * signs * labels
    probe_u[members - 1] += epsilon * signs
    label = _label(f_x, f(probe_v), f(probe_u), -(-members.size // block))
    return members[labels == label]


def _locate(f, x, f_x, epsilon, dims, n, schedule, rng):
    """Every group's survivors, iteration by iteration; groups of at most two are kept whole."""
    groups = [dims[start : start + n] for start in range(0, dims.size, n)]
    found = [j for members in groups if members.size <= 2 for j in members.tolist()]
    live, iteration = [members for members in groups if members.size > 2], 0
    while live:
        iteration += 1
        uniforms = rng.gen.random(sum(members.size for members in live))
        survivors, start = [], 0
        for members in live:
            row = uniforms[start : start + members.size]
            start += members.size
            step = schedule.value(iteration)
            survivors.append(_cut(f, x, f_x, epsilon, members, step, row))
        found += [j for kept in survivors if kept.size <= 2 for j in kept.tolist()]
        live = [kept for kept in survivors if kept.size > 2]
    return found


def reference_estimate(f, x, cfg, rng):
    """(entries, queries) of the reference estimator, or (None, queries) on budget exhaustion."""
    counted, ledger = with_ledger(f)
    x, d = np.asarray(x, dtype=float), f.dim
    try:
        f_x = counted(x)
        candidates = set()
        for _ in range(cfg.m):
            dims = random_permutation(d, rng)
            candidates.update(
                _locate(counted, x, f_x, cfg.epsilon, dims, cfg.n, cfg.schedule, rng)
            )
        entries = {}
        for j in sorted(candidates):
            probe = x.copy()
            probe[j - 1] += cfg.epsilon
            value = (counted(probe) - f_x) / cfg.epsilon
            if math.isfinite(value) and value != 0.0:
                entries[j] = value
    except BudgetExhaustedError:
        return None, ledger.count
    return entries, ledger.count


def _hooked(f):
    return BlackBoxFunction(f.dim, f.eval, lambda rows: [f.eval(row) for row in rows])


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 120),
    data=st.data(),
    m=st.integers(1, 3),
    divisors=st.one_of(
        st.integers(2, 20).map(practical_schedule),
        st.lists(st.integers(2, 9), min_size=1, max_size=3).map(DivisionSchedule),
    ),
    epsilon=st.sampled_from([1e-6, 1e-3, 0.1]),
    family=st.sampled_from(["planted-linear", "distance", "constant"]),
    hook=st.booleans(),
    cap=st.one_of(st.none(), st.integers(0, 60)),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_the_per_group_reference(d, data, m, divisors, epsilon, family, hook, cap, seed):
    n = data.draw(st.integers(1, d), label="n")
    s = data.draw(st.integers(1, min(d, 6)), label="s")
    if family == "constant":
        f, x = BlackBoxFunction(d, lambda x: 7.0), np.zeros(d)
    else:
        maker = make_planted_linear if family == "planted-linear" else make_distance
        inst = maker(d, s, RngStream(seed))
        f, x = inst.objective, inst.x1 + 0.01 * RngStream(seed, 1).gen.standard_normal(d)
    # distance brings its own hook; the others get one that loops over eval.
    f = (_hooked(f) if f.batch is None else f) if hook else BlackBoxFunction(d, f.eval)
    cfg = GraceConfig(epsilon=epsilon, n=n, m=m, schedule=divisors)
    want = reference_estimate(f, x, cfg, RngStream(seed, 2))
    counted, ledger = with_ledger(f, cap)
    try:
        estimate = grace_estimate(counted, x, cfg, RngStream(seed, 2))
        got = (estimate.entries, estimate.queries_used)
    except BudgetExhaustedError as error:
        got = (None, error.partial.queries_used)
    assert got[1] == ledger.count
    if cap is None or want[1] <= cap:
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]
    else:
        assert got == (None, cap)
