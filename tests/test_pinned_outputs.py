"""A standing pin of grace_estimate's integer outputs.

The queries spent and the sorted support of each estimate below were
recorded once and must never move: a change that claims bit-identical
outputs passes here or does not hold.  Only integers are pinned, so a
numpy build that sums floats in another order cannot trip it.  The cases
are the ``scaling`` benchmark grid at seed 1 (planted-linear, d 256..16384
x s 4..32, four instances each, later shrink iterations included) and
distance-512/10 at m = 3, at the start point and at a random point, under
the default schedule and under D = 2, which shrinks one halving at a time.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from zosparse.blackbox import make_distance, make_planted_linear
from zosparse.estimator import GraceConfig, grace_estimate
from zosparse.optimizer import OptimizerConfig, run_optimizer
from zosparse.rng import RngStream


def outputs(estimate):
    """queries_used, the support's size, and a digest of the sorted support."""
    support = np.asarray(estimate.support, dtype="<i8").tobytes()
    return estimate.queries_used, len(estimate.support), hashlib.sha256(support).hexdigest()[:16]


# (d, s, instance): (queries_used, |support|, digest of the sorted support)
SCALING = {
    (256, 4, 0): (15, 1, "dd3168a635e96276"),
    (256, 4, 1): (21, 2, "7fc399ac2f9e3917"),
    (256, 4, 2): (24, 4, "d025f09da59ac3b9"),
    (256, 4, 3): (18, 1, "17fcbe27dfec463f"),
    (256, 8, 0): (37, 6, "5bf562c812677b58"),
    (256, 8, 1): (31, 2, "0668b077aa0a89ef"),
    (256, 8, 2): (35, 5, "4252e05b4f9abb35"),
    (256, 8, 3): (36, 6, "8ef494e12cc1d7c5"),
    (256, 16, 0): (54, 3, "18703707a625132d"),
    (256, 16, 1): (61, 8, "bb7658c4458f1347"),
    (256, 16, 2): (60, 9, "0aa073f78a9cbd09"),
    (256, 16, 3): (59, 6, "2f9a5c819ee080ca"),
    (256, 32, 0): (128, 21, "16c680143ae4029f"),
    (256, 32, 1): (128, 19, "f50617e625bed236"),
    (256, 32, 2): (127, 21, "44ebe7f07d179f5a"),
    (256, 32, 3): (130, 22, "782b7cc0e222965f"),
    (1024, 4, 0): (19, 2, "d836feac21ed5c9e"),
    (1024, 4, 1): (21, 2, "520b368984f9cf51"),
    (1024, 4, 2): (19, 2, "2369c09e7f455ecd"),
    (1024, 4, 3): (25, 4, "13ef85cf0c16b249"),
    (1024, 8, 0): (36, 3, "31deb327b87f209a"),
    (1024, 8, 1): (49, 8, "99095f984589f388"),
    (1024, 8, 2): (41, 4, "10c4a1ae477b1935"),
    (1024, 8, 3): (45, 6, "33730e0571c6b298"),
    (1024, 16, 0): (79, 9, "7e8a54867500d497"),
    (1024, 16, 1): (82, 9, "fe7895714f9a4a66"),
    (1024, 16, 2): (74, 8, "a00f19a838b60522"),
    (1024, 16, 3): (85, 11, "44046a3752243f30"),
    (1024, 32, 0): (141, 21, "0bb3db138eda138c"),
    (1024, 32, 1): (137, 14, "37abb43bc6d77452"),
    (1024, 32, 2): (147, 21, "59b234935c95fa19"),
    (1024, 32, 3): (138, 22, "d22affdcd337f939"),
    (4096, 4, 0): (16, 1, "74432ac6a7ea28df"),
    (4096, 4, 1): (21, 2, "1bd0b85e13901d67"),
    (4096, 4, 2): (19, 2, "039045f77572ffe8"),
    (4096, 4, 3): (25, 4, "68efc298cfc03f67"),
    (4096, 8, 0): (34, 3, "7b5e7c712d73e693"),
    (4096, 8, 1): (38, 3, "7466ab60b545c063"),
    (4096, 8, 2): (36, 3, "cb1761c5072cfbdf"),
    (4096, 8, 3): (43, 6, "15d52fcfe51c6c84"),
    (4096, 16, 0): (77, 8, "0ed185ebdb49a860"),
    (4096, 16, 1): (72, 7, "34ce8348cb2ca675"),
    (4096, 16, 2): (77, 8, "db206035d26e60f1"),
    (4096, 16, 3): (73, 6, "36e18fa9dfda559b"),
    (4096, 32, 0): (174, 25, "9c7bd12a28422e75"),
    (4096, 32, 1): (162, 18, "030a098ee81d3404"),
    (4096, 32, 2): (155, 18, "4a2cd8c01421a0da"),
    (4096, 32, 3): (153, 16, "e4df01128185c200"),
    (16384, 4, 0): (21, 2, "1caa834cb2bc1a4a"),
    (16384, 4, 1): (21, 2, "96cbdee363822dfe"),
    (16384, 4, 2): (21, 2, "f643108e97a461ee"),
    (16384, 4, 3): (13, 0, "e3b0c44298fc1c14"),
    (16384, 8, 0): (42, 5, "82575a6f289c9680"),
    (16384, 8, 1): (43, 6, "473cbfcba21affcc"),
    (16384, 8, 2): (42, 4, "9541fa42875bd906"),
    (16384, 8, 3): (49, 8, "708e66b3059970d1"),
    (16384, 16, 0): (77, 8, "aac88a12ba69f105"),
    (16384, 16, 1): (79, 10, "3ed192361074e242"),
    (16384, 16, 2): (74, 7, "51b81c29c2c22e2b"),
    (16384, 16, 3): (82, 11, "2d3d215057a0a054"),
    (16384, 32, 0): (130, 9, "554dd0a36d7b09ff"),
    (16384, 32, 1): (148, 15, "5e21cdd7c848818f"),
    (16384, 32, 2): (150, 17, "aacf98d1cc14edf5"),
    (16384, 32, 3): (137, 12, "a93eb0a943996567"),
}

# (D_1, instance, point 0 = start or 1 = random): as above
DISTANCE = {
    (20, 0, 0): (127, 36, "e7c7989be8370191"),
    (20, 0, 1): (148, 57, "dbd360a3c8af487e"),
    (20, 1, 0): (121, 30, "9b31e24f413ed8f0"),
    (20, 1, 1): (148, 57, "90fa6bee753b9ab6"),
    (20, 2, 0): (125, 34, "c738b4d4d57063a9"),
    (20, 2, 1): (148, 57, "6fac2df36be1a1d5"),
    (20, 3, 0): (127, 36, "0adb610cdd56a134"),
    (20, 3, 1): (142, 51, "6da38cbcbf5695c9"),
    (2, 0, 0): (339, 32, "e2e52dee15cb866e"),
    (2, 0, 1): (237, 14, "a811619957dfc3ea"),
    (2, 1, 0): (310, 27, "8faa2608e04b48b5"),
    (2, 1, 1): (309, 34, "efe780604de4e97b"),
    (2, 2, 0): (289, 26, "3cc228ae145eb8c1"),
    (2, 2, 1): (246, 21, "2056c449da811b8d"),
    (2, 3, 0): (308, 23, "b9b3687368070ba1"),
    (2, 3, 1): (278, 21, "d0e3541fcd2d7d30"),
}


@pytest.mark.parametrize("d, s, instance", sorted(SCALING))
def test_scaling_grid_outputs_are_pinned(d, s, instance):
    root = RngStream(1)
    problem = make_planted_linear(d, s, root.derive(d, s, instance, 0))
    cfg = GraceConfig.defaults(d, s, epsilon=1e-3)
    estimate = grace_estimate(problem.objective, problem.x1, cfg, root.derive(d, s, instance, 1))
    assert outputs(estimate) == SCALING[d, s, instance]


@pytest.mark.parametrize("d1, instance, point", sorted(DISTANCE))
def test_distance_outputs_at_three_repeats_are_pinned(d1, instance, point):
    root = RngStream(1)
    problem = make_distance(512, 10, root.derive(0, instance))
    x = problem.x1 if point == 0 else root.derive(2, instance).gen.random(512)
    cfg = replace(GraceConfig.defaults(512, 10, d1=d1), m=3)
    estimate = grace_estimate(problem.objective, x, cfg, root.derive(1, instance, point))
    assert outputs(estimate) == DISTANCE[d1, instance, point]


def run_outputs(trace):
    """The run's record count, its final queries, and a digest of every record's queries."""
    queries = np.asarray([record.queries for record in trace.records], dtype="<i8").tobytes()
    return len(trace.records), trace.records[-1].queries, hashlib.sha256(queries).hexdigest()[:16]


# Whole grace descents at budget 1500 on distance-d/10, four instances each:
# d = 512 goes through the objective's batch hook, d = 2048 has none.
# (d, instance): (records, final queries, digest of the record queries)
DESCENT = {
    (512, 0): (34, 1500, "fea7c37d1ec5cdea"),
    (512, 1): (35, 1500, "18929d2e53576907"),
    (512, 2): (34, 1500, "b8cc1b3bcf459bb3"),
    (512, 3): (35, 1500, "6359f1b0c29da7e6"),
    (2048, 0): (32, 1500, "e17d8f5ed5a52441"),
    (2048, 1): (33, 1500, "b3cb61f8344771fb"),
    (2048, 2): (33, 1500, "e4682d907259f7d2"),
    (2048, 3): (33, 1500, "86effdba89bcf11c"),
}


@pytest.mark.parametrize("d, instance", sorted(DESCENT))
def test_descent_runs_are_pinned(d, instance):
    root = RngStream(1)
    problem = make_distance(d, 10, root.derive(3, d, instance))
    assert (problem.objective.batch is not None) == (d <= 1024)
    opt = OptimizerConfig(method="grace", step_size=0.5, budget=1500)
    cfg = GraceConfig.defaults(d, 10)
    trace = run_optimizer(problem.objective, problem.x1, opt, root.derive(4, d, instance), cfg)
    assert run_outputs(trace) == DESCENT[d, instance]
