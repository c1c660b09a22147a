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
    (256, 4, 0): (19, 2, "c59e1c02431a5ace"),
    (256, 4, 1): (18, 2, "77681cb756f0ac7c"),
    (256, 4, 2): (24, 4, "d025f09da59ac3b9"),
    (256, 4, 3): (18, 2, "4f355afeb384a704"),
    (256, 8, 0): (31, 2, "9db31ab840eaef7c"),
    (256, 8, 1): (34, 4, "217727243835bfee"),
    (256, 8, 2): (39, 6, "be62beb170245932"),
    (256, 8, 3): (33, 3, "c6a0d3aac0f2ad47"),
    (256, 16, 0): (61, 10, "ef73fe70c0227f58"),
    (256, 16, 1): (60, 8, "ac90f277a6ab7a9a"),
    (256, 16, 2): (62, 12, "efefc5c39fc55672"),
    (256, 16, 3): (61, 11, "cceddb32d767ba81"),
    (256, 32, 0): (127, 22, "86e5e4c391c94649"),
    (256, 32, 1): (128, 20, "f3636bcd15278239"),
    (256, 32, 2): (124, 17, "d4111c570b589596"),
    (256, 32, 3): (120, 14, "7dac0aec93e01080"),
    (1024, 4, 0): (18, 1, "9715ea2957c9385a"),
    (1024, 4, 1): (25, 4, "eb14e98213343c21"),
    (1024, 4, 2): (21, 2, "2369c09e7f455ecd"),
    (1024, 4, 3): (15, 0, "e3b0c44298fc1c14"),
    (1024, 8, 0): (43, 6, "e0518bb9e5df4b28"),
    (1024, 8, 1): (45, 6, "900cfdefaac49030"),
    (1024, 8, 2): (45, 6, "20aa6b25cf916ca9"),
    (1024, 8, 3): (39, 4, "fcf079ba8aa40e2c"),
    (1024, 16, 0): (68, 5, "086fea4e37d2796e"),
    (1024, 16, 1): (74, 8, "6ae4da9738195144"),
    (1024, 16, 2): (90, 13, "7819223142041518"),
    (1024, 16, 3): (84, 12, "4d4cd8630432f410"),
    (1024, 32, 0): (140, 23, "40e79fe7c6919c3f"),
    (1024, 32, 1): (141, 21, "86f14b14b406196b"),
    (1024, 32, 2): (133, 15, "90fc26e43b6621f9"),
    (1024, 32, 3): (139, 22, "6df5cb9fddac849b"),
    (4096, 4, 0): (25, 4, "3ea1b7cfe9e9209d"),
    (4096, 4, 1): (19, 2, "1bd0b85e13901d67"),
    (4096, 4, 2): (21, 2, "f192dfe5a897086b"),
    (4096, 4, 3): (21, 2, "71df06bb928132bb"),
    (4096, 8, 0): (45, 6, "645dc211a2e001a4"),
    (4096, 8, 1): (39, 4, "124e0cc8cf8a5ab2"),
    (4096, 8, 2): (42, 4, "851220bdb321c0d2"),
    (4096, 8, 3): (40, 5, "bb0cbabda6ef563c"),
    (4096, 16, 0): (75, 8, "513d33ded7932416"),
    (4096, 16, 1): (80, 9, "da7153fe80fbac5a"),
    (4096, 16, 2): (72, 7, "a62e28d0644c4de2"),
    (4096, 16, 3): (69, 6, "c1f4e18d1ad27163"),
    (4096, 32, 0): (152, 17, "0e06851192bdee61"),
    (4096, 32, 1): (160, 19, "d914e28c2559a9e4"),
    (4096, 32, 2): (155, 16, "a95a03982b7a121b"),
    (4096, 32, 3): (154, 17, "02849d54230c4d73"),
    (16384, 4, 0): (23, 2, "08d1d0261f1e557c"),
    (16384, 4, 1): (21, 2, "96cbdee363822dfe"),
    (16384, 4, 2): (21, 2, "f9a2bd9ba6f84e6b"),
    (16384, 4, 3): (23, 2, "7f49001f089f59c8"),
    (16384, 8, 0): (49, 8, "3dc9680de2838d12"),
    (16384, 8, 1): (39, 4, "89b0305d26cf8c15"),
    (16384, 8, 2): (49, 8, "cb172b839f41fe9c"),
    (16384, 8, 3): (40, 5, "2cfc59e633805432"),
    (16384, 16, 0): (69, 5, "909fc3ccb6e50642"),
    (16384, 16, 1): (79, 8, "4689421623ae2b7c"),
    (16384, 16, 2): (77, 10, "bcca5739befde5c7"),
    (16384, 16, 3): (92, 15, "17dcf440f4003bf3"),
    (16384, 32, 0): (155, 18, "db957a0d133affee"),
    (16384, 32, 1): (136, 11, "923d852cac4cb4cc"),
    (16384, 32, 2): (132, 9, "d256f68b081ac869"),
    (16384, 32, 3): (141, 14, "c5ef1a9bb75b0305"),
}

# (D_1, instance, point 0 = start or 1 = random): as above
DISTANCE = {
    (20, 0, 0): (124, 33, "0201eb99438ee653"),
    (20, 0, 1): (148, 57, "a41c616b9aae926b"),
    (20, 1, 0): (121, 30, "05cf2da0f1822c37"),
    (20, 1, 1): (151, 60, "1169ae98e9e047f3"),
    (20, 2, 0): (122, 31, "709ea0e1d1d275f9"),
    (20, 2, 1): (145, 54, "14b3f0724d4b7054"),
    (20, 3, 0): (127, 36, "ae9d73ba4299d3ee"),
    (20, 3, 1): (148, 57, "60c992395a9e658c"),
    (2, 0, 0): (298, 33, "7bc32c483235a45e"),
    (2, 0, 1): (249, 20, "49d679be6d6004af"),
    (2, 1, 0): (301, 26, "532cab0347e25d9b"),
    (2, 1, 1): (269, 28, "c66f49d723ad02f0"),
    (2, 2, 0): (319, 32, "122c259ec7e14487"),
    (2, 2, 1): (251, 20, "16d58505fb440611"),
    (2, 3, 0): (330, 35, "a5e038758a1e7bb0"),
    (2, 3, 1): (255, 16, "979da3bfe3d209b9"),
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
    (512, 0): (35, 1500, "2c84433055c58952"),
    (512, 1): (34, 1500, "67f76627c05b3c2e"),
    (512, 2): (35, 1500, "5267d8ee751ef591"),
    (512, 3): (35, 1500, "acd862280ec63369"),
    (2048, 0): (32, 1500, "29374807cadcf844"),
    (2048, 1): (34, 1500, "dc1f9cbbb259c491"),
    (2048, 2): (33, 1500, "467c16d48ae7f18a"),
    (2048, 3): (33, 1500, "7968c013841cf9b8"),
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
