"""Pinned result digests of the five anytime runners and the two oracles.

Every runner works under an iteration budget, so its final frontier is a
pure function of the query, the seed and the code; the oracles are
deterministic. The digests below pin those frontiers: a rewrite of a hot
path that moves any result, even in the last bit of one cost, fails here.
"""

import hashlib
import math

import pytest

from moqo import baselines
from moqo.baselines import (
    dp_frontier,
    exhaustive_frontier,
    run_2p,
    run_ii,
    run_nsga2,
    run_sa,
)
from moqo.costmodel import CostModel, Topology
from moqo.harness import instance_model
from moqo.optimizer import Budget, rmq_optimize
from moqo.querygen import GenSpec, SelectivityMode, generate_query
from reference import SA_FREEZE_SETTINGS, materializing_catalog, model_for

RUNNERS = {
    "rmq_optimize": rmq_optimize,
    "run_ii": run_ii,
    "run_sa": run_sa,
    "run_2p": run_2p,
    "run_nsga2": run_nsga2,
}

# (runner, topology, seed) -> sha1 of the sorted final frontier costs
GOLDEN = {
    ("rmq_optimize", "chain", 0): "6738610e2f43cf503ebf7a943b9f38935d5214c3",
    ("rmq_optimize", "chain", 1): "02c7f8ad1d87179dc58e049a30ed8f32620a942f",
    ("rmq_optimize", "star", 0): "674a5359fd6f925b37ac8989173e525ffa639563",
    ("rmq_optimize", "star", 1): "910b4b2606e3cdb49e9c6b9ba1aa4124e54c9352",
    ("run_ii", "chain", 0): "c534d4f9bd0c0a54fd0fc639a06cf95cb981f93b",
    ("run_ii", "chain", 1): "7266e828b4f1e76d12a6965134a9e3f9e4cf6b69",
    ("run_ii", "star", 0): "333c11cff705c553754624a308ae3911d1da4ab8",
    ("run_ii", "star", 1): "9df20f649e10ac1ee52bbebcb362af6072f2fd58",
    ("run_sa", "chain", 0): "2901050af9f07e6ffb0b03a2987a202117ee673b",
    ("run_sa", "chain", 1): "880ea03d8bfb14488a3d7eeea8d1cddbb72e1936",
    ("run_sa", "star", 0): "d5c6e6ffb6acf32d5bdd5774f8d695ceb337e9d0",
    ("run_sa", "star", 1): "e4e46e90a9ba08fc96388aea294d2d84417b99de",
    ("run_2p", "chain", 0): "1f81755d0834c46a5e32cc76a2b164bce210f795",
    ("run_2p", "chain", 1): "7266e828b4f1e76d12a6965134a9e3f9e4cf6b69",
    ("run_2p", "star", 0): "a985891c3d491a59760ee573bf00fa36543a0a11",
    ("run_2p", "star", 1): "cd78cc3ad4b31bfbd4faa315a881d3dcb4fa0a9d",
    ("run_nsga2", "chain", 0): "5f281aa09c9ced664e519f59f0b175c3b30e4230",
    ("run_nsga2", "chain", 1): "961ce4fe4fac782c45119cdab19b4d9b3df7073c",
    ("run_nsga2", "star", 0): "5cc0ac6ca052c0eca8232b49c26915c7444a7154",
    ("run_nsga2", "star", 1): "5adc94f79f04c4234f0c8a0aa15d0ab1fc9cfa62",
}


def frontier_digest(costs):
    """sha1 over the sorted cost vectors, each float in exact hex form."""
    text = "\n".join(",".join(v.hex() for v in cost) for cost in sorted(costs))
    return hashlib.sha1(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "runner,topology,seed", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_frontier_digest_pinned(monkeypatch, runner, topology, seed):
    if runner == "run_2p":
        # four climbs, so that the eight iterations also cover the
        # hand-off to annealing
        monkeypatch.setattr(baselines, "TWO_PHASE_CLIMBS", 4)
    spec = GenSpec(n=12, topology=Topology(topology), seed=seed)
    model = CostModel(generate_query(spec))
    archive = RUNNERS[runner](model, Budget(max_iterations=8), seed=seed)
    assert frontier_digest(archive.costs()) == GOLDEN[(runner, topology, seed)]


# (oracle, alpha, topology, n) -> sha1 of the sorted frontier costs, on
# seed 2, whose exact frontiers are wide (26-74 plans)
ORACLE_GOLDEN = {
    ("dp", 1.0, "chain", 6): "d2ac1b882a10951e58e0cd38f1fa1cf96dda120c",
    ("dp", 1.01, "chain", 6): "4b735e0e05e05d2de2add2c372ff95d178909e6d",
    ("dp", 2.0, "chain", 6): "0b9194b1d95c4ad9c5ddf4eb73c8aa4cd52e191e",
    ("dp", math.inf, "chain", 6): "88ded1c4c657d25c3b49ead9846c49a461998849",
    ("exhaustive", None, "chain", 6): "d2ac1b882a10951e58e0cd38f1fa1cf96dda120c",
    ("dp", 1.0, "star", 6): "ba26f04e7fdc1bba7b580216ea5e19e30769b722",
    ("dp", 1.01, "star", 6): "8ec957fde2abb7269453aa1de505a89608a2018d",
    ("dp", 2.0, "star", 6): "9dfd32d6066001a2d04dc66b12d1f20453091da3",
    ("dp", math.inf, "star", 6): "15cfbfa9ee32222de8d09d691a2a5241fbc08231",
    ("exhaustive", None, "star", 6): "ba26f04e7fdc1bba7b580216ea5e19e30769b722",
    ("dp", 1.0, "chain", 7): "0be1c434bc1c09372b789d2ea677b57eb7e931a6",
    ("dp", 1.01, "chain", 7): "2c5881138f5dda961692cc545bb1962c58febd8f",
    ("dp", 2.0, "chain", 7): "b4a51825be3c12f66b421d1d21fda82828bb09f4",
    ("dp", math.inf, "chain", 7): "4e2ae3ee951fcbc4b7550f9752684ee044f7cb3a",
    ("exhaustive", None, "chain", 7): "0be1c434bc1c09372b789d2ea677b57eb7e931a6",
    ("dp", 1.0, "star", 7): "46e9160c8c27de99ca40d562943de197428c00e1",
    ("dp", 1.01, "star", 7): "3604576a3850800f3946f7f60a97f89d14ce6d8c",
    ("dp", 2.0, "star", 7): "32ee0b0f55ed729506d1a1561930d227393e3787",
    ("dp", math.inf, "star", 7): "9ba43bfab0692c4eafdcf9622ab56866f5e6d9fb",
    ("exhaustive", None, "star", 7): "46e9160c8c27de99ca40d562943de197428c00e1",
}


@pytest.mark.parametrize(
    "case", list(ORACLE_GOLDEN), ids=lambda case: "-".join(map(str, case))
)
def test_oracle_digest_pinned(case):
    oracle, alpha, topology, n = case
    spec = GenSpec(n=n, topology=Topology(topology), seed=2)
    model = CostModel(generate_query(spec))
    if oracle == "dp":
        archive = dp_frontier(model, alpha)
    else:
        archive = exhaustive_frontier(model)
    assert frontier_digest(archive.costs()) == ORACLE_GOLDEN[case]


# SA with short stages and fast cooling freezes well inside its cap.
# (topology, seed) -> (iterations until frozen, sha1 of the final frontier)
SA_FREEZE_GOLDEN = {
    ("chain", 0): (13, "a6a2cc2e672cda3275978b2dfef26d12580bec63"),
    ("chain", 1): (12, "bde3441e5a505301e3a2e1e4c9a752b6a97fc359"),
    ("star", 0): (12, "195d5d51c4e8683772a52d049caedea30f25b498"),
    ("star", 1): (26, "7f7f9ef6f8c9e3e6c65336d7927adf2e9ed35535"),
}


@pytest.mark.parametrize("topology,seed", sorted(SA_FREEZE_GOLDEN))
def test_sa_until_frozen_pinned(monkeypatch, topology, seed):
    for name, value in SA_FREEZE_SETTINGS.items():
        monkeypatch.setattr(baselines, name, value)
    steps = []
    archive = run_sa(
        model_for(12, seed, Topology(topology)),
        Budget(max_iterations=1000),
        seed=seed,
        progress_sink=lambda elapsed, plans: steps.append(elapsed),
    )
    got = (len(steps), frontier_digest(archive.costs()))
    assert got == SA_FREEZE_GOLDEN[(topology, seed)]


# 2P on metrics (0, 1), eight iterations, with the hand-off to annealing
# after the first and after the third iteration.
# (TWO_PHASE_CLIMBS, topology, seed) -> sha1 of the final frontier
TWO_PHASE_GOLDEN = {
    (1, "chain", 0): "fbc79b169ac5ce2fb4b52796072cea0c61ca64c7",
    (1, "chain", 1): "29cf2132b7555d77e7cd96383186d36f9954a029",
    (1, "star", 0): "f93926fbf4765d530e147a8b3a3d175d3daa36c7",
    (1, "star", 1): "8fcb5dd481a09d7bbe45e920122385830839dbef",
    (3, "chain", 0): "9352079e63b7792125354ebacf11769c91feb7d5",
    (3, "chain", 1): "34e6ed8c70d6c26cc1d03f1ef10b3f548f24acf1",
    (3, "star", 0): "4f9044f4a95b78a8eb8a39709aefbaf7a1520f56",
    (3, "star", 1): "07e32ae75e28aec62f0a28ea9d1c35c573c5c58f",
}


@pytest.mark.parametrize("climbs,topology,seed", sorted(TWO_PHASE_GOLDEN))
def test_two_phase_hand_off_pinned(monkeypatch, climbs, topology, seed):
    monkeypatch.setattr(baselines, "TWO_PHASE_CLIMBS", climbs)
    model = model_for(12, seed, Topology(topology), (0, 1))
    archive = run_2p(model, Budget(max_iterations=8), seed=seed)
    assert frontier_digest(archive.costs()) == TWO_PHASE_GOLDEN[(climbs, topology, seed)]


# II with a progress sink, eight iterations.
# (topology, seed) -> (snapshot count, sha1 over the snapshot digests)
II_SINK_GOLDEN = {
    ("chain", 0): (8, "0aa6b5d281639cc6ae4903adfc39f5bfbdb28f55"),
    ("chain", 1): (8, "2487e73d66f26a8b204bdeb4b240c240fde243b6"),
    ("star", 0): (8, "29e43c69d624762b2364024276dc3ba25b430a3a"),
    ("star", 1): (8, "856649f7065bc45768e51d32afa3fb124e74d968"),
}


@pytest.mark.parametrize("topology,seed", sorted(II_SINK_GOLDEN))
def test_ii_progress_snapshots_pinned(topology, seed):
    snapshots = []

    def sink(elapsed, plans):
        snapshots.append(frontier_digest([p.cost for p in plans]))

    archive = run_ii(
        model_for(12, seed, Topology(topology)),
        Budget(max_iterations=8),
        seed=seed,
        progress_sink=sink,
    )
    assert snapshots[-1] == frontier_digest(archive.costs())
    digest = hashlib.sha1("\n".join(snapshots).encode()).hexdigest()
    assert (len(snapshots), digest) == II_SINK_GOLDEN[(topology, seed)]


# NSGA-II on the experiment's shape (10-table chains, a per-seed pair of
# metrics, 20 iterations), on 50-table stars with all three metrics,
# whose populations rank into 18-52 fronts, and on two shapes where
# selection keys tie. With one metric (seed 0 draws the first metric,
# seed 4 the second) each front holds one cost value, so its crowding
# distance is inf at both ends and 0 inside; on 8-table stars over the
# materializing catalog the archive holds both output formats.
# (shape, seed) -> sha1 of the final frontier
NSGA2_GOLDEN = {
    ("chain10-2m", 0): "52e16f9f410de30311abe9df5b959a92df243017",
    ("chain10-2m", 1): "8a2b483ad6d25925ebcb757b85d522b324594c89",
    ("star50", 0): "5da5b38cd7e16ea459b423489562980032eeeafc",
    ("star50", 1): "0ae19905cfd37d0da99bf8c80f3f2d4126c5f284",
    ("chain10-1m", 0): "1630267cb4fe766d1abf45bff150a6d375055c65",
    ("chain10-1m", 4): "800003191a88930e020c0d40ff8cb9d1a60dc5f7",
    ("star8-materializing", 0): "617bb5f1b76dd82c69b53bde5b97760cdc5c386c",
    ("star8-materializing", 1): "7e75fcaf32a6f283732d1b9dc79cad3f5a6d6e7d",
}

# shape -> (tables, topology, metric count, catalog, iterations)
NSGA2_SHAPES = {
    "chain10-2m": (10, Topology.CHAIN, 2, None, 20),
    "star50": (50, Topology.STAR, 3, None, 5),
    "chain10-1m": (10, Topology.CHAIN, 1, None, 20),
    "star8-materializing": (8, Topology.STAR, 3, materializing_catalog(), 20),
}


@pytest.mark.parametrize("shape,seed", sorted(NSGA2_GOLDEN))
def test_nsga2_deep_fronts_pinned(shape, seed):
    n, topology, metrics_count, catalog, iterations = NSGA2_SHAPES[shape]
    model = instance_model(
        n, seed, topology, SelectivityMode.STEINBRUNN, metrics_count, catalog
    )
    archive = run_nsga2(model, Budget(max_iterations=iterations), seed=seed)
    assert frontier_digest(archive.costs()) == NSGA2_GOLDEN[(shape, seed)]
