"""Pinned result digests of the five anytime runners.

Every runner works under an iteration budget, so its final frontier is a
pure function of the query, the seed and the code. The digests below pin
those frontiers: a rewrite of a hot path that moves any result, even in
the last bit of one cost, fails here.
"""

import functools
import hashlib

import pytest

from moqo.baselines import run_2p, run_ii, run_nsga2, run_sa
from moqo.costmodel import CostModel, Topology
from moqo.optimizer import Budget, rmq_optimize
from moqo.querygen import GenSpec, generate_query

# 2P gets a four-iteration improvement phase, so that its eight
# iterations also cover the hand-off to annealing
RUNNERS = {
    "rmq_optimize": rmq_optimize,
    "run_ii": run_ii,
    "run_sa": run_sa,
    "run_2p": functools.partial(run_2p, improvement_iterations=4),
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
def test_frontier_digest_pinned(runner, topology, seed):
    spec = GenSpec(n=12, topology=Topology(topology), seed=seed)
    model = CostModel(generate_query(spec))
    archive = RUNNERS[runner](model, Budget(max_iterations=8), seed=seed)
    assert frontier_digest(archive.costs()) == GOLDEN[(runner, topology, seed)]
