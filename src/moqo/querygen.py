"""Randomized benchmark query generation.

Cardinalities are drawn from a four-stratum distribution spanning 10 to
100000 rows; selectivities come either from a log-uniform law or from a
law that targets a join output cardinality between the two input
cardinalities. Generation is deterministic per seed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .costmodel import QueryInstance, Topology, topology_edges

# (weight, low, high) with both bounds drawable.
_CARD_STRATA = (
    (0.15, 10, 99),
    (0.35, 100, 999),
    (0.35, 1000, 9999),
    (0.15, 10000, 100000),
)


class SelectivityMode(enum.Enum):
    STEINBRUNN = "steinbrunn"
    MINMAX = "minmax"


@dataclass(frozen=True)
class GenSpec:
    n: int
    topology: Topology = Topology.CHAIN
    selectivity_mode: SelectivityMode = SelectivityMode.STEINBRUNN
    seed: int = 0

    def __post_init__(self) -> None:
        topology_edges(self.topology, self.n)  # table count, cycle minimum


def sample_cardinality(rng: random.Random) -> int:
    """Stratified row count: 15% in [10,100), 35% in [100,1000),
    35% in [1000,10000), 15% in [10000,100000], uniform within each."""
    r = rng.random()
    acc = 0.0
    for weight, low, high in _CARD_STRATA:
        acc += weight
        if r < acc:
            return rng.randint(low, high)
    return rng.randint(_CARD_STRATA[-1][1], _CARD_STRATA[-1][2])


def sample_selectivity_steinbrunn(rng: random.Random) -> float:
    """Log-uniform selectivity over [1e-4, 1]."""
    return 10.0 ** rng.uniform(-4.0, 0.0)


def sample_selectivity_minmax(rng: random.Random, card_a: float, card_b: float) -> float:
    """Selectivity aiming the join output between the input cardinalities.

    Draws a target output size uniformly from [min(a,b), max(a,b)] and
    converts it to a selectivity, clamped into (0, 1].
    """
    low, high = min(card_a, card_b), max(card_a, card_b)
    target = rng.uniform(low, high)
    return min(1.0, target / (card_a * card_b))


def generate_query(spec: GenSpec) -> QueryInstance:
    """Materialize a query instance, bit-exact reproducible per seed.

    Draw order: all cardinalities in table order, then one selectivity
    per edge in edge order.
    """
    rng = random.Random(spec.seed)
    cards = tuple(sample_cardinality(rng) for _ in range(spec.n))
    edges = []
    for a, b in topology_edges(spec.topology, spec.n):
        if spec.selectivity_mode is SelectivityMode.STEINBRUNN:
            sel = sample_selectivity_steinbrunn(rng)
        else:
            sel = sample_selectivity_minmax(rng, cards[a], cards[b])
        edges.append((a, b, sel))
    return QueryInstance(
        n=spec.n, cards=cards, edges=tuple(edges), topology=spec.topology
    )
