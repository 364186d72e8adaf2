"""Random query instance generation: strata, selectivities, topologies."""

import math
import random
import statistics

import pytest

from moqo.costmodel import Topology
from moqo.querygen import (
    GenSpec,
    SelectivityMode,
    generate_query,
    sample_cardinality,
    sample_selectivity_minmax,
    sample_selectivity_steinbrunn,
)
from reference import cardinality


class TestCardinalitySampling:
    def test_strata_frequencies(self):
        rng = random.Random(1)
        counts = [0, 0, 0, 0]
        trials = 100_000
        for _ in range(trials):
            c = sample_cardinality(rng)
            assert 10 <= c <= 100_000
            if c < 100:
                counts[0] += 1
            elif c < 1000:
                counts[1] += 1
            elif c < 10_000:
                counts[2] += 1
            else:
                counts[3] += 1
        for got, want in zip(counts, (0.15, 0.35, 0.35, 0.15)):
            assert abs(got / trials - want) < 0.01

    def test_integer_values(self):
        rng = random.Random(2)
        assert all(isinstance(sample_cardinality(rng), int) for _ in range(100))


class TestSelectivitySampling:
    def test_steinbrunn_range_and_median(self):
        rng = random.Random(3)
        draws = [sample_selectivity_steinbrunn(rng) for _ in range(50_000)]
        assert all(1e-4 <= s <= 1.0 for s in draws)
        # log-uniform on [1e-4, 1]: median at 1e-2
        med = statistics.median(draws)
        assert 0.008 <= med <= 0.012

    def test_steinbrunn_log_uniform(self):
        rng = random.Random(4)
        logs = [
            math.log10(sample_selectivity_steinbrunn(rng)) for _ in range(50_000)
        ]
        # quartiles of uniform[-4, 0]
        q1, q3 = statistics.quantiles(logs, n=4)[0], statistics.quantiles(logs, n=4)[2]
        assert abs(q1 - (-3.0)) < 0.05
        assert abs(q3 - (-1.0)) < 0.05

    def test_minmax_exact_when_degenerate(self):
        rng = random.Random(5)
        assert sample_selectivity_minmax(rng, 100, 100) == 0.01

    def test_minmax_bounds(self):
        rng = random.Random(6)
        for _ in range(1000):
            a = rng.randint(10, 1000)
            b = rng.randint(10, 1000)
            s = sample_selectivity_minmax(rng, a, b)
            assert 0.0 < s <= 1.0
            assert s >= min(a, b) / (a * b) or s == 1.0

    def test_minmax_card_one_capped(self):
        rng = random.Random(7)
        # uniform(1, 1) / 1 = 1, stays a valid selectivity
        assert sample_selectivity_minmax(rng, 1, 1) == 1.0


class TestGenerate:
    def test_deterministic(self):
        spec = GenSpec(n=6, topology=Topology.CYCLE, seed=9)
        assert generate_query(spec) == generate_query(spec)

    def test_seed_changes_instance(self):
        a = generate_query(GenSpec(n=6, seed=1))
        b = generate_query(GenSpec(n=6, seed=2))
        assert a != b

    def test_chain_edges(self):
        q = generate_query(GenSpec(n=5, topology=Topology.CHAIN, seed=0))
        assert [(a, b) for a, b, _ in q.edges] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_cycle_edges(self):
        q = generate_query(GenSpec(n=4, topology=Topology.CYCLE, seed=0))
        assert [(a, b) for a, b, _ in q.edges] == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_star_edges(self):
        q = generate_query(GenSpec(n=4, topology=Topology.STAR, seed=0))
        assert [(a, b) for a, b, _ in q.edges] == [(0, 1), (0, 2), (0, 3)]

    def test_single_table_has_no_edges(self):
        q = generate_query(GenSpec(n=1, seed=0))
        assert q.edges == ()
        assert cardinality(q, 0b1) == float(q.cards[0])

    def test_minmax_mode_selectivities_consistent(self):
        q = generate_query(
            GenSpec(n=5, topology=Topology.STAR, selectivity_mode=SelectivityMode.MINMAX, seed=3)
        )
        for a, b, s in q.edges:
            assert s <= 1.0
            assert s >= min(q.cards[a], q.cards[b]) / (q.cards[a] * q.cards[b]) - 1e-12

    def test_card_bounds(self):
        for seed in range(20):
            q = generate_query(GenSpec(n=8, seed=seed))
            assert all(10 <= c <= 100_000 for c in q.cards)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n=0)
        with pytest.raises(ValueError):
            GenSpec(n=129)
        with pytest.raises(ValueError):
            GenSpec(n=2, topology=Topology.CYCLE)
        GenSpec(n=128)
        GenSpec(n=3, topology=Topology.CYCLE)
