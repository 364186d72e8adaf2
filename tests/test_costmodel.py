"""Query instances, operator cost formulas and plan cost assembly."""

import math
import random
import struct

import pytest

from moqo import costmodel
from moqo.baselines import dp_frontier, run_ii, run_nsga2
from moqo.core import MAX_TABLES, OutputFormat
from moqo.costmodel import (
    CostModel,
    JoinOp,
    OperatorCatalog,
    QueryInstance,
    ScanOp,
    Topology,
    default_catalog,
    topology_edges,
)
from moqo.optimizer import Budget, pareto_climb, pareto_step, random_plan, rmq_optimize
from moqo.querygen import GenSpec, generate_query
from reference import (
    _dominates_within,
    _random_tree,
    _splice,
    cardinality,
    join_local_cost,
    materializing_catalog,
    model_for,
    plan_cost,
    plan_nodes,
    weakly_dominates,
)


def _tables(mask):
    """Table indices of a bit mask, ascending."""
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


def chain3():
    return QueryInstance(
        n=3,
        cards=(10, 20, 30),
        edges=((0, 1, 0.1), (1, 2, 0.5)),
        topology=Topology.CHAIN,
    )


class TestQueryInstance:
    def test_valid_chain(self):
        q = chain3()
        assert q.cards == (10, 20, 30)

    def test_star_and_cycle_shapes(self):
        QueryInstance(
            n=3,
            cards=(1, 2, 3),
            edges=((0, 1, 0.5), (0, 2, 0.5)),
            topology=Topology.STAR,
        )
        QueryInstance(
            n=3,
            cards=(1, 2, 3),
            edges=((0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)),
            topology=Topology.CYCLE,
        )

    def test_edge_set_must_match_topology(self):
        with pytest.raises(ValueError):
            QueryInstance(
                n=3,
                cards=(1, 2, 3),
                edges=((0, 2, 0.5), (1, 2, 0.5)),
                topology=Topology.CHAIN,
            )

    def test_topology_edges_in_draw_order(self):
        # the cycle's closing edge comes last, as (n - 1, 0)
        assert topology_edges(Topology.CHAIN, 4) == [(0, 1), (1, 2), (2, 3)]
        assert topology_edges(Topology.CYCLE, 4) == [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert topology_edges(Topology.STAR, 4) == [(0, 1), (0, 2), (0, 3)]
        with pytest.raises(ValueError, match="at least 3"):
            topology_edges(Topology.CYCLE, 2)

    @pytest.mark.parametrize("topology", list(Topology))
    def test_topology_edges_check_table_count(self, topology):
        # the one table-count check, made before a cycle's minimum
        for n in (0, MAX_TABLES + 1):
            with pytest.raises(ValueError, match=rf"table count {n} outside \[1, 128\]"):
                topology_edges(topology, n)
        assert len(topology_edges(topology, MAX_TABLES)) >= MAX_TABLES - 1
        if topology is not Topology.CYCLE:
            assert topology_edges(topology, 1) == []

    def test_query_and_spec_reject_table_count_alike(self):
        with pytest.raises(ValueError, match=r"table count 129 outside \[1, 128\]"):
            GenSpec(n=129)
        with pytest.raises(ValueError, match=r"table count 0 outside \[1, 128\]"):
            QueryInstance(n=0, cards=(), edges=(), topology=Topology.CHAIN)
        with pytest.raises(ValueError, match=r"table count 0 outside \[1, 128\]"):
            QueryInstance(n=0, cards=(5,), edges=(), topology=Topology.STAR)

    @pytest.mark.parametrize("topology", list(Topology))
    def test_edges_match_in_either_endpoint_order(self, topology):
        pairs = topology_edges(topology, 5)
        for edges in (pairs, [(b, a) for a, b in reversed(pairs)]):
            QueryInstance(
                n=5,
                cards=(1, 2, 3, 4, 5),
                edges=tuple((a, b, 0.5) for a, b in edges),
                topology=topology,
            )

    def test_selectivity_range_enforced(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                QueryInstance(
                    n=2, cards=(1, 2), edges=((0, 1, bad),), topology=Topology.CHAIN
                )
        QueryInstance(n=2, cards=(1, 2), edges=((0, 1, 1.0),), topology=Topology.CHAIN)

    def test_cards_positive(self):
        with pytest.raises(ValueError):
            QueryInstance(
                n=2, cards=(0, 2), edges=((0, 1, 0.5),), topology=Topology.CHAIN
            )

    def test_single_table(self):
        q = QueryInstance(n=1, cards=(42,), edges=(), topology=Topology.CHAIN)
        assert q.edges == ()

    def test_cycle_needs_three_tables(self):
        with pytest.raises(ValueError):
            QueryInstance(
                n=2, cards=(1, 2), edges=((0, 1, 0.5),), topology=Topology.CYCLE
            )


class TestCardinality:
    def test_internal_edges_only(self):
        q = chain3()
        assert cardinality(q, 0b1) == 10.0
        assert cardinality(q, 0b11) == 10 * 20 * 0.1
        # 0 and 2 are not adjacent in the chain: cross product
        assert cardinality(q, 0b101) == 10.0 * 30.0
        assert cardinality(q, 0b111) == 10 * 20 * 30 * 0.1 * 0.5

    def test_empty_set_rejected(self):
        for mask in (0, -1, 0b1000):
            with pytest.raises(ValueError):
                cardinality(chain3(), mask)

    def test_join_order_independent(self):
        # n=70 puts table bits above bit 63 of the masks
        rng = random.Random(9)
        for n, pairs in ((6, 200), (70, 25)):
            for topology in Topology:
                q = generate_query(GenSpec(n=n, topology=topology, seed=5))
                m = CostModel(q)
                for _ in range(pairs):
                    p1 = random_plan(m, rng)
                    p2 = random_plan(m, rng)
                    # same full relation set, so identical output cardinality
                    assert math.isclose(
                        p1.out_card, p2.out_card, rel_tol=1e-9
                    ), (p1.out_card, p2.out_card)
                    # and every node agrees with the order-free formula
                    for node in [*plan_nodes(p1), *plan_nodes(p2)]:
                        expected = cardinality(q, node.rel)
                        assert math.isfinite(expected), (n, topology, node.rel)
                        assert math.isclose(
                            node.out_card, expected, rel_tol=1e-9
                        ), (node.out_card, expected)


class TestOperators:
    def test_default_catalog_shape(self):
        cat = default_catalog()
        assert [op.name for op in cat.scan_ops] == ["seq_scan", "sample_scan"]
        assert [op.name for op in cat.join_ops] == [
            "nested_loop",
            "hash",
            "sort_merge",
        ]
        assert all(op.fmt is OutputFormat.PIPELINED for op in cat.join_ops)

    def test_materializing_catalog(self):
        cat = materializing_catalog()
        by_name = {op.name: op for op in cat.join_ops}
        assert by_name["sort_merge"].fmt is OutputFormat.MATERIALIZED
        assert by_name["hash"].fmt is OutputFormat.PIPELINED

    def test_unknown_join_kind_rejected(self):
        with pytest.raises(ValueError):
            JoinOp("weird", kind="weird")

    @pytest.mark.parametrize("catalog", [default_catalog, materializing_catalog])
    def test_join_fmts_follow_the_catalog(self, catalog):
        cat = catalog()
        model = CostModel(chain3(), cat)
        assert list(model.join_fmts) == [op.fmt for op in cat.join_ops]

    def test_climbed_join_nodes_carry_their_operator_format(self):
        # the climbed plans and the last step's results, which keep one
        # plan per output format
        cat = materializing_catalog()
        seen = set()
        for seed in range(6):
            model = CostModel(generate_query(GenSpec(n=7, seed=seed)), cat)
            climbed = pareto_climb(model, random_plan(model, random.Random(seed))).plan
            for root in [climbed, *pareto_step(model, climbed, {})]:
                for node in plan_nodes(root):
                    if node.is_join:
                        assert node.fmt is cat.join_ops[node.join_op].fmt
                        seen.add(node.fmt)
        assert seen == set(OutputFormat)

    @pytest.mark.parametrize("field", ["time_per_row", "buffer", "disc"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_scan_coefficients_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScanOp("s", **{field: value})
        ScanOp("s", **{field: 0.0})

    @pytest.mark.parametrize("field", ["loop_factor", "buffer_pages"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_join_coefficients_validated(self, field, value):
        for kind in ("nested_loop", "hash", "sort_merge"):
            with pytest.raises(ValueError, match=field):
                JoinOp("j", kind=kind, **{field: value})
            JoinOp("j", kind=kind, **{field: 0.0})

    def test_catalog_needs_operators(self):
        with pytest.raises(ValueError):
            OperatorCatalog(scan_ops=(), join_ops=default_catalog().join_ops)


class TestLocalCosts:
    def setup_method(self):
        self.m = CostModel(chain3())

    def test_seq_scan_cost(self):
        assert self.m.scan_local_cost(0, 100.0) == (100.0, 1.0, 1.0)

    def test_sample_scan_cost(self):
        assert self.m.scan_local_cost(1, 100.0) == (10.0, 1.0, 1.0)

    def test_floor_applies_per_metric(self):
        assert self.m.scan_local_cost(1, 5.0) == (1.0, 1.0, 1.0)

    def test_nested_loop_cost(self):
        # time 100*200*1e-3 + 50 = 70, buffer 2, disc floored to 1
        assert join_local_cost(self.m, 0, 100.0, 200.0, 50.0) == (70.0, 2.0, 1.0)

    def test_hash_cost(self):
        # time 100+200+200 = 500, buffer = outer rows, disc floored
        assert join_local_cost(self.m, 1, 100.0, 200.0, 200.0) == (500.0, 100.0, 1.0)

    def test_sort_merge_cost(self):
        # 3*log2(4) + 1*log2(2) + 2 = 9, buffer 64 pages, disc 3+1
        assert join_local_cost(self.m, 2, 3.0, 1.0, 2.0) == (9.0, 64.0, 4.0)


class TestCostModel:
    def test_metric_projection(self):
        m = CostModel(chain3(), metrics=(0, 2))
        assert m.n_metrics == 2
        assert m.scan_local_cost(0, 100.0) == (100.0, 1.0)
        leaf = m.leaf(0, 0)
        assert leaf.cost == (10.0, 1.0)

    def test_metrics_validated(self):
        for bad in ((), (1, 0), (0, 0), (3,), (-1,)):
            with pytest.raises(ValueError):
                CostModel(chain3(), metrics=bad)

    def test_leaf_attributes_and_memo(self):
        m = CostModel(chain3())
        leaf = m.leaf(1, 1)
        assert leaf.table == 1
        assert leaf.scan_op == 1
        assert leaf.out_card == 20.0
        assert m.leaf(1, 1) is leaf

    def test_leaf_range_checked(self):
        m = CostModel(chain3())
        for table, scan_op in ((-1, 0), (3, 0), (0, -1), (0, 2)):
            with pytest.raises(ValueError):
                m.leaf(table, scan_op)
        big = CostModel(generate_query(GenSpec(n=MAX_TABLES, seed=0)))
        assert big.full_set == (1 << MAX_TABLES) - 1
        assert big.leaf(MAX_TABLES - 1, 0).rel == 1 << (MAX_TABLES - 1)
        with pytest.raises(ValueError):
            big.leaf(MAX_TABLES, 0)

    def test_join_totals(self):
        m = CostModel(chain3())
        a = m.leaf(0, 0)  # cost (10,1,1), card 10
        b = m.leaf(1, 0)  # cost (20,1,1), card 20
        j = m.join(a, b, 1)  # hash join, out 10*20*0.1 = 20
        assert j.out_card == 20.0
        # local (10+20+20, 10, 1 floored) plus both children
        assert j.cost == (50.0 + 10.0 + 20.0, 10.0 + 1.0 + 1.0, 3.0)
        assert j.fmt is OutputFormat.PIPELINED
        assert j.rel == 0b11

    def test_cross_selectivity_symmetry(self):
        m = CostModel(chain3())
        a = 0b1
        b = 0b110
        assert m.cross_selectivity(a, b) == m.cross_selectivity(b, a) == 0.1

    def test_cross_selectivity_rejects_overlap(self):
        m = CostModel(chain3())
        with pytest.raises(ValueError, match="disjoint"):
            m.cross_selectivity(0b11, 0b110)

    def test_join_commutation_changes_cost(self):
        m = CostModel(chain3())
        a = m.leaf(0, 0)
        b = m.leaf(1, 0)
        jab = m.join(a, b, 1)
        jba = m.join(b, a, 1)
        assert jab.out_card == jba.out_card
        # hash buffer tracks the outer input, so the orders differ
        assert jab.cost != jba.cost

    def test_plan_cost_is_bit_exact(self):
        rng = random.Random(21)
        for seed in range(5):
            spec = GenSpec(n=6, topology=Topology.STAR, seed=seed)
            m = CostModel(generate_query(spec))
            for _ in range(50):
                p = random_plan(m, rng)
                assert plan_cost(m, p) == p.cost

    def test_plan_cost_projected_metrics(self):
        rng = random.Random(22)
        spec = GenSpec(n=5, seed=3)
        m = CostModel(generate_query(spec), metrics=(1, 2))
        for _ in range(30):
            p = random_plan(m, rng)
            assert plan_cost(m, p) == p.cost
            assert len(p.cost) == 2


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _plain_cross_selectivity(query, left, right):
    """Reference: one pass over the query edges in their listed order."""
    left = _tables(left)
    right = _tables(right)
    sel = 1.0
    for a, b, s in query.edges:
        if (a in left and b in right) or (a in right and b in left):
            sel *= s
    return sel


def _differential_queries():
    for n in (2, 3, 8, 50, 100, 128):
        for topology in Topology:
            if topology is Topology.CYCLE and n < 3:
                continue
            for seed in range(2):
                q = generate_query(GenSpec(n=n, topology=topology, seed=seed))
                yield q
                # the same graph with its edges listed in another order and
                # with swapped endpoints, which changes the product order
                rng = random.Random(seed)
                edges = [(b, a, s) for a, b, s in q.edges]
                rng.shuffle(edges)
                yield QueryInstance(q.n, q.cards, tuple(edges), q.topology)


class TestCrossSelectivityDifferential:
    def test_matches_plain_edge_scan(self):
        rng = random.Random(31)
        for q in _differential_queries():
            m = CostModel(q)
            for _ in range(40):
                # each table lands left, right or in neither set
                sides = [rng.randrange(3) for _ in range(q.n)]
                left = sum(1 << t for t in range(q.n) if sides[t] == 0)
                right = sum(1 << t for t in range(q.n) if sides[t] == 1)
                expected = _bits([_plain_cross_selectivity(q, left, right)])
                assert _bits([m.cross_selectivity(left, right)]) == expected
                assert _bits([m.cross_selectivity(right, left)]) == expected

    def test_join_reads_the_same_product(self):
        rng = random.Random(32)
        for q in _differential_queries():
            m = CostModel(q)
            for _ in range(5):
                p = random_plan(m, rng)
                for node in plan_nodes(p):
                    if node.is_join:
                        outer, inner = node.outer, node.inner
                        cs = _plain_cross_selectivity(q, outer.rel, inner.rel)
                        expected = outer.out_card * inner.out_card * cs
                        assert _bits([node.out_card]) == _bits([expected])

    def test_plan_cost_bit_exact_at_128_star(self):
        rng = random.Random(33)
        for seed in range(3):
            spec = GenSpec(n=128, topology=Topology.STAR, seed=seed)
            m = CostModel(generate_query(spec))
            for _ in range(10):
                p = random_plan(m, rng)
                assert _bits(plan_cost(m, p)) == _bits(p.cost)


class TestMonotonicity:
    def test_cheaper_subplan_never_hurts(self):
        # replacing a subtree with one over the same tables and weakly
        # better cost weakly improves the whole plan
        rng = random.Random(77)
        spec = GenSpec(n=6, topology=Topology.CHAIN, seed=2)
        m = CostModel(generate_query(spec))
        checked = 0
        while checked < 2000:
            p = random_plan(m, rng)
            nodes = list(plan_nodes(p))
            target = nodes[rng.randrange(len(nodes))]
            replacement = _random_tree(m, _tables(target.rel), rng)
            if not weakly_dominates(replacement.cost, target.cost):
                continue
            spliced = _splice(m, p, target, replacement)
            assert _dominates_within(spliced.cost, p.cost)
            checked += 1

    def test_exact_when_cardinalities_match(self):
        # with bit-identical subtree output cardinality the comparison
        # is exact: float addition is monotone under rounding
        rng = random.Random(78)
        spec = GenSpec(n=6, topology=Topology.CHAIN, seed=2)
        m = CostModel(generate_query(spec))
        checked = 0
        while checked < 500:
            p = random_plan(m, rng)
            nodes = list(plan_nodes(p))
            target = nodes[rng.randrange(len(nodes))]
            replacement = _random_tree(m, _tables(target.rel), rng)
            if replacement.out_card != target.out_card:
                continue
            if not weakly_dominates(replacement.cost, target.cost):
                continue
            spliced = _splice(m, p, target, replacement)
            assert weakly_dominates(spliced.cost, p.cost)
            checked += 1


def _hex_costs(costs):
    """Sorted cost vectors with every float in exact hex form."""
    return sorted(tuple(v.hex() for v in cost) for cost in costs)


def _memo_cases():
    """Per case, the exact hex costs of one fresh run and its model."""
    for n, seed in ((8, 0), (50, 1)):
        m = model_for(n, seed, Topology.STAR)
        yield _hex_costs(rmq_optimize(m, Budget(max_iterations=3), seed=seed).costs()), m
    for runner in (run_ii, run_nsga2):
        m = model_for(10, 2, Topology.CHAIN)
        yield _hex_costs(runner(m, Budget(max_iterations=3), seed=2).costs()), m
    m = model_for(7, 3, Topology.CYCLE)
    yield _hex_costs(dp_frontier(m, 1.0).costs()), m
    m = model_for(128, 4, Topology.STAR)
    rng = random.Random(4)
    plans = [random_plan(m, rng) for _ in range(5)]
    for p in plans:
        assert _bits(plan_cost(m, p)) == _bits(p.cost)
    yield _hex_costs(p.cost for p in plans), m


class TestCrossSelectivityMemoBound:
    def test_tiny_cap_gives_identical_costs(self, monkeypatch):
        # a memo of 2 entries flushes on nearly every miss; a flushed
        # pair is only recomputed, so no cost may move by a bit
        default = [costs for costs, _ in _memo_cases()]
        monkeypatch.setattr(costmodel, "_CROSS_SEL_ENTRIES", 2)
        tiny = list(_memo_cases())
        assert [costs for costs, _ in tiny] == default
        assert all(len(m._cross_sel) <= 2 for _, m in tiny)

    def test_memo_stays_within_cap_on_a_long_run(self):
        # models of up to 8 tables hold every ordered disjoint pair
        # (3**8 - 2**9 + 1 of them at 8 tables) and never flush
        assert costmodel._CROSS_SEL_ENTRIES > 3**8 - 2**9 + 1
        m = model_for(100, 0, Topology.CHAIN)
        sizes = []

        def sink(elapsed, frontier):
            sizes.append(len(m._cross_sel))
            assert sizes[-1] <= costmodel._CROSS_SEL_ENTRIES

        rmq_optimize(m, Budget(max_iterations=10), seed=0, progress_sink=sink)
        assert len(sizes) == 10
        # the run crosses the cap, so the memo shrinks at least once
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
