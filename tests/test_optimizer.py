"""Randomized optimizer: plan sampling, climbing, pruning, caching."""

import itertools
import math
import random
from collections import Counter

import pytest

from moqo import optimizer
from moqo.core import (
    Archive,
    OutputFormat,
    strictly_dominates,
)
from moqo.costmodel import (
    CostModel,
    JoinOp,
    OperatorCatalog,
    QueryInstance,
    ScanOp,
    Topology,
    default_catalog,
)
from moqo.optimizer import (
    Budget,
    PlanCache,
    alpha_schedule,
    approximate_frontiers,
    build_move,
    mutations,
    offer_join_combinations,
    pareto_climb,
    pareto_step,
    random_plan,
    rmq_optimize,
    root_moves,
)
from moqo.querygen import GenSpec, generate_query
from reference import (
    insert,
    linked_random_plan,
    materializing_catalog,
    plan_cost,
    plan_nodes,
    root_mutations,
    weakly_dominates,
)


def single_op_catalog():
    return OperatorCatalog(
        scan_ops=(ScanOp("scan"),),
        join_ops=(JoinOp("join", kind="hash"),),
    )


def query(n, cards=None, topology=Topology.CHAIN, sel=0.1):
    cards = cards if cards is not None else tuple(10 * (i + 1) for i in range(n))
    if topology is Topology.CHAIN:
        edges = tuple((i, i + 1, sel) for i in range(n - 1))
    elif topology is Topology.STAR:
        edges = tuple((0, i, sel) for i in range(1, n))
    else:
        raise AssertionError
    return QueryInstance(n=n, cards=cards, edges=edges, topology=topology)


def shape_signature(plan):
    if not plan.is_join:
        return f"t{plan.table}"
    return f"({shape_signature(plan.outer)}{shape_signature(plan.inner)})"


class TestRandomPlan:
    def test_uniform_over_trees(self):
        # one scan and one join operator leave 2 shapes x 3! leaf orders
        # = 12 distinct plans for three tables
        m = CostModel(query(3), single_op_catalog())
        rng = random.Random(0)
        counts = Counter()
        trials = 120_000
        for _ in range(trials):
            counts[shape_signature(random_plan(m, rng))] += 1
        assert len(counts) == 12
        for got in counts.values():
            assert abs(got / trials - 1 / 12) < 0.01

    def test_operator_draws_uniform(self):
        m = CostModel(query(2))
        rng = random.Random(1)
        scan_counts = Counter()
        join_counts = Counter()
        for _ in range(30_000):
            p = random_plan(m, rng)
            join_counts[p.join_op] += 1
            scan_counts[p.outer.scan_op] += 1
            scan_counts[p.inner.scan_op] += 1
        for got in scan_counts.values():
            assert abs(got / 60_000 - 0.5) < 0.01
        for got in join_counts.values():
            assert abs(got / 30_000 - 1 / 3) < 0.015

    def test_single_table(self):
        m = CostModel(query(1))
        rng = random.Random(2)
        p = random_plan(m, rng)
        assert not p.is_join
        assert p.table == 0

    def test_covers_all_tables_once(self):
        m = CostModel(query(7))
        rng = random.Random(3)
        for _ in range(200):
            p = random_plan(m, rng)
            leaves = [n.table for n in plan_nodes(p) if not n.is_join]
            assert sorted(leaves) == list(range(7))
            assert p.rel == m.full_set

    def test_deterministic(self):
        m = CostModel(query(5))
        a = [shape_signature(random_plan(m, random.Random(9))) for _ in range(20)]
        b = [shape_signature(random_plan(m, random.Random(9))) for _ in range(20)]
        assert a == b

    @pytest.mark.parametrize(
        "topology, n",
        [
            (topology, n)
            for topology in Topology
            for n in (1, 2, 3, 7, 50, 128)
            if topology is not Topology.CYCLE or n >= 3
        ],
    )
    def test_matches_linked_shape_spelling(self, topology, n):
        # the nested-list shapes draw plan for plan what the parent-linked
        # spelling draws, and leave the rng in the same state
        m = CostModel(generate_query(GenSpec(n=n, topology=topology, seed=n)))
        fast, slow = random.Random(n), random.Random(n)
        for _ in range(40):
            assert repr(random_plan(m, fast)) == repr(linked_random_plan(m, slow))
        assert fast.getstate() == slow.getstate()


class TestMutations:
    def test_left_deep_three_tables(self):
        # ((A x B) x C) with one operator per kind admits identity,
        # commutation, right rotation and left exchange
        m = CostModel(query(3), single_op_catalog())
        ab = m.join(m.leaf(0, 0), m.leaf(1, 0), 0)
        abc = m.join(ab, m.leaf(2, 0), 0)
        shapes = sorted(shape_signature(p) for p in root_mutations(m, abc))
        assert shapes == sorted(
            ["((t0t1)t2)", "(t2(t0t1))", "(t0(t1t2))", "((t0t2)t1)"]
        )

    def test_right_deep_three_tables(self):
        m = CostModel(query(3), single_op_catalog())
        bc = m.join(m.leaf(1, 0), m.leaf(2, 0), 0)
        abc = m.join(m.leaf(0, 0), bc, 0)
        shapes = sorted(shape_signature(p) for p in root_mutations(m, abc))
        assert shapes == sorted(
            ["(t0(t1t2))", "((t1t2)t0)", "((t0t1)t2)", "(t1(t0t2))"]
        )

    def test_leaf_offers_other_scan_ops(self):
        m = CostModel(query(1))
        leaf = m.leaf(0, 0)
        out = mutations(m, leaf)
        assert leaf in out
        assert any(p.scan_op == 1 for p in out)
        assert len(out) == 2

    def test_operator_rule_on_join(self):
        m = CostModel(query(2))
        j = m.join(m.leaf(0, 0), m.leaf(1, 0), 0)
        ops = sorted(p.join_op for p in root_mutations(m, j) if p.is_join)
        # identity (op 0), commutation (op 0), operator swaps to 1 and 2
        assert ops == [0, 0, 1, 2]

    def test_rotation_keeps_root_operator(self):
        m = CostModel(query(3))
        ab = m.join(m.leaf(0, 0), m.leaf(1, 0), 2)
        abc = m.join(ab, m.leaf(2, 0), 1)
        rotated = [
            p
            for p in root_mutations(m, abc)
            if shape_signature(p) == "(t0(t1t2))"
        ]
        assert len(rotated) == 1
        assert rotated[0].join_op == 1
        assert rotated[0].inner.join_op == 2

    def test_identity_rule_only(self):
        # a leaf with a single scan operator admits no other mutation
        m = CostModel(query(1), single_op_catalog())
        leaf = m.leaf(0, 0)
        assert mutations(m, leaf) == [leaf]

    def test_fixed_order(self):
        # identity, commutation, right rotation, left rotation, left
        # exchange, right exchange, then the other root operators
        m = CostModel(query(4))
        ab = m.join(m.leaf(0, 0), m.leaf(1, 0), 1)
        cd = m.join(m.leaf(2, 0), m.leaf(3, 0), 2)
        root = m.join(ab, cd, 0)
        out = root_mutations(m, root)
        assert out[0] is root
        assert [shape_signature(p) for p in out] == [
            "((t0t1)(t2t3))",
            "((t2t3)(t0t1))",
            "(t0(t1(t2t3)))",
            "(((t0t1)t2)t3)",
            "((t0(t2t3))t1)",
            "(t2((t0t1)t3))",
            "((t0t1)(t2t3))",
            "((t0t1)(t2t3))",
        ]
        assert [p.join_op for p in out] == [0, 0, 0, 0, 0, 0, 1, 2]


def archive_holding(plans):
    """An archive whose entries are exactly ``plans``, in order."""
    archive = Archive()
    archive.entries.extend(plans)
    return archive


def make_plan(cost, fmt=OutputFormat.PIPELINED, table=0):
    from moqo.core import Plan

    return Plan(
        rel=1 << table,
        cost=cost,
        out_card=1.0,
        fmt=fmt,
        table=table,
        scan_op=0,
    )


class TestPruneApprox:
    """Archive.insert at a factor alpha: approximate-frontier admission."""

    def test_alpha_rejects_close_newcomer(self):
        lst = archive_holding([make_plan((1.0, 1.0))])
        lst.insert(make_plan((1.5, 1.5)), 2.0)
        assert [p.cost for p in lst] == [(1.0, 1.0)]

    def test_removal_needs_weak_dominance(self):
        # newcomer outside the rejection factor but not dominating: both stay
        lst = archive_holding([make_plan((1.0, 4.0))])
        lst.insert(make_plan((4.0, 1.0)), 2.0)
        assert len(lst) == 2

    def test_dominating_newcomer_evicts(self):
        lst = archive_holding([make_plan((1.0, 1.0))])
        lst.insert(make_plan((0.4, 0.4)), 2.0)
        assert [p.cost for p in lst] == [(0.4, 0.4)]

    def test_equal_costs_rejected(self):
        lst = archive_holding([make_plan((2.0, 2.0))])
        lst.insert(make_plan((2.0, 2.0)), 1.0)
        assert len(lst) == 1

    def test_alpha_below_one_rejected(self):
        for alpha in (0.5, math.nan):
            with pytest.raises(ValueError):
                Archive().insert(make_plan((1.0,)), alpha)

    def test_conformance_random(self):
        rng = random.Random(32)
        for _ in range(300):
            alpha = rng.choice([1.0, 1.3, 2.0, 10.0])
            got, want = Archive(), []
            for _ in range(40):
                plan = make_plan(
                    tuple(float(rng.randint(1, 6)) for _ in range(2)),
                    fmt=rng.choice(
                        [OutputFormat.PIPELINED, OutputFormat.MATERIALIZED]
                    ),
                )
                got.insert(plan, alpha)
                insert(want, plan, alpha)
            assert [id(p) for p in got] == [id(p) for p in want]

    @pytest.mark.parametrize("width", [1, 3])
    def test_conformance_non_finite(self, width):
        # inf and nan must compare as approx_dominates compares them
        rng = random.Random(width)
        pool = [0.0, 1.0, 2.0, 3.0] * 3 + [math.inf, math.nan]
        for _ in range(100):
            alpha = rng.choice([1.0, 1.5, math.inf])
            got, want = Archive(), []
            for _ in range(30):
                plan = make_plan(
                    tuple(rng.choice(pool) for _ in range(width)),
                    fmt=rng.choice(
                        [OutputFormat.PIPELINED, OutputFormat.MATERIALIZED]
                    ),
                )
                got.insert(plan, alpha)
                insert(want, plan, alpha)
                assert [id(p) for p in got] == [id(p) for p in want]

    def test_length_mismatch_rejected(self):
        for other in ((1.0,), (1.0, 2.0, 3.0)):
            for alpha in (1.0, 2.0):
                lst = archive_holding([make_plan((1.0, 2.0))])
                with pytest.raises(ValueError):
                    lst.insert(make_plan(other), alpha)


def wide_catalog(n_scans, rng):
    scans = tuple(
        ScanOp(f"s{i}", time_per_row=rng.uniform(0.05, 2.0)) for i in range(n_scans)
    )
    return OperatorCatalog(scan_ops=scans, join_ops=default_catalog().join_ops)


class TestOfferJoinCombinations:
    def _inputs(self, n_scans, seed):
        rng = random.Random(seed)
        m = CostModel(
            query(2, cards=(1000, 3000)), wide_catalog(n_scans, rng)
        )
        outs = [m.leaf(0, op) for op in range(n_scans)]
        ins = [m.leaf(1, op) for op in range(n_scans)]
        return m, outs, ins

    def test_matches_sequential_reference(self):
        for n_scans, alpha in ((6, 1.0), (6, 1.5), (45, 1.0), (45, 1.2), (45, 25.0)):
            m, outs, ins = self._inputs(n_scans, n_scans)
            got = Archive()
            delta = offer_join_combinations(m, got, outs, ins, alpha)
            want = []
            for o in outs:
                for i in ins:
                    for op in range(3):
                        insert(want, m.join(o, i, op), alpha)
            assert delta == len(got)
            assert [
                (p.cost, p.join_op, id(p.outer), id(p.inner)) for p in got
            ] == [(p.cost, p.join_op, id(p.outer), id(p.inner)) for p in want]

    def test_costs_bit_exact_vs_scalar_join(self):
        m, outs, ins = self._inputs(45, 5)
        got = Archive()
        offer_join_combinations(m, got, outs, ins, 1.0)
        for p in got:
            rebuilt = m.join(p.outer, p.inner, p.join_op)
            assert rebuilt.cost == p.cost

    def test_nonempty_existing_list(self):
        m, outs, ins = self._inputs(40, 6)
        got = Archive()
        offer_join_combinations(m, got, outs[:20], ins[:20], 1.3)
        want = [p for p in got]
        delta = offer_join_combinations(m, got, outs[20:], ins[20:], 1.3)
        ref = [p for p in want]
        for o in outs[20:]:
            for i in ins[20:]:
                for op in range(3):
                    insert(ref, m.join(o, i, op), 1.3)
        assert [(p.cost, p.join_op) for p in got] == [
            (p.cost, p.join_op) for p in ref
        ]
        assert delta == len(got) - len(want)

    def test_empty_inputs(self):
        m, outs, ins = self._inputs(3, 7)
        assert offer_join_combinations(m, Archive(), [], ins, 1.0) == 0
        assert offer_join_combinations(m, Archive(), outs, [], 1.0) == 0

    def test_alpha_below_one_rejected(self):
        m, outs, ins = self._inputs(3, 7)
        for alpha in (0.5, math.nan):
            with pytest.raises(ValueError):
                offer_join_combinations(m, Archive(), outs, ins, alpha)

    def test_alpha_below_one_rejected_without_combinations(self):
        # no combination reaches Archive.admit, so the factor is checked
        # before the loop
        m, outs, ins = self._inputs(3, 7)
        for alpha in (0.5, math.nan):
            for o, i in (([], ins), (outs, []), ([], [])):
                with pytest.raises(ValueError):
                    offer_join_combinations(m, Archive(), o, i, alpha)


_DIFF_CASES = [
    (n, topology)
    for n in range(3, 8)
    for topology in (Topology.CHAIN, Topology.CYCLE, Topology.STAR)
]


def naive_dp_frontier(model, alpha):
    """dp_frontier spelled plainly: the same subset enumeration and
    per-level factor, with every join built and offered through
    reference.insert, and the root list pruned at factor 1."""
    n = model.query.n
    per_level = alpha ** (1.0 / max(1, n - 1)) if math.isfinite(alpha) else math.inf
    fronts = {}
    for t in range(n):
        lst = []
        for op in range(len(model.catalog.scan_ops)):
            insert(lst, model.leaf(t, op), per_level)
        fronts[1 << t] = lst
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            bits = sum(1 << t for t in combo)
            target = []
            sub = (bits - 1) & bits
            while sub:
                for o in fronts[sub]:
                    for i in fronts[bits ^ sub]:
                        for op in range(len(model.catalog.join_ops)):
                            insert(target, model.join(o, i, op), per_level)
                sub = (sub - 1) & bits
            fronts[bits] = target
    root = []
    for plan in fronts[(1 << n) - 1]:
        insert(root, plan, 1.0)
    return root


_DP_METRICS = ((0,), (0, 2), (0, 1, 2))
_DP_CASES = [(i, _DP_METRICS[(i + i // 3) % 3]) for i in range(len(_DIFF_CASES))]
# each case that draws (0, 2) runs again as "<idx>-traded" with (0, 1):
# time and buffer space trade off within one output format, while (0, 2)
# leaves about one plan per format
_DP_CASES += [(i, (0, 1)) for i, metrics in _DP_CASES if metrics == (0, 2)]


class TestDpFrontierDifferential:
    """dp_frontier against naive_dp_frontier at every factor: costs as
    float hex, formats, plan repr and order must agree.

    The metric subset and the catalog rotate with the case index, so
    every topology meets every metric subset and both catalogs appear at
    every size.
    """

    ALPHAS = (1.0, 1.01, 1.5, 25.0, math.inf)
    CATALOGS = (default_catalog, materializing_catalog)

    @pytest.mark.parametrize(
        "idx,metrics",
        _DP_CASES,
        ids=[f"{i}-traded" if m == (0, 1) else str(i) for i, m in _DP_CASES],
    )
    def test_matches_naive_dp(self, idx, metrics):
        from moqo.baselines import dp_frontier

        n, topology = _DIFF_CASES[idx]
        catalog = self.CATALOGS[idx % 2]()
        spec = GenSpec(n=n, topology=topology, seed=100 + idx)
        m = CostModel(generate_query(spec), catalog, metrics)
        for alpha in self.ALPHAS:
            got = _offer_view(dp_frontier(m, alpha))
            assert got == _offer_view(naive_dp_frontier(m, alpha))
            assert got


def _offer_view(plans):
    return [(_float_bits(p.cost), p.fmt, repr(p)) for p in plans]


def _climbed_join_inputs(model, seed):
    """(start list, outer inputs, inner inputs) per join node of the first
    few of a batch of climbed random plans. Each input list is a side's
    child followed by its node set's cache lists at factor 1 and at factor
    25, so it mixes frontier plans with dominated ones; the start list
    holds the node, its commuted twin and the node set's coarse cache
    list, offered naively at factor 25."""
    rng = random.Random(seed)
    fine = PlanCache()
    coarse = PlanCache()
    climbed = [pareto_climb(model, random_plan(model, rng)).plan for _ in range(12)]
    for plan in climbed:
        approximate_frontiers(model, plan, fine, 10**4)
        approximate_frontiers(model, plan, coarse, 1)
    for plan in climbed[:3]:
        for node in plan_nodes(plan):
            if not node.is_join:
                continue
            start = []
            twin = model.join(node.inner, node.outer, node.join_op)
            for p in [node, twin, *coarse.frontier(node.rel)]:
                insert(start, p, 25.0)
            yield start, *(
                [side, *fine.frontier(side.rel), *coarse.frontier(side.rel)]
                for side in (node.outer, node.inner)
            )


# metric subset -> its test id; time and buffer space, (0, 1), trade off
# within one output format, while (0, 2) leaves about one plan per format
_OFFER_METRICS = {(0,): "1", (0, 2): "2", (0, 1): "2-traded", (0, 1, 2): "3"}
_OFFER_CASES = [
    (topology, metrics, catalog)
    for topology in (Topology.CHAIN, Topology.STAR)
    for metrics in _OFFER_METRICS
    for catalog in (default_catalog, materializing_catalog)
]


@pytest.mark.parametrize(
    "topology,metrics,catalog",
    _OFFER_CASES,
    ids=[f"{t.value}-{_OFFER_METRICS[m]}-{c.__name__}" for t, m, c in _OFFER_CASES],
)
class TestOfferAdmissionDifferential:
    """offer_join_combinations against reference.insert
    over built plans, on the children of climbed plans and non-empty
    start lists: costs as float hex, formats, plan repr and list order
    must agree, and so must the returned length change."""

    ALPHAS = (1.0, 1.01, 1.5, 25.0, math.inf)

    def test_matches_naive_offers(self, topology, metrics, catalog):
        # seed 2 gives wide exact frontiers under all three metrics
        spec = GenSpec(n=6, topology=topology, seed=2)
        m = CostModel(generate_query(spec), catalog(), metrics)
        n_ops = len(m.catalog.join_ops)
        for alpha in self.ALPHAS:
            for start, outs, ins in _climbed_join_inputs(m, 2):
                got = archive_holding(start)
                delta = offer_join_combinations(m, got, outs, ins, alpha)
                want = list(start)
                for o in outs:
                    for i in ins:
                        for op in range(n_ops):
                            insert(want, m.join(o, i, op), alpha)
                assert _offer_view(got) == _offer_view(want)
                assert delta == len(got) - len(start)


class TestAlphaSchedule:
    def test_frozen_values(self):
        assert alpha_schedule(1) == 25.0
        assert alpha_schedule(24) == 25.0
        assert alpha_schedule(25) == 24.75
        assert alpha_schedule(250) == 22.60955187522011
        assert alpha_schedule(2500) == 9.15080853183073

    def test_piecewise_constant(self):
        assert alpha_schedule(26) == alpha_schedule(49) == 24.75

    def test_monotone_decreasing(self):
        values = [alpha_schedule(i) for i in range(1, 2000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_raw_schedule_crosses_one(self):
        # the optimizer clamps at 1; the raw formula keeps shrinking
        assert alpha_schedule(8024) >= 1.0
        assert alpha_schedule(8025) < 1.0

    def test_counter_validated(self):
        with pytest.raises(ValueError):
            alpha_schedule(0)


class TestParetoStep:
    def test_improves_or_returns_plan(self):
        rng = random.Random(41)
        m = CostModel(query(5))
        for _ in range(100):
            p = random_plan(m, rng)
            out = pareto_step(m, p, {})
            assert len(out) == 1  # all default operators are pipelined
            assert not strictly_dominates(p.cost, out[0].cost)

    def test_identity_survives_at_local_optimum(self):
        rng = random.Random(42)
        m = CostModel(query(4))
        p = pareto_climb(m, random_plan(m, rng)).plan
        out = pareto_step(m, p, {})
        assert out[0] is p

    def test_one_plan_per_format(self):
        rng = random.Random(43)
        m = CostModel(query(4), materializing_catalog())
        for _ in range(50):
            out = pareto_step(m, random_plan(m, rng), {})
            fmts = [p.fmt for p in out]
            assert len(fmts) == len(set(fmts))
            assert 1 <= len(out) <= 2

    def test_memo_matches_fresh_runs(self):
        rng = random.Random(44)
        m = CostModel(query(5))
        memo = {}
        plan = random_plan(m, rng)
        for _ in range(6):
            shared = pareto_step(m, plan, memo)
            fresh = pareto_step(m, plan, {})
            assert [p.cost for p in shared] == [p.cost for p in fresh]
            adopted = None
            for cand in shared:
                if strictly_dominates(cand.cost, plan.cost):
                    adopted = cand
                    break
            if adopted is None:
                break
            plan = adopted

    @pytest.mark.parametrize("n", [8, 50])
    def test_builds_only_winners(self, n):
        # a losing candidate is priced, never built; a winning move
        # builds its root and at most one new child node
        m = CostModel(generate_query(GenSpec(n=n, topology=Topology.STAR, seed=0)))
        plan = random_plan(m, random.Random(n))
        built = []
        join = m.join

        def counting_join(outer, inner, join_op):
            node = join(outer, inner, join_op)
            built.append(node)
            return node

        m.join = counting_join
        memo = {}
        pareto_step(m, plan, memo)
        existing = set(plan_nodes(plan))
        won = {node for result in memo.values() for node in result if node.is_join} - existing
        assert won
        assert len(built) <= 2 * len(won)
        kept = won | {child for node in won for child in (node.outer, node.inner)}
        assert all(node in kept for node in built)

    @pytest.mark.parametrize("fn", [pareto_step, mutations])
    def test_climb_functions_hold_no_closure_cells(self, fn):
        # a cell would cost one allocation per call, memo hits included
        assert fn.__code__.co_cellvars == ()


class TestParetoClimb:
    def test_buffer_only_commutation_walkthrough(self):
        # hash join buffers the outer input; with a buffer-only metric the
        # climb flips the big table inward in exactly one step
        q = QueryInstance(
            n=2, cards=(100, 10), edges=((0, 1, 0.5),), topology=Topology.CHAIN
        )
        m = CostModel(q, single_op_catalog(), metrics=(1,))
        start = m.join(m.leaf(0, 0), m.leaf(1, 0), 0)
        assert start.cost == (102.0,)
        res = pareto_climb(m, start)
        assert res.path_length == 1
        assert res.plan.cost == (12.0,)
        assert res.plan.outer.table == 1

    def test_fixed_point_is_stable(self):
        rng = random.Random(51)
        m = CostModel(query(5))
        for _ in range(30):
            res = pareto_climb(m, random_plan(m, rng))
            again = pareto_climb(m, res.plan)
            assert again.path_length == 0
            assert again.plan is res.plan

    def test_never_worse_than_start(self):
        rng = random.Random(52)
        m = CostModel(query(6, topology=Topology.STAR))
        for _ in range(30):
            start = random_plan(m, rng)
            res = pareto_climb(m, start)
            assert weakly_dominates(res.plan.cost, start.cost)
            if res.path_length == 0:
                assert res.plan is start
            else:
                assert strictly_dominates(res.plan.cost, start.cost)

    def test_single_metric_matches_greedy_reference(self):
        # with one metric, strict dominance is plain less-than; verify the
        # climb is a fixed point of its own neighborhood
        rng = random.Random(53)
        m = CostModel(query(4), metrics=(0,))
        for _ in range(20):
            res = pareto_climb(m, random_plan(m, rng))
            for cand in pareto_step(m, res.plan, {}):
                assert cand.cost[0] >= res.plan.cost[0]


def record_plan_caches(monkeypatch) -> list:
    """The plan caches that later ``rmq_optimize`` calls make, in order;
    it looks ``PlanCache`` up when called."""
    made = []

    class RecordedPlanCache(PlanCache):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    monkeypatch.setattr(optimizer, "PlanCache", RecordedPlanCache)
    return made


class TestPlanCache:
    def test_frontier_starts_empty(self):
        cache = PlanCache()
        rel = 0b11
        assert list(cache.frontier(rel)) == []
        assert cache.stats()["keys"] == 1

    def test_offer_tracks_count(self):
        cache = PlanCache()
        rel = 0b1
        cache.offer(rel, make_plan((1.0, 4.0)), 1.0)
        cache.offer(rel, make_plan((4.0, 1.0), table=0), 1.0)
        assert cache.stats()["plans"] == 2
        assert cache.stats() == {"keys": 1, "plans": 2, "max_list": 2}

    def test_plan_count_is_summed_list_lengths(self, monkeypatch):
        m = CostModel(query(8, topology=Topology.STAR))
        caches = record_plan_caches(monkeypatch)
        for seed in (0, 1):
            archive = rmq_optimize(m, Budget(max_iterations=30), seed=seed)
            cache = caches[-1]
            assert archive is cache.frontier(m.full_set)
            plans = cache.stats()["plans"]
            # every table set of the query, through the public lookup
            sizes = [len(cache.frontier(rel)) for rel in range(1, m.full_set + 1)]
            assert plans == sum(sizes) > 0


class TestApproximateFrontiers:
    def test_leaf_frontier_alpha_coarse(self):
        # at the opening factor 25 the first-offered sequential scan
        # rejects the strictly better sampling scan
        m = CostModel(query(1, cards=(100,)))
        cache = PlanCache()
        plan = m.leaf(0, 0)
        approximate_frontiers(m, plan, cache, 1)
        fronts = cache.frontier(0b1)
        assert [p.scan_op for p in fronts] == [0]

    def test_leaf_frontier_alpha_tight(self):
        # far into the schedule the factor clamps to 1 and the dominating
        # scan evicts the other
        m = CostModel(query(1, cards=(100,)))
        cache = PlanCache()
        approximate_frontiers(m, m.leaf(0, 0), cache, 10**6)
        fronts = cache.frontier(0b1)
        assert [p.scan_op for p in fronts] == [1]

    def test_covers_all_subtrees(self):
        rng = random.Random(61)
        m = CostModel(query(5))
        plan = pareto_climb(m, random_plan(m, rng)).plan
        cache = PlanCache()
        approximate_frontiers(m, plan, cache, 10**6)
        for node in plan_nodes(plan):
            assert cache.frontier(node.rel), f"empty frontier for {node.rel:#b}"

    def test_join_frontier_crosses_cached_inputs(self):
        # both scan variants reach the leaf frontiers at tight alpha only
        # if incomparable; force that with a custom catalog
        scans = (
            ScanOp("fast_expensive", time_per_row=0.1, buffer=8.0),
            ScanOp("slow_cheap", time_per_row=1.0, buffer=1.0),
        )
        cat = OperatorCatalog(scan_ops=scans, join_ops=default_catalog().join_ops)
        m = CostModel(query(2, cards=(500, 700)), cat)
        plan = m.join(m.leaf(0, 0), m.leaf(1, 0), 1)
        cache = PlanCache()
        approximate_frontiers(m, plan, cache, 10**6)
        assert len(cache.frontier(0b1)) == 2
        assert len(cache.frontier(0b10)) == 2
        full = cache.frontier(m.full_set)
        naive = []
        for o in cache.frontier(0b1):
            for i in cache.frontier(0b10):
                for op in range(3):
                    insert(naive, m.join(o, i, op), 1.0)
        assert sorted(p.cost for p in full) == sorted(p.cost for p in naive)

    def test_idempotent_at_same_iteration(self):
        rng = random.Random(62)
        m = CostModel(query(4))
        plan = pareto_climb(m, random_plan(m, rng)).plan
        cache = PlanCache()
        approximate_frontiers(m, plan, cache, 500)
        # refinement touches exactly the frontiers of the plan's nodes
        rels = {node.rel for node in plan_nodes(plan)}
        assert cache.stats()["keys"] == len(rels)
        snapshot = {rel: [id(p) for p in cache.frontier(rel)] for rel in rels}
        approximate_frontiers(m, plan, cache, 500)
        after = {rel: [id(p) for p in cache.frontier(rel)] for rel in rels}
        assert snapshot == after

    def test_iteration_validated(self):
        m = CostModel(query(2))
        with pytest.raises(ValueError):
            approximate_frontiers(m, m.leaf(0, 0), PlanCache(), 0)


class TestRmqOptimize:
    def test_zero_iteration_budget(self):
        m = CostModel(query(4))
        arc = rmq_optimize(m, Budget(max_iterations=0), seed=1)
        assert len(arc) == 0

    def test_zero_deadline(self):
        m = CostModel(query(4))
        arc = rmq_optimize(m, Budget(deadline_s=0.0), seed=1)
        assert len(arc) == 0

    def test_deterministic_with_iteration_budget(self):
        m = CostModel(query(5))
        a = rmq_optimize(m, Budget(max_iterations=300), seed=3)
        b = rmq_optimize(m, Budget(max_iterations=300), seed=3)
        assert sorted(a.costs()) == sorted(b.costs())

    def test_seed_changes_explored_subsets(self, monkeypatch):
        # small runs on a wide query visit seed-specific subset families
        m = CostModel(query(8))
        caches = record_plan_caches(monkeypatch)
        keysets = []
        for seed in (1, 2):
            rmq_optimize(m, Budget(max_iterations=5), seed=seed)
            cache = caches[-1]
            # every frontier a run refines holds at least one plan
            keysets.append(
                frozenset(bits for bits in range(1, 1 << 8) if cache.frontier(bits))
            )
        assert keysets[0] != keysets[1]

    def test_seed_isolated_from_global_rng(self):
        m = CostModel(query(5))
        random.seed(123)
        a = rmq_optimize(m, Budget(max_iterations=50), seed=3)
        random.seed(999)
        b = rmq_optimize(m, Budget(max_iterations=50), seed=3)
        assert sorted(a.costs()) == sorted(b.costs())

    def test_sink_called_every_iteration(self):
        m = CostModel(query(4))
        calls = []
        rmq_optimize(
            m,
            Budget(max_iterations=25),
            seed=1,
            progress_sink=lambda t, plans: calls.append((t, len(plans))),
        )
        assert len(calls) == 25
        assert all(t >= 0 for t, _ in calls)

    def test_result_mutually_nondominated(self):
        m = CostModel(query(6, topology=Topology.STAR))
        arc = rmq_optimize(m, Budget(max_iterations=400), seed=5)
        costs = arc.costs()
        for i, a in enumerate(costs):
            for j, b in enumerate(costs):
                if i != j:
                    assert not weakly_dominates(a, b)

    def test_converges_to_exact_frontier(self):
        from moqo.baselines import exhaustive_frontier

        spec = GenSpec(n=4, topology=Topology.CHAIN, seed=1)
        m = CostModel(generate_query(spec))
        exact = exhaustive_frontier(m)
        arc = rmq_optimize(m, Budget(max_iterations=8600), seed=7)
        assert sorted(arc.costs()) == sorted(exact.costs())


class TestBudget:
    def test_needs_some_limit(self):
        with pytest.raises(ValueError):
            Budget()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_iterations=-1)
        with pytest.raises(ValueError):
            Budget(deadline_s=-0.1)

    def test_nan_rejected(self):
        # a nan limit is never reached, so the search would never return
        with pytest.raises(ValueError):
            Budget(deadline_s=math.nan)
        with pytest.raises(ValueError):
            Budget(max_iterations=math.nan)
        with pytest.raises(ValueError):
            Budget(max_iterations=5, deadline_s=math.nan)

    @pytest.mark.parametrize("cap", [2.5, 10.0, True, False])
    def test_cap_is_int(self, cap):
        with pytest.raises(ValueError):
            Budget(max_iterations=cap)
        with pytest.raises(ValueError):
            Budget(max_iterations=cap, deadline_s=1.0)

    def test_infinite_deadline_needs_cap(self):
        with pytest.raises(ValueError):
            Budget(deadline_s=math.inf)
        # a cap alone never reads the clock
        assert not Budget(max_iterations=3).exhausted(2, 1e9)

    def test_both_limits_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            Budget(max_iterations=3, deadline_s=1.0)

    def test_exhaustion_logic(self):
        cap = Budget(max_iterations=10)
        assert not cap.exhausted(9, 1e9)
        assert cap.exhausted(10, 0.0)
        deadline = Budget(deadline_s=5.0)
        assert not deadline.exhausted(10**9, 4.9)
        assert deadline.exhausted(0, 5.0)


def _float_bits(cost):
    return [v.hex() for v in cost]


def _reference_step(model, plan, memo):
    """Plain Pareto step: build every candidate with ``root_mutations``
    and keep, per output format, the first one unless a later one
    strictly dominates the incumbent. Formats keep their first-appearance
    order."""
    got = memo.get(plan)
    if got is not None:
        return got
    if plan.is_join:
        roots = [
            plan
            if o is plan.outer and i is plan.inner
            else model.join(o, i, plan.join_op)
            for o in _reference_step(model, plan.outer, memo)
            for i in _reference_step(model, plan.inner, memo)
        ]
    else:
        roots = [plan]
    slots = {}
    for root in roots:
        for cand in root_mutations(model, root):
            best = slots.get(cand.fmt)
            if best is None or strictly_dominates(cand.cost, best.cost):
                slots[cand.fmt] = cand
    result = list(slots.values())
    memo[plan] = result
    return result


def _reference_climb(model, plan):
    memo = {}
    path_length = 0
    while True:
        for cand in _reference_step(model, plan, memo):
            if strictly_dominates(cand.cost, plan.cost):
                plan = cand
                path_length += 1
                break
        else:
            return plan, path_length


def _step_view(plans):
    return [(repr(p), _float_bits(p.cost), p.fmt) for p in plans]


_CLIMB_SIZES = (2, 3, 8, 20, 50)
# at 128 tables, stars 3 and 4 draw random plans whose costs overflow to
# inf, so the step compares inf components
_INF_STARS = (3, 4)
_CLIMB_CASES = [
    (n, topology)
    for n in _CLIMB_SIZES
    for topology in Topology
    if not (topology is Topology.CYCLE and n < 3)
] + [(128, Topology.STAR)]
_CLIMB_METRICS = ((0, 1, 2), (0, 2), (0, 1), (1,))
_CLIMB_CATALOGS = (default_catalog, materializing_catalog)


def _climb_models(n, topology):
    for metrics in _CLIMB_METRICS:
        for catalog in _CLIMB_CATALOGS:
            for seed in _INF_STARS if n == 128 else range(3):
                spec = GenSpec(n=n, topology=topology, seed=seed)
                yield seed, CostModel(generate_query(spec), catalog(), metrics)


@pytest.mark.parametrize(
    "n,topology", _CLIMB_CASES, ids=[f"{n}-{t.value}" for n, t in _CLIMB_CASES]
)
class TestClimbDifferential:
    """The library's Pareto step and climb against the plain reference
    above, which builds every candidate; plans, costs bit for bit,
    formats and path lengths must agree."""

    def test_step_and_climb_match_reference(self, n, topology):
        for seed, m in _climb_models(n, topology):
            rng = random.Random(seed)
            start = random_plan(m, rng)
            if n == 128:
                assert math.inf in start.cost
            assert _step_view(pareto_step(m, start, {})) == _step_view(
                _reference_step(m, start, {})
            )
            climbed = pareto_climb(m, start)
            want_plan, want_length = _reference_climb(m, start)
            assert climbed.path_length == want_length
            assert _step_view([climbed.plan]) == _step_view([want_plan])
            assert _step_view(pareto_step(m, climbed.plan, {})) == _step_view(
                _reference_step(m, climbed.plan, {})
            )

    def test_candidate_costs_match_plan_cost(self, n, topology):
        # every candidate priced through CostModel.join_cost, without a
        # node, equals plan_cost of the built candidate bit for bit; so
        # does the new child node of a rotation or exchange
        for seed, m in _climb_models(n, topology):
            plan = random_plan(m, random.Random(seed))
            for node in plan_nodes(plan):
                if not node.is_join:
                    continue
                for move in root_moves(m, node.outer, node.inner, node.join_op):
                    built = build_move(m, move)
                    outer, inner, op = move
                    cost, card = m.join_cost(
                        *_priced_input(m, outer), *_priced_input(m, inner), op
                    )
                    assert _float_bits(cost) == _float_bits(plan_cost(m, built))
                    assert _float_bits(cost) == _float_bits(built.cost)
                    assert card.hex() == built.out_card.hex()
                    for side, child in ((outer, built.outer), (inner, built.inner)):
                        if isinstance(side, tuple):
                            _, cost, card = _priced_input(m, side)
                            assert _float_bits(cost) == _float_bits(plan_cost(m, child))
                            assert card.hex() == child.out_card.hex()


def _priced_input(model, side):
    """(table bits, cost, output cardinality) of a move input: an existing
    plan, or a new child node priced through ``join_cost``."""
    if isinstance(side, tuple):
        x, y, op = side
        cost, card = model.join_cost(
            x.rel, x.cost, x.out_card, y.rel, y.cost, y.out_card, op
        )
        return x.rel | y.rel, cost, card
    return side.rel, side.cost, side.out_card


@pytest.mark.parametrize("metrics", [(0, 1, 2), (0, 2), (1,), (0, 1)])
def test_cost_part_rejects_overlap(metrics):
    m = CostModel(query(4), metrics=metrics)
    ab = m.join(m.leaf(0, 0), m.leaf(1, 0), 0)
    bc = m.join(m.leaf(1, 0), m.leaf(2, 0), 0)
    for op in range(3):
        with pytest.raises(ValueError, match="disjoint"):
            m.join_cost(
                ab.rel, ab.cost, ab.out_card, bc.rel, bc.cost, bc.out_card, op
            )
        with pytest.raises(ValueError):
            m.join(ab, bc, op)


def _reference_mutate_at(model, plan, idx, rng):
    # preorder node index: the root, then the outer subtree, then the inner
    if idx == 0:
        options = root_mutations(model, plan)[1:]
        if not options:
            return plan
        return options[rng.randrange(len(options))]
    idx -= 1
    outer_size = 2 * plan.outer.rel.bit_count() - 1
    if idx < outer_size:
        return model.join(
            _reference_mutate_at(model, plan.outer, idx, rng), plan.inner, plan.join_op
        )
    return model.join(
        plan.outer,
        _reference_mutate_at(model, plan.inner, idx - outer_size, rng),
        plan.join_op,
    )


class TestSaNeighborDifferential:
    """SA's random neighbor equals ``root_mutations(...)[1:][draw]`` at the
    drawn node, with the same draws from a cloned generator."""

    def test_matches_mutations_draw(self):
        from moqo.baselines import _random_neighbor

        for n in (1, 2, 3, 8, 20):
            for catalog in (default_catalog, materializing_catalog, single_op_catalog):
                for seed in range(3):
                    spec = GenSpec(n=n, seed=seed)
                    m = CostModel(generate_query(spec), catalog())
                    rng = random.Random(seed)
                    plan = random_plan(m, rng)
                    for _ in range(40):
                        ref_rng = random.Random()
                        ref_rng.setstate(rng.getstate())
                        idx = ref_rng.randrange(2 * plan.rel.bit_count() - 1)
                        want = _reference_mutate_at(m, plan, idx, ref_rng)
                        got = _random_neighbor(m, plan, rng)
                        assert rng.getstate() == ref_rng.getstate()
                        assert repr(got) == repr(want)
                        assert _float_bits(got.cost) == _float_bits(want.cost)
                        plan = got
