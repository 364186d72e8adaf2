"""Exhaustive oracle, DP approximation and the heuristic baselines."""

import inspect
import math
import random
from operator import le, lt

import pytest

from moqo import baselines
from moqo.baselines import (
    decode_genes,
    dp_frontier,
    exhaustive_frontier,
    gene_bounds,
    nondominated_ranks,
    run_2p,
    run_ii,
    run_nsga2,
    run_sa,
)
from moqo.core import Archive, OutputFormat
from moqo.costmodel import (
    CostModel,
    JoinOp,
    OperatorCatalog,
    QueryInstance,
    ScanOp,
    Topology,
    default_catalog,
    materializing_catalog,
)
from moqo.harness import epsilon_indicator
from moqo.optimizer import Budget, rmq_optimize
from moqo.querygen import GenSpec, SelectivityMode, generate_query
from reference import plan_nodes, weakly_dominates


def model_for(n, seed, topology=Topology.CHAIN, metrics=(0, 1, 2), mode=None):
    spec = GenSpec(
        n=n,
        topology=topology,
        selectivity_mode=mode if mode is not None else SelectivityMode.STEINBRUNN,
        seed=seed,
    )
    return CostModel(generate_query(spec), None, metrics)


# short annealing stages and fast cooling, so SA freezes within a few
# dozen iterations
SA_FREEZE_SETTINGS = dict(SA_NEIGHBORS_PER_TABLE=2, SA_COOLING=0.5, SA_FREEZE_STAGES=1)


def enumerate_all_plans(model, bits=None):
    """Literal recursion over every bushy tree and operator assignment.

    Written independently of the library's subset recursion so the two
    can cross-check each other.
    """
    if bits is None:
        bits = model.full_set
    tables = []
    b = bits
    while b:
        low = b & -b
        tables.append(low.bit_length() - 1)
        b ^= low
    if len(tables) == 1:
        for op in range(len(model.catalog.scan_ops)):
            yield model.leaf(tables[0], op)
        return
    seen_splits = range(1, 1 << len(tables))
    for pick in seen_splits:
        outer_bits = 0
        for pos, t in enumerate(tables):
            if (pick >> pos) & 1:
                outer_bits |= 1 << t
        inner_bits = bits ^ outer_bits
        if inner_bits == 0:
            continue
        for outer in enumerate_all_plans(model, outer_bits):
            for inner in enumerate_all_plans(model, inner_bits):
                for op in range(len(model.catalog.join_ops)):
                    yield model.join(outer, inner, op)


class TestExhaustiveFrontier:
    def test_matches_literal_enumeration_n3(self):
        for seed in range(6):
            m = model_for(3, seed)
            want = Archive()
            for plan in enumerate_all_plans(m):
                want.insert(plan)
            got = exhaustive_frontier(m)
            assert sorted(got.costs()) == sorted(want.costs())

    def test_matches_literal_enumeration_n4(self):
        for seed, topo in ((0, Topology.CHAIN), (1, Topology.STAR), (2, Topology.CYCLE)):
            m = model_for(4, seed, topology=topo)
            want = Archive()
            for plan in enumerate_all_plans(m):
                want.insert(plan)
            got = exhaustive_frontier(m)
            assert sorted(got.costs()) == sorted(want.costs())

    def test_matches_literal_enumeration_projected_metrics(self):
        m = model_for(4, 3, metrics=(1, 2))
        want = Archive()
        for plan in enumerate_all_plans(m):
            want.insert(plan)
        assert sorted(exhaustive_frontier(m).costs()) == sorted(want.costs())

    def test_symmetric_costs_collapse_to_one(self):
        # equal cardinalities make the sort-merge join order-symmetric,
        # so the tie-keeping first-wins filter leaves a single plan
        q = QueryInstance(
            n=2, cards=(100, 100), edges=((0, 1, 0.5),), topology=Topology.CHAIN
        )
        cat = OperatorCatalog(
            scan_ops=(ScanOp("s"),),
            join_ops=(JoinOp("sm", kind="sort_merge"),),
        )
        m = CostModel(q, cat)
        assert len(exhaustive_frontier(m)) == 1

    def test_table_limit(self):
        m = model_for(8, 0)
        with pytest.raises(ValueError):
            exhaustive_frontier(m)

    def test_single_table(self):
        m = model_for(1, 0)
        arc = exhaustive_frontier(m)
        # the sampling scan dominates the sequential scan
        assert len(arc) == 1
        assert arc.entries[0].scan_op == 1

    def test_result_mutually_nondominated(self):
        m = model_for(5, 4, topology=Topology.STAR)
        costs = exhaustive_frontier(m).costs()
        for i, a in enumerate(costs):
            for j, b in enumerate(costs):
                if i != j:
                    assert not weakly_dominates(a, b)


class TestDpFrontier:
    def test_exact_matches_exhaustive(self):
        for seed in range(8):
            for topo in (Topology.CHAIN, Topology.STAR):
                m = model_for(5, seed, topology=topo)
                assert sorted(dp_frontier(m, 1.0).costs()) == sorted(
                    exhaustive_frontier(m).costs()
                )

    def test_exact_matches_exhaustive_minmax(self):
        m = model_for(5, 2, mode=SelectivityMode.MINMAX)
        assert sorted(dp_frontier(m, 1.0).costs()) == sorted(
            exhaustive_frontier(m).costs()
        )

    def test_alpha_two_within_factor(self):
        for seed in range(8):
            m = model_for(5, seed)
            exact = exhaustive_frontier(m).costs()
            approx = dp_frontier(m, 2.0).costs()
            assert epsilon_indicator(approx, exact) <= 2.0

    def test_alpha_inf_keeps_one_per_format(self):
        m = model_for(5, 1)
        arc = dp_frontier(m, math.inf)
        assert len(arc) == 1  # single output format in the default catalog
        exact = exhaustive_frontier(m).costs()
        assert epsilon_indicator(arc.costs(), exact) < math.inf

    def test_sizes_shrink_with_alpha(self):
        m = model_for(6, 3, topology=Topology.STAR)
        s1 = len(dp_frontier(m, 1.0))
        s15 = len(dp_frontier(m, 1.5))
        sinf = len(dp_frontier(m, math.inf))
        assert s1 >= s15 >= sinf

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            dp_frontier(model_for(3, 0), 0.9)

    def test_alpha_nan_rejected(self):
        with pytest.raises(ValueError):
            dp_frontier(model_for(3, 0), math.nan)

    def test_deadline_abort_returns_none(self):
        m = model_for(12, 0)
        assert dp_frontier(m, 1.0, deadline_s=0.02) is None

    @pytest.mark.parametrize("deadline", [math.nan, -1.0], ids=["nan", "negative"])
    def test_bad_deadline_rejected(self, deadline):
        # the same rule as Budget(deadline_s=...)
        with pytest.raises(ValueError):
            Budget(deadline_s=deadline)
        with pytest.raises(ValueError):
            dp_frontier(model_for(3, 0), 1.0, deadline_s=deadline)

    def test_no_deadline_completes_large_alpha(self):
        m = model_for(7, 0)
        assert dp_frontier(m, math.inf) is not None

    def test_single_table(self):
        m = model_for(1, 5)
        arc = dp_frontier(m, 1.0)
        assert sorted(arc.costs()) == sorted(exhaustive_frontier(m).costs())


_REINSERT_CASES = [
    (topology, n, seed)
    for topology in Topology
    for n in (3, 5, 6)
    for seed in range(4)
]


@pytest.mark.parametrize(
    "topology,n,seed",
    _REINSERT_CASES,
    ids=[f"{t.value}-{n}-{seed}" for t, n, seed in _REINSERT_CASES],
)
def test_dp_result_equals_reinserted_copy(topology, n, seed):
    """dp_frontier returns its full-set table entry as it is: admitting
    its plans one by one into a fresh archive keeps every plan, in
    order, at every factor, metric subset and catalog."""
    query = generate_query(GenSpec(n=n, topology=topology, seed=seed))
    for catalog in (default_catalog, materializing_catalog):
        for metrics in ((0, 1, 2), (0, 2), (0, 1), (1,)):
            model = CostModel(query, catalog(), metrics)
            for alpha in (1.0, 1.01, 2.0, math.inf):
                got = dp_frontier(model, alpha)
                copy = Archive()
                for plan in got:
                    copy.insert(plan)
                assert [id(p) for p in copy] == [id(p) for p in got]


class TestRunIi:
    def test_zero_budget(self):
        m = model_for(4, 0)
        assert len(run_ii(m, Budget(max_iterations=0), seed=1)) == 0

    def test_deterministic(self):
        m = model_for(5, 1)
        a = run_ii(m, Budget(max_iterations=80), seed=4)
        b = run_ii(m, Budget(max_iterations=80), seed=4)
        assert sorted(a.costs()) == sorted(b.costs())

    def test_sink_sees_archive_growth(self):
        m = model_for(5, 1)
        sizes = []
        run_ii(
            m,
            Budget(max_iterations=30),
            seed=2,
            progress_sink=lambda t, plans: sizes.append(len(plans)),
        )
        assert len(sizes) == 30
        assert sizes[0] >= 1

    def test_quality_on_small_instances(self):
        good = 0
        for seed in range(10):
            m = model_for(4, seed)
            exact = exhaustive_frontier(m).costs()
            arc = run_ii(m, Budget(max_iterations=500), seed=seed)
            if epsilon_indicator(arc.costs(), exact) <= 1.02:
                good += 1
        assert good >= 8

    def test_mutually_nondominated(self):
        m = model_for(6, 2, topology=Topology.STAR)
        costs = run_ii(m, Budget(max_iterations=100), seed=3).costs()
        for i, a in enumerate(costs):
            for j, b in enumerate(costs):
                if i != j:
                    assert not weakly_dominates(a, b)


class TestRunSa:
    def test_zero_budget(self):
        m = model_for(4, 0)
        assert len(run_sa(m, Budget(max_iterations=0), seed=1)) == 0

    def test_deterministic(self):
        m = model_for(5, 3)
        a = run_sa(m, Budget(max_iterations=25), seed=6)
        b = run_sa(m, Budget(max_iterations=25), seed=6)
        assert sorted(a.costs()) == sorted(b.costs())

    def test_archive_nonempty_and_valid(self):
        m = model_for(5, 3)
        arc = run_sa(m, Budget(max_iterations=25), seed=6)
        assert len(arc) >= 1
        costs = arc.costs()
        for i, a in enumerate(costs):
            for j, b in enumerate(costs):
                if i != j:
                    assert not weakly_dominates(a, b)

    def test_config_tunable(self, monkeypatch):
        for name, value in SA_FREEZE_SETTINGS.items():
            monkeypatch.setattr(baselines, name, value)
        arc = run_sa(model_for(4, 1), Budget(max_iterations=50), seed=2)
        assert len(arc) >= 1

    def test_quality_reasonable(self):
        hits = 0
        for seed in range(5):
            m = model_for(4, seed)
            exact = exhaustive_frontier(m).costs()
            arc = run_sa(m, Budget(max_iterations=60), seed=seed)
            if epsilon_indicator(arc.costs(), exact) <= 2.0:
                hits += 1
        assert hits >= 3


class TestRun2p:
    def test_zero_budget(self):
        m = model_for(4, 0)
        assert len(run_2p(m, Budget(max_iterations=0), seed=1)) == 0

    def test_deterministic(self):
        m = model_for(5, 2)
        a = run_2p(m, Budget(max_iterations=40), seed=8)
        b = run_2p(m, Budget(max_iterations=40), seed=8)
        assert sorted(a.costs()) == sorted(b.costs())

    def test_tiny_budget_stops_in_first_phase(self):
        m = model_for(5, 2)
        arc = run_2p(m, Budget(max_iterations=3), seed=8)
        assert len(arc) >= 1

    def test_not_worse_than_ii_phase_alone(self):
        # phase two only adds visited plans; the archive is shared, so the
        # indicator against any reference can only improve with more budget
        m = model_for(5, 5)
        exact = exhaustive_frontier(m).costs()
        small = run_2p(m, Budget(max_iterations=5), seed=3)
        big = run_2p(m, Budget(max_iterations=80), seed=3)
        assert epsilon_indicator(big.costs(), exact) <= epsilon_indicator(
            small.costs(), exact
        )


ANYTIME_RUNNERS = [rmq_optimize, run_ii, run_sa, run_2p, run_nsga2]


@pytest.mark.parametrize("runner", ANYTIME_RUNNERS, ids=lambda f: f.__name__)
class TestSinkContract:
    """Every anytime runner calls its progress sink once per budget
    iteration, with non-decreasing elapsed times, and returns the archive
    whose entries the sink saw."""

    def test_one_call_per_iteration(self, runner):
        m = model_for(4, 1)
        times = []
        runner(
            m,
            Budget(max_iterations=12),
            seed=3,
            progress_sink=lambda t, plans: times.append(t),
        )
        assert len(times) == 12
        assert times == sorted(times)

    def test_zero_budget_never_calls(self, runner):
        m = model_for(4, 1)
        calls = []
        arc = runner(
            m,
            Budget(max_iterations=0),
            seed=3,
            progress_sink=lambda t, plans: calls.append(t),
        )
        assert calls == []
        assert len(arc) == 0

    def test_returns_the_archive_its_sink_saw(self, runner):
        m = model_for(4, 1)
        seen = []
        arc = runner(
            m,
            Budget(max_iterations=3),
            seed=3,
            progress_sink=lambda t, plans: seen.append(plans),
        )
        assert len(seen) == 3
        assert all(plans is arc.entries for plans in seen)
        assert len(arc) > 0


def test_runners_share_one_signature():
    # the harness calls every runner alike
    params = ["model", "budget", "seed", "progress_sink"]
    for runner in ANYTIME_RUNNERS:
        assert list(inspect.signature(runner).parameters) == params, runner.__name__



@pytest.mark.parametrize("seed", range(4))
def test_sa_freeze_stops_early(monkeypatch, seed):
    # start temperature 2.0 halves per stage, so it first falls below the
    # 1e-3 freeze temperature after 11 stages
    for name, value in SA_FREEZE_SETTINGS.items():
        monkeypatch.setattr(baselines, name, value)
    calls = []
    run_sa(
        model_for(4, seed),
        Budget(max_iterations=200),
        seed=seed,
        progress_sink=lambda t, plans: calls.append(t),
    )
    assert 11 <= len(calls) < 200


def _peeled_ranks(costs):
    """Ranks by the definition: peel the vectors no remaining vector
    dominates, where a dominates b when a <= b in every metric and a < b
    in at least one."""
    n = len(costs)
    dominated_by = [
        [
            j
            for j in range(n)
            if all(map(le, costs[j], costs[i])) and any(map(lt, costs[j], costs[i]))
        ]
        for i in range(n)
    ]
    ranks = [None] * n
    rank = 0
    while None in ranks:
        front = [
            i
            for i in range(n)
            if ranks[i] is None
            and all(ranks[j] is not None for j in dominated_by[i])
        ]
        for i in front:
            ranks[i] = rank
        rank += 1
    return ranks


class TestNondominatedRanksDifferential:
    def test_matches_naive_peel(self):
        # a small value pool makes ties and duplicates common
        rng = random.Random(2015)
        pool = (1.0, 2.0, 3.0, 5.0, 8.0, math.inf)
        for _ in range(2000):
            width = rng.randint(1, 3)
            costs = [
                tuple(rng.choice(pool) for _ in range(width))
                for _ in range(rng.randint(0, 60))
            ]
            assert nondominated_ranks(costs) == _peeled_ranks(costs), costs

    def test_deep_dominance_chains(self):
        # a strict chain of 100+ vectors forces as many fronts; random
        # points, copies and inf components fall between its links
        rng = random.Random(2002)
        for case in range(12):
            width = case % 3 + 1
            link = [0.0] * width
            costs = []
            for _ in range(rng.randint(100, 130)):
                steps = [float(rng.randint(0, 2)) for _ in range(width)]
                steps[rng.randrange(width)] += 1.0
                link = [a + b for a, b in zip(link, steps)]
                costs.append(tuple(link))
            top = int(max(link)) + 3
            for _ in range(rng.randint(0, 40)):
                costs.append(
                    tuple(
                        math.inf if rng.random() < 0.1 else float(rng.randint(0, top))
                        for _ in range(width)
                    )
                )
            costs += [rng.choice(costs) for _ in range(rng.randint(0, 60))]
            rng.shuffle(costs)
            ranks = nondominated_ranks(costs)
            assert max(ranks) >= 99
            assert ranks == _peeled_ranks(costs), costs

    def test_wide_inputs_with_copies(self):
        # 400 rows, about 40% of them copies of earlier rows
        rng = random.Random(1990)
        pool = (1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 13.0, 20.0, math.inf)
        for case in range(6):
            width = case % 3 + 1
            costs = [
                tuple(rng.choice(pool) for _ in range(width)) for _ in range(240)
            ]
            costs += [rng.choice(costs) for _ in range(160)]
            rng.shuffle(costs)
            assert nondominated_ranks(costs) == _peeled_ranks(costs), costs


class TestNsga2Pieces:
    def test_nondominated_ranks_example(self):
        ranks = nondominated_ranks(
            [(1.0, 2.0), (2.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        )
        assert list(ranks) == [0, 0, 1, 2]

    def test_ranks_with_duplicates(self):
        # equal vectors never dominate each other, so they share a front
        ranks = nondominated_ranks([(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)])
        assert list(ranks) == [0, 0, 1]

    def test_single_point(self):
        assert list(nondominated_ranks([(5.0, 5.0)])) == [0]

    def test_empty_input(self):
        assert nondominated_ranks([]) == []

    @pytest.mark.parametrize(
        "costs",
        [
            [(1.0, 2.0), (1.0,)],
            [(1.0,), (1.0, 2.0, 3.0)],
            [(1.0, math.nan)],
            [(2.0, 1.0), (math.nan, 1.0)],
        ],
        ids=["ragged-shorter", "ragged-longer", "nan", "nan-second-row"],
    )
    def test_bad_input_rejected(self, costs):
        with pytest.raises(ValueError):
            nondominated_ranks(costs)

    def test_selection_keys_are_rank_and_minus_crowding(self):
        costs = [
            (1.0, 6.0),  # front 0, an end
            (5.0, 5.0),  # front 1, alone
            (2.0, 4.0),  # front 0, inside: 3/5 + 4/5
            (4.0, 2.0),  # front 0, inside: 4/5 + 3/5
            (6.0, 1.0),  # front 0, an end
            (7.0, 7.0),  # front 2, alone
        ]
        keys = baselines._selection_keys(costs)
        assert [rank for rank, _ in keys] == [0, 1, 0, 0, 0, 2]
        assert [keys[i][1] for i in (0, 1, 4, 5)] == [-math.inf] * 4
        assert keys[2][1] == pytest.approx(-1.4)
        assert keys[3][1] == pytest.approx(-1.4)

    def test_selection_keys_of_tied_costs(self):
        # one metric: each front is one value, whose first and last
        # members in population order are its ends
        keys = baselines._selection_keys([(2.0,), (1.0,), (2.0,), (2.0,), (1.0,)])
        inf = math.inf
        assert keys == [(1, -inf), (0, -inf), (1, 0.0), (1, -inf), (0, -inf)]

    @pytest.mark.parametrize(
        "draws,winner",
        [
            ((0, 1), 0),  # equal keys: the first drawn
            ((1, 0), 1),
            ((4, 5), 4),  # equal keys at an infinite crowding distance
            ((2, 0), 0),  # the lower rank, whatever the crowding
            ((0, 2), 0),
            ((0, 3), 3),  # one rank: the larger crowding distance
            ((3, 0), 3),
            ((3, 3), 3),
        ],
    )
    def test_tournament_prefers_the_lower_key(self, draws, winner):
        class Draws:
            def __init__(self):
                self.left = list(draws)

            def randrange(self, n):
                assert n == len(keys)
                return self.left.pop(0)

        inf = math.inf
        keys = [(0, -1.0), (0, -1.0), (1, -inf), (0, -2.0), (0, -inf), (0, -inf)]
        rng = Draws()
        assert baselines._tournament(rng, keys) == winner
        assert rng.left == []

    def test_gene_bounds_structure(self):
        m = model_for(4, 0)
        bounds = gene_bounds(m)
        # 3 ordinal genes, 4 scan genes, 3 join genes
        assert bounds == [3, 2, 1, 1, 1, 1, 1, 2, 2, 2]

    def test_decode_round_trip_all_tables(self):
        rng = random.Random(9)
        m = model_for(6, 1)
        bounds = gene_bounds(m)
        for _ in range(200):
            genes = [rng.randint(0, hi) for hi in bounds]
            plan = decode_genes(m, genes)
            leaves = sorted(n.table for n in plan_nodes(plan) if not n.is_join)
            assert leaves == list(range(6))
            assert plan.rel == m.full_set

    def test_decode_left_deep(self):
        m = model_for(4, 0)
        genes = [0] * len(gene_bounds(m))
        plan = decode_genes(m, genes)
        # all-zero ordinals pick tables in index order, left deep
        assert plan.inner.table == 3
        assert plan.outer.inner.table == 2
        assert plan.outer.outer.inner.table == 1
        assert plan.outer.outer.outer.table == 0

    def test_decode_deterministic(self):
        m = model_for(5, 2)
        genes = [1, 2, 0, 1] + [0, 1, 0, 1, 0] + [2, 1, 0, 2]
        p1 = decode_genes(m, genes)
        p2 = decode_genes(m, genes)
        assert p1.cost == p2.cost


class TestRunNsga2:
    def test_zero_budget(self):
        m = model_for(4, 0)
        assert len(run_nsga2(m, Budget(max_iterations=0), seed=1)) == 0

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(baselines, "NSGA2_POPULATION", 40)
        m = model_for(5, 1)
        a = run_nsga2(m, Budget(max_iterations=3), seed=2)
        b = run_nsga2(m, Budget(max_iterations=3), seed=2)
        assert sorted(a.costs()) == sorted(b.costs())

    def test_sink_called_per_generation(self, monkeypatch):
        monkeypatch.setattr(baselines, "NSGA2_POPULATION", 30)
        m = model_for(5, 1)
        calls = []
        run_nsga2(
            m,
            Budget(max_iterations=4),
            seed=3,
            progress_sink=lambda t, plans: calls.append(len(plans)),
        )
        assert len(calls) == 4

    def test_archive_valid(self, monkeypatch):
        monkeypatch.setattr(baselines, "NSGA2_POPULATION", 50)
        m = model_for(6, 2, topology=Topology.STAR)
        costs = run_nsga2(m, Budget(max_iterations=3), seed=5).costs()
        assert costs
        for i, a in enumerate(costs):
            for j, b in enumerate(costs):
                if i != j:
                    assert not weakly_dominates(a, b)

    def test_quality_improves_with_budget(self, monkeypatch):
        monkeypatch.setattr(baselines, "NSGA2_POPULATION", 40)
        m = model_for(5, 7)
        exact = exhaustive_frontier(m).costs()
        short = run_nsga2(m, Budget(max_iterations=1), seed=4)
        longer = run_nsga2(m, Budget(max_iterations=12), seed=4)
        assert epsilon_indicator(longer.costs(), exact) <= epsilon_indicator(
            short.costs(), exact
        )
