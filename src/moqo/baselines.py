"""Comparison algorithms: exhaustive oracle, DP approximation scheme,
iterative improvement, simulated annealing, two-phase optimization and
NSGA-II.

The four anytime runners here (``run_ii``, ``run_sa``, ``run_2p`` and
``run_nsga2``) take exactly (model, budget, seed, progress_sink), as
``optimizer.rmq_optimize`` does, so the benchmark harness calls all
five alike. Their settings are fixed module constants. All five run
their iterations through ``optimizer.anytime``, the one loop that checks
the budget and hands the progress sink the entries of the archive the
runner returns; II, SA and two-phase optimization are one
climb-then-anneal loop. The exhaustive oracle and the DP scheme are
deliberately separate implementations of frontier search; their
agreement at full precision is the package's keystone correctness
check. The exhaustive oracle is a plain
enumeration into one ``Archive`` per table set, built with
``CostModel.leaf``/``CostModel.join`` and ``Archive.insert``, so the
only code it shares with DP is the cost model and the archive. NSGA-II
selects by one key per member, (front rank, -crowding distance), lower
first: the crowded comparison of Deb et al., IEEE TEVC 2002.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from operator import gt

from .core import Archive, Plan, strictly_dominates
from .costmodel import CostModel
from .optimizer import (
    Budget,
    ProgressSink,
    anytime,
    build_move,
    mutations,
    offer_join_combinations,
    pareto_climb,
    random_plan,
    root_moves,
)

MAX_EXHAUSTIVE_TABLES = 7

# The baselines' fixed settings, read by the runners at call time: SA's
# neighbors per table per stage, cooling factor, start temperature and
# freeze rule; 2P's climb count and start-temperature factor; NSGA-II's
# population and crossover rate.
SA_NEIGHBORS_PER_TABLE = 16
SA_COOLING = 0.95
SA_START_TEMPERATURE = 2.0
SA_FREEZE_TEMPERATURE = 1e-3
SA_FREEZE_STAGES = 4
TWO_PHASE_CLIMBS = 10
TWO_PHASE_START_FACTOR = 0.1
NSGA2_POPULATION = 200
NSGA2_CROSSOVER = 0.9


def exhaustive_frontier(model: CostModel) -> Archive:
    """Exact Pareto frontier over every bushy plan of the query.

    Covers all tree shapes, leaf permutations and operator assignments by
    enumerating, per table subset in ascending cardinality, every ordered
    two-way partition combined with every join operator. Each subset
    keeps only its non-dominated plans; with node-local costs that is
    lossless for the root frontier. Ties keep the first-built plan.
    """
    n = model.query.n
    if n > MAX_EXHAUSTIVE_TABLES:
        raise ValueError(
            f"exhaustive enumeration supports at most {MAX_EXHAUSTIVE_TABLES} "
            f"tables, got {n}"
        )
    fronts: dict = {}
    for t in range(n):
        leaves = Archive()
        for op in range(len(model.catalog.scan_ops)):
            leaves.insert(model.leaf(t, op))
        fronts[1 << t] = leaves
    n_join = len(model.catalog.join_ops)
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            bits = 0
            for t in combo:
                bits |= 1 << t
            kept = Archive()
            sub = (bits - 1) & bits
            while sub:
                for outer in fronts[sub]:
                    for inner in fronts[bits ^ sub]:
                        for op in range(n_join):
                            kept.insert(model.join(outer, inner, op))
                sub = (sub - 1) & bits
            fronts[bits] = kept
    return fronts[(1 << n) - 1]


def dp_frontier(
    model: CostModel, alpha: float, deadline_s: float | None = None
) -> Archive | None:
    """Dynamic-programming frontier approximation with factor alpha.

    Enumerates table subsets in ascending cardinality and prunes each
    subset's candidates at the per-level factor alpha ** (1 / (n - 1)),
    so the compounded error at the root stays within alpha. alpha = 1
    computes the exact frontier; alpha = inf keeps one plan per (subset,
    format), the first surviving candidate in enumeration order.

    Returns None if the optional deadline expires before completion; the
    deadline takes the values ``Budget(deadline_s=...)`` takes.
    """
    if not alpha >= 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    budget = None if deadline_s is None else Budget(deadline_s=deadline_s)
    n = model.query.n
    per_level = alpha ** (1.0 / max(1, n - 1))
    start = time.perf_counter()
    fronts: dict = {}
    for t in range(n):
        leaves = Archive()
        for op in range(len(model.catalog.scan_ops)):
            leaves.insert(model.leaf(t, op), per_level)
        fronts[1 << t] = leaves
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            bits = 0
            for t in combo:
                bits |= 1 << t
            target = Archive()
            sub = (bits - 1) & bits
            # at least two tables, so this runs at least once
            while sub:
                if budget is not None and budget.exhausted(0, time.perf_counter() - start):
                    return None
                offer_join_combinations(
                    model, target, fronts[sub], fronts[bits ^ sub], per_level
                )
                sub = (sub - 1) & bits
            fronts[bits] = target
    return fronts[(1 << n) - 1]


def _random_neighbor(model: CostModel, plan: Plan, rng: random.Random) -> Plan:
    """Apply one random non-identity mutation at a random node."""
    idx = rng.randrange(2 * plan.rel.bit_count() - 1)
    return _mutate_at(model, plan, idx, rng)


def _mutate_at(model: CostModel, plan: Plan, idx: int, rng: random.Random) -> Plan:
    # a join draws one of its root_moves and builds only that one
    if idx == 0:
        if plan.is_join:
            moves = root_moves(model, plan.outer, plan.inner, plan.join_op)
            return build_move(model, moves[rng.randrange(len(moves))])
        options = mutations(model, plan)[1:]
        if not options:
            return plan
        return options[rng.randrange(len(options))]
    idx -= 1
    outer_size = 2 * plan.outer.rel.bit_count() - 1
    if idx < outer_size:
        return model.join(
            _mutate_at(model, plan.outer, idx, rng), plan.inner, plan.join_op
        )
    return model.join(
        plan.outer, _mutate_at(model, plan.inner, idx - outer_size, rng), plan.join_op
    )


def _climb_then_anneal(
    model: CostModel,
    budget: Budget,
    seed: int,
    progress_sink: ProgressSink | None,
    climbs: float,
    start=None,
) -> Archive:
    """The one local search of II, SA and 2P. Each of the first ``climbs``
    iterations climbs a fresh random plan; every later one is an
    annealing stage of ``SA_NEIGHBORS_PER_TABLE`` random neighbors per
    table, the first from the (plan, temperature) ``start(rng, archive)``
    returns. The loop stops once frozen: below ``SA_FREEZE_TEMPERATURE``,
    and without an archive gain for ``SA_FREEZE_STAGES`` stages. Every
    plan reached feeds the archive.
    """
    rng = random.Random(seed)
    archive = Archive()
    n_metrics = model.n_metrics
    current = None
    temperature = 0.0
    unimproved = 0

    def step(iteration: int) -> bool:
        nonlocal current, temperature, unimproved
        if iteration <= climbs:
            archive.insert(pareto_climb(model, random_plan(model, rng)).plan)
            return False
        if current is None:
            current, temperature = start(rng, archive)
        improved = False
        for _ in range(SA_NEIGHBORS_PER_TABLE * model.query.n):
            neighbor = _random_neighbor(model, current, rng)
            improved |= archive.insert(neighbor)
            if strictly_dominates(neighbor.cost, current.cost):
                current = neighbor
                continue
            # mean relative cost change, floored at 0
            rise = sum((nb - cur) / cur for nb, cur in zip(neighbor.cost, current.cost))
            delta = max(rise / n_metrics, 0.0)
            if rng.random() < math.exp(-delta / temperature):
                current = neighbor
        temperature *= SA_COOLING
        unimproved = 0 if improved else unimproved + 1
        frozen = temperature < SA_FREEZE_TEMPERATURE
        return frozen and unimproved >= SA_FREEZE_STAGES

    anytime(budget, step, archive, progress_sink)
    return archive


def run_ii(
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    progress_sink: ProgressSink | None = None,
) -> Archive:
    """Iterative improvement: climb fresh random plans to local Pareto
    optima and archive every result."""
    return _climb_then_anneal(model, budget, seed, progress_sink, math.inf)


def run_sa(
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    progress_sink: ProgressSink | None = None,
) -> Archive:
    """Simulated annealing over plan mutations.

    Move acceptance uses the mean relative per-metric cost change, so the
    temperature is scale-free; with start-relative normalization the
    start plan's mean normalized cost is exactly 1, making the initial
    temperature ``SA_START_TEMPERATURE``. A single trajectory is annealed
    until frozen; every visited plan feeds the archive.
    """

    def start(rng: random.Random, archive: Archive) -> tuple:
        current = random_plan(model, rng)
        archive.insert(current)
        return current, SA_START_TEMPERATURE

    return _climb_then_anneal(model, budget, seed, progress_sink, 0, start)


def run_2p(
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    progress_sink: ProgressSink | None = None,
) -> Archive:
    """Two-phase optimization: ``TWO_PHASE_CLIMBS`` iterative-improvement
    climbs, then annealing from the archive plan with the lowest
    normalized cost sum (per-metric costs divided by the archive minima)."""

    def start(rng: random.Random, archive: Archive) -> tuple:
        mins = [min(plan.cost[k] for plan in archive) for k in range(model.n_metrics)]

        def normalized_sum(plan: Plan) -> float:
            return sum(c / m for c, m in zip(plan.cost, mins))

        handoff = min(archive, key=normalized_sum)
        return handoff, TWO_PHASE_START_FACTOR * normalized_sum(handoff)

    return _climb_then_anneal(model, budget, seed, progress_sink, TWO_PHASE_CLIMBS, start)


def gene_bounds(model: CostModel) -> list:
    """Inclusive upper bound per gene of NSGA-II's ordinal plan encoding
    (lower bounds are 0): n - 1 join-position genes, each picking the next
    left-deep table from the shrinking list of remaining tables, then n
    per-leaf scan-operator genes and n - 1 per-join operator genes."""
    n = model.query.n
    ordinal = [n - 1 - k for k in range(n - 1)]
    scans = [len(model.catalog.scan_ops) - 1] * n
    joins = [len(model.catalog.join_ops) - 1] * (n - 1)
    return ordinal + scans + joins


def decode_genes(model: CostModel, genes: list) -> Plan:
    """Total decoding of any in-range gene array of the ordinal encoding
    (see ``gene_bounds``) into a left-deep plan."""
    n = model.query.n
    ordinal = genes[: n - 1]
    scans = genes[n - 1 : 2 * n - 1]
    joins = genes[2 * n - 1 :]
    remaining = list(range(n))
    order = [remaining.pop(g) for g in ordinal]
    order.append(remaining.pop())
    plan = model.leaf(order[0], scans[0])
    for k in range(1, n):
        plan = model.join(plan, model.leaf(order[k], scans[k]), joins[k - 1])
    return plan


def nondominated_ranks(costs: list) -> list:
    """Non-dominated sort; rank 0 is the Pareto frontier.

    ENS-BS (Zhang et al., IEEE TEVC 2015) over the distinct vectors: in
    lexicographic order no vector is dominated by a later one, so each
    vector joins the first front with no member that dominates it. That
    front is found by bisection: a member of front k dominating c means,
    by transitivity, a member of every earlier front does too. Copies
    get their vector's rank. Vectors of different widths and nan
    components raise ``ValueError``.
    """
    vecs = [tuple(c) for c in costs]
    distinct = sorted(set(vecs))
    if any(len(c) != len(vecs[0]) or any(map(math.isnan, c)) for c in distinct):
        raise ValueError("cost vectors must share one width and hold no nan")
    fronts: list = []
    rank_of = {}
    for c in distinct:
        lo, hi = 0, len(fronts)
        while lo < hi:
            mid = (lo + hi) // 2
            # newest first; f != c, so f dominates c iff no f[k] > c[k]
            for f in reversed(fronts[mid]):
                if not any(map(gt, f, c)):
                    lo = mid + 1
                    break
            else:
                hi = mid
        if lo == len(fronts):
            fronts.append([])
        fronts[lo].append(c)
        rank_of[c] = lo
    return [rank_of[c] for c in vecs]


def _crowding_distances(costs: list) -> list:
    size = len(costs)
    if size <= 2:
        return [math.inf] * size
    dist = [0.0] * size
    n_metrics = len(costs[0])
    for k in range(n_metrics):
        order = sorted(range(size), key=lambda i: costs[i][k])
        lo = costs[order[0]][k]
        hi = costs[order[-1]][k]
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        if hi <= lo:
            continue
        for pos in range(1, size - 1):
            i = order[pos]
            if dist[i] != math.inf:
                dist[i] += (costs[order[pos + 1]][k] - costs[order[pos - 1]][k]) / (hi - lo)
    return dist


def _selection_keys(costs: list) -> list:
    """Each member's (front rank, -crowding distance in its front) key."""
    fronts: dict = {}
    for i, rank in enumerate(nondominated_ranks(costs)):
        fronts.setdefault(rank, []).append(i)
    keys = [None] * len(costs)
    for rank, members in fronts.items():
        dists = _crowding_distances([costs[i] for i in members])
        for i, d in zip(members, dists):
            keys[i] = (rank, -d)
    return keys


def _tournament(rng: random.Random, keys: list) -> int:
    """Binary tournament: the index of the lower key, the first on a tie."""
    a = rng.randrange(len(keys))
    b = rng.randrange(len(keys))
    return a if keys[a] <= keys[b] else b


def run_nsga2(
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    progress_sink: ProgressSink | None = None,
) -> Archive:
    """Elitist genetic search over the ordinal left-deep encoding.

    Each budget iteration evaluates exactly ``NSGA2_POPULATION`` new
    individuals: the initial population on the first pass, one offspring
    generation afterwards. Selection reads each member's key from
    ``_selection_keys``, (front rank, -crowding distance), lower first: a
    binary tournament keeps the first index drawn on a tie, and the
    survivors head a stable sort of parents plus offspring. Variation is
    single-point crossover at rate ``NSGA2_CROSSOVER`` plus per-gene
    uniform resampling at rate 1 / gene count.
    """
    rng = random.Random(seed)
    archive = Archive()
    bounds = gene_bounds(model)
    n_genes = len(bounds)
    mutation_rate = 1.0 / n_genes
    # (genes, plan) pairs, and their selection keys
    population: list = []
    keys: list = []

    def evaluate(genes: list) -> tuple:
        plan = decode_genes(model, genes)
        archive.insert(plan)
        return genes, plan

    def mutate(genes: list) -> list:
        out = list(genes)
        for g in range(n_genes):
            if rng.random() < mutation_rate:
                out[g] = rng.randint(0, bounds[g])
        return out

    def step(iteration: int) -> None:
        nonlocal population, keys
        if not population:
            population = [
                evaluate([rng.randint(0, hi) for hi in bounds])
                for _ in range(NSGA2_POPULATION)
            ]
            keys = _selection_keys([plan.cost for _, plan in population])
            return
        offspring = []
        for _ in range(NSGA2_POPULATION):
            genes = population[_tournament(rng, keys)][0]
            other = population[_tournament(rng, keys)][0]
            if n_genes > 1 and rng.random() < NSGA2_CROSSOVER:
                cut = rng.randrange(1, n_genes)
                genes = genes[:cut] + other[cut:]
            offspring.append(evaluate(mutate(genes)))
        combined = population + offspring
        keys = _selection_keys([plan.cost for _, plan in combined])
        survivors = sorted(range(len(combined)), key=keys.__getitem__)[:NSGA2_POPULATION]
        population = [combined[i] for i in survivors]
        keys = [keys[i] for i in survivors]

    anytime(budget, step, archive, progress_sink)
    return archive
