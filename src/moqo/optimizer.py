"""Randomized multi-objective plan search.

One iteration draws a uniformly random bushy plan, hill-climbs it with
simultaneous sub-tree mutations until no neighbor strictly dominates,
then feeds the climbed plan's intermediate results through a shared plan
cache that approximates one Pareto frontier, an ``Archive``, per table
set. The cache's precision factor tightens with the iteration count, so
early iterations keep the cache tiny while later ones refine it toward
exact frontiers.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import Archive, Plan, check_int, strictly_dominates
from .costmodel import CostModel


def random_plan(model: CostModel, rng: random.Random) -> Plan:
    """Uniformly random bushy plan with random operators, O(n).

    The tree shape is grown one leaf at a time: each step grafts a fresh
    leaf onto a uniformly chosen node and side, which makes every shape
    with k leaves equally likely. Tables are then assigned by a uniform
    random permutation and every node gets a uniform random operator.
    """
    n = model.query.n
    shape = _random_shape(n, rng)
    tables = list(range(n))
    rng.shuffle(tables)
    next_table = iter(tables)
    n_scan = len(model.catalog.scan_ops)
    n_join = len(model.catalog.join_ops)

    def build(node: list) -> Plan:
        if not node:
            return model.leaf(next(next_table), rng.randrange(n_scan))
        outer = build(node[0])
        inner = build(node[1])
        return model.join(outer, inner, rng.randrange(n_join))

    return build(shape)


def _random_shape(n: int, rng: random.Random) -> list:
    """A shape of n leaves as nested lists: ``[]`` is a leaf and
    ``[left, right]`` a join. A graft turns the picked node in place into
    the join of a copy of its old contents and a fresh leaf; the copy
    takes the picked node's index, so indices keep naming the same
    subtrees."""
    root: list = []
    nodes = [root]
    for _ in range(n - 1):
        pick = rng.randrange(2 * len(nodes))
        victim = nodes[pick >> 1]
        moved = victim[:]
        leaf: list = []
        victim[:] = [leaf, moved] if pick & 1 else [moved, leaf]
        nodes[pick >> 1] = moved
        nodes.append(victim)
        nodes.append(leaf)
    return root


def root_moves(model: CostModel, outer: Plan, inner: Plan, join_op: int) -> list:
    """Every non-identity transformation of the root of the join of
    ``outer`` and ``inner`` under ``join_op``, as unbuilt moves.

    The order is fixed: commutativity, right and left rotation, left and
    right exchange, then every other operator for the root. Rotations
    and exchanges keep the root operator at the root and reuse the
    displaced child's operator for the newly formed child node. Results
    that introduce cross products are legal.

    A move is an ``(outer, inner, join_op)`` triple, ready for
    ``build_move``; in a rotation or exchange one of its inputs is itself
    such a triple over two existing plans, the new child node.
    """
    out = [(inner, outer, join_op)]
    o_join = outer.outer is not None
    i_join = inner.outer is not None
    if o_join:
        out.append((outer.outer, (outer.inner, inner, outer.join_op), join_op))
    if i_join:
        out.append(((outer, inner.outer, inner.join_op), inner.inner, join_op))
    if o_join:
        out.append(((outer.outer, inner, outer.join_op), outer.inner, join_op))
    if i_join:
        out.append((inner.outer, (outer, inner.inner, inner.join_op), join_op))
    for op in range(len(model.catalog.join_ops)):
        if op != join_op:
            out.append((outer, inner, op))
    return out


def build_move(model: CostModel, move: tuple) -> Plan:
    """The plan a ``root_moves`` move describes; a nested new child node
    is built first."""
    outer, inner, join_op = move
    if outer.__class__ is tuple:
        outer = model.join(*outer)
    elif inner.__class__ is tuple:
        inner = model.join(*inner)
    return model.join(outer, inner, join_op)


def mutations(model: CostModel, plan: Plan) -> list:
    """A leaf plan itself, then the leaf under each of its other scan
    operators. A join is transformed through ``root_moves`` and
    ``build_move`` instead."""
    out = [plan]
    for op in range(len(model.catalog.scan_ops)):
        if op != plan.scan_op:
            out.append(model.leaf(plan.table, op))
    return out


def pareto_step(model: CostModel, plan: Plan, memo: dict) -> list:
    """One parallel improvement pass over the whole tree.

    Sub-plans are improved recursively; every pair of improved sub-plans
    is reassembled under the original root operator and all root
    mutations compete. Exactly one plan per output format is kept: a
    candidate replaces the incumbent of its format only by strictly
    dominating it, so the result never branches and the identity plan
    survives at a local optimum. Result order follows first appearance
    of each format.

    ``memo`` maps nodes, by identity, to their step results; a climb
    passes one memo through all its rounds, so subtrees shared between
    successive adoptions reuse their results. Pass ``{}`` for one step.
    """
    got = memo.get(plan)
    if got is not None:
        return got
    # the candidates: per reassembled root its identity, then its
    # root_moves. Leaves and the unchanged root are plans, the rest are
    # moves, priced without a node
    if plan.is_join:
        outs = pareto_step(model, plan.outer, memo)
        ins = pareto_step(model, plan.inner, memo)
        root_op = plan.join_op
        moves = []
        for o in outs:
            for i in ins:
                moves.append(plan if o is plan.outer and i is plan.inner else (o, i, root_op))
                moves += root_moves(model, o, i, root_op)
    else:
        moves = mutations(model, plan)
    join_cost = model.join_cost
    fmts = model.join_fmts
    three = len(plan.cost) == 3
    # at most two output formats exist; two slots in first-appearance
    # order avoid a dict in the innermost loop. Only winners get built
    first = second = first_fmt = first_cost = second_cost = None
    for move in moves:
        if move.__class__ is Plan:
            fmt, cost = move.fmt, move.cost
        else:
            # priced in the order build_move builds it, a new child node
            # (x, y, k) first, so the cost equals the built plan's bit for bit
            a, b, op = move
            if a.__class__ is tuple:
                x, y, k = a
                acost, acard = join_cost(x.rel, x.cost, x.out_card, y.rel, y.cost, y.out_card, k)
                abits = x.rel | y.rel
            else:
                abits, acost, acard = a.rel, a.cost, a.out_card
            if b.__class__ is tuple:
                x, y, k = b
                bcost, bcard = join_cost(x.rel, x.cost, x.out_card, y.rel, y.cost, y.out_card, k)
                bbits = x.rel | y.rel
            else:
                bbits, bcost, bcard = b.rel, b.cost, b.out_card
            fmt = fmts[op]
            cost = join_cost(abits, acost, acard, bbits, bcost, bcard, op)[0]
        if first is None:
            first, first_fmt, first_cost = move, fmt, cost
        elif second is None and fmt is not first_fmt:
            second, second_cost = move, cost
        else:
            best = first_cost if fmt is first_fmt else second_cost
            if three:
                # unrolled, as in Archive.admit: a strictly_dominates call
                # per candidate costs about as much as pricing it
                c0, c1, c2 = cost
                b0, b1, b2 = best
                wins = not (c0 > b0 or c1 > b1 or c2 > b2) and (c0 < b0 or c1 < b1 or c2 < b2)
            else:
                wins = strictly_dominates(cost, best)
            if wins and fmt is first_fmt:
                first, first_cost = move, cost
            elif wins:
                second, second_cost = move, cost
    # a loop, not a comprehension, so that model is no closure cell
    result = []
    for won in (first, second):
        if won is not None:
            result.append(won if won.__class__ is Plan else build_move(model, won))
    memo[plan] = result
    return result


class ClimbResult(NamedTuple):
    plan: Plan
    path_length: int


def pareto_climb(model: CostModel, plan: Plan) -> ClimbResult:
    """Hill-climb until no step result strictly dominates the plan.

    Adopts the first strictly dominating plan in enumeration order, one
    neighbor per round, and reports how many plans were adopted.
    """
    path_length = 0
    memo: dict = {}
    while True:
        adopted = None
        for cand in pareto_step(model, plan, memo):
            if strictly_dominates(cand.cost, plan.cost):
                adopted = cand
                break
        if adopted is None:
            return ClimbResult(plan, path_length)
        plan = adopted
        path_length += 1


def alpha_schedule(i: int) -> float:
    """Precision factor for iteration i: 25 * 0.99 ** floor(i / 25)."""
    if i < 1:
        raise ValueError(f"iteration counter must be >= 1, got {i}")
    return 25.0 * 0.99 ** (i // 25)


class PlanCache:
    """Frontier archives keyed by table set bit mask, shared across
    iterations.

    Entries are never evicted; precision only enters through the alpha
    used at insertion time.
    """

    __slots__ = ("_archives",)

    def __init__(self) -> None:
        self._archives: dict = {}

    def frontier(self, rel: int) -> Archive:
        archive = self._archives.get(rel)
        if archive is None:
            archive = self._archives[rel] = Archive()
        return archive

    def offer(self, rel: int, plan: Plan, alpha: float) -> None:
        self.frontier(rel).insert(plan, alpha)

    def stats(self) -> dict:
        sizes = [len(archive) for archive in self._archives.values()]
        return {
            "keys": len(sizes),
            "plans": sum(sizes),
            "max_list": max(sizes, default=0),
        }


def offer_join_combinations(
    model: CostModel,
    archive: Archive,
    outs: Archive,
    ins: Archive,
    alpha: float,
) -> int:
    """Offer every (outer, inner, join operator) combination to an
    archive, in that nesting order. Returns the net size change.

    Semantically identical to calling ``archive.insert(plan, alpha)``
    once per combination. Each combination is priced with
    ``CostModel.join_cost`` and built only once ``Archive.admit``
    admits it.
    """
    # checked here as well, so that an empty product rejects it too
    if not alpha >= 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    plans = archive.entries
    before = len(plans)
    admit = archive.admit
    join_cost = model.join_cost
    fmts = model.join_fmts
    for o in outs:
        obits, ocost, oc = o.rel, o.cost, o.out_card
        for i in ins:
            ibits, icost, ic = i.rel, i.cost, i.out_card
            for op, fmt in enumerate(fmts):
                # join prices through join_cost, so the plan's cost is
                # this cost bit for bit
                if admit(fmt, join_cost(obits, ocost, oc, ibits, icost, ic, op)[0], alpha):
                    plans.append(model.join(o, i, op))
    return len(plans) - before


def approximate_frontiers(
    model: CostModel, plan: Plan, cache: PlanCache, iteration: int
) -> None:
    """Refine cached frontiers along one climbed plan.

    Walks the plan post-order. Every leaf offers all scan operators for
    its table; every join crosses the cached frontiers of its input table
    sets (including entries from earlier iterations and other join
    orders) with all join operators. Offers prune at the iteration's
    precision factor, floored at 1 once the schedule drops below it.
    """
    alpha = max(1.0, alpha_schedule(iteration))
    _approximate_rec(model, plan, cache, alpha)


def _approximate_rec(
    model: CostModel, plan: Plan, cache: PlanCache, alpha: float
) -> None:
    if not plan.is_join:
        for op in range(len(model.catalog.scan_ops)):
            cache.offer(plan.rel, model.leaf(plan.table, op), alpha)
        return
    _approximate_rec(model, plan.outer, cache, alpha)
    _approximate_rec(model, plan.inner, cache, alpha)
    # every combination of the cached frontiers of the two input table
    # sets goes to the frontier of the plan's table set
    offer_join_combinations(
        model,
        cache.frontier(plan.rel),
        cache.frontier(plan.outer.rel),
        cache.frontier(plan.inner.rel),
        alpha,
    )


@dataclass(frozen=True)
class Budget:
    """Search budget: an iteration cap or a wall-clock deadline, not both."""

    max_iterations: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if (self.max_iterations is None) == (self.deadline_s is None):
            raise ValueError("budget needs exactly one of max_iterations and deadline_s")
        if self.deadline_s is None:
            check_int("max_iterations", self.max_iterations, 0)
        # written as not-(0 <= x < inf) so that nan fails too
        elif not 0 <= self.deadline_s < math.inf:
            raise ValueError("deadline must be finite and >= 0")

    def exhausted(self, iterations_done: int, elapsed_s: float) -> bool:
        if self.deadline_s is None:
            return iterations_done >= self.max_iterations
        return elapsed_s >= self.deadline_s


ProgressSink = Callable[[float, list], None]


def anytime(
    budget: Budget,
    step: Callable[[int], bool | None],
    archive: Archive,
    progress_sink: ProgressSink | None,
) -> None:
    """The loop every anytime search runs: call ``step`` with iteration
    counts 1, 2, ... until the budget is exhausted or a step returns True.

    After every step the progress sink, if given, sees the elapsed time
    and the entries of ``archive``, the archive the search returns.
    """
    start = time.perf_counter()
    iteration = 0
    while not budget.exhausted(iteration, time.perf_counter() - start):
        iteration += 1
        stop = step(iteration)
        if progress_sink is not None:
            progress_sink(time.perf_counter() - start, archive.entries)
        if stop:
            break


def rmq_optimize(
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    progress_sink: ProgressSink | None = None,
) -> Archive:
    """Randomized multi-objective optimization of the model's query.

    Repeats random plan generation, Pareto climbing and frontier
    approximation until the budget runs out, then returns the plan
    cache's frontier archive of the full table set. The progress sink,
    if given, sees that archive's live entries after every iteration and
    must only snapshot cost vectors.
    """
    rng = random.Random(seed)
    cache = PlanCache()
    archive = cache.frontier(model.full_set)

    def step(iteration: int) -> None:
        climbed = pareto_climb(model, random_plan(model, rng)).plan
        approximate_frontiers(model, climbed, cache, iteration)

    anytime(budget, step, archive, progress_sink)
    return archive
