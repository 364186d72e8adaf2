"""Randomized multi-objective plan search.

One iteration draws a uniformly random bushy plan, hill-climbs it with
simultaneous sub-tree mutations until no neighbor strictly dominates,
then feeds the climbed plan's intermediate results through a shared plan
cache that approximates one Pareto frontier per table set. The cache's
precision factor tightens with the iteration count, so early iterations
keep the cache tiny while later ones refine it toward exact frontiers.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import (
    Archive,
    Plan,
    any_within,
    check_int,
    drop_dominated,
    strictly_dominates,
)
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
    """All single transformations applicable at the plan's root, built.

    The plan itself comes first, so that downstream pruning can retain an
    unmutated but sub-tree-improved plan. A leaf is followed by its other
    scan operators, a join by its ``root_moves`` in their order.
    """
    if not plan.is_join:
        out = [plan]
        for op in range(len(model.catalog.scan_ops)):
            if op != plan.scan_op:
                out.append(model.leaf(plan.table, op))
        return out
    moves = root_moves(model, plan.outer, plan.inner, plan.join_op)
    return [plan] + [build_move(model, move) for move in moves]


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
    # at most two output formats exist; two slots in first-appearance
    # order avoid a dict in the innermost loop. Slots hold (fmt, cost,
    # plan or move); only the winning moves get built
    first = None
    second = None
    for cand in _priced_candidates(model, plan, memo):
        fmt, cost, _ = cand
        if first is None:
            first = cand
        elif fmt is first[0]:
            if strictly_dominates(cost, first[1]):
                first = cand
        elif second is None:
            second = cand
        elif strictly_dominates(cost, second[1]):
            second = cand
    result = [
        slot[2] if slot[2].__class__ is Plan else build_move(model, slot[2])
        for slot in (first, second)
        if slot is not None
    ]
    memo[plan] = result
    return result


def _priced_candidates(model: CostModel, plan: Plan, memo: dict) -> list:
    """(fmt, cost, plan or move) for every candidate of one step at this
    node, in ``mutations`` order: per reassembled root, its identity,
    then its ``root_moves``. Only leaves and the unchanged root are
    plans; everything else is priced without building a node."""
    if not plan.is_join:
        return [(cand.fmt, cand.cost, cand) for cand in mutations(model, plan)]
    join_cost = model.join_cost
    fmts = [op.fmt for op in model.catalog.join_ops]
    outer = plan.outer
    inner = plan.inner
    root_op = plan.join_op
    outs = pareto_step(model, outer, memo)
    ins = pareto_step(model, inner, memo)
    out = []
    for o in outs:
        for i in ins:
            moves = root_moves(model, o, i, root_op)
            if o is outer and i is inner:
                out.append((fmts[root_op], plan.cost, plan))
            else:
                moves.insert(0, (o, i, root_op))
            # each move is priced in the order build_move builds it, so
            # its cost equals the built plan's bit for bit
            for move in moves:
                a, b, op = move
                if a.__class__ is tuple:
                    x, y, sub_op = a
                    acost, acard = join_cost(
                        x.rel, x.cost, x.out_card, y.rel, y.cost, y.out_card, sub_op
                    )
                    abits = x.rel | y.rel
                else:
                    abits, acost, acard = a.rel, a.cost, a.out_card
                if b.__class__ is tuple:
                    x, y, sub_op = b
                    bcost, bcard = join_cost(
                        x.rel, x.cost, x.out_card, y.rel, y.cost, y.out_card, sub_op
                    )
                    bbits = x.rel | y.rel
                else:
                    bbits, bcost, bcard = b.rel, b.cost, b.out_card
                cost = join_cost(abits, acost, acard, bbits, bcost, bcard, op)[0]
                out.append((fmts[op], cost, move))
    return out


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


def prune_approx(plans: list, new_plan: Plan, alpha: float) -> list:
    """Approximate-frontier insertion: reject the newcomer if an existing
    same-format plan alpha-approximately dominates it; otherwise drop
    every same-format plan the newcomer weakly dominates and append it.
    Mutates and returns the list."""
    if not alpha >= 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    fmt = new_plan.fmt
    cost = new_plan.cost
    if not any_within(plans, fmt, [alpha * c for c in cost]):
        drop_dominated(plans, fmt, cost)
        plans.append(new_plan)
    return plans


class PlanCache:
    """Frontier lists keyed by table set bit mask, shared across iterations.

    Entries are never evicted; precision only enters through the alpha
    used at insertion time.
    """

    __slots__ = ("_lists",)

    def __init__(self) -> None:
        self._lists: dict = {}

    def frontier(self, rel: int) -> list:
        lst = self._lists.get(rel)
        if lst is None:
            lst = []
            self._lists[rel] = lst
        return lst

    def offer(self, rel: int, plan: Plan, alpha: float) -> None:
        prune_approx(self.frontier(rel), plan, alpha)

    def stats(self) -> dict:
        sizes = [len(lst) for lst in self._lists.values()]
        return {
            "keys": len(sizes),
            "plans": sum(sizes),
            "max_list": max(sizes, default=0),
        }


def offer_join_combinations(
    model: CostModel,
    plans: list,
    outs: list,
    ins: list,
    alpha: float,
) -> int:
    """Offer every (outer, inner, join operator) combination to a pruned
    list, in that nesting order. Returns the net length change.

    Semantically identical to calling prune_approx once per combination.
    Each combination is priced with ``CostModel.join_cost`` and built only
    once admitted.
    """
    if not alpha >= 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    before = len(plans)
    join_cost = model.join_cost
    fmts = [op.fmt for op in model.catalog.join_ops]
    for o in outs:
        obits, ocost, oc = o.rel, o.cost, o.out_card
        for i in ins:
            ibits, icost, ic = i.rel, i.cost, i.out_card
            for op, fmt in enumerate(fmts):
                cost = join_cost(obits, ocost, oc, ibits, icost, ic, op)[0]
                if any_within(plans, fmt, [alpha * c for c in cost]):
                    continue
                # join prices through join_cost, so the plan's cost is
                # this cost bit for bit
                drop_dominated(plans, fmt, cost)
                plans.append(model.join(o, i, op))
    return len(plans) - before


def approximate_frontiers(
    model: CostModel, plan: Plan, cache: PlanCache, iteration: int
) -> PlanCache:
    """Refine cached frontiers along one climbed plan.

    Walks the plan post-order. Every leaf offers all scan operators for
    its table; every join crosses the cached frontiers of its input table
    sets (including entries from earlier iterations and other join
    orders) with all join operators. Offers prune at the iteration's
    precision factor, floored at 1 once the schedule drops below it.
    """
    alpha = max(1.0, alpha_schedule(iteration))
    _approximate_rec(model, plan, cache, alpha)
    return cache


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
    """Search budget: a wall-clock deadline, an iteration cap, or both."""

    max_iterations: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations is None and self.deadline_s in (None, math.inf):
            raise ValueError("budget needs an iteration cap or a finite deadline")
        if self.max_iterations is not None:
            check_int("max_iterations", self.max_iterations, 0)
        # written as not-(x >= 0) so that nan fails too
        if self.deadline_s is not None and not self.deadline_s >= 0:
            raise ValueError("deadline must be >= 0")

    def exhausted(self, iterations_done: int, elapsed_s: float) -> bool:
        if self.max_iterations is not None and iterations_done >= self.max_iterations:
            return True
        if self.deadline_s is not None and elapsed_s >= self.deadline_s:
            return True
        return False


ProgressSink = Callable[[float, list], None]


def anytime(
    budget: Budget,
    step: Callable[[int], bool | None],
    frontier: Callable[[], list],
    progress_sink: ProgressSink | None,
) -> None:
    """The loop every anytime search runs: call ``step`` with iteration
    counts 1, 2, ... until the budget is exhausted or a step returns True.

    After every step the progress sink, if given, sees the elapsed time
    and the current ``frontier()``.
    """
    start = time.perf_counter()
    iteration = 0
    while not budget.exhausted(iteration, time.perf_counter() - start):
        iteration += 1
        stop = step(iteration)
        if progress_sink is not None:
            progress_sink(time.perf_counter() - start, frontier())
        if stop:
            break


def rmq_optimize(
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    progress_sink: ProgressSink | None = None,
    cache: PlanCache | None = None,
) -> Archive:
    """Randomized multi-objective optimization of the model's query.

    Repeats random plan generation, Pareto climbing and frontier
    approximation until the budget runs out, then reports the cached
    frontier of the full table set as a strictly pruned archive. The
    progress sink, if given, sees the live full-set frontier after every
    iteration and must only snapshot cost vectors.
    """
    rng = random.Random(seed)
    if cache is None:
        cache = PlanCache()
    full = model.full_set

    def step(iteration: int) -> None:
        climbed = pareto_climb(model, random_plan(model, rng)).plan
        approximate_frontiers(model, climbed, cache, iteration)

    anytime(budget, step, lambda: cache.frontier(full), progress_sink)
    archive = Archive()
    for plan in cache.frontier(full):
        archive.insert(plan)
    return archive
