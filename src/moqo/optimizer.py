"""Randomized multi-objective plan search.

One iteration draws a uniformly random bushy plan, hill-climbs it with
simultaneous sub-tree mutations until no neighbor strictly dominates,
then feeds the climbed plan's intermediate results through a shared plan
cache that approximates one Pareto frontier per table set. The cache's
precision factor tightens with the iteration count, so early iterations
keep the cache tiny while later ones refine it toward exact frontiers.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Archive,
    Plan,
    TableSet,
    any_within,
    drop_dominated,
    strictly_dominates,
)
from .costmodel import CostModel

log = logging.getLogger(__name__)


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

    def build(node: _ShapeNode) -> Plan:
        if node.left is None:
            return model.leaf(next(next_table), rng.randrange(n_scan))
        outer = build(node.left)
        inner = build(node.right)
        return model.join(outer, inner, rng.randrange(n_join))

    return build(shape)


class _ShapeNode:
    __slots__ = ("left", "right", "parent")

    def __init__(self) -> None:
        self.left: _ShapeNode | None = None
        self.right: _ShapeNode | None = None
        self.parent: _ShapeNode | None = None


def _random_shape(n: int, rng: random.Random) -> _ShapeNode:
    root = _ShapeNode()
    nodes = [root]
    for _ in range(n - 1):
        pick = rng.randrange(2 * len(nodes))
        victim = nodes[pick >> 1]
        graft = _ShapeNode()
        leaf = _ShapeNode()
        parent = victim.parent
        if pick & 1:
            graft.left, graft.right = leaf, victim
        else:
            graft.left, graft.right = victim, leaf
        victim.parent = graft
        leaf.parent = graft
        graft.parent = parent
        if parent is None:
            root = graft
        elif parent.left is victim:
            parent.left = graft
        else:
            parent.right = graft
        nodes.append(graft)
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


def pareto_step(model: CostModel, plan: Plan) -> list:
    """One parallel improvement pass over the whole tree.

    Sub-plans are improved recursively; every pair of improved sub-plans
    is reassembled under the original root operator and all root
    mutations compete. Exactly one plan per output format is kept: a
    candidate replaces the incumbent of its format only by strictly
    dominating it, so the result never branches and the identity plan
    survives at a local optimum. Result order follows first appearance
    of each format.
    """
    return _pareto_step_memo(model, plan, {})


def _pareto_step_memo(model: CostModel, plan: Plan, memo: dict) -> list:
    # memo is keyed by node identity; subtrees shared between successive
    # climb adoptions reuse their step results unchanged
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
    outs = _pareto_step_memo(model, outer, memo)
    ins = _pareto_step_memo(model, inner, memo)
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
                    xbits = x.rel.bits
                    ybits = y.rel.bits
                    acost, acard = join_cost(
                        xbits, x.cost, x.out_card, ybits, y.cost, y.out_card, sub_op
                    )
                    abits = xbits | ybits
                else:
                    abits, acost, acard = a.rel.bits, a.cost, a.out_card
                if b.__class__ is tuple:
                    x, y, sub_op = b
                    xbits = x.rel.bits
                    ybits = y.rel.bits
                    bcost, bcard = join_cost(
                        xbits, x.cost, x.out_card, ybits, y.cost, y.out_card, sub_op
                    )
                    bbits = xbits | ybits
                else:
                    bbits, bcost, bcard = b.rel.bits, b.cost, b.out_card
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
        for cand in _pareto_step_memo(model, plan, memo):
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
    if alpha < 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    fmt = new_plan.fmt
    cost = new_plan.cost
    if not any_within(plans, fmt, [alpha * c for c in cost]):
        drop_dominated(plans, fmt, cost)
        plans.append(new_plan)
    return plans


class PlanCache:
    """Frontier lists keyed by table set, shared across iterations.

    Entries are never evicted; precision only enters through the alpha
    used at insertion time.
    """

    __slots__ = ("_lists", "_count")

    def __init__(self) -> None:
        self._lists: dict = {}
        self._count = 0

    def frontier(self, rel: TableSet) -> list:
        lst = self._lists.get(rel)
        if lst is None:
            lst = []
            self._lists[rel] = lst
        return lst

    def offer(self, rel: TableSet, plan: Plan, alpha: float) -> None:
        lst = self.frontier(rel)
        before = len(lst)
        prune_approx(lst, plan, alpha)
        self._count += len(lst) - before

    def offer_joins(self, model: CostModel, plan: Plan, alpha: float) -> None:
        """Offer every combination of the cached frontiers of a join
        plan's two input table sets to the frontier of its table set."""
        self._count += offer_join_combinations(
            model,
            self.frontier(plan.rel),
            self.frontier(plan.outer.rel),
            self.frontier(plan.inner.rel),
            alpha,
        )

    def stats(self) -> dict:
        sizes = [len(lst) for lst in self._lists.values()]
        return {
            "keys": len(sizes),
            "plans": self._count,
            "max_list": max(sizes, default=0),
        }


# Below this many candidate comparisons a plain Python offer loop beats
# the vectorized path's setup overhead.
_BATCH_THRESHOLD = 4096


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
    once admitted. Large blocks take a vectorized path that batches the
    rejection test against the pre-block list state; that is safe because
    removals only happen through weakly dominating newcomers, so any stale
    rejector is covered by a live one.
    """
    if alpha < 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    if not outs or not ins:
        return 0
    n_ops = len(model.catalog.join_ops)
    before = len(plans)
    if len(outs) * len(ins) * n_ops * max(1, len(plans)) < _BATCH_THRESHOLD:
        join_cost = model.join_cost
        fmts = [op.fmt for op in model.catalog.join_ops]
        for o in outs:
            obits, ocost, oc = o.rel.bits, o.cost, o.out_card
            for i in ins:
                ibits, icost, ic = i.rel.bits, i.cost, i.out_card
                for op in range(n_ops):
                    cost = join_cost(obits, ocost, oc, ibits, icost, ic, op)[0]
                    fmt = fmts[op]
                    if any_within(plans, fmt, [alpha * c for c in cost]):
                        continue
                    # join prices through join_cost, so the plan's cost
                    # is this cost bit for bit
                    drop_dominated(plans, fmt, cost)
                    plans.append(model.join(o, i, op))
        return len(plans) - before

    # candidate cost rows in (outer, inner, operator) order, each summed
    # exactly as CostModel.join sums it, so accepted plans carry the
    # same costs as their rows
    join_ops = model.catalog.join_ops
    join_local_cost = model.join_local_cost
    cs = model.cross_selectivity(outs[0].rel, ins[0].rel)
    rows = []
    for o in outs:
        oc = o.out_card
        ocost = o.cost
        for i in ins:
            ic = i.out_card
            icost = i.cost
            out = oc * ic * cs
            for op in range(n_ops):
                local = join_local_cost(op, oc, ic, out)
                rows.append(
                    tuple((l + a) + b for l, a, b in zip(local, ocost, icost))
                )
    flat = np.array(rows)
    n_metrics = model.n_metrics
    kb = len(ins)
    reject = np.zeros(len(flat), dtype=bool)
    snapshot: dict = {}
    for old in plans:
        snapshot.setdefault(old.fmt, []).append(old.cost)
    for op_idx, op in enumerate(join_ops):
        old_costs = snapshot.get(op.fmt)
        if not old_costs:
            continue
        old_arr = np.array(old_costs)
        cand = flat[op_idx::n_ops]
        limit = alpha * cand
        chunk = max(1, 4_000_000 // (len(old_arr) * n_metrics))
        rej = np.empty(len(cand), dtype=bool)
        for lo in range(0, len(cand), chunk):
            hi = min(lo + chunk, len(cand))
            rej[lo:hi] = (
                (old_arr[None, :, :] <= limit[lo:hi, None, :]).all(-1).any(-1)
            )
        reject[op_idx::n_ops] = rej

    accepted: list = []
    for flat_idx in np.flatnonzero(~reject):
        op_idx = flat_idx % n_ops
        pair = flat_idx // n_ops
        fmt = join_ops[op_idx].fmt
        if any_within(accepted, fmt, [alpha * c for c in rows[flat_idx]]):
            continue
        plan = model.join(outs[pair // kb], ins[pair % kb], op_idx)
        drop_dominated(plans, fmt, plan.cost)
        plans.append(plan)
        accepted.append(plan)
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
    if iteration < 1:
        raise ValueError(f"iteration counter must be >= 1, got {iteration}")
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
    cache.offer_joins(model, plan, alpha)


@dataclass(frozen=True)
class Budget:
    """Search budget: a wall-clock deadline, an iteration cap, or both."""

    max_iterations: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations is None and self.deadline_s is None:
            raise ValueError("budget needs an iteration cap or a deadline")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("iteration cap must be >= 0")
        if self.deadline_s is not None and self.deadline_s < 0:
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
) -> int:
    """The loop every anytime search runs: call ``step`` with iteration
    counts 1, 2, ... until the budget is exhausted or a step returns True.

    After every step the progress sink, if given, sees the elapsed time
    and the current ``frontier()``. Returns the number of steps run.
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
    return iteration


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

    iterations = anytime(budget, step, lambda: cache.frontier(full), progress_sink)
    log.debug("cache after %d iterations: %s", iterations, cache.stats())
    archive = Archive()
    for plan in cache.frontier(full):
        archive.insert(plan)
    return archive
