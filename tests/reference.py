"""Plain reference spellings that the tests compare the package against.

The package computes these rules in fused or hand-inlined forms (the
admission rule in ``core.Archive.admit``, the join formula in
``CostModel.join_cost``, the nested-list shapes of
``optimizer.random_plan``, the root transformations that the climb and
annealing build one move at a time, the output cardinality that
``CostModel.join_cost`` multiplies up join by join); the spellings here
state each rule once, directly, so bit-exact and differential tests can
check the fast forms against them. Nothing in ``moqo`` calls them. The
random trees and splices at the end are shared by the monotonicity
property tests.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from moqo.core import CostVector, Plan
from moqo.costmodel import CostModel, JoinOp, QueryInstance
from moqo.optimizer import build_move, mutations, root_moves


def _check_lengths(c1: CostVector, c2: CostVector) -> None:
    if len(c1) != len(c2):
        raise ValueError(f"cost vector length mismatch: {len(c1)} vs {len(c2)}")


def weakly_dominates(c1: CostVector, c2: CostVector) -> bool:
    """True iff c1[k] <= c2[k] for every metric k. Reflexive."""
    _check_lengths(c1, c2)
    for a, b in zip(c1, c2):
        if a > b:
            return False
    return True


def approx_dominates(c1: CostVector, c2: CostVector, alpha: float) -> bool:
    """True iff c1[k] <= alpha * c2[k] for every metric k.

    alpha = 1 reduces to weak dominance; larger alpha relaxes the
    comparison. Values below 1 and nan are rejected.
    """
    # not (alpha >= 1) rather than alpha < 1, so that nan fails too
    if not alpha >= 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    _check_lengths(c1, c2)
    for a, b in zip(c1, c2):
        if a > alpha * b:
            return False
    return True


def insert(entries: list, plan: Plan, alpha: float = 1.0) -> bool:
    """The admission rule, one dominance call per comparison: ``plan``
    is rejected when an entry of its format alpha-dominates it, else it
    evicts each entry of its format that it weakly dominates and is
    appended. Returns whether ``plan`` was admitted."""
    for old in entries:
        if old.fmt is plan.fmt and approx_dominates(old.cost, plan.cost, alpha):
            return False
    entries[:] = [
        old
        for old in entries
        if not (old.fmt is plan.fmt and weakly_dominates(plan.cost, old.cost))
    ]
    entries.append(plan)
    return True


def cardinality(query: QueryInstance, tables: int) -> float:
    """Expected output rows of joining exactly the tables of a bit mask.

    Product of member cardinalities, in table order, times the
    selectivity of every edge with both endpoints inside the set.
    Join-order independent.
    """
    if not 0 < tables < 1 << query.n:
        raise ValueError(f"table mask {tables:#x} is empty or outside the query")
    card = 1.0
    for t in range(tables.bit_length()):
        if tables >> t & 1:
            card *= query.cards[t]
    for a, b, sel in query.edges:
        if tables >> a & 1 and tables >> b & 1:
            card *= sel
    return card


def plan_nodes(plan: Plan) -> Iterator[Plan]:
    """Yield all nodes of the tree, root first."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        if node.outer is not None:
            stack.append(node.outer)
            stack.append(node.inner)


def _join_local3(op: JoinOp, out_o: float, out_i: float, out: float) -> tuple:
    """Local (time, buffer, disc) cost of one join node, unfloored."""
    if op.kind == "nested_loop":
        return (out_o * out_i * op.loop_factor + out, 2.0, 0.0)
    if op.kind == "hash":
        return (out_o + out_i + out, out_o, 0.0)
    # sort_merge
    time = out_o * math.log2(1.0 + out_o) + out_i * math.log2(1.0 + out_i) + out
    return (time, op.buffer_pages, out_o + out_i)


def _projected(model: CostModel, local3: tuple) -> CostVector:
    """A local (time, buffer, disc) cost in the model's metrics, each
    floored at 1."""
    return tuple([local3[k] if local3[k] > 1.0 else 1.0 for k in model.metrics])


def join_local_cost(
    model: CostModel, join_op: int, out_o: float, out_i: float, out: float
) -> CostVector:
    """A join node's local cost in the model's metrics, each floored at 1."""
    return _projected(model, _join_local3(model.catalog.join_ops[join_op], out_o, out_i, out))


def scan_local_cost(model: CostModel, scan_op: int, card: float) -> CostVector:
    """A scan node's local cost in the model's metrics, each floored at 1."""
    op = model.catalog.scan_ops[scan_op]
    return _projected(model, (op.time_per_row * card, op.buffer, op.disc))


def plan_cost(model: CostModel, plan: Plan) -> CostVector:
    """Recompute a plan's total cost from scratch.

    Mirrors the construction-time evaluation order, so the result is
    bit-identical to the cached ``plan.cost``.
    """
    if not plan.is_join:
        return scan_local_cost(model, plan.scan_op, float(model.query.cards[plan.table]))
    outer_cost = plan_cost(model, plan.outer)
    inner_cost = plan_cost(model, plan.inner)
    out = (
        plan.outer.out_card
        * plan.inner.out_card
        * model.cross_selectivity(plan.outer.rel, plan.inner.rel)
    )
    local = join_local_cost(
        model, plan.join_op, plan.outer.out_card, plan.inner.out_card, out
    )
    return tuple(l + a + b for l, a, b in zip(local, outer_cost, inner_cost))


def root_mutations(model: CostModel, plan: Plan) -> list:
    """All single transformations applicable at the plan's root, built.

    The plan itself comes first, so that pruning can retain an unmutated
    but sub-tree-improved plan. A leaf is followed by its other scan
    operators, a join by its ``root_moves`` in their order.
    """
    if not plan.is_join:
        return mutations(model, plan)
    moves = root_moves(model, plan.outer, plan.inner, plan.join_op)
    return [plan] + [build_move(model, move) for move in moves]


class _ShapeNode:
    __slots__ = ("left", "right", "parent")

    def __init__(self) -> None:
        self.left: _ShapeNode | None = None
        self.right: _ShapeNode | None = None
        self.parent: _ShapeNode | None = None


def _linked_shape(n: int, rng: random.Random) -> _ShapeNode:
    """Grow a shape one leaf at a time: each step grafts a fresh leaf
    onto a uniformly chosen node and side, relinking parents explicitly."""
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


def linked_random_plan(model: CostModel, rng: random.Random) -> Plan:
    """``optimizer.random_plan`` over a parent-linked shape: the same
    draws in the same order, so the same plan for the same rng state."""
    n = model.query.n
    shape = _linked_shape(n, rng)
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


def _random_tree(model: CostModel, tables: list, rng: random.Random) -> Plan:
    if len(tables) == 1:
        return model.leaf(tables[0], rng.randrange(len(model.catalog.scan_ops)))
    cut = rng.randint(1, len(tables) - 1)
    shuffled = list(tables)
    rng.shuffle(shuffled)
    outer = _random_tree(model, shuffled[:cut], rng)
    inner = _random_tree(model, shuffled[cut:], rng)
    return model.join(outer, inner, rng.randrange(len(model.catalog.join_ops)))


def _splice(model: CostModel, plan: Plan, target: Plan, replacement: Plan) -> Plan:
    if plan is target:
        return replacement
    if not plan.is_join:
        return plan
    outer = _splice(model, plan.outer, target, replacement)
    inner = _splice(model, plan.inner, target, replacement)
    if outer is plan.outer and inner is plan.inner:
        return plan
    return model.join(outer, inner, plan.join_op)


def _dominates_within(c1: CostVector, c2: CostVector, rel: float = 1e-9) -> bool:
    # output cardinalities of one table set differ across tree shapes by
    # float association noise, so allow a relative slack
    return all(a <= b + rel * abs(b) for a, b in zip(c1, c2))
