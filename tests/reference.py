"""Plain reference spellings that the tests compare the package against.

The package computes these rules in fused or hand-inlined forms (the
admission scan in ``core.any_within`` and ``core.drop_dominated``, the
join formula in ``CostModel.join_cost``, the nested-list shapes of
``optimizer.random_plan``); the spellings here state each rule once,
directly, so bit-exact and differential tests can check the fast forms
against them. Nothing in ``moqo`` calls them.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from moqo.core import CostVector, Plan
from moqo.costmodel import CostModel, JoinOp


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


def join_local_cost(
    model: CostModel, join_op: int, out_o: float, out_i: float, out: float
) -> CostVector:
    """A join node's local cost in the model's metrics, each floored at 1."""
    local3 = _join_local3(model.catalog.join_ops[join_op], out_o, out_i, out)
    return tuple([local3[k] if local3[k] > 1.0 else 1.0 for k in model.metrics])


def plan_cost(model: CostModel, plan: Plan) -> CostVector:
    """Recompute a plan's total cost from scratch.

    Mirrors the construction-time evaluation order, so the result is
    bit-identical to the cached ``plan.cost``.
    """
    if not plan.is_join:
        return model.scan_local_cost(plan.scan_op, float(model.query.cards[plan.table]))
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
