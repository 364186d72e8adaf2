"""Synthetic query instances and a multi-metric plan cost model.

A query instance fixes table cardinalities and pairwise join selectivities
over one of three join-graph topologies. The cost model prices plan trees
on up to three metrics (execution time, buffer space, disc space) with
per-node formulas that depend only on input and output cardinalities, so
total plan cost is the sum of node-local costs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .core import MAX_TABLES, CostVector, OutputFormat, Plan

N_METRICS = 3
# CostModel's selectivity memo cap; 8 tables have 6,050 ordered disjoint pairs
_CROSS_SEL_ENTRIES = 8192
# join kind -> the JoinOp field its catalog token's coefficient sets
JOIN_KINDS = {"nested_loop": "loop_factor", "hash": None, "sort_merge": "buffer_pages"}


class Topology(enum.Enum):
    CHAIN = "chain"
    CYCLE = "cycle"
    STAR = "star"


@dataclass(frozen=True)
class QueryInstance:
    """A join query: table cardinalities plus selectivity-weighted edges.

    Tables absent from a common edge combine as a cross product with
    selectivity 1. ``topology`` must describe the edge set exactly.
    """

    n: int
    cards: tuple
    edges: tuple
    topology: Topology

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_TABLES:
            raise ValueError(f"table count {self.n} outside [1, {MAX_TABLES}]")
        if len(self.cards) != self.n:
            raise ValueError("need one cardinality per table")
        if any(c < 1 for c in self.cards):
            raise ValueError("table cardinalities must be >= 1")
        seen = set()
        for a, b, sel in self.edges:
            if a == b or not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"bad edge endpoints ({a}, {b})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            if not 0.0 < sel <= 1.0:
                raise ValueError(f"selectivity {sel} outside (0, 1]")
        expected = topology_edges(self.topology, self.n)
        if seen != {(min(a, b), max(a, b)) for a, b in expected}:
            raise ValueError(
                f"edge set does not match {self.topology.value} over {self.n} tables"
            )


def topology_edges(topology: Topology, n: int) -> list:
    """The table pairs of a topology over n tables, in the order query
    generation draws their selectivities; a cycle closes with (n-1, 0)."""
    if topology is Topology.CHAIN:
        return [(i, i + 1) for i in range(n - 1)]
    if topology is Topology.CYCLE:
        if n < 3:
            raise ValueError("cycle topology needs at least 3 tables")
        return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    if topology is Topology.STAR:
        return [(0, i) for i in range(1, n)]
    raise ValueError(f"unknown topology {topology}")


@dataclass(frozen=True)
class ScanOp:
    """Table scan priced per row; ``time_per_row`` differentiates variants."""

    name: str
    time_per_row: float = 1.0
    buffer: float = 1.0
    disc: float = 0.0
    fmt: OutputFormat = OutputFormat.PIPELINED

    def __post_init__(self) -> None:
        _check_coefficients(self, ("time_per_row", "buffer", "disc"))


@dataclass(frozen=True)
class JoinOp:
    """Join implementation; ``kind`` selects the cost formula family."""

    name: str
    kind: str
    fmt: OutputFormat = OutputFormat.PIPELINED
    loop_factor: float = 1e-3
    buffer_pages: float = 64.0

    def __post_init__(self) -> None:
        if self.kind not in JOIN_KINDS:
            raise ValueError(f"unknown join kind {self.kind!r}")
        _check_coefficients(self, ("loop_factor", "buffer_pages"))


def _check_coefficients(op, names: tuple) -> None:
    for name in names:
        value = getattr(op, name)
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"{name} of operator {op.name!r} must be finite and >= 0, got {value}"
            )


@dataclass(frozen=True)
class OperatorCatalog:
    scan_ops: tuple
    join_ops: tuple

    def __post_init__(self) -> None:
        if not self.scan_ops or not self.join_ops:
            raise ValueError("catalog needs at least one scan and one join operator")


def default_catalog() -> OperatorCatalog:
    return OperatorCatalog(
        scan_ops=(
            ScanOp("seq_scan"),
            ScanOp("sample_scan", time_per_row=0.1),
        ),
        join_ops=(
            JoinOp("nested_loop", kind="nested_loop"),
            JoinOp("hash", kind="hash"),
            JoinOp("sort_merge", kind="sort_merge"),
        ),
    )


def materializing_catalog() -> OperatorCatalog:
    """Default catalog variant whose sort-merge join materializes its
    output; exercises mixed-format handling."""
    base = default_catalog()
    joins = tuple(
        JoinOp(op.name, kind=op.kind, fmt=OutputFormat.MATERIALIZED)
        if op.kind == "sort_merge"
        else op
        for op in base.join_ops
    )
    return OperatorCatalog(scan_ops=base.scan_ops, join_ops=joins)


class CostModel:
    """Binds a query, an operator catalog and an active metric subset.

    Builds plan nodes with their cached cost, output cardinality and
    format. Per-node local costs are floored at 1 in every active metric,
    and a node's total cost is local plus both children's totals.

    ``join_cost`` memoizes ``cross_selectivity`` per ordered pair of table
    sets. A miss that finds ``_CROSS_SEL_ENTRIES`` entries clears the memo
    first, so memory stays bounded and a flushed pair is only recomputed.
    """

    def __init__(
        self,
        query: QueryInstance,
        catalog: OperatorCatalog | None = None,
        metrics: Sequence[int] = (0, 1, 2),
    ) -> None:
        self.query = query
        self.catalog = catalog if catalog is not None else default_catalog()
        metrics = tuple(metrics)
        if not metrics or len(set(metrics)) != len(metrics):
            raise ValueError("metrics must be a non-empty set of indices")
        if any(not 0 <= k < N_METRICS for k in metrics):
            raise ValueError(f"metric indices must lie in [0, {N_METRICS})")
        if list(metrics) != sorted(metrics):
            raise ValueError("metrics must be listed in ascending order")
        self.metrics = metrics
        self.full_set = (1 << query.n) - 1
        self._cross_sel: dict = {}
        self._leaves: dict = {}
        # flattened per-op records for the join fast path, which
        # dominates optimizer run time, and each join operator's format
        ops = self.catalog.join_ops
        self._join_specs = tuple((op.kind, op.loop_factor, op.buffer_pages) for op in ops)
        self.join_fmts = tuple(op.fmt for op in ops)
        self._all_three = metrics == (0, 1, 2)
        # per edge, in query order: endpoint bits and selectivity; per
        # table, the bit mask of the indices of the edges touching it
        self._edge_ends = tuple((1 << a) | (1 << b) for a, b, _ in query.edges)
        self._edge_sels = tuple(s for _, _, s in query.edges)
        incident = [0] * query.n
        for e, (a, b, _) in enumerate(query.edges):
            incident[a] |= 1 << e
            incident[b] |= 1 << e
        self._incident = tuple(incident)

    @property
    def n_metrics(self) -> int:
        return len(self.metrics)

    def scan_local_cost(self, scan_op: int, card: float) -> CostVector:
        op = self.catalog.scan_ops[scan_op]
        local3 = (op.time_per_row * card, op.buffer, op.disc)
        return tuple([local3[k] if local3[k] > 1.0 else 1.0 for k in self.metrics])

    def cross_selectivity(self, lbits: int, rbits: int) -> float:
        """Product of the selectivities of the edges crossing between two
        disjoint table sets, given as bit masks.

        Factors are multiplied in query edge order, so the result is
        bit-identical to a plain scan over ``query.edges``. Overlapping
        sets raise ``ValueError``. A pure function of the pair: it always
        computes and records nothing; ``join_cost`` keeps the memo.
        """
        if lbits & rbits:
            raise ValueError(
                f"cross selectivity needs disjoint table sets: {lbits:#x}, {rbits:#x}"
            )
        # an edge touching the smaller side crosses iff its other
        # endpoint lies in the other side
        if lbits.bit_count() <= rbits.bit_count():
            small, other = lbits, rbits
        else:
            small, other = rbits, lbits
        incident = self._incident
        touching = 0
        while small:
            low = small & -small
            touching |= incident[low.bit_length() - 1]
            small ^= low
        ends = self._edge_ends
        sels = self._edge_sels
        sel = 1.0
        while touching:
            low = touching & -touching
            e = low.bit_length() - 1
            if ends[e] & other:
                sel *= sels[e]
            touching ^= low
        return sel

    def leaf(self, table: int, scan_op: int) -> Plan:
        key = (table, scan_op)
        plan = self._leaves.get(key)
        if plan is None:
            if not 0 <= table < self.query.n:
                raise ValueError(f"table index {table} outside [0, {self.query.n})")
            ops = self.catalog.scan_ops
            if not 0 <= scan_op < len(ops):
                raise ValueError(f"scan operator {scan_op} outside [0, {len(ops)})")
            op = ops[scan_op]
            card = float(self.query.cards[table])
            plan = Plan(
                rel=1 << table,
                cost=self.scan_local_cost(scan_op, card),
                out_card=card,
                fmt=op.fmt,
                table=table,
                scan_op=scan_op,
            )
            self._leaves[key] = plan
        return plan

    def join_cost(
        self,
        obits: int,
        ocost: CostVector,
        oc: float,
        ibits: int,
        icost: CostVector,
        ic: float,
        join_op: int,
    ) -> tuple:
        """Total cost vector and output cardinality of joining two inputs,
        given by their table bits, total costs and output cardinalities,
        without building the node.

        Overlapping inputs raise ``ValueError``, as ``Plan`` does.
        """
        # The formula, inlined for speed: per operator kind the local
        # (time, buffer, disc) below, each floored at 1, then
        # (local + outer total) + inner total per metric. The tests hold
        # it bit for bit against a plain spelling in the same order
        # (test_plan_cost_is_bit_exact, test_plan_cost_projected_metrics,
        # test_costs_bit_exact_vs_scalar_join, TestClimbDifferential).
        # The floors spell max(1.0, x) as a conditional, which gives the
        # same float (ties and nan included) at a tenth of the cost.
        cs = self._cross_sel.get((obits, ibits))
        if cs is None:
            # overlapping sets are never memoized, so they land here and
            # raise; a full memo is cleared before the pair is recorded
            cs = self.cross_selectivity(obits, ibits)
            memo = self._cross_sel
            if len(memo) >= _CROSS_SEL_ENTRIES:
                memo.clear()
            memo[(obits, ibits)] = memo[(ibits, obits)] = cs
        out = oc * ic * cs
        kind, loop_factor, buffer_pages = self._join_specs[join_op]
        if kind == "nested_loop":
            t, b, d = oc * ic * loop_factor + out, 2.0, 0.0
        elif kind == "hash":
            t, b, d = oc + ic + out, oc, 0.0
        else:
            t = oc * math.log2(1.0 + oc) + ic * math.log2(1.0 + ic) + out
            b, d = buffer_pages, oc + ic
        t = t if t > 1.0 else 1.0
        b = b if b > 1.0 else 1.0
        d = d if d > 1.0 else 1.0
        if self._all_three:
            return (
                (t + ocost[0]) + icost[0],
                (b + ocost[1]) + icost[1],
                (d + ocost[2]) + icost[2],
            ), out
        # a proper subset of the three metrics holds one or two of them
        local3 = (t, b, d)
        k = self.metrics
        if len(k) == 2:
            return (
                (local3[k[0]] + ocost[0]) + icost[0],
                (local3[k[1]] + ocost[1]) + icost[1],
            ), out
        return ((local3[k[0]] + ocost[0]) + icost[0],), out

    def join(self, outer: Plan, inner: Plan, join_op: int) -> Plan:
        """Build the join node of two plans: ``join_cost`` plus the node."""
        obits = outer.rel
        ibits = inner.rel
        cost, out = self.join_cost(
            obits, outer.cost, outer.out_card, ibits, inner.cost, inner.out_card, join_op
        )
        return Plan(
            obits | ibits, cost, out, self.join_fmts[join_op], -1, -1, outer, inner, join_op
        )

