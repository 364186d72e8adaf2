"""Core value types for multi-objective plan optimization.

Table sets are fixed-width bit masks, cost vectors are plain float tuples,
plans are immutable binary trees with cached costs, and archives maintain
mutually non-dominated plan sets per output format.
"""

from __future__ import annotations

import enum
from operator import gt
from typing import Iterator, Sequence

MAX_TABLES = 128

# Cost vectors are tuples of finite non-negative 64-bit floats, one entry per
# active cost metric. Comparisons are exact, no epsilon tolerance.
CostVector = tuple


class OutputFormat(enum.Enum):
    """Data representation a plan produces; plans are cost-compared only
    when their formats match."""

    PIPELINED = "pipelined"
    MATERIALIZED = "materialized"


class TableSet:
    """Immutable set of table indices packed into a 128-bit mask.

    Hand-rolled rather than a frozen dataclass: instances are created in
    the optimizer's innermost loops and attribute writes after
    construction are forbidden by convention.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int) -> None:
        self.bits = bits

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TableSet) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    @classmethod
    def singleton(cls, table: int) -> TableSet:
        if not 0 <= table < MAX_TABLES:
            raise ValueError(f"table index {table} outside [0, {MAX_TABLES})")
        return cls(1 << table)

    @classmethod
    def of(cls, tables: Sequence[int]) -> TableSet:
        bits = 0
        for t in tables:
            if not 0 <= t < MAX_TABLES:
                raise ValueError(f"table index {t} outside [0, {MAX_TABLES})")
            bits |= 1 << t
        return cls(bits)

    @classmethod
    def range_of(cls, n: int) -> TableSet:
        """All tables 0..n-1."""
        if not 0 <= n <= MAX_TABLES:
            raise ValueError(f"table count {n} outside [0, {MAX_TABLES}]")
        return cls((1 << n) - 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, table: int) -> bool:
        return (self.bits >> table) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __repr__(self) -> str:
        return f"TableSet({{{','.join(map(str, self))}}})"


def _check_lengths(c1: CostVector, c2: CostVector) -> None:
    if len(c1) != len(c2):
        raise ValueError(f"cost vector length mismatch: {len(c1)} vs {len(c2)}")


def weakly_dominates(c1: CostVector, c2: CostVector) -> bool:
    """True iff c1[k] <= c2[k] for every metric k. Reflexive."""
    if len(c1) != len(c2):
        _check_lengths(c1, c2)
    for a, b in zip(c1, c2):
        if a > b:
            return False
    return True


def strictly_dominates(c1: CostVector, c2: CostVector) -> bool:
    """True iff c1 weakly dominates c2 and the vectors differ somewhere."""
    if len(c1) != len(c2):
        _check_lengths(c1, c2)
    strict = False
    for a, b in zip(c1, c2):
        if a > b:
            return False
        if a < b:
            strict = True
    return strict


def approx_dominates(c1: CostVector, c2: CostVector, alpha: float) -> bool:
    """True iff c1[k] <= alpha * c2[k] for every metric k.

    alpha = 1 reduces to weak dominance; larger alpha relaxes the
    comparison. Values below 1 are rejected.
    """
    if alpha < 1.0:
        raise ValueError(f"approximation factor must be >= 1, got {alpha}")
    if len(c1) != len(c2):
        _check_lengths(c1, c2)
    for a, b in zip(c1, c2):
        if a > alpha * b:
            return False
    return True


def any_within(entries: list, fmt: OutputFormat, limit: Sequence) -> bool:
    """True iff some entry of format ``fmt`` costs at most ``limit`` in
    every metric, i.e. ``weakly_dominates(entry.cost, limit)``: one scan
    of the list instead of one call per entry.

    Pass the newcomer's cost for weak dominance, or ``alpha * c`` per
    metric ``c`` for ``approx_dominates(entry.cost, cost, alpha)``, which
    computes that same product. Raises ``ValueError`` on a same-format
    entry of another length.
    """
    # every test is a > b, never a <= b, so a nan never blocks dominance,
    # exactly as in weakly_dominates
    n = len(limit)
    if n == 3:
        # all three metrics, the default: unrolled, and the unpacking
        # raises ValueError on a length mismatch
        l0, l1, l2 = limit
        for old in entries:
            if old.fmt is fmt:
                a, b, c = old.cost
                if not (a > l0 or b > l1 or c > l2):
                    return True
        return False
    for old in entries:
        if old.fmt is fmt:
            cost = old.cost
            if len(cost) != n:
                _check_lengths(cost, limit)
            if not any(map(gt, cost, limit)):
                return True
    return False


def drop_dominated(entries: list, fmt: OutputFormat, cost: CostVector) -> None:
    """Remove from the list, in place, every entry of format ``fmt`` that
    ``cost`` weakly dominates; the rest keep their order. Raises
    ``ValueError`` on a same-format entry of another length."""
    n = len(cost)
    doomed = []
    if n == 3:
        # unrolled as in any_within
        c0, c1, c2 = cost
        for old in entries:
            if old.fmt is fmt:
                a, b, c = old.cost
                if not (c0 > a or c1 > b or c2 > c):
                    doomed.append(old)
    else:
        for old in entries:
            if old.fmt is fmt:
                other = old.cost
                if len(other) != n:
                    _check_lengths(cost, other)
                if not any(map(gt, cost, other)):
                    doomed.append(old)
    if doomed:
        entries[:] = [old for old in entries if old not in doomed]


class Plan:
    """Immutable binary plan tree node with cached derived values.

    A leaf scans one table with a scan operator; an internal node joins the
    outputs of two disjoint sub-plans. ``cost``, ``out_card`` and ``fmt``
    are fixed at construction, so nodes are safe to share between plans.
    Identity is object identity; equal-cost distinct trees stay distinct.
    """

    __slots__ = (
        "rel", "cost", "out_card", "fmt", "table", "scan_op",
        "outer", "inner", "join_op",
    )

    def __init__(
        self,
        rel: TableSet,
        cost: CostVector,
        out_card: float,
        fmt: OutputFormat,
        table: int = -1,
        scan_op: int = -1,
        outer: Plan | None = None,
        inner: Plan | None = None,
        join_op: int = -1,
    ) -> None:
        if outer is not None:
            if inner is None:
                raise ValueError("join needs both an outer and an inner input")
            ob, ib = outer.rel.bits, inner.rel.bits
            if ob & ib:
                raise ValueError("join inputs must cover disjoint table sets")
            if ob | ib != rel.bits:
                raise ValueError("join rel must be the union of its input rels")
        elif table < 0 or rel.bits != 1 << table:
            raise ValueError("leaf rel must be the single scanned table")
        self.rel = rel
        self.cost = cost
        self.out_card = out_card
        self.fmt = fmt
        self.table = table
        self.scan_op = scan_op
        self.outer = outer
        self.inner = inner
        self.join_op = join_op

    @property
    def is_join(self) -> bool:
        return self.outer is not None

    def nodes(self) -> Iterator[Plan]:
        """Yield all nodes of the tree, root first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.outer is not None:
                stack.append(node.outer)
                assert node.inner is not None
                stack.append(node.inner)

    def __repr__(self) -> str:
        if not self.is_join:
            return f"t{self.table}/s{self.scan_op}"
        return f"({self.outer!r} >< {self.inner!r})/j{self.join_op}"


class Archive:
    """Set of plans that are mutually non-dominated within each format.

    Insertion rejects any plan weakly dominated by a stored plan of the
    same format, so on exact cost ties the earlier plan wins. Accepted
    plans evict every same-format entry they weakly dominate.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[Plan] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Plan]:
        return iter(self.entries)

    def insert(self, plan: Plan) -> bool:
        """Offer a plan; returns True iff it was added."""
        cost = plan.cost
        fmt = plan.fmt
        if any_within(self.entries, fmt, cost):
            return False
        drop_dominated(self.entries, fmt, cost)
        self.entries.append(plan)
        return True

    def costs(self) -> list[CostVector]:
        return [p.cost for p in self.entries]
