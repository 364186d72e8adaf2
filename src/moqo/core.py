"""Core value types for multi-objective plan optimization.

Table sets are plain int bit masks with bit ``t`` set for table ``t``
(no class of their own), cost vectors are plain float tuples, plans are
immutable binary trees with cached costs, and archives maintain mutually
non-dominated plan sets per output format.
"""

from __future__ import annotations

import enum
from operator import gt
from typing import Iterator

# largest table count a query may have
MAX_TABLES = 128

# Cost vectors are tuples of finite non-negative 64-bit floats, one entry per
# active cost metric. Comparisons are exact, no epsilon tolerance.
CostVector = tuple


class OutputFormat(enum.Enum):
    """Data representation a plan produces; plans are cost-compared only
    when their formats match."""

    PIPELINED = "pipelined"
    MATERIALIZED = "materialized"


def _check_lengths(c1: CostVector, c2: CostVector) -> None:
    if len(c1) != len(c2):
        raise ValueError(f"cost vector length mismatch: {len(c1)} vs {len(c2)}")


def check_int(name: str, value, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (not a bool) >= ``low``."""
    if not (type(value) is int and value >= low):
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


def strictly_dominates(c1: CostVector, c2: CostVector) -> bool:
    """True iff c1[k] <= c2[k] for every metric k, with c1[k] < c2[k]
    for at least one."""
    if len(c1) != len(c2):
        _check_lengths(c1, c2)
    strict = False
    for a, b in zip(c1, c2):
        if a > b:
            return False
        if a < b:
            strict = True
    return strict


class Plan:
    """Immutable binary plan tree node with cached derived values.

    A leaf scans one table with a scan operator; an internal node joins the
    outputs of two disjoint sub-plans. ``rel`` is the int mask of the
    tables the node covers. ``cost``, ``out_card`` and ``fmt``
    are fixed at construction, so nodes are safe to share between plans.
    Identity is object identity; equal-cost distinct trees stay distinct.
    """

    __slots__ = (
        "rel", "cost", "out_card", "fmt", "table", "scan_op",
        "outer", "inner", "join_op",
    )

    def __init__(
        self,
        rel: int,
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
            ob, ib = outer.rel, inner.rel
            if ob & ib:
                raise ValueError("join inputs must cover disjoint table sets")
            if ob | ib != rel:
                raise ValueError("join rel must be the union of its input rels")
        elif table < 0 or rel != 1 << table:
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

    def __repr__(self) -> str:
        if not self.is_join:
            return f"t{self.table}/s{self.scan_op}"
        return f"({self.outer!r} >< {self.inner!r})/j{self.join_op}"


def _scaled(cost: CostVector, alpha: float) -> list:
    # 1- and 2-metric limits: a comprehension reading alpha in admit makes
    # alpha a closure cell there, one allocation per call before Python 3.12
    return [alpha * c for c in cost]


class Archive:
    """A frontier: plans that are mutually non-dominated within each format.

    Insertion rejects any plan weakly dominated by a stored plan of the
    same format (on exact cost ties the earlier plan wins) or, at a
    factor alpha > 1, alpha-approximately dominated by one. Accepted
    plans evict every same-format entry they weakly dominate.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[Plan] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Plan]:
        return iter(self.entries)

    def admit(self, fmt: OutputFormat, cost: CostVector, alpha: float = 1.0) -> bool:
        """The one admission rule, for a candidate of format ``fmt`` and
        cost ``cost`` at factor ``alpha`` >= 1.

        Returns False, with the archive unchanged, if some same-format
        entry costs at most ``alpha`` times ``cost`` in every metric.
        Otherwise removes every same-format entry that ``cost``
        weakly dominates (the rest keep their order) and returns True;
        the caller then appends the plan. Raises ``ValueError`` on a
        same-format entry of another length.
        """
        if not alpha >= 1.0:
            # below 1 or nan
            raise ValueError(f"approximation factor must be >= 1, got {alpha}")
        entries = self.entries
        # most candidates are rejected, so the reject scan runs alone
        # first; every test is a > b, never a <= b, so a nan never blocks
        # dominance
        n = len(cost)
        if n == 3:
            # all three metrics, the default: unrolled, and the unpacking
            # raises ValueError on a length mismatch; the exact path
            # allocates nothing, and alpha > 1 scales in place
            l0, l1, l2 = cost
            if alpha > 1.0:
                l0, l1, l2 = alpha * l0, alpha * l1, alpha * l2
            for old in entries:
                if old.fmt is fmt:
                    a, b, c = old.cost
                    if not (a > l0 or b > l1 or c > l2):
                        return False
        else:
            limit = cost if alpha == 1.0 else _scaled(cost, alpha)
            for old in entries:
                if old.fmt is fmt:
                    other = old.cost
                    if len(other) != n:
                        _check_lengths(other, cost)
                    if not any(map(gt, other, limit)):
                        return False
        # the reject scan checked every same-format length
        doomed = []
        if n == 3:
            c0, c1, c2 = cost
            for old in entries:
                if old.fmt is fmt:
                    a, b, c = old.cost
                    if not (c0 > a or c1 > b or c2 > c):
                        doomed.append(old)
        else:
            for old in entries:
                if old.fmt is fmt and not any(map(gt, cost, old.cost)):
                    doomed.append(old)
        # a loop, not a comprehension, so that doomed is no closure cell
        for old in doomed:
            entries.remove(old)
        return True

    def insert(self, plan: Plan, alpha: float = 1.0) -> bool:
        """Offer a plan, admitted at factor ``alpha`` >= 1; returns True
        iff it was added."""
        if not self.admit(plan.fmt, plan.cost, alpha):
            return False
        self.entries.append(plan)
        return True

    def costs(self) -> list[CostVector]:
        return [p.cost for p in self.entries]
