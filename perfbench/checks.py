"""Output checks for the benchmark.

Every check is counted: ``Checker.attempted`` is the number of checks
made and ``Checker.failed`` the number that did not hold, so the run's
error rate is failed / attempted. The predicates are plain functions of
cost vectors, so tests can feed them hand-built bad inputs.
"""

from __future__ import annotations

import hashlib
import math


class Checker:
    """Counts attempted and failed output checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def costs_valid(costs) -> bool:
    """Every component of every cost vector is finite and at least 1.

    The cost model floors each node-local cost at 1 in every active
    metric, so a total below 1 or a non-finite total is a defect.
    """
    return all(math.isfinite(c) and c >= 1.0 for cost in costs for c in cost)


def mutually_nondominated(entries) -> bool:
    """No entry weakly dominates another entry of the same output format.

    ``entries`` are objects with ``fmt`` and ``cost`` attributes, such as
    plans. Equal cost vectors count as dominated: an archive keeps only
    the first of two ties.
    """
    entries = list(entries)
    for i, a in enumerate(entries):
        for j, b in enumerate(entries):
            if i != j and a.fmt is b.fmt and all(x <= y for x, y in zip(a.cost, b.cost)):
                return False
    return True


def same_frontier(costs_a, costs_b) -> bool:
    """The two frontiers hold exactly the same cost vectors."""
    return sorted(map(tuple, costs_a)) == sorted(map(tuple, costs_b))


def epsilon_ok(eps: float, bound: float = math.inf) -> bool:
    """An epsilon score is a number, not nan, and at most ``bound``."""
    return not math.isnan(eps) and eps <= bound


def digest(costs) -> str:
    """sha1 over the sorted cost vectors, each float written exactly."""
    text = "\n".join(",".join(repr(c) for c in cost) for cost in sorted(map(tuple, costs)))
    return hashlib.sha1(text.encode()).hexdigest()
