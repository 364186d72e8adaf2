"""Benchmark orchestration and quality measurement.

Runs the competing optimizers on generated query instances, snapshots
their result sets on a shared time or iteration grid, scores every
snapshot against a reference frontier with the multiplicative epsilon
indicator, and emits plot-ready CSV files.
"""

from __future__ import annotations

import enum
import math
import random
import statistics
import time
from dataclasses import dataclass, fields
from operator import truediv
from typing import Callable, Sequence

from .baselines import dp_frontier, run_2p, run_ii, run_nsga2, run_sa
from .core import Archive, check_int
from .costmodel import (
    N_METRICS,
    CostModel,
    JoinOp,
    OperatorCatalog,
    ScanOp,
    Topology,
)
from .optimizer import Budget, rmq_optimize
from .querygen import GenSpec, SelectivityMode, generate_query

BASE_ALGORITHMS = ("rmq", "ii", "sa", "2p", "nsga2")
MAX_EXACT_REFERENCE_TABLES = 7


class ReferenceMode(enum.Enum):
    UNION = "union"
    EXACT = "exact"


def epsilon_indicator(candidate: Sequence, reference: Sequence) -> float:
    """Smallest factor by which the candidate set must be inflated to
    cover every reference vector: max over ``r`` of min over ``c`` of
    ``max_k c[k] / r[k]``. An empty candidate scores +inf.

    The cost model floors every metric at 1. A component outside
    (0, inf), an empty reference or a width mismatch raises ``ValueError``.
    """
    if len(reference) == 0:
        raise ValueError("reference set must not be empty")
    width = _checked_width(reference, "reference")
    if len(candidate) == 0:
        return math.inf
    if _checked_width(candidate, "candidate") != width:
        raise ValueError("candidate and reference metric counts differ")
    return max(min(max(map(truediv, c, r)) for c in candidate) for r in reference)


def _checked_width(costs: Sequence, name: str) -> int:
    width = len(costs[0])
    for c in costs:
        if len(c) != width:
            raise ValueError(f"{name} cost vectors differ in width")
        if not all(0.0 < x < math.inf for x in c):
            raise ValueError(f"{name} costs must be finite and > 0, got {c}")
    return width


def build_reference(
    model: CostModel, runs: dict, mode: ReferenceMode
) -> list:
    """Reference cost-set: pruned union of final archives, or the
    near-exact DP frontier at factor 1.01."""
    if mode is ReferenceMode.EXACT:
        _check_exact_reference(model.query.n)
        return dp_frontier(model, 1.01).costs()
    union = Archive()
    for archive in runs.values():
        for plan in archive:
            union.insert(plan)
    return union.costs()


def _check_exact_reference(n: int) -> None:
    if n > MAX_EXACT_REFERENCE_TABLES:
        raise ValueError(
            f"exact reference mode supports at most {MAX_EXACT_REFERENCE_TABLES} tables"
        )


def instance_model(
    n: int,
    seed: int = GenSpec.seed,
    topology: Topology = GenSpec.topology,
    selectivity_mode: SelectivityMode = GenSpec.selectivity_mode,
    metrics_count: int = N_METRICS,
    catalog: OperatorCatalog | None = None,
) -> CostModel:
    """The cost model of generated instance ``seed``, on ``metrics_count``
    metrics: all of them, or a subset drawn per seed."""
    _check_instances(metrics_count, (seed,))
    spec = GenSpec(n=n, topology=topology, selectivity_mode=selectivity_mode, seed=seed)
    metrics = range(N_METRICS)
    if metrics_count < N_METRICS:
        metrics = sorted(random.Random(f"metrics-{seed}").sample(metrics, metrics_count))
    return CostModel(generate_query(spec), catalog, metrics)


def _check_instances(metrics_count: int, seeds: Sequence) -> None:
    if not 1 <= metrics_count <= N_METRICS:
        raise ValueError(f"metric count {metrics_count} outside [1, {N_METRICS}]")
    if not seeds:
        raise ValueError("need at least one seed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description; one instance drives one CSV."""

    n: int
    topology: Topology = GenSpec.topology
    selectivity_mode: SelectivityMode = GenSpec.selectivity_mode
    metrics_count: int = N_METRICS
    algorithms: tuple = BASE_ALGORITHMS
    budget_ms: float | None = 3000.0
    budget_iters: int | None = None
    sample_interval: float = 100.0
    seeds: tuple = tuple(range(20))
    reference_mode: ReferenceMode = ReferenceMode.UNION
    output_path: str | None = None
    catalog: OperatorCatalog | None = None

    def __post_init__(self) -> None:
        _check_instances(self.metrics_count, self.seeds)
        if (self.budget_ms is None) == (self.budget_iters is None):
            raise ValueError("set exactly one of budget_ms and budget_iters")
        if self.budget_ms is not None and not 0 <= self.budget_ms < math.inf:
            raise ValueError("budget_ms must be finite and >= 0")
        if self.budget_iters is not None:
            check_int("budget_iters", self.budget_iters, 0)
        if not 0 < self.sample_interval < math.inf:
            raise ValueError("sample_interval must be finite and > 0")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        for algorithm in self.algorithms:
            _parse_algorithm(algorithm)
        if self.reference_mode is ReferenceMode.EXACT:
            _check_exact_reference(self.n)

    @property
    def by_iterations(self) -> bool:
        return self.budget_iters is not None

    def budget(self) -> Budget:
        if self.by_iterations:
            return Budget(max_iterations=self.budget_iters)
        return Budget(deadline_s=self.budget_ms / 1000.0)

    def grid_end(self) -> float:
        return float(self.budget_iters if self.by_iterations else self.budget_ms)

    def resolved_lines(self) -> list:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, OperatorCatalog):
                value = _catalog_repr(value)
            out.append(f"{f.name}={value}")
        return out


def _catalog_repr(catalog: OperatorCatalog) -> str:
    """The catalog in ``parse_catalog_spec``'s token syntax."""
    scans = ",".join(f"{op.name}:{op.time_per_row}" for op in catalog.scan_ops)
    joins = ",".join(_join_token(op) for op in catalog.join_ops)
    return f"scans[{scans}] joins[{joins}]"


def _join_token(op: JoinOp) -> str:
    if op.kind == "nested_loop":
        return f"nested_loop:{op.loop_factor}"
    if op.kind == "sort_merge":
        return f"sort_merge:{op.buffer_pages}"
    return op.kind


@dataclass(frozen=True)
class SamplePoint:
    algorithm: str
    seed: int
    elapsed_ms: float
    alpha_error: float


def _parse_algorithm(token: str):
    """Split an algorithm id into (kind, dp_alpha)."""
    if token in BASE_ALGORITHMS:
        return token, None
    if token.startswith("dp:"):
        try:
            alpha = float(token[3:])
        except ValueError as exc:
            raise ValueError(f"bad DP factor in algorithm id {token!r}") from exc
        if not alpha >= 1.0:
            raise ValueError(f"DP factor must be >= 1 in {token!r}")
        return "dp", alpha
    raise ValueError(
        f"unknown algorithm id {token!r}; expected one of "
        f"{', '.join(BASE_ALGORITHMS)} or dp:<alpha>"
    )


class _Sampler:
    """Collects (axis position, cost-set) snapshots during one run.

    The axis is wall-clock milliseconds for deadline budgets and the
    iteration counter for iteration budgets, which keeps iteration-budget
    experiments bit-reproducible.
    """

    def __init__(self, interval: float, by_iterations: bool) -> None:
        self.snapshots: list = []
        self._interval = interval
        self._by_iterations = by_iterations
        self._iterations = 0
        self._next = interval

    def __call__(self, elapsed_s: float, plans: list) -> None:
        if self._by_iterations:
            self._iterations += 1
            position = float(self._iterations)
        else:
            position = elapsed_s * 1000.0
        if position >= self._next:
            self.snapshots.append((position, tuple(p.cost for p in plans)))
            steps = math.floor(position / self._interval) + 1
            self._next = steps * self._interval

    def finalize(self, end: float, archive: Archive) -> None:
        self.snapshots.append((end, tuple(archive.costs())))


def _run_one(
    cfg: ExperimentConfig, algorithm: str, model: CostModel, seed: int
) -> tuple:
    """Execute one (algorithm, seed) cell; returns (archive, sampler)."""
    kind, dp_alpha = _parse_algorithm(algorithm)
    sampler = _Sampler(cfg.sample_interval, cfg.by_iterations)
    budget = cfg.budget()
    end = cfg.grid_end()
    if kind == "dp":
        started = time.perf_counter()
        deadline = None if cfg.by_iterations else budget.deadline_s
        result = dp_frontier(model, dp_alpha, deadline_s=deadline)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        archive = result if result is not None else Archive()
        if result is not None:
            position = 1.0 if cfg.by_iterations else min(elapsed_ms, end)
            sampler.snapshots.append((position, tuple(archive.costs())))
            sampler.finalize(end, archive)
        return archive, sampler
    runner: Callable = {
        "rmq": rmq_optimize,
        "ii": run_ii,
        "sa": run_sa,
        "2p": run_2p,
        "nsga2": run_nsga2,
    }[kind]
    archive = runner(model, budget, seed=seed, progress_sink=sampler)
    sampler.finalize(end, archive)
    return archive, sampler


def _grid(cfg: ExperimentConfig) -> list:
    end = cfg.grid_end()
    marks = [
        cfg.sample_interval * k
        for k in range(1, int(end / cfg.sample_interval) + 1)
    ]
    if not marks or marks[-1] < end:
        marks.append(end)
    return marks


def run_experiment(cfg: ExperimentConfig) -> tuple:
    """Run every (seed, algorithm) cell and score snapshots.

    Returns (samples, aggregates): per-cell grid rows with last-value
    carry-forward, and per-(algorithm, grid mark) medians over seeds.
    Writes CSV files when the config names an output path.
    """
    marks = _grid(cfg)
    samples: list = []
    per_cell_errors: dict = {}
    for seed in cfg.seeds:
        model = instance_model(
            cfg.n, seed, cfg.topology, cfg.selectivity_mode, cfg.metrics_count, cfg.catalog
        )
        cell_results: dict = {}
        cell_samplers: dict = {}
        for algorithm in cfg.algorithms:
            archive, sampler = _run_one(cfg, algorithm, model, seed)
            cell_results[algorithm] = archive
            cell_samplers[algorithm] = sampler
        reference = build_reference(model, cell_results, cfg.reference_mode)
        for algorithm in cfg.algorithms:
            snapshots = cell_samplers[algorithm].snapshots
            errors = _carry_forward(snapshots, marks, reference)
            per_cell_errors[(algorithm, seed)] = errors
            for mark, error in zip(marks, errors):
                samples.append(SamplePoint(algorithm, seed, mark, error))
    aggregates = []
    for algorithm in cfg.algorithms:
        for idx, mark in enumerate(marks):
            median = statistics.median(
                per_cell_errors[(algorithm, seed)][idx] for seed in cfg.seeds
            )
            aggregates.append((algorithm, mark, median))
    if cfg.output_path:
        write_samples_csv(cfg.output_path, cfg, samples)
        write_aggregate_csv(_aggregate_path(cfg.output_path), cfg, aggregates)
    return samples, aggregates


def _carry_forward(snapshots: list, marks: list, reference: list) -> list:
    """Score the most recent snapshot at every grid mark; +inf before the
    first snapshot. Scores are memoized per snapshot index."""
    errors = []
    cached: dict = {}
    idx = -1
    for mark in marks:
        while idx + 1 < len(snapshots) and snapshots[idx + 1][0] <= mark:
            idx += 1
        if idx < 0:
            errors.append(math.inf)
            continue
        if idx not in cached:
            costs = snapshots[idx][1]
            cached[idx] = (
                epsilon_indicator(costs, reference) if costs else math.inf
            )
        errors.append(cached[idx])
    return errors


def _aggregate_path(path: str) -> str:
    return path.removesuffix(".csv") + ".agg.csv"


SAMPLES_HEADER = "algorithm,seed,elapsed_ms,alpha_error"


def sample_row(s: SamplePoint) -> str:
    """One samples-CSV data line, without its newline."""
    return f"{s.algorithm},{s.seed},{s.elapsed_ms:g},{s.alpha_error!r}"


def write_samples_csv(path: str, cfg: ExperimentConfig, samples: list) -> None:
    _write_csv(path, cfg, "samples", SAMPLES_HEADER, map(sample_row, samples))


def write_aggregate_csv(path: str, cfg: ExperimentConfig, aggregates: list) -> None:
    rows = (f"{a},{mark:g},{median!r}" for a, mark, median in aggregates)
    _write_csv(path, cfg, "aggregate", "algorithm,elapsed_ms,median_alpha", rows)


def _write_csv(path: str, cfg: ExperimentConfig, what: str, header: str, rows) -> None:
    """The config as ``# key=value`` comment lines, then header and rows."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in cfg.resolved_lines():
                fh.write(f"# {line}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} CSV to {path!r}: {exc}") from exc


def read_samples_csv(path: str) -> list:
    """Parse a samples CSV back into SamplePoint rows (comments skipped)."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != SAMPLES_HEADER:
                    raise ValueError(f"unexpected CSV header in {path!r}: {line}")
                header_seen = True
                continue
            algorithm, seed, elapsed, error = line.split(",")
            out.append(
                SamplePoint(algorithm, int(seed), float(elapsed), float(error))
            )
    return out


@dataclass(frozen=True)
class ClimbStatsConfig:
    """Settings for the path-length and Pareto-set-size statistics."""

    table_counts: tuple = (10, 25, 50, 100)
    topology: Topology = GenSpec.topology
    selectivity_mode: SelectivityMode = GenSpec.selectivity_mode
    metrics_count: int = N_METRICS
    seeds: tuple = tuple(range(20))
    rmq_iterations: int = 0
    catalog: OperatorCatalog | None = None

    def __post_init__(self) -> None:
        _check_instances(self.metrics_count, self.seeds)
        if not self.table_counts:
            raise ValueError("need at least one table count")
        check_int("rmq_iterations", self.rmq_iterations, 0)


def climb_stats(cfg: ClimbStatsConfig) -> list:
    """Median climb path length, plus median final Pareto-set size when
    optimizer iterations are requested, per table count.

    Returns rows {"n", "median_path_length", "median_pareto_size"};
    the size is None when rmq_iterations is 0.
    """
    from .optimizer import pareto_climb, random_plan

    rows = []
    for n in cfg.table_counts:
        paths = []
        sizes = []
        for seed in cfg.seeds:
            model = instance_model(
                n, seed, cfg.topology, cfg.selectivity_mode, cfg.metrics_count, cfg.catalog
            )
            rng = random.Random(seed)
            paths.append(pareto_climb(model, random_plan(model, rng)).path_length)
            if cfg.rmq_iterations > 0:
                archive = rmq_optimize(
                    model, Budget(max_iterations=cfg.rmq_iterations), seed=seed
                )
                sizes.append(len(archive))
        rows.append(
            {
                "n": n,
                "median_path_length": statistics.median(paths),
                "median_pareto_size": statistics.median(sizes) if sizes else None,
            }
        )
    return rows


def parse_catalog_spec(scans: str, joins: str) -> OperatorCatalog:
    """Build a catalog from config tokens.

    Scan tokens are ``name:time_per_row``; join tokens are
    ``kind[:coefficient]`` where the coefficient is the loop factor for
    nested_loop and the buffer page count for sort_merge.
    """
    scan_ops = []
    for token in _split_tokens(scans):
        name, _, factor = token.partition(":")
        scan_ops.append(ScanOp(name, time_per_row=float(factor) if factor else 1.0))
    join_ops = []
    for token in _split_tokens(joins):
        kind, _, coeff = token.partition(":")
        if kind == "nested_loop":
            op = JoinOp(kind, kind=kind, loop_factor=float(coeff) if coeff else 1e-3)
        elif kind == "sort_merge":
            op = JoinOp(kind, kind=kind, buffer_pages=float(coeff) if coeff else 64.0)
        else:
            op = JoinOp(kind, kind=kind)
        join_ops.append(op)
    return OperatorCatalog(scan_ops=tuple(scan_ops), join_ops=tuple(join_ops))


def _split_tokens(raw: str) -> list:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]
