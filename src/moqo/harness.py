"""Benchmark orchestration and quality measurement.

Runs the competing optimizers on generated query instances, records
their frontiers at the marks of a shared time or iteration grid, scores
every mark against a reference frontier with the multiplicative epsilon
indicator, and emits plot-ready CSV files.
"""

from __future__ import annotations

import enum
import math
import random
import statistics
import time
from dataclasses import dataclass, fields, replace
from operator import truediv
from typing import Callable, Sequence

from .baselines import dp_frontier, run_2p, run_ii, run_nsga2, run_sa
from .core import Archive, check_int
from .costmodel import (
    JOIN_KINDS,
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
# an experiment's time budget when it is given no budget
DEFAULT_BUDGET_MS = 3000.0
# largest sample grid of one (seed, algorithm) cell
_MAX_GRID_MARKS = 100_000


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
    for seed in seeds:
        # random.Random(-s) seeds like random.Random(s)
        check_int("seed", seed, 0)
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds repeat in {tuple(seeds)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description; one instance drives one CSV."""

    n: int = 10
    topology: Topology = GenSpec.topology
    selectivity_mode: SelectivityMode = GenSpec.selectivity_mode
    metrics_count: int = N_METRICS
    algorithms: tuple = BASE_ALGORITHMS
    budget_ms: float | None = None  # DEFAULT_BUDGET_MS when budget_iters is None too
    budget_iters: int | None = None
    sample_interval: float = 100.0
    seeds: tuple = tuple(range(20))
    reference_mode: ReferenceMode = ReferenceMode.UNION
    output_path: str | None = None
    catalog: OperatorCatalog | None = None

    def __post_init__(self) -> None:
        _check_instances(self.metrics_count, self.seeds)
        GenSpec(n=self.n, topology=self.topology)  # table count, cycle minimum
        if self.budget_ms is None and self.budget_iters is None:
            object.__setattr__(self, "budget_ms", DEFAULT_BUDGET_MS)
        elif self.budget_ms is not None and self.budget_iters is not None:
            raise ValueError("set at most one of budget_ms and budget_iters")
        if self.budget_ms is not None and not 0 <= self.budget_ms < math.inf:
            raise ValueError("budget_ms must be finite and >= 0")
        if self.budget_iters is not None:
            check_int("budget_iters", self.budget_iters, 0)
        if not 0 < self.sample_interval < math.inf:
            raise ValueError("sample_interval must be finite and > 0")
        if self.grid_end() / self.sample_interval > _MAX_GRID_MARKS:
            raise ValueError(
                f"sample grid exceeds {_MAX_GRID_MARKS} marks; raise sample_interval"
            )
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        parsed = [_parse_algorithm(algorithm) for algorithm in self.algorithms]
        if len(set(parsed)) < len(parsed):
            raise ValueError(f"algorithm ids repeat in {self.algorithms}")
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
    """The catalog in ``parse_catalog_spec``'s token syntax when that
    syntax rebuilds it exactly, else its full dataclass repr."""
    scans = ",".join(f"{op.name}:{op.time_per_row}" for op in catalog.scan_ops)
    joins = ",".join(_join_token(op) for op in catalog.join_ops)
    try:
        exact = parse_catalog_spec(scans, joins) == catalog
    except ValueError:
        exact = False
    return f"scans[{scans}] joins[{joins}]" if exact else repr(catalog)


def _join_token(op: JoinOp) -> str:
    field = JOIN_KINDS[op.kind]
    return op.kind if field is None else f"{op.kind}:{getattr(op, field)}"


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
    """Fills one cell's sample grid with a cost set per mark.

    The axis is wall-clock milliseconds for deadline budgets and the
    iteration counter for iteration budgets, which keeps iteration-budget
    experiments bit-reproducible. A mark holds the frontier of the last
    progress call at or before it, the empty set before the first call;
    ``finalize`` gives the marks after the last call that call's set,
    which is the runner's returned archive.
    """

    def __init__(self, marks: list, by_iterations: bool) -> None:
        self.mark_costs: list = []
        self._marks = marks
        self._by_iterations = by_iterations
        self._iterations = 0
        self._last: tuple = ()

    def __call__(self, elapsed_s: float, plans: list) -> None:
        if self._by_iterations:
            self._iterations += 1
            position = float(self._iterations)
        else:
            position = elapsed_s * 1000.0
        filled, marks = self.mark_costs, self._marks
        while len(filled) < len(marks) and marks[len(filled)] < position:
            filled.append(self._last)
        self._last = tuple(p.cost for p in plans)

    def finalize(self) -> None:
        self.mark_costs.extend([self._last] * (len(self._marks) - len(self.mark_costs)))


def _run_one(
    cfg: ExperimentConfig, algorithm: str, model: CostModel, seed: int
) -> tuple:
    """Execute one (algorithm, seed) cell; returns (archive, sampler)."""
    kind, dp_alpha = _parse_algorithm(algorithm)
    sampler = _Sampler(_grid(cfg), cfg.by_iterations)
    budget = cfg.budget()
    if kind == "dp":
        started = time.perf_counter()
        result = dp_frontier(model, dp_alpha, deadline_s=budget.deadline_s)
        archive = result if result is not None else Archive()
        sampler(time.perf_counter() - started, archive.entries)
    else:
        runner: Callable = {
            "rmq": rmq_optimize,
            "ii": run_ii,
            "sa": run_sa,
            "2p": run_2p,
            "nsga2": run_nsga2,
        }[kind]
        archive = runner(model, budget, seed=seed, progress_sink=sampler)
    sampler.finalize()
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
    """Run every (seed, algorithm) cell and score it on the sample grid.

    Returns (samples, aggregates): per-cell grid rows, each mark scoring
    the frontier of the cell's last progress call at or before it (the
    returned archive after the last call), and per-(algorithm, grid mark)
    medians over seeds. Writes CSV files when the config names an output
    path.
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
            errors = _carry_forward(cell_samplers[algorithm].mark_costs, reference)
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


def _carry_forward(mark_costs: list, reference: list) -> list:
    """The error of each mark's cost set, +inf for the empty set. A set
    repeated over consecutive marks is scored once."""
    errors = []
    scored = None
    for costs in mark_costs:
        if costs != scored:
            scored = costs
            error = epsilon_indicator(costs, reference) if costs else math.inf
        errors.append(error)
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


# the table counts of ``climb_stats`` and ``moqo stats`` when none are given
STATS_TABLE_COUNTS = (10, 25, 50, 100)


def climb_stats(
    *,
    table_counts: tuple = STATS_TABLE_COUNTS,
    topology: Topology = GenSpec.topology,
    selectivity_mode: SelectivityMode = GenSpec.selectivity_mode,
    metrics_count: int = N_METRICS,
    seeds: tuple = tuple(range(20)),
    rmq_iterations: int = 0,
) -> list:
    """Median climb path length, plus median final Pareto-set size when
    optimizer iterations are requested, per table count.

    Every setting is checked, a bad one raising ``ValueError``, before
    the first run. Returns rows {"n", "median_path_length",
    "median_pareto_size"}; the size is None when rmq_iterations is 0.
    """
    from .optimizer import pareto_climb, random_plan

    _check_instances(metrics_count, seeds)
    if not table_counts:
        raise ValueError("need at least one table count")
    if len(set(table_counts)) < len(table_counts):
        raise ValueError(f"table counts repeat in {tuple(table_counts)}")
    for n in table_counts:
        GenSpec(n=n, topology=topology)  # table count, cycle minimum
    check_int("rmq_iterations", rmq_iterations, 0)
    rows = []
    for n in table_counts:
        paths = []
        sizes = []
        for seed in seeds:
            model = instance_model(n, seed, topology, selectivity_mode, metrics_count)
            rng = random.Random(seed)
            paths.append(pareto_climb(model, random_plan(model, rng)).path_length)
            if rmq_iterations > 0:
                archive = rmq_optimize(model, Budget(max_iterations=rmq_iterations), seed=seed)
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
    """Build a catalog from ``name[:time_per_row]`` scan tokens and
    ``kind[:coefficient]`` join tokens; ``JOIN_KINDS`` names the field a
    join coefficient sets. An omitted coefficient keeps the field default;
    one on a kind that takes none raises ``ValueError``."""
    scan_ops = []
    for token in _split_tokens(scans):
        name, _, factor = token.partition(":")
        op = ScanOp(name)
        scan_ops.append(replace(op, time_per_row=float(factor)) if factor else op)
    join_ops = []
    for token in _split_tokens(joins):
        kind, _, coeff = token.partition(":")
        op = JoinOp(kind, kind=kind)  # an unknown kind raises here
        if coeff:
            field = JOIN_KINDS[kind]
            if field is None:
                raise ValueError(f"join kind {kind!r} takes no coefficient, got {token!r}")
            op = replace(op, **{field: float(coeff)})
        join_ops.append(op)
    return OperatorCatalog(scan_ops=tuple(scan_ops), join_ops=tuple(join_ops))


def _split_tokens(raw: str) -> list:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]
