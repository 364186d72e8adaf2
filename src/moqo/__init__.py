"""Multi-objective query optimization laboratory.

A randomized multi-objective join optimizer (random plan generation,
Pareto hill-climbing, plan-cache frontier approximation with a
tightening factor schedule) together with exact and heuristic baselines
and a benchmark harness.
"""

from .baselines import (
    SaConfig,
    decode_genes,
    dp_frontier,
    exhaustive_frontier,
    gene_bounds,
    nondominated_ranks,
    run_2p,
    run_ii,
    run_nsga2,
    run_sa,
)
from .core import (
    Archive,
    OutputFormat,
    Plan,
    approx_dominates,
    strictly_dominates,
    weakly_dominates,
)
from .costmodel import (
    CostModel,
    JoinOp,
    OperatorCatalog,
    QueryInstance,
    ScanOp,
    Topology,
    cardinality,
    default_catalog,
    materializing_catalog,
    plan_cost,
)
from .harness import (
    ClimbStatsConfig,
    ExperimentConfig,
    ReferenceMode,
    SamplePoint,
    build_reference,
    climb_stats,
    epsilon_indicator,
    read_samples_csv,
    run_experiment,
)
from .optimizer import (
    Budget,
    PlanCache,
    alpha_schedule,
    approximate_frontiers,
    mutations,
    pareto_climb,
    pareto_step,
    prune_approx,
    random_plan,
    rmq_optimize,
)
from .querygen import GenSpec, SelectivityMode, generate_query

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "Budget",
    "ClimbStatsConfig",
    "CostModel",
    "ExperimentConfig",
    "GenSpec",
    "JoinOp",
    "OperatorCatalog",
    "OutputFormat",
    "Plan",
    "PlanCache",
    "QueryInstance",
    "ReferenceMode",
    "SaConfig",
    "SamplePoint",
    "ScanOp",
    "SelectivityMode",
    "Topology",
    "alpha_schedule",
    "approx_dominates",
    "approximate_frontiers",
    "build_reference",
    "cardinality",
    "climb_stats",
    "decode_genes",
    "default_catalog",
    "dp_frontier",
    "epsilon_indicator",
    "exhaustive_frontier",
    "gene_bounds",
    "generate_query",
    "materializing_catalog",
    "mutations",
    "nondominated_ranks",
    "pareto_climb",
    "pareto_step",
    "plan_cost",
    "prune_approx",
    "random_plan",
    "read_samples_csv",
    "rmq_optimize",
    "run_2p",
    "run_experiment",
    "run_ii",
    "run_nsga2",
    "run_sa",
    "strictly_dominates",
    "weakly_dominates",
]
