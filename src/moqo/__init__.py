"""Multi-objective query optimization laboratory.

A randomized multi-objective join optimizer (random plan generation,
Pareto hill-climbing, plan-cache frontier approximation with a
tightening factor schedule) together with exact and heuristic baselines
and a benchmark harness.
"""

from .baselines import (
    dp_frontier,
    exhaustive_frontier,
    run_2p,
    run_ii,
    run_nsga2,
    run_sa,
)
from .core import Archive, OutputFormat, Plan
from .costmodel import (
    CostModel,
    JoinOp,
    OperatorCatalog,
    QueryInstance,
    ScanOp,
    Topology,
    default_catalog,
)
from .harness import (
    ExperimentConfig,
    ReferenceMode,
    SamplePoint,
    climb_stats,
    epsilon_indicator,
    read_samples_csv,
    run_experiment,
)
from .optimizer import Budget, rmq_optimize
from .querygen import GenSpec, SelectivityMode, generate_query

__version__ = "0.1.0"

# the documented surface; building blocks such as pareto_climb,
# PlanCache, random_plan or nondominated_ranks are imported from their
# own modules
__all__ = [
    "Archive",
    "Budget",
    "CostModel",
    "ExperimentConfig",
    "GenSpec",
    "JoinOp",
    "OperatorCatalog",
    "OutputFormat",
    "Plan",
    "QueryInstance",
    "ReferenceMode",
    "SamplePoint",
    "ScanOp",
    "SelectivityMode",
    "Topology",
    "climb_stats",
    "default_catalog",
    "dp_frontier",
    "epsilon_indicator",
    "exhaustive_frontier",
    "generate_query",
    "read_samples_csv",
    "rmq_optimize",
    "run_2p",
    "run_experiment",
    "run_ii",
    "run_nsga2",
    "run_sa",
]
