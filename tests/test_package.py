"""The package root: exactly the documented surface, and the README's
library example imports only from it."""

import re
from pathlib import Path

import moqo

SURFACE = {
    # core
    "Archive", "OutputFormat", "Plan",
    # cost model
    "CostModel", "QueryInstance", "Topology", "ScanOp", "JoinOp",
    "OperatorCatalog", "default_catalog", "materializing_catalog",
    # query generation
    "GenSpec", "SelectivityMode", "generate_query",
    # optimizer
    "Budget", "rmq_optimize",
    # baselines
    "run_ii", "run_sa", "run_2p", "run_nsga2", "dp_frontier", "exhaustive_frontier",
    # harness
    "ExperimentConfig", "ReferenceMode", "SamplePoint", "run_experiment",
    "read_samples_csv", "epsilon_indicator", "climb_stats",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_documented_surface():
    assert len(moqo.__all__) == len(SURFACE) == 29
    assert set(moqo.__all__) == SURFACE
    for name in moqo.__all__:
        assert getattr(moqo, name) is not None


def test_readme_imports_are_exported():
    lines = re.findall(r"^from moqo import (.+)$", README.read_text(), re.M)
    assert lines
    for line in lines:
        names = [name.strip() for name in line.split(",")]
        assert set(names) <= set(moqo.__all__), names
