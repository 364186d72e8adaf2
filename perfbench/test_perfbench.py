"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench

Every workload runs at a tiny budget, untraced and traced; every metric
in BENCHMARK.json must come out with its unit; the checks must reject
hand-built bad outputs; and the runner must refuse to run without the
moqo sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from moqo import cli, costmodel, optimizer  # noqa: E402
from moqo.costmodel import Topology  # noqa: E402
from moqo.core import OutputFormat  # noqa: E402
from workloads import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
Entry = namedtuple("Entry", "fmt cost")


def tiny(name: str, scratch: Path):
    full = workloads(scratch)[name]
    shrink = {
        "rmq-star50": dict(instances=2, iterations=3),
        "rmq-star8-converge": dict(instances=1, iterations=30),
        "oracle-star8": dict(
            dp_cases=((5, Topology.STAR, 0),),
            agree_cases=((4, Topology.CHAIN, 0), (5, Topology.STAR, 1)),
        ),
        "experiment-chain10": dict(seeds=2, budget_iters=2, sample_every=1),
    }[name]
    return replace(full, **shrink)


def _units_of(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads(Path("unused"))) == set(run.WORKLOAD_NAMES)


def test_layer_table_matches_spec():
    spec = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert spec == tracer.LAYER_METRICS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_measured_run_emits_every_end_to_end_metric(name, tmp_path):
    workload = tiny(name, tmp_path)
    checker = checks.Checker()
    result = run.measured_run(workload, workload.units(3), 1, checker)
    assert checker.attempted > 0 and checker.failures == []
    assert _units_of(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["detail"]["passes"] >= 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric_and_same_digests(name, tmp_path):
    workload = tiny(name, tmp_path)
    checker = checks.Checker()
    spans = tmp_path / "spans.jsonl"
    result = run.traced_run(workload, workload.units(3), checker, str(spans))
    # one failed check would be a traced digest differing from the untraced one
    assert checker.failures == []
    assert _units_of(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(value) for value, _ in result["metrics"].values())
    assert 0.0 <= result["metrics"]["trace.unaccounted_share"][0] < 1.0
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert rows and rows[0]["parent"] == -1
    assert {r["parent"] for r in rows} <= {r["id"] for r in rows} | {-1}


def test_tracer_restores_every_wrapped_function():
    before = (optimizer.random_plan, costmodel.CostModel.join, cli.main)
    t = tracer.Tracer()
    t.install()
    assert optimizer.random_plan is not before[0]
    t.uninstall()
    assert (optimizer.random_plan, costmodel.CostModel.join, cli.main) == before


def test_checks_reject_a_dominated_pair():
    pipelined = OutputFormat.PIPELINED
    good = [Entry(pipelined, (1.0, 5.0)), Entry(pipelined, (5.0, 1.0))]
    assert checks.mutually_nondominated(good)
    assert not checks.mutually_nondominated(good + [Entry(pipelined, (2.0, 5.0))])
    assert not checks.mutually_nondominated(good + [Entry(pipelined, (1.0, 5.0))])
    # plans of different output formats are never compared
    assert checks.mutually_nondominated(good + [Entry(OutputFormat.MATERIALIZED, (9.0, 9.0))])


def test_checks_reject_nan_and_out_of_range_costs():
    assert checks.costs_valid([(1.0, 2.0), (3.5, 1.0)])
    assert not checks.costs_valid([(1.0, math.nan)])
    assert not checks.costs_valid([(math.inf, 2.0)])
    assert not checks.costs_valid([(0.5, 2.0)])
    assert not checks.epsilon_ok(math.nan)
    assert not checks.epsilon_ok(2.5, 2.0)


def test_checks_reject_a_dp_exhaustive_mismatch():
    exact = [(1.0, 4.0), (2.0, 2.0)]
    assert checks.same_frontier(exact, list(reversed(exact)))
    assert not checks.same_frontier(exact, [(1.0, 4.0)])
    assert not checks.same_frontier(exact, [(1.0, 4.0), (2.0, 2.0000000001)])
    assert checks.digest(exact) == checks.digest(list(reversed(exact)))
    assert checks.digest(exact) != checks.digest([(1.0, 4.0)])


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rmq-star50",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
