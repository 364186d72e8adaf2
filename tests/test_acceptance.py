"""Acceptance gate: every release criterion, one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each test prints ``criterion N: PASS/FAIL`` with the measured values
before asserting, so a red run still reports what was observed. The
whole gate takes a few minutes; criteria 3 and 4 run wall-clock
optimization budgets (20 runs of 10 s, then 30 runs of 3 s).
"""

import random
import statistics
import time

import pytest

from moqo import baselines
from moqo.baselines import (
    dp_frontier,
    exhaustive_frontier,
    run_2p,
    run_ii,
    run_nsga2,
    run_sa,
)
from moqo.cli import main as cli_main
from moqo.core import Archive, OutputFormat, Plan
from moqo.costmodel import CostModel, Topology
from moqo.harness import (
    ReferenceMode,
    build_reference,
    climb_stats,
    epsilon_indicator,
    read_samples_csv,
)
from moqo.optimizer import (
    Budget,
    PlanCache,
    random_plan,
    rmq_optimize,
)
from moqo.querygen import GenSpec, SelectivityMode, generate_query
from reference import (
    _dominates_within,
    _random_tree,
    _splice,
    insert,
    plan_nodes,
    weakly_dominates,
)


def verdict(number, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number}: {flag} ({detail})")
    return ok


def counting_sink(counts):
    """Progress sink that counts one RMQ run's iterations in a new slot
    of ``counts``. Criteria 3 and 4 run on wall-clock budgets, so their
    verdict lines report the iterations reached: a low count points at a
    loaded machine rather than a regression."""
    index = len(counts)
    counts.append(0)

    def sink(elapsed_s, plans):
        counts[index] += 1

    return sink


def iterations_summary(counts):
    counts = sorted(counts)
    return (
        f"rmq iterations min {counts[0]}, "
        f"median {statistics.median(counts):g}, max {counts[-1]}"
    )


def sampled_instances():
    """50 small instances covering table counts 3..6, two and three
    metrics, chain and star shapes, and both selectivity modes."""
    rng = random.Random(20240)
    out = []
    for i in range(50):
        n = rng.choice([3, 4, 5, 6])
        topology = rng.choice([Topology.CHAIN, Topology.STAR])
        mode = rng.choice([SelectivityMode.STEINBRUNN, SelectivityMode.MINMAX])
        metrics = tuple(sorted(rng.sample(range(3), rng.choice([2, 3]))))
        spec = GenSpec(n=n, topology=topology, selectivity_mode=mode, seed=i)
        out.append(CostModel(generate_query(spec), None, metrics))
    return out


class TestCriterion1:
    def test_dp_exact_equals_exhaustive(self):
        started = time.perf_counter()
        mismatches = 0
        for m in sampled_instances():
            dp = sorted(dp_frontier(m, 1.0).costs())
            oracle = sorted(exhaustive_frontier(m).costs())
            if dp != oracle:
                mismatches += 1
        elapsed = time.perf_counter() - started
        ok = mismatches == 0 and elapsed < 60.0
        assert verdict(
            1, ok, f"{mismatches} mismatches over 50 instances in {elapsed:.1f}s"
        )


class TestCriterion2:
    def test_dp_two_within_factor_two(self):
        violations = 0
        worst = 0.0
        for m in sampled_instances():
            exact = exhaustive_frontier(m).costs()
            err = epsilon_indicator(dp_frontier(m, 2.0).costs(), exact)
            worst = max(worst, err)
            if err > 2.0:
                violations += 1
        assert verdict(
            2, violations == 0, f"{violations} violations, worst factor {worst:.4f}"
        )


class TestCriterion3:
    def test_rmq_converges_in_ten_seconds(self):
        medians = {}
        iterations = {}
        for topology in (Topology.CHAIN, Topology.STAR):
            errors = []
            counts = iterations[topology.value] = []
            for seed in range(10):
                spec = GenSpec(n=8, topology=topology, seed=seed)
                m = CostModel(generate_query(spec))
                reference = dp_frontier(m, 1.01).costs()
                archive = rmq_optimize(
                    m,
                    Budget(deadline_s=10.0),
                    seed=seed,
                    progress_sink=counting_sink(counts),
                )
                errors.append(epsilon_indicator(archive.costs(), reference))
            medians[topology.value] = statistics.median(errors)
        ok = all(med <= 1.05 for med in medians.values())
        detail = ", ".join(
            f"{k} median {v:.4f} ({iterations_summary(iterations[k])})"
            for k, v in medians.items()
        )
        assert verdict(3, ok, detail)


class TestCriterion4:
    def test_rmq_leads_at_scale(self):
        wins = 0
        counts = []
        for seed in range(10):
            spec = GenSpec(n=50, topology=Topology.STAR, seed=seed)
            m = CostModel(generate_query(spec))
            runs = {
                "rmq": rmq_optimize(
                    m,
                    Budget(deadline_s=3.0),
                    seed=seed,
                    progress_sink=counting_sink(counts),
                ),
                "ii": run_ii(m, Budget(deadline_s=3.0), seed=seed),
                "nsga2": run_nsga2(m, Budget(deadline_s=3.0), seed=seed),
            }
            reference = build_reference(m, runs, ReferenceMode.UNION)
            errors = {
                name: epsilon_indicator(archive.costs(), reference)
                for name, archive in runs.items()
            }
            if errors["rmq"] <= errors["ii"] and errors["rmq"] <= errors["nsga2"]:
                wins += 1
        detail = f"rmq best or tied in {wins}/10 seeds, {iterations_summary(counts)}"
        assert verdict(4, wins >= 7, detail)


class TestCriterion5:
    def test_climb_path_growth(self):
        rows = climb_stats()
        medians = {row["n"]: row["median_path_length"] for row in rows}
        bounded = medians[100] <= 10 * medians[10]
        pairs = [(10, 25), (25, 50), (50, 100)]
        monotone = all(medians[b] >= medians[a] - 1 for a, b in pairs)
        detail = "medians " + ", ".join(
            f"n={n}: {medians[n]:g}" for n in (10, 25, 50, 100)
        )
        assert verdict(5, bounded and monotone, detail)


class TestCriterion6:
    def test_weak_dominance_frequency(self):
        deviations = {}
        pairs = 1_000_000
        for l in (1, 2, 3):
            rng = random.Random(6000 + l)
            hits = 0
            for _ in range(pairs):
                c1 = tuple(rng.random() for _ in range(l))
                c2 = tuple(rng.random() for _ in range(l))
                if weakly_dominates(c1, c2):
                    hits += 1
            deviations[l] = abs(hits / pairs - 0.5**l)
        ok = all(dev < 0.01 for dev in deviations.values())
        detail = ", ".join(f"l={l}: dev {d:.5f}" for l, d in deviations.items())
        assert verdict(6, ok, detail)


def _leaf_plan(cost, fmt):
    return Plan(
        rel=0b1,
        cost=cost,
        out_card=1.0,
        fmt=fmt,
        table=0,
        scan_op=0,
    )


class TestCriterion7:
    """Property suites bundled under a single verdict."""

    def _archive_and_cache_failures(self):
        rng = random.Random(70)
        failures = 0
        rel = 0b1
        for _ in range(100):
            archive = Archive()
            cache = PlanCache()
            for _ in range(50):
                fmt = rng.choice([OutputFormat.PIPELINED, OutputFormat.MATERIALIZED])
                cost = tuple(float(rng.randint(1, 8)) for _ in range(2))
                plan = _leaf_plan(cost, fmt)
                archive.insert(plan)
                cache.offer(rel, plan, 1.0)
            for group in (list(archive), cache.frontier(rel)):
                for a in group:
                    for b in group:
                        if (
                            a is not b
                            and a.fmt is b.fmt
                            and weakly_dominates(a.cost, b.cost)
                        ):
                            failures += 1
        return failures

    def _prune_conformance_failures(self):
        rng = random.Random(71)
        failures = 0
        for _ in range(400):
            alpha = rng.choice([1.0, 1.2, 2.0, 25.0])
            approx_got, approx_want = Archive(), []
            for _ in range(30):
                fmt = rng.choice([OutputFormat.PIPELINED, OutputFormat.MATERIALIZED])
                cost = tuple(float(rng.randint(1, 6)) for _ in range(2))
                plan = _leaf_plan(cost, fmt)
                approx_got.insert(plan, alpha)
                insert(approx_want, plan, alpha)
            if [id(p) for p in approx_got] != [id(p) for p in approx_want]:
                failures += 1
        return failures

    def _monotonicity_failures(self):
        rng = random.Random(72)
        spec = GenSpec(n=6, topology=Topology.CHAIN, seed=4)
        m = CostModel(generate_query(spec))
        checked = 0
        failures = 0
        while checked < 10_000:
            p = random_plan(m, rng)
            nodes = list(plan_nodes(p))
            target = nodes[rng.randrange(len(nodes))]
            tables = [t for t in range(m.query.n) if target.rel >> t & 1]
            replacement = _random_tree(m, tables, rng)
            if not weakly_dominates(replacement.cost, target.cost):
                continue
            spliced = _splice(m, p, target, replacement)
            if not _dominates_within(spliced.cost, p.cost):
                failures += 1
            checked += 1
        return failures

    def _epsilon_failures(self):
        rng = random.Random(73)
        failures = 0
        for _ in range(500):
            ref = [tuple(rng.uniform(1, 9) for _ in range(3)) for _ in range(5)]
            cand = [tuple(rng.uniform(1, 9) for _ in range(3)) for _ in range(4)]
            if epsilon_indicator(ref, ref) != 1.0:
                failures += 1
            base = epsilon_indicator(cand, ref)
            extra = cand + [tuple(rng.uniform(1, 9) for _ in range(3))]
            if epsilon_indicator(extra, ref) > base:
                failures += 1
        return failures

    def _unstable_algorithms(self):
        spec = GenSpec(n=5, topology=Topology.STAR, seed=11)
        m = CostModel(generate_query(spec))
        runners = {
            "rmq": lambda: rmq_optimize(m, Budget(max_iterations=120), seed=9),
            "ii": lambda: run_ii(m, Budget(max_iterations=120), seed=9),
            "sa": lambda: run_sa(m, Budget(max_iterations=40), seed=9),
            "2p": lambda: run_2p(m, Budget(max_iterations=60), seed=9),
            "nsga2": lambda: run_nsga2(m, Budget(max_iterations=3), seed=9),
            "dp": lambda: dp_frontier(m, 1.5),
        }
        # three generations of 50 individuals
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "NSGA2_POPULATION", 50)
            return [
                name
                for name, fn in runners.items()
                if sorted(fn().costs()) != sorted(fn().costs())
            ]

    def test_property_suites(self):
        results = {
            "archive": self._archive_and_cache_failures(),
            "prune": self._prune_conformance_failures(),
            "monotonicity": self._monotonicity_failures(),
            "epsilon": self._epsilon_failures(),
        }
        unstable = self._unstable_algorithms()
        ok = all(count == 0 for count in results.values()) and not unstable
        detail = (
            ", ".join(f"{name} failures {count}" for name, count in results.items())
            + f", unstable algorithms {unstable or 'none'}"
        )
        assert verdict(7, ok, detail)


class TestCriterion8:
    def test_cli_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "smoke.csv"
        started = time.perf_counter()
        code = cli_main(
            [
                "run",
                "--tables", "25",
                "--metrics", "2",
                "--algos", "rmq,ii,sa,2p,nsga2,dp:2",
                "--budget-ms", "1000",
                "--sample-ms", "250",
                "--seeds", "0,1",
                "--out", str(out_path),
            ]
        )
        elapsed = time.perf_counter() - started
        capsys.readouterr()
        samples = read_samples_csv(str(out_path))
        cells = {}
        for s in samples:
            cells.setdefault((s.algorithm, s.seed), []).append(s)
        regressing = 0
        for cell in cells.values():
            cell.sort(key=lambda s: s.elapsed_ms)
            errors = [s.alpha_error for s in cell]
            if any(late > early for early, late in zip(errors, errors[1:])):
                regressing += 1
        ok = (
            code == 0
            and elapsed < 30.0
            and len(cells) == 12
            and all(len(points) == 4 for points in cells.values())
            and regressing == 0
        )
        assert verdict(
            8,
            ok,
            f"exit {code}, {len(samples)} rows, {regressing} regressing cells, "
            f"{elapsed:.1f}s wall",
        )
