"""The benchmark's four workloads.

Each workload turns the run's seed into units of work (query instances,
or oracle cases), builds their inputs in ``setup`` (timed as set-up),
runs them in ``run`` (timed as one pass), and checks every output in
``check`` (untimed), which also returns one result digest per unit.
All budgets are iteration budgets, so a pass does the same work and
yields the same digests on every commit whose results are unchanged.

Why each workload exists:

- ``rmq-star50``: RMQ on 50-table star queries, far from convergence
  (the precision factor stays near 25). Most table sets are new, so
  ``CostModel.join`` misses its cross-selectivity memo: the cost model and
  the climb do the work, the plan cache stays coarse.
- ``rmq-star8-converge``: RMQ on 8-table star queries past iteration 8025,
  where the default schedule reaches factor 1. At most 255 table sets
  exist, so the memo always hits; after factor 1 the plan cache and
  ``offer_join_combinations`` do the work. A cost-model change should
  barely move it.
- ``oracle-star8``: the DP oracle at factor 1 on 8-table star queries and
  the exhaustive oracle against DP(1) and DP(2) on 7-table chain and star
  queries. Batched numpy kernels, no random plans and no climbing.
- ``experiment-chain10``: one in-process ``moqo run`` over 10-table chains
  with two metrics and the default algorithms. The only workload that
  runs SA, 2P, NSGA-II, the harness sampler, epsilon scoring and CSV
  output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from moqo import baselines, cli, costmodel, harness, optimizer, querygen
from moqo.costmodel import Topology

import checks

# RMQ reaches the near-exact frontier once its live full-set frontier
# scores at most this epsilon against the DP(1.01) reference.
TARGET_EPS = 1.01


def _quantile(values: list, q: int) -> float:
    """The q-th decile of the values (q=5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def _model(n: int, topology: Topology, seed: int) -> costmodel.CostModel:
    spec = querygen.GenSpec(n=n, topology=topology, seed=seed)
    return costmodel.CostModel(querygen.generate_query(spec))


class _Sink:
    """Progress sink: one timestamp per iteration and, when asked, a cost
    snapshot of the live frontier each time it changes. Scoring happens
    after the run."""

    def __init__(self, keep_costs: bool) -> None:
        self.times: list = []
        self.snapshots: list = []
        self._keep_costs = keep_costs
        self._last: tuple = ()

    def __call__(self, elapsed_s: float, plans: list) -> None:
        self.times.append(elapsed_s)
        if self._keep_costs:
            now = tuple(plans)
            if now != self._last:
                self._last = now
                self.snapshots.append((elapsed_s, [p.cost for p in now]))


@dataclass(frozen=True)
class RmqWorkload:
    """``rmq_optimize`` on star queries under an iteration budget. A unit
    is an (instance seed, RMQ seed) pair; with ``reference`` the frontiers
    are scored against DP(1.01), which set-up computes.

    Without ``fixed_instances`` each pass runs ``instances`` queries drawn
    from the run's seed. With them, the queries are fixed and the run's
    seed draws the RMQ seeds: a converging run is too long to average over
    many queries, and its per-iteration cost differs by up to a third between
    generated instances.
    """

    n: int
    instances: int
    iterations: int
    reference: bool
    fixed_instances: tuple = ()

    def units(self, seed: int) -> list:
        rmq_seeds = [seed * self.instances + j for j in range(self.instances)]
        return list(zip(self.fixed_instances or rmq_seeds, rmq_seeds))

    def setup(self, units: list) -> list:
        state = []
        for instance, rmq_seed in units:
            model = _model(self.n, Topology.STAR, instance)
            ref = None
            if self.reference:
                # its own model, so the RMQ model starts with cold memos
                ref = baselines.dp_frontier(_model(self.n, Topology.STAR, instance), 1.01).costs()
            state.append((f"{instance}/{rmq_seed}", rmq_seed, model, ref))
        return state

    def run(self, state: list) -> list:
        budget = optimizer.Budget(max_iterations=self.iterations)
        out = []
        for _, seed, model, ref in state:
            sink = _Sink(keep_costs=ref is not None)
            archive = optimizer.rmq_optimize(model, budget, seed=seed, progress_sink=sink)
            out.append((archive, sink))
        return out

    def check(self, state: list, out: list, checker: checks.Checker):
        digests = {}
        samples = {"latency_s": [], "eps_final": [], "time_to_eps_s": [], "censored": 0}
        for (key, _, _, ref), (archive, sink) in zip(state, out):
            costs = archive.costs()
            digests[key] = checks.digest(costs)
            checker.check(checks.costs_valid(costs), f"{key}: invalid cost")
            checker.check(
                checks.mutually_nondominated(archive), f"{key}: dominated plan"
            )
            checker.check(
                len(sink.times) == self.iterations, f"{key}: iteration count"
            )
            samples["latency_s"].extend(b - a for a, b in zip([0.0] + sink.times, sink.times))
            if ref is None:
                continue
            eps = harness.epsilon_indicator(costs, ref)
            checker.check(checks.epsilon_ok(eps), f"{key}: final epsilon is nan")
            samples["eps_final"].append(eps)
            reached = sink.times[-1]
            for elapsed, snap in sink.snapshots:
                score = harness.epsilon_indicator(snap, ref)
                checker.check(checks.epsilon_ok(score), f"{key}: epsilon is nan")
                if score <= TARGET_EPS:
                    reached = elapsed
                    break
            else:
                samples["censored"] += 1
            samples["time_to_eps_s"].append(reached)
        return digests, samples

    def detail(self, walls: list, passes: list) -> dict:
        latencies = [x for p in passes for x in p["latency_s"]]
        out = {
            "iters_per_s": len(latencies) / sum(walls),
            "iter_ms_p50": 1000.0 * _quantile(latencies, 5),
            "iter_ms_p90": 1000.0 * _quantile(latencies, 9),
            "iter_samples": len(latencies),
        }
        if self.reference:
            out["time_to_eps_s"] = statistics.median(
                statistics.median(p["time_to_eps_s"]) for p in passes
            )
            out["time_to_eps_censored"] = sum(p["censored"] for p in passes)
            out["eps_final"] = statistics.median(passes[0]["eps_final"])
        return out


@dataclass(frozen=True)
class OracleWorkload:
    """DP(1) on ``dp_cases``; exhaustive, DP(1) and DP(2) on
    ``agree_cases``. Cases are (tables, topology, instance seed).

    The oracles are deterministic and their cost varies about 14-fold
    between generated instances (DP(1) on 8-table stars: 0.4-6.3 s over
    seeds 0-11), so a seed-drawn case list would make the pass time a
    draw of instances rather than a measurement. The case list is
    therefore fixed; the run's seed sets the order the cases run in.
    """

    dp_cases: tuple
    agree_cases: tuple

    def units(self, seed: int) -> list:
        cases = [("dp", c) for c in self.dp_cases] + [("agree", c) for c in self.agree_cases]
        random.Random(seed).shuffle(cases)
        return cases

    def setup(self, units: list) -> list:
        # one fresh model per oracle call, so no call inherits warm memos
        return [
            (kind, case, [_model(*case) for _ in range(1 if kind == "dp" else 3)])
            for kind, case in units
        ]

    def run(self, state: list) -> list:
        out = []
        for kind, _, models in state:
            if kind == "dp":
                out.append((baselines.dp_frontier(models[0], 1.0),))
            else:
                out.append(
                    (
                        baselines.exhaustive_frontier(models[0]),
                        baselines.dp_frontier(models[1], 1.0),
                        baselines.dp_frontier(models[2], 2.0),
                    )
                )
        return out

    def check(self, state: list, out: list, checker: checks.Checker):
        digests = {}
        samples = {"eps_final": []}
        for (kind, (n, topology, seed), _), fronts in zip(state, out):
            key = f"{kind}/{topology.value}{n}/{seed}"
            for front in fronts:
                checker.check(checks.costs_valid(front.costs()), f"{key}: invalid cost")
                checker.check(checks.mutually_nondominated(front), f"{key}: dominated plan")
            digests[key] = hashlib.sha1(
                "".join(checks.digest(f.costs()) for f in fronts).encode()
            ).hexdigest()
            if kind == "agree":
                exact, dp1, dp2 = (f.costs() for f in fronts)
                checker.check(checks.same_frontier(exact, dp1), f"{key}: DP(1) != exhaustive")
                eps = harness.epsilon_indicator(dp2, exact)
                checker.check(checks.epsilon_ok(eps, 2.0), f"{key}: DP(2) epsilon {eps}")
                samples["eps_final"].append(eps)
        return digests, samples

    def detail(self, walls: list, passes: list) -> dict:
        return {"eps_final": statistics.median(passes[0]["eps_final"])}


@dataclass(frozen=True)
class ExperimentWorkload:
    """``moqo run`` in-process over ``seeds`` instance seeds per pass with
    the default algorithms, an iteration budget, the union reference and
    CSV output, read back with ``read_samples_csv``."""

    n: int
    metrics: int
    seeds: int
    budget_iters: int
    sample_every: int
    out_dir: Path

    def units(self, seed: int) -> list:
        return [seed * self.seeds + j for j in range(self.seeds)]

    def setup(self, units: list) -> list:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "samples.csv"
        argv = [
            "run",
            "--tables", str(self.n),
            "--metrics", str(self.metrics),
            "--budget-iters", str(self.budget_iters),
            "--sample-ms", str(self.sample_every),
            "--seeds", ",".join(map(str, units)),
            "--out", str(path),
        ]
        return [units, argv, path]

    def run(self, state: list) -> list:
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(state[1])]

    def check(self, state: list, out: list, checker: checks.Checker):
        units, _, path = state
        checker.check(out[0] == 0, f"moqo run exit code {out[0]}")
        rows = []
        if path.exists():
            rows = harness.read_samples_csv(str(path))
            path.unlink()
        marks = math.ceil(self.budget_iters / self.sample_every)
        algos = harness.BASE_ALGORITHMS
        checker.check(len(rows) == len(algos) * len(units) * marks, f"CSV holds {len(rows)} rows")
        checker.check(not any(math.isnan(r.alpha_error) for r in rows), "nan epsilon in CSV")
        final = [r.alpha_error for r in rows if r.elapsed_ms == float(self.budget_iters)]
        checker.check(
            len(final) == len(algos) * len(units) and all(map(math.isfinite, final)),
            "missing or non-finite epsilon at the final mark",
        )
        digests = {}
        for seed in units:
            lines = sorted(f"{r.algorithm},{r.elapsed_ms!r},{r.alpha_error!r}" for r in rows if r.seed == seed)
            digests[str(seed)] = hashlib.sha1("\n".join(lines).encode()).hexdigest()
        return digests, {"eps_final": final}

    def detail(self, walls: list, passes: list) -> dict:
        return {"eps_final": statistics.median(passes[0]["eps_final"])}


def workloads(scratch: Path) -> dict:
    """The benchmark's workloads by name; ``scratch`` holds CSV output."""
    return {
        "rmq-star50": RmqWorkload(n=50, instances=8, iterations=30, reference=False),
        # the first two 8-table stars whose exact frontier holds more than
        # 10 plans, so refinement after factor 1 has long lists to work on
        "rmq-star8-converge": RmqWorkload(
            n=8, instances=2, iterations=8800, reference=True, fixed_instances=(1, 2)
        ),
        "oracle-star8": OracleWorkload(
            dp_cases=((8, Topology.STAR, 0),),
            agree_cases=tuple(
                (7, topology, seed)
                for topology in (Topology.CHAIN, Topology.STAR)
                for seed in range(3)
            ),
        ),
        "experiment-chain10": ExperimentWorkload(
            n=10, metrics=2, seeds=4, budget_iters=20, sample_every=5,
            out_dir=scratch / "experiment",
        ),
    }
