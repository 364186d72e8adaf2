"""Outside-in tracing of the moqo package for the per-layer metrics.

The tracer replaces functions at the names their callers look up (module
globals and class attributes) with timing wrappers, and restores them
afterwards; no moqo source changes. Hot functions are aggregated into a
count, a total time and a self time (total minus the time of wrapped
callees). Phase-level functions also record a span with its parent: the
RMQ iteration phases (random plan, climb, cache refinement), each oracle
call and each experiment cell, plus the reference, scoring and CSV
phases of an experiment. Time of a pass not covered by an outermost
phase span is the trace's unaccounted share.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from moqo import baselines, cli, core, costmodel, harness, optimizer, querygen

# Per-layer metrics: name -> (unit, better). BENCHMARK.json lists the same.
LAYER_METRICS = {
    "costmodel.join.calls": ("count", "lower"),
    "costmodel.join.self_s": ("s", "lower"),
    "costmodel.cross_selectivity.calls": ("count", "lower"),
    "costmodel.cross_selectivity.s": ("s", "lower"),
    "costmodel.join.memo_miss_ratio": ("ratio", "lower"),
    "costmodel.CostModel.init.s": ("s", "lower"),
    "querygen.generate_query.s": ("s", "lower"),
    "optimizer.random_plan.s": ("s", "lower"),
    "optimizer.pareto_climb.calls": ("count", "lower"),
    "optimizer.pareto_climb.s": ("s", "lower"),
    "optimizer.pareto_climb.self_s": ("s", "lower"),
    "optimizer.pareto_climb.path_len_mean": ("count", "lower"),
    "optimizer.mutations.calls": ("count", "lower"),
    "optimizer.mutations.candidates": ("count", "lower"),
    "optimizer.refine.s": ("s", "lower"),
    "optimizer.offer_join_combinations.calls": ("count", "lower"),
    "optimizer.offer_join_combinations.s": ("s", "lower"),
    "optimizer.offer_join_combinations.candidates": ("count", "lower"),
    "optimizer.offer_join_combinations.growth_ratio": ("ratio", "lower"),
    "optimizer.PlanCache.plans": ("count", "lower"),
    "optimizer.PlanCache.keys": ("count", "lower"),
    "optimizer.PlanCache.max_list": ("count", "lower"),
    "optimizer.alpha_final": ("ratio", "lower"),
    "baselines.dp_frontier.s": ("s", "lower"),
    "baselines.dp_frontier.frontier_size": ("count", "higher"),
    "baselines.exhaustive_frontier.s": ("s", "lower"),
    "baselines.run_ii.s": ("s", "lower"),
    "baselines.run_sa.s": ("s", "lower"),
    "baselines.run_2p.s": ("s", "lower"),
    "baselines.run_nsga2.s": ("s", "lower"),
    "baselines.nondominated_ranks.calls": ("count", "lower"),
    "baselines.nondominated_ranks.s": ("s", "lower"),
    "baselines.decode_genes.calls": ("count", "lower"),
    "core.Archive.insert.calls": ("count", "lower"),
    "core.Archive.insert.s": ("s", "lower"),
    "harness.run_experiment.s": ("s", "lower"),
    "harness.epsilon_indicator.calls": ("count", "lower"),
    "harness.epsilon_indicator.s": ("s", "lower"),
    "harness.build_reference.s": ("s", "lower"),
    "harness.write_samples_csv.s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
}

# kinds: "hot" aggregates only; "span" also records a span; "phase" is a
# span whose outermost occurrence counts towards covered time.
_TARGETS = (
    # (owner, attribute, record, kind)
    (costmodel.CostModel, "join", "costmodel.join", "hot"),
    (costmodel.CostModel, "cross_selectivity", "costmodel.cross_selectivity", "hot"),
    (costmodel.CostModel, "__init__", "costmodel.CostModel.init", "hot"),
    (querygen, "generate_query", "querygen.generate_query", "hot"),
    (harness, "generate_query", "querygen.generate_query", "hot"),
    (optimizer, "random_plan", "optimizer.random_plan", "phase"),
    (baselines, "random_plan", "optimizer.random_plan", "phase"),
    (optimizer, "pareto_climb", "optimizer.pareto_climb", "phase"),
    (baselines, "pareto_climb", "optimizer.pareto_climb", "phase"),
    (optimizer, "_approximate_rec", "optimizer.refine", "phase"),
    (optimizer, "mutations", "optimizer.mutations", "hot"),
    (baselines, "mutations", "optimizer.mutations", "hot"),
    (optimizer, "offer_join_combinations", "optimizer.offer_join_combinations", "hot"),
    (baselines, "offer_join_combinations", "optimizer.offer_join_combinations", "hot"),
    (optimizer.PlanCache, "__init__", "optimizer.PlanCache.init", "hot"),
    (optimizer.PlanCache, "offer", "optimizer.PlanCache.offer", "hot"),
    (core.Archive, "insert", "core.Archive.insert", "hot"),
    (optimizer, "rmq_optimize", "optimizer.rmq_optimize", "span"),
    (harness, "rmq_optimize", "optimizer.rmq_optimize", "span"),
    (harness, "run_ii", "baselines.run_ii", "span"),
    (harness, "run_sa", "baselines.run_sa", "span"),
    (harness, "run_2p", "baselines.run_2p", "span"),
    (harness, "run_nsga2", "baselines.run_nsga2", "span"),
    (baselines, "dp_frontier", "baselines.dp_frontier", "phase"),
    (harness, "dp_frontier", "baselines.dp_frontier", "phase"),
    (baselines, "exhaustive_frontier", "baselines.exhaustive_frontier", "phase"),
    (baselines, "nondominated_ranks", "baselines.nondominated_ranks", "hot"),
    (baselines, "decode_genes", "baselines.decode_genes", "hot"),
    (harness, "epsilon_indicator", "harness.epsilon_indicator", "hot"),
    (harness, "_run_one", "harness.cell", "phase"),
    (harness, "build_reference", "harness.build_reference", "phase"),
    (harness, "_carry_forward", "harness.scoring", "phase"),
    (harness, "write_samples_csv", "harness.write_samples_csv", "phase"),
    (harness, "write_aggregate_csv", "harness.write_aggregate_csv", "phase"),
    (cli, "run_experiment", "harness.run_experiment", "span"),
    (cli, "main", "cli.main", "span"),
)


class _Record:
    __slots__ = ("calls", "total_s", "self_s", "active", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra = 0.0


class Tracer:
    """Installs timing wrappers, collects aggregates and spans."""

    def __init__(self) -> None:
        self.records: dict = {}
        self.spans: list = []  # (id, parent id, name, start, end)
        self.covered_s = 0.0
        self.offer_candidates = 0
        self.cache_stats: list = []
        self.rmq_iterations: list = []
        self._child_time: list = []
        self._open_spans: list = []
        self._phase_depth = 0
        self._new_caches: list = []
        self._saved: list = []

    def record(self, name: str) -> _Record:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = _Record()
        return rec

    def install(self) -> None:
        pre, post = self._pre_hooks(), self._post_hooks()
        for owner, attr, name, kind in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, pre.get(name), post.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """Span opened by the benchmark itself, such as one pass."""
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append(None)
        self._open_spans.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open_spans.pop()
            self.spans[sid] = (sid, parent, name, start, time.perf_counter())

    def _wrap(self, fn, name: str, kind: str, pre, post):
        rec = self.record(name)
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans
        with_span = kind != "hot"
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = rec.active == 0
            rec.active += 1
            token = pre(args) if pre is not None else None
            sid = -1
            phase = False
            if with_span and outermost:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(sid)
                if kind == "phase":
                    phase = self._phase_depth == 0
                    self._phase_depth += 1
            child_time.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                dt = end - start
                rec.active -= 1
                rec.calls += 1
                rec.self_s += dt - child_time.pop()
                if outermost:
                    rec.total_s += dt
                if child_time:
                    child_time[-1] += dt
                if sid >= 0:
                    open_spans.pop()
                    spans[sid] = (sid, parent, name, start, end)
                    if kind == "phase":
                        self._phase_depth -= 1
                        if phase:
                            self.covered_s += dt
            if post is not None:
                post(rec, args, result, token)
            return result

        return wrapper

    def _pre_hooks(self) -> dict:
        return {
            "optimizer.rmq_optimize": lambda args: self.record("optimizer.random_plan").calls,
        }

    def _post_hooks(self) -> dict:
        def climb(rec, args, result, token):
            rec.extra += result.path_length

        def mutations(rec, args, result, token):
            rec.extra += len(result)

        def offer(rec, args, result, token):
            model, _, outs, ins = args[:4]
            self.offer_candidates += len(outs) * len(ins) * len(model.catalog.join_ops)
            rec.extra += result

        def dp(rec, args, result, token):
            if result is not None:
                rec.extra += len(result)

        def cache_init(rec, args, result, token):
            self._new_caches.append(args[0])

        def rmq(rec, args, result, token):
            self.rmq_iterations.append(
                self.record("optimizer.random_plan").calls - token
            )
            self.cache_stats.extend(c.stats() for c in self._new_caches)
            self._new_caches.clear()

        return {
            "optimizer.pareto_climb": climb,
            "optimizer.mutations": mutations,
            "optimizer.offer_join_combinations": offer,
            "baselines.dp_frontier": dp,
            "optimizer.PlanCache.init": cache_init,
            "optimizer.rmq_optimize": rmq,
        }

    def span_rows(self) -> list:
        return [s for s in self.spans if s is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, setup_tracer: Tracer, traced_wall: float, untraced_wall: float
) -> dict:
    """Every per-layer metric of one traced pass, by name, as (value, unit).
    Query generation and model construction also count their set-up time."""

    def rec(name: str) -> _Record:
        return tracer.record(name)

    join = rec("costmodel.join")
    cross = rec("costmodel.cross_selectivity")
    climb = rec("optimizer.pareto_climb")
    mut = rec("optimizer.mutations")
    offer = rec("optimizer.offer_join_combinations")
    candidates = tracer.offer_candidates
    dp = rec("baselines.dp_frontier")
    caches = tracer.cache_stats
    iterations = tracer.rmq_iterations
    run_experiment = rec("harness.run_experiment")
    main = rec("cli.main")
    values = {
        "costmodel.join.calls": join.calls,
        "costmodel.join.self_s": join.self_s,
        "costmodel.cross_selectivity.calls": cross.calls,
        "costmodel.cross_selectivity.s": cross.total_s,
        "costmodel.join.memo_miss_ratio": _ratio(cross.calls, join.calls),
        "costmodel.CostModel.init.s": rec("costmodel.CostModel.init").total_s
        + setup_tracer.record("costmodel.CostModel.init").total_s,
        "querygen.generate_query.s": rec("querygen.generate_query").total_s
        + setup_tracer.record("querygen.generate_query").total_s,
        "optimizer.random_plan.s": rec("optimizer.random_plan").total_s,
        "optimizer.pareto_climb.calls": climb.calls,
        "optimizer.pareto_climb.s": climb.total_s,
        "optimizer.pareto_climb.self_s": climb.self_s,
        "optimizer.pareto_climb.path_len_mean": _ratio(climb.extra, climb.calls),
        "optimizer.mutations.calls": mut.calls,
        "optimizer.mutations.candidates": int(mut.extra),
        "optimizer.refine.s": rec("optimizer.refine").total_s,
        "optimizer.offer_join_combinations.calls": offer.calls,
        "optimizer.offer_join_combinations.s": offer.total_s,
        "optimizer.offer_join_combinations.candidates": candidates,
        "optimizer.offer_join_combinations.growth_ratio": _ratio(offer.extra, candidates),
        "optimizer.PlanCache.plans": _ratio(sum(c["plans"] for c in caches), len(caches)),
        "optimizer.PlanCache.keys": _ratio(sum(c["keys"] for c in caches), len(caches)),
        "optimizer.PlanCache.max_list": max((c["max_list"] for c in caches), default=0),
        "optimizer.alpha_final": _ratio(
            sum(max(1.0, optimizer.alpha_schedule(i)) for i in iterations if i > 0),
            sum(1 for i in iterations if i > 0),
        ),
        "baselines.dp_frontier.s": dp.total_s,
        "baselines.dp_frontier.frontier_size": _ratio(dp.extra, dp.calls),
        "baselines.exhaustive_frontier.s": rec("baselines.exhaustive_frontier").total_s,
        "baselines.run_ii.s": rec("baselines.run_ii").total_s,
        "baselines.run_sa.s": rec("baselines.run_sa").total_s,
        "baselines.run_2p.s": rec("baselines.run_2p").total_s,
        "baselines.run_nsga2.s": rec("baselines.run_nsga2").total_s,
        "baselines.nondominated_ranks.calls": rec("baselines.nondominated_ranks").calls,
        "baselines.nondominated_ranks.s": rec("baselines.nondominated_ranks").total_s,
        "baselines.decode_genes.calls": rec("baselines.decode_genes").calls,
        "core.Archive.insert.calls": rec("core.Archive.insert").calls,
        "core.Archive.insert.s": rec("core.Archive.insert").total_s,
        "harness.run_experiment.s": run_experiment.total_s,
        "harness.epsilon_indicator.calls": rec("harness.epsilon_indicator").calls,
        "harness.epsilon_indicator.s": rec("harness.epsilon_indicator").total_s,
        "harness.build_reference.s": rec("harness.build_reference").total_s,
        "harness.write_samples_csv.s": rec("harness.write_samples_csv").total_s,
        "cli.main.s": main.total_s,
        "cli.overhead_s": main.total_s - run_experiment.total_s,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.unaccounted_share": _ratio(traced_wall - tracer.covered_s, traced_wall),
    }
    return {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}
