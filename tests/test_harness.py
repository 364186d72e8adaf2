"""Quality indicator, reference frontiers, experiment runner, statistics."""

import math
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from moqo import harness
from moqo.baselines import (
    dp_frontier,
    exhaustive_frontier,
    run_2p,
    run_ii,
    run_nsga2,
    run_sa,
)
from moqo.core import Archive, OutputFormat
from moqo.costmodel import (
    JOIN_KINDS,
    CostModel,
    JoinOp,
    OperatorCatalog,
    ScanOp,
    Topology,
    default_catalog,
)
from moqo.harness import (
    ExperimentConfig,
    ReferenceMode,
    SamplePoint,
    _Sampler,
    build_reference,
    climb_stats,
    epsilon_indicator,
    instance_model,
    parse_catalog_spec,
    read_samples_csv,
    run_experiment,
)
from moqo.optimizer import Budget, rmq_optimize
from moqo.querygen import GenSpec, SelectivityMode, generate_query


class TestEpsilonIndicator:
    def test_identity_is_one(self):
        pts = [(1.0, 4.0), (4.0, 1.0)]
        assert epsilon_indicator(pts, pts) == 1.0

    def test_uniform_factor(self):
        assert epsilon_indicator([(2.0, 2.0)], [(1.0, 1.0)]) == 2.0

    def test_missing_middle_point(self):
        cand = [(1.0, 4.0), (4.0, 1.0)]
        ref = [(1.0, 4.0), (4.0, 1.0), (2.0, 2.0)]
        assert epsilon_indicator(cand, ref) == 2.0

    def test_superset_candidate_scores_one(self):
        cand = [(1.0, 4.0), (4.0, 1.0), (2.0, 2.0)]
        ref = [(1.0, 4.0), (4.0, 1.0)]
        assert epsilon_indicator(cand, ref) == 1.0

    def test_empty_candidate_infinite(self):
        assert epsilon_indicator([], [(1.0, 1.0)]) == math.inf

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            epsilon_indicator([(1.0, 1.0)], [])

    @pytest.mark.parametrize(
        "cand, ref",
        [
            ([(math.inf, 1.0)], [(2.0, 2.0)]),
            ([(1.0, 1.0)], [(math.inf, 2.0)]),
            ([(math.inf, 1.0)], [(math.inf, 2.0)]),
            ([(1.0, 1.0)], [(math.nan, 2.0)]),
            ([(math.nan, 1.0)], [(2.0, 2.0)]),
            ([(1.0, 1.0), (2.0, -math.inf)], [(2.0, 2.0)]),
            ([], [(math.inf, 1.0)]),
            ([(1.0, 1.0)], [(0.0, 1.0)]),
            ([(0.0, 1.0)], [(0.0, 1.0)]),
            ([(0.0, 1.0)], [(2.0, 2.0)]),
            ([(-1.0, 1.0)], [(2.0, 2.0)]),
            ([(1.0, 1.0)], [(2.0, -2.0)]),
            ([], [(-1.0, 1.0)]),
        ],
    )
    def test_non_finite_rejected(self, cand, ref):
        with pytest.raises(ValueError, match="finite"):
            epsilon_indicator(cand, ref)

    def test_metric_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            epsilon_indicator([(1.0, 1.0)], [(1.0, 1.0, 1.0)])

    @pytest.mark.parametrize(
        "cand, ref",
        [
            ([(1.0, 1.0)], [(1.0, 1.0), (1.0,)]),
            ([(1.0, 1.0), (1.0, 1.0, 1.0)], [(1.0, 1.0)]),
        ],
        ids=["ragged-reference", "ragged-candidate"],
    )
    def test_ragged_set_rejected(self, cand, ref):
        with pytest.raises(ValueError, match="width"):
            epsilon_indicator(cand, ref)

    def test_single_metric(self):
        assert epsilon_indicator([(3.0,)], [(2.0,)]) == 1.5

    def test_adding_candidates_never_hurts(self):
        import random

        rng = random.Random(8)
        for _ in range(200):
            ref = [
                tuple(rng.uniform(1, 9) for _ in range(2)) for _ in range(4)
            ]
            cand = [tuple(rng.uniform(1, 9) for _ in range(2)) for _ in range(3)]
            base = epsilon_indicator(cand, ref)
            extended = cand + [tuple(rng.uniform(1, 9) for _ in range(2))]
            assert epsilon_indicator(extended, ref) <= base

    def test_scaling_reference_scales_indicator(self):
        cand = [(2.0, 3.0)]
        ref = [(1.0, 1.0)]
        a = epsilon_indicator(cand, ref)
        b = epsilon_indicator(cand, [(2.0, 2.0)])
        assert a == 2.0 * b


def _model(n=4, seed=0, topology=Topology.CHAIN):
    return CostModel(generate_query(GenSpec(n=n, topology=topology, seed=seed)))


class TestBuildReference:
    def test_union_prunes_across_runs(self):
        m = _model()
        runs = {}
        for seed in (1, 2, 3):
            runs[f"ii{seed}"] = run_ii(m, Budget(max_iterations=60), seed=seed)
        ref = build_reference(m, runs, ReferenceMode.UNION)
        merged = Archive()
        for arc in runs.values():
            for p in arc:
                merged.insert(p)
        assert sorted(ref) == sorted(merged.costs())

    def test_union_of_empty_runs_is_empty(self):
        assert build_reference(_model(), {}, ReferenceMode.UNION) == []

    def test_exact_mode_near_exhaustive(self):
        m = _model(n=4, seed=5)
        ref = build_reference(m, {}, ReferenceMode.EXACT)
        exact = exhaustive_frontier(m).costs()
        assert epsilon_indicator(exact, ref) <= 1.01
        assert epsilon_indicator(ref, exact) <= 1.01

    def test_exact_mode_size_guard(self):
        m = _model(n=8)
        with pytest.raises(ValueError):
            build_reference(m, {}, ReferenceMode.EXACT)


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig(n=10)
        assert not cfg.by_iterations
        assert cfg.budget().deadline_s == 3.0
        assert cfg.grid_end() == 3000.0

    def test_exactly_one_budget(self):
        with pytest.raises(ValueError, match="at most one of budget_ms and budget_iters"):
            ExperimentConfig(n=5, budget_ms=100.0, budget_iters=10)
        # neither budget runs the 3000 ms default
        cfg = ExperimentConfig(n=5, budget_ms=None, budget_iters=None)
        assert cfg.budget_ms == 3000.0
        assert not cfg.by_iterations

    def test_no_arguments_take_the_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n == 10
        assert cfg.budget_ms == 3000.0
        assert cfg.budget_iters is None

    def test_iteration_budget_alone_needs_no_budget_ms(self):
        cfg = ExperimentConfig(n=5, budget_iters=10)
        assert cfg.by_iterations
        assert cfg.budget_ms is None
        lines = cfg.resolved_lines()
        assert "budget_ms=None" in lines
        assert "budget_iters=10" in lines

    def test_iteration_budget(self):
        cfg = ExperimentConfig(n=5, budget_ms=None, budget_iters=50)
        assert cfg.by_iterations
        assert cfg.budget().max_iterations == 50
        assert cfg.grid_end() == 50.0

    def test_algorithm_ids_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, algorithms=("rmq", "unknown"))
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, algorithms=("dp:0.5",))
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, algorithms=("dp:x",))
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, algorithms=("dp:nan",))
        ExperimentConfig(n=5, algorithms=("dp:1.5", "dp:inf"))

    @pytest.mark.parametrize("budget_ms", [math.nan, math.inf, -1.0])
    def test_time_budget_finite(self, budget_ms):
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, budget_ms=budget_ms)

    @pytest.mark.parametrize("budget_iters", [math.nan, 2.5, 10.0, True, -1])
    def test_iteration_budget_is_int(self, budget_iters):
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, budget_ms=None, budget_iters=budget_iters)

    @pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -5.0])
    def test_sample_interval_finite_positive(self, interval):
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, sample_interval=interval)

    def test_metrics_count_bounds(self):
        for bad in (0, 4):
            with pytest.raises(ValueError):
                ExperimentConfig(n=5, metrics_count=bad)

    @pytest.mark.parametrize(
        "n,topology", [(0, Topology.CHAIN), (129, Topology.STAR), (2, Topology.CYCLE)]
    )
    def test_instance_range_checked(self, n, topology):
        with pytest.raises(ValueError):
            ExperimentConfig(n=n, topology=topology)

    def test_exact_reference_size_guard(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=8, reference_mode=ReferenceMode.EXACT)
        ExperimentConfig(n=7, reference_mode=ReferenceMode.EXACT)

    def test_needs_seeds_and_algorithms(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, algorithms=())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seeds": (0, 1, 0)},
            {"algorithms": ("rmq", "ii", "rmq")},
            {"algorithms": ("dp:1", "dp:1.0")},
            {"algorithms": ("dp:inf", "dp:Infinity")},
        ],
        ids=["seed", "algorithm", "dp-factor", "dp-inf"],
    )
    def test_repeats_rejected(self, overrides):
        # a repeated seed counts twice in every median, and a repeated
        # algorithm's rows overwrite each other
        with pytest.raises(ValueError, match="repeat"):
            ExperimentConfig(n=5, **overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"budget_ms": 3000, "sample_interval": 1e-9},
            {"budget_ms": 100_000.5, "sample_interval": 1.0},
            {"budget_ms": None, "budget_iters": 10**6, "sample_interval": 1.0},
        ],
        ids=["tiny-interval", "ms-just-over", "iters"],
    )
    def test_oversized_sample_grid_rejected(self, overrides):
        # only the config is built, never the grid
        with pytest.raises(ValueError, match="sample grid"):
            ExperimentConfig(n=4, **overrides)

    def test_sample_grid_bound_inclusive(self):
        ExperimentConfig(n=4, budget_ms=100_000.0, sample_interval=1.0)
        ExperimentConfig(n=4, budget_ms=None, budget_iters=100_000, sample_interval=1.0)

    def test_resolved_lines_cover_fields(self):
        lines = ExperimentConfig(n=5).resolved_lines()
        keys = {line.split("=", 1)[0] for line in lines}
        assert {"n", "topology", "algorithms", "seeds", "sample_interval"} <= keys


def small_iteration_config(tmp_path=None, **overrides):
    kwargs = dict(
        n=4,
        metrics_count=2,
        algorithms=("rmq", "ii", "sa", "2p", "dp:1.5"),
        budget_ms=None,
        budget_iters=40,
        sample_interval=10.0,
        seeds=(0, 1),
        output_path=str(tmp_path / "samples.csv") if tmp_path else None,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRunExperiment:
    def test_sample_grid_shape(self):
        cfg = small_iteration_config()
        samples, aggregates = run_experiment(cfg)
        # 5 algorithms x 2 seeds x 4 grid marks
        assert len(samples) == 40
        assert len(aggregates) == 20
        marks = sorted({s.elapsed_ms for s in samples})
        assert marks == [10.0, 20.0, 30.0, 40.0]

    def test_iteration_budget_deterministic(self):
        cfg = small_iteration_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_errors_non_increasing_and_reach_reference(self):
        cfg = small_iteration_config()
        samples, _ = run_experiment(cfg)
        by_cell = {}
        for s in samples:
            by_cell.setdefault((s.algorithm, s.seed), []).append(s)
        for cell in by_cell.values():
            errors = [s.alpha_error for s in sorted(cell, key=lambda s: s.elapsed_ms)]
            for early, late in zip(errors, errors[1:]):
                assert late <= early
            assert errors[-1] >= 1.0

    def test_union_reference_gives_some_exact_cell(self):
        # at least one algorithm must sit on the union reference
        cfg = small_iteration_config()
        samples, _ = run_experiment(cfg)
        finals = [s for s in samples if s.elapsed_ms == 40.0]
        by_seed = {}
        for s in finals:
            by_seed.setdefault(s.seed, []).append(s.alpha_error)
        for errs in by_seed.values():
            assert min(errs) == 1.0

    def test_csv_round_trip(self, tmp_path):
        cfg = small_iteration_config(tmp_path)
        samples, aggregates = run_experiment(cfg)
        path = tmp_path / "samples.csv"
        assert path.exists()
        parsed = read_samples_csv(str(path))
        assert parsed == samples
        agg_path = tmp_path / "samples.agg.csv"
        text = agg_path.read_text()
        assert "algorithm,elapsed_ms,median_alpha" in text
        assert text.startswith("# n=4")

    def test_rerun_writes_identical_files(self, tmp_path):
        cfg = small_iteration_config(tmp_path)
        run_experiment(cfg)
        first = (tmp_path / "samples.csv").read_text()
        run_experiment(cfg)
        assert (tmp_path / "samples.csv").read_text() == first

    def test_infinite_errors_serialized(self, tmp_path):
        # a lone aborting DP run yields empty archives and inf errors,
        # rated against the exact reference frontier
        cfg = ExperimentConfig(
            n=6,
            metrics_count=3,
            algorithms=("dp:1.0",),
            budget_ms=0.001,
            budget_iters=None,
            sample_interval=0.0005,
            seeds=(0,),
            reference_mode=ReferenceMode.EXACT,
            output_path=str(tmp_path / "dp.csv"),
        )
        samples, _ = run_experiment(cfg)
        assert all(math.isinf(s.alpha_error) for s in samples)
        text = (tmp_path / "dp.csv").read_text()
        assert ",inf" in text
        parsed = read_samples_csv(str(tmp_path / "dp.csv"))
        assert parsed == samples

    def test_exact_reference_mode(self):
        cfg = ExperimentConfig(
            n=4,
            metrics_count=2,
            algorithms=("ii",),
            budget_ms=None,
            budget_iters=400,
            sample_interval=100.0,
            seeds=(0, 1, 2),
            reference_mode=ReferenceMode.EXACT,
        )
        samples, aggregates = run_experiment(cfg)
        finals = [s.alpha_error for s in samples if s.elapsed_ms == 400.0]
        assert all(e < math.inf for e in finals)
        assert all(e >= 1.0 for e in finals)

    def test_time_budget_smoke(self):
        cfg = ExperimentConfig(
            n=4,
            metrics_count=2,
            algorithms=("rmq", "ii"),
            budget_ms=80.0,
            sample_interval=40.0,
            seeds=(0,),
        )
        samples, aggregates = run_experiment(cfg)
        assert {s.elapsed_ms for s in samples} == {40.0, 80.0}
        # one iteration at n=4 takes well under a millisecond, so both
        # marks read a finished iteration
        assert all(s.alpha_error < math.inf for s in samples)

    def test_fractional_marks_read_the_last_iteration_before_them(self):
        runners = {
            "rmq": rmq_optimize,
            "ii": run_ii,
            "sa": run_sa,
            "2p": run_2p,
            "nsga2": run_nsga2,
        }
        cfg = ExperimentConfig(
            n=5,
            metrics_count=2,
            algorithms=(*runners, "dp:1.5"),
            budget_ms=None,
            budget_iters=10,
            sample_interval=2.5,
            seeds=(0, 1),
            reference_mode=ReferenceMode.EXACT,
        )
        samples, _ = run_experiment(cfg)
        at_mark = {(s.algorithm, s.seed): s.alpha_error for s in samples if s.elapsed_ms == 2.5}
        for seed in cfg.seeds:
            model = instance_model(cfg.n, seed, metrics_count=cfg.metrics_count)
            reference = dp_frontier(model, 1.01).costs()
            frontiers = {
                name: run(model, Budget(max_iterations=2), seed=seed)
                for name, run in runners.items()
            }
            frontiers["dp:1.5"] = dp_frontier(model, 1.5)
            for algorithm, archive in frontiers.items():
                error = at_mark[(algorithm, seed)]
                assert error < math.inf
                assert error == epsilon_indicator(archive.costs(), reference)

    def test_write_failure_has_path_context(self, tmp_path):
        cfg = small_iteration_config(
            output_path=str(tmp_path / "missing_dir" / "x.csv")
        )
        with pytest.raises(OSError) as err:
            run_experiment(cfg)
        assert "missing_dir" in str(err.value)


class TestSampler:
    """Synthetic progress calls on the millisecond grid 10, 20, 30."""

    A, B, C, D = ((1.0,),), ((2.0,),), ((3.0,),), ((4.0,),)

    @staticmethod
    def _sampled(calls):
        """Mark cost sets after (ms, cost set) progress calls and the
        end of the run."""
        sampler = _Sampler([10.0, 20.0, 30.0], by_iterations=False)
        for position_ms, costs in calls:
            sampler(position_ms / 1000.0, [SimpleNamespace(cost=c) for c in costs])
        sampler.finalize()
        return sampler.mark_costs

    def test_call_on_a_mark_is_read_at_that_mark(self):
        got = self._sampled([(10.0, self.A), (25.0, self.B)])
        assert got == [self.A, self.A, self.B]

    def test_mark_takes_the_last_of_several_calls(self):
        calls = [(11.0, self.A), (15.0, self.B), (19.0, self.C), (24.0, self.D)]
        assert self._sampled(calls) == [(), self.C, self.D]

    def test_no_calls_read_the_empty_set(self):
        assert self._sampled([]) == [(), (), ()]

    def test_marks_after_an_early_stop_take_the_returned_archive(self):
        # a runner returns the archive its last progress call showed
        got = self._sampled([(5.0, self.A), (12.0, self.B)])
        assert got == [self.A, self.B, self.B]

    def test_call_past_the_grid_end(self):
        calls = [(5.0, self.A), (28.0, self.B), (31.0, self.C)]
        assert self._sampled(calls) == [self.A, self.A, self.B]


class TestReadSamplesCsv:
    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("algorithm;seed\n")
        with pytest.raises(ValueError):
            read_samples_csv(str(p))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_samples_csv(str(tmp_path / "none.csv"))

    def test_sample_point_parsing(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text(
            "# comment\nalgorithm,seed,elapsed_ms,alpha_error\nrmq,3,100,1.5\n"
        )
        assert read_samples_csv(str(p)) == [SamplePoint("rmq", 3, 100.0, 1.5)]


class TestClimbStats:
    def test_row_structure(self):
        rows = climb_stats(table_counts=(3, 5), seeds=(0, 1, 2, 3), rmq_iterations=0)
        assert [r["n"] for r in rows] == [3, 5]
        for r in rows:
            assert r["median_path_length"] >= 0
            assert r["median_pareto_size"] is None

    def test_sizes_with_rmq_budget(self):
        rows = climb_stats(table_counts=(4,), seeds=(0, 1), rmq_iterations=30)
        assert rows[0]["median_pareto_size"] >= 1

    def test_single_table_paths_tiny(self):
        # a one-table plan can still improve once by switching scans, so
        # medians live in [0, 1]
        rows = climb_stats(table_counts=(1,), seeds=tuple(range(8)))
        assert 0 <= rows[0]["median_path_length"] <= 1

    def test_metric_subsets_follow_seed(self):
        cfg = {"table_counts": (4,), "seeds": (0, 1, 2), "metrics_count": 2}
        rows_a = climb_stats(**cfg)
        rows_b = climb_stats(**cfg)
        assert rows_a == rows_b

    @pytest.mark.parametrize(
        "bad",
        [
            {"metrics_count": 0},
            {"metrics_count": 4},
            {"seeds": ()},
            {"seeds": (2, 2)},
            {"table_counts": ()},
            {"table_counts": (3, 3)},
            {"table_counts": (10, 200)},
            {"table_counts": (0,)},
            {"table_counts": (2,), "topology": Topology.CYCLE},
            {"rmq_iterations": -2},
            {"rmq_iterations": math.nan},
            {"rmq_iterations": 2.5},
            {"rmq_iterations": True},
        ],
        ids=[
            "metrics-0",
            "metrics-4",
            "no-seeds",
            "repeated-seed",
            "no-tables",
            "repeated-table-count",
            "table-count-above-max",
            "table-count-0",
            "cycle-of-2",
            "negative-iters",
            "nan-iters",
            "float-iters",
            "bool-iters",
        ],
    )
    def test_config_validated(self, bad, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "instance_model", lambda n, *a, **k: built.append(n))
        with pytest.raises(ValueError):
            climb_stats(**bad)
        assert built == []


class TestParseCatalogSpec:
    def test_round_trip_default_like(self):
        cat = parse_catalog_spec(
            "seq_scan:1.0, sample_scan:0.1", "nested_loop, hash, sort_merge"
        )
        assert [op.name for op in cat.scan_ops] == ["seq_scan", "sample_scan"]
        assert [op.kind for op in cat.join_ops] == [
            "nested_loop",
            "hash",
            "sort_merge",
        ]

    def test_coefficients_applied(self):
        cat = parse_catalog_spec("s:2.5", "nested_loop:0.01, sort_merge:128")
        assert cat.scan_ops[0].time_per_row == 2.5
        assert cat.join_ops[0].loop_factor == 0.01
        assert cat.join_ops[1].buffer_pages == 128.0

    def test_unknown_join_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_catalog_spec("s:1", "zigzag")

    def test_unknown_join_kind_with_coefficient_named(self):
        with pytest.raises(ValueError, match="unknown join kind 'zigzag'"):
            parse_catalog_spec("s:1", "zigzag:3")

    def test_coefficient_on_kind_without_one_rejected(self):
        with pytest.raises(ValueError, match="hash"):
            parse_catalog_spec("s:1", "hash:5")

    def test_empty_coefficient_takes_default(self):
        cat = parse_catalog_spec("s:", "nested_loop:, sort_merge:")
        assert cat.scan_ops == (ScanOp("s"),)
        assert cat.join_ops == tuple(JoinOp(k, kind=k) for k in ("nested_loop", "sort_merge"))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_catalogs_round_trip_through_config_header(self, seed):
        rng = random.Random(seed)
        values = (0.0, 0.25, 1.0, 3.0, 1e-07, 128.0)

        def draw_coefficient():
            return rng.choice(values) if rng.random() < 0.7 else None

        scan_tokens, scans = [], []
        for idx in range(rng.randint(1, 4)):
            name, factor = f"scan{idx}", draw_coefficient()
            scan_tokens.append(name if factor is None else f"{name}:{factor}")
            scans.append(ScanOp(name) if factor is None else ScanOp(name, time_per_row=factor))
        # every kind, each with and without a coefficient where it takes one
        join_tokens, joins = [], []
        for kind, field in JOIN_KINDS.items():
            for coeff in (None, rng.choice(values)) if field else (None,):
                join_tokens.append(kind if coeff is None else f"{kind}:{coeff}")
                plain = JoinOp(kind, kind=kind)
                joins.append(plain if coeff is None else replace(plain, **{field: coeff}))
        order = list(range(len(joins)))
        rng.shuffle(order)
        cat = parse_catalog_spec(
            ", ".join(scan_tokens), ", ".join(join_tokens[i] for i in order)
        )
        assert cat == OperatorCatalog(tuple(scans), tuple(joins[i] for i in order))
        lines = ExperimentConfig(n=5, catalog=cat).resolved_lines()
        (line,) = [line for line in lines if line.startswith("catalog=")]
        recorded = re.fullmatch(r"catalog=scans\[(.*)\] joins\[(.*)\]", line)
        assert parse_catalog_spec(*recorded.groups()) == cat

    @pytest.mark.parametrize(
        "scans,joins",
        [
            ("s:nan", "hash"),
            ("s:-2", "hash"),
            ("s:1", "nested_loop:nan"),
            ("s:1", "sort_merge:-5"),
            ("s:1", "sort_merge:inf"),
        ],
    )
    def test_bad_coefficients_rejected(self, scans, joins):
        with pytest.raises(ValueError):
            parse_catalog_spec(scans, joins)

    @pytest.mark.parametrize(
        "scans,joins",
        [
            ("seq_scan:1.0, sample_scan:0.1", "nested_loop, hash, sort_merge"),
            ("s:2.5", "nested_loop:0.01, sort_merge:128"),
            ("a:0.3, b:7", "sort_merge:0.5, hash, nested_loop:1e-07"),
        ],
    )
    def test_config_header_round_trips(self, scans, joins):
        cat = parse_catalog_spec(scans, joins)
        lines = ExperimentConfig(n=5, catalog=cat).resolved_lines()
        (line,) = [line for line in lines if line.startswith("catalog=")]
        recorded = re.fullmatch(r"catalog=scans\[(.*)\] joins\[(.*)\]", line)
        assert parse_catalog_spec(*recorded.groups()) == cat

    # one changed value per operator field
    CHANGED = {
        "name": "other",
        "kind": "hash",
        "time_per_row": 3.0,
        "buffer": 2.0,
        "disc": 0.5,
        "fmt": OutputFormat.MATERIALIZED,
        "loop_factor": 0.5,
        "buffer_pages": 8.0,
    }

    @pytest.mark.parametrize("field", sorted(CHANGED))
    def test_config_header_records_every_operator_field(self, field):
        def header(catalog):
            lines = ExperimentConfig(n=5, catalog=catalog).resolved_lines()
            (line,) = [line for line in lines if line.startswith("catalog=")]
            return line

        base = default_catalog()
        checked = 0
        for group in ("scan_ops", "join_ops"):
            ops = getattr(base, group)
            for idx, op in enumerate(ops):
                if not hasattr(op, field) or getattr(op, field) == self.CHANGED[field]:
                    continue
                changed = replace(op, **{field: self.CHANGED[field]})
                catalog = replace(base, **{group: ops[:idx] + (changed,) + ops[idx + 1 :]})
                assert header(catalog) != header(base), (group, idx)
                checked += 1
        assert checked

    def test_experiment_accepts_custom_catalog(self):
        cat = parse_catalog_spec("s:1.0", "hash")
        cfg = ExperimentConfig(
            n=3,
            metrics_count=2,
            algorithms=("ii",),
            budget_ms=None,
            budget_iters=20,
            sample_interval=10.0,
            seeds=(0,),
            catalog=cat,
        )
        samples, _ = run_experiment(cfg)
        assert samples
