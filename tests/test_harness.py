"""Quality indicator, reference frontiers, experiment runner, statistics."""

import math

import pytest

from moqo.baselines import dp_frontier, exhaustive_frontier, run_ii
from moqo.core import Archive
from moqo.costmodel import CostModel, Topology
from moqo.harness import (
    ClimbStatsConfig,
    ExperimentConfig,
    ReferenceMode,
    SamplePoint,
    build_reference,
    climb_stats,
    epsilon_indicator,
    parse_catalog_spec,
    read_samples_csv,
    run_experiment,
)
from moqo.optimizer import Budget
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
        ],
    )
    def test_non_finite_rejected(self, cand, ref):
        with pytest.raises(ValueError, match="finite"):
            epsilon_indicator(cand, ref)

    def test_metric_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            epsilon_indicator([(1.0, 1.0)], [(1.0, 1.0, 1.0)])

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
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, budget_ms=100.0, budget_iters=10)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, budget_ms=None, budget_iters=None)

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
        ExperimentConfig(n=5, algorithms=("dp:1.5", "dp:inf"))

    def test_metrics_count_bounds(self):
        for bad in (0, 4):
            with pytest.raises(ValueError):
                ExperimentConfig(n=5, metrics_count=bad)

    def test_exact_reference_size_guard(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=8, reference_mode=ReferenceMode.EXACT)
        ExperimentConfig(n=7, reference_mode=ReferenceMode.EXACT)

    def test_needs_seeds_and_algorithms(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, algorithms=())

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
        finals = [s for s in samples if s.elapsed_ms == 80.0]
        assert all(s.alpha_error < math.inf for s in finals)

    def test_write_failure_has_path_context(self, tmp_path):
        cfg = small_iteration_config(
            output_path=str(tmp_path / "missing_dir" / "x.csv")
        )
        with pytest.raises(OSError) as err:
            run_experiment(cfg)
        assert "missing_dir" in str(err.value)


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
        cfg = ClimbStatsConfig(
            table_counts=(3, 5), seeds=(0, 1, 2, 3), rmq_iterations=0
        )
        rows = climb_stats(cfg)
        assert [r["n"] for r in rows] == [3, 5]
        for r in rows:
            assert r["median_path_length"] >= 0
            assert r["median_pareto_size"] is None

    def test_sizes_with_rmq_budget(self):
        cfg = ClimbStatsConfig(
            table_counts=(4,), seeds=(0, 1), rmq_iterations=30
        )
        rows = climb_stats(cfg)
        assert rows[0]["median_pareto_size"] >= 1

    def test_single_table_paths_tiny(self):
        # a one-table plan can still improve once by switching scans, so
        # medians live in [0, 1]
        cfg = ClimbStatsConfig(table_counts=(1,), seeds=tuple(range(8)))
        rows = climb_stats(cfg)
        assert 0 <= rows[0]["median_path_length"] <= 1

    def test_metric_subsets_follow_seed(self):
        cfg = ClimbStatsConfig(
            table_counts=(4,), seeds=(0, 1, 2), metrics_count=2
        )
        rows_a = climb_stats(cfg)
        rows_b = climb_stats(cfg)
        assert rows_a == rows_b

    @pytest.mark.parametrize(
        "bad",
        [
            {"metrics_count": 0},
            {"metrics_count": 4},
            {"seeds": ()},
            {"table_counts": ()},
            {"rmq_iterations": -2},
        ],
        ids=["metrics-0", "metrics-4", "no-seeds", "no-tables", "negative-iters"],
    )
    def test_config_validated(self, bad):
        with pytest.raises(ValueError):
            ClimbStatsConfig(**bad)


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
