"""Command line interface: parsing, exit codes, output formats."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moqo import harness
from moqo.cli import build_parser, main
from moqo.harness import ExperimentConfig, run_experiment


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# subcommand -> (flag, help, required) of each option, in flag order
_SURFACE = {
    "run": [
        ("--config", "INI config file; flags override it", False),
        ("--tables", "tables per query (default 10)", False),
        ("--topology", "join graph shape: chain, cycle, or star (default chain)", False),
        (
            "--selectivity",
            "edge selectivity sampler: steinbrunn or minmax (default steinbrunn)",
            False,
        ),
        ("--metrics", "number of cost metrics to optimize, 1-3 (default 3)", False),
        ("--algos", "comma list of rmq, ii, sa, 2p, nsga2, dp:<alpha>", False),
        ("--budget-ms", "time budget per run", False),
        ("--budget-iters", "iteration budget per run", False),
        ("--sample-ms", "sampling interval (iterations under --budget-iters)", False),
        ("--seeds", "comma list and/or A-B ranges", False),
        ("--reference", "reference frontier mode: union or exact", False),
        ("--out", "samples CSV path", False),
    ],
    "stats": [
        ("--tables", "comma list of table counts (default 10,25,50,100)", False),
        ("--topology", "join graph shape: chain, cycle, or star (default chain)", False),
        (
            "--selectivity",
            "edge selectivity sampler: steinbrunn or minmax (default steinbrunn)",
            False,
        ),
        ("--metrics", "number of cost metrics to optimize, 1-3 (default 3)", False),
        ("--seeds", "comma list and/or A-B ranges", False),
        ("--rmq-iters", "optimizer iterations for Pareto-set sizes (0 skips them)", False),
    ],
    "oracle": [
        ("--tables", "tables per query", True),
        ("--topology", "join graph shape: chain, cycle, or star (default chain)", False),
        (
            "--selectivity",
            "edge selectivity sampler: steinbrunn or minmax (default steinbrunn)",
            False,
        ),
        ("--metrics", "number of cost metrics to optimize, 1-3 (default 3)", False),
        ("--seed", "instance seed (default 0)", False),
        ("--alpha", "DP approximation factor; omitted runs the exhaustive oracle", False),
    ],
}

# a valid [experiment] value for each run option but --config
_RUN_VALUES = {
    "tables": "3",
    "topology": "star",
    "selectivity": "minmax",
    "metrics": "2",
    "algos": "ii",
    "budget_ms": "1",
    "budget_iters": "1",
    "sample_ms": "1",
    "seeds": "0",
    "reference": "union",
    "out": "samples.csv",
}

_TYPED_RUN_OPTIONS = ("tables", "metrics", "budget_ms", "budget_iters", "sample_ms")


def _surface() -> dict:
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: [
            (action.option_strings[-1], action.help, action.required)
            for action in command._actions
            if action.dest != "help"
        ]
        for name, command in commands.choices.items()
    }


def _run_with_config(capsys, cfg, text, *flags):
    """Run with config ``text``, plus flags that make a run finish at once
    should the file be accepted."""
    cfg.write_text(text)
    return run_cli(
        capsys, "run", "--config", str(cfg),
        "--tables", "3", "--seeds", "0", "--algos", "ii", "--sample-ms", "1",
        *(flags or ("--budget-iters", "1")),
    )


class TestSurface:
    def test_flags_and_help(self):
        assert _surface() == _SURFACE

    def test_experiment_keys_are_run_options(self, tmp_path, capsys):
        keys = [flag[2:].replace("-", "_") for flag, _, _ in _SURFACE["run"][1:]]
        assert keys == list(_RUN_VALUES)
        for key, value in _RUN_VALUES.items():
            if key == "out":
                value = str(tmp_path / value)
            budget = ("--budget-ms", "1") if key == "budget_ms" else ()
            code, _, err = _run_with_config(
                capsys, tmp_path / "exp.ini", f"[experiment]\n{key} = {value}\n", *budget
            )
            assert code == 0, (key, err)

    @pytest.mark.parametrize("key", ["config", "rmq_iters", "seed", "alpha", "budget-ms"])
    def test_other_keys_rejected(self, tmp_path, capsys, key):
        code, out, err = _run_with_config(
            capsys, tmp_path / "exp.ini", f"[experiment]\n{key} = 1\n"
        )
        assert code == 1
        assert key in err and "config error" in err
        assert out == ""

    @pytest.mark.parametrize("key", _TYPED_RUN_OPTIONS)
    def test_bad_typed_value_exits_1(self, tmp_path, capsys, key):
        code, out, err = run_cli(capsys, "run", "--" + key.replace("_", "-"), "many")
        assert (code, out) == (1, "")
        assert "many" in err
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\n{key} = many\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "many" in err and str(cfg) in err


class TestParsing:
    def test_no_command_is_config_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_bad_flag_value(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--tables", "many")
        assert code == 1

    @pytest.mark.parametrize("key", _TYPED_RUN_OPTIONS)
    def test_flag_and_file_give_one_error(self, tmp_path, capsys, key):
        # one parser per option, so a bad value reads the same from both
        _, _, flag_err = run_cli(capsys, "run", "--" + key.replace("_", "-"), "many")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\n{key} = many\n")
        _, _, file_err = run_cli(capsys, "run", "--config", str(cfg))
        assert flag_err.startswith(f"moqo: config error: bad value for {key!r}: ")
        assert file_err == flag_err.replace(f"{key!r}:", f"{key!r} in {str(cfg)!r}:")

    def test_unknown_algorithm(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--tables", "4", "--algos", "quantum", "--budget-iters", "5"
        )
        assert code == 1
        assert "config error" in err

    def test_bad_topology(self, capsys):
        code, _, err = run_cli(capsys, "run", "--tables", "4", "--topology", "mesh")
        assert code == 1
        assert "mesh" in err

    @pytest.mark.parametrize(
        "argv", [("run", "--budget-iters", "1"), ("stats",)], ids=["run", "stats"]
    )
    def test_empty_seeds_are_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--tables", "4", "--seeds", "")
        assert code == 1
        assert "config error" in err
        assert "seed" in err
        assert out == ""

    def test_bad_seeds(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--tables", "4", "--seeds", "5-2", "--budget-iters", "5"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--tables", "5", "--budget-iters", "3", "--seeds=-3,3"),
            ("stats", "--tables", "5", "--seeds=-3"),
            ("oracle", "--tables", "5", "--seed=-3"),
        ],
        ids=["run", "stats", "oracle"],
    )
    def test_negative_seed_is_config_error(self, capsys, argv):
        # random.Random(-3) seeds like random.Random(3), so seed -3 would
        # run instance 3 again
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "config error" in err
        assert "seed must be an int >= 0, got -3" in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--algos", "dp:nan", "--budget-iters", "5"),
            ("--budget-ms", "nan"),
            ("--budget-ms", "inf"),
            ("--budget-iters", "5", "--sample-ms", "nan"),
        ],
        ids=["dp-nan", "budget-nan", "budget-inf", "sample-nan"],
    )
    def test_non_finite_values_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "run", "--tables", "4", "--seeds", "0", *flags)
        assert code == 1
        assert "config error" in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [("--tables", "200"), ("--tables", "2", "--topology", "cycle")],
        ids=["too-many-tables", "short-cycle"],
    )
    def test_out_of_range_instance_is_config_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "run", *flags, "--budget-iters", "1", "--seeds", "0")
        assert code == 1
        assert "config error" in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--seeds", "0,0"),
            ("--seeds", "0-2,1"),
            ("--seeds", "0", "--algos", "rmq,rmq"),
            ("--seeds", "0", "--algos", "dp:2,dp:2.0"),
        ],
        ids=["seed", "seed-in-range", "algorithm", "dp-factor"],
    )
    def test_repeats_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "run", "--tables", "4", "--budget-iters", "2", *flags)
        assert code == 1
        assert "config error" in err
        assert out == ""

    def test_oversized_sample_grid_rejected(self, capsys):
        # one mark over the bound, with a DP run that is cheap even
        # where the grid is built
        code, out, err = run_cli(
            capsys, "run", "--tables", "4", "--budget-iters", "100001", "--sample-ms", "1",
            "--seeds", "0", "--algos", "dp:1",
        )
        assert code == 1
        assert "config error" in err
        assert out == ""

    def test_both_budgets_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--tables", "4",
            "--budget-ms", "100",
            "--budget-iters", "10",
        )
        assert code == 1


class TestOracle:
    def test_exhaustive_output(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--tables", "3", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "metric0,metric1,metric2"
        assert len(lines) >= 2
        for line in lines[1:]:
            parts = [float(tok) for tok in line.split(",")]
            assert len(parts) == 3
            assert all(p >= 1.0 for p in parts)

    def test_dp_alpha_one_matches_exhaustive(self, capsys):
        code, exact_out, _ = run_cli(capsys, "oracle", "--tables", "4", "--seed", "2")
        assert code == 0
        code, dp_out, _ = run_cli(
            capsys, "oracle", "--tables", "4", "--seed", "2", "--alpha", "1.0"
        )
        assert code == 0
        assert exact_out == dp_out

    def test_metric_subset(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--tables", "3", "--metrics", "2", "--seed", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == "metric0,metric1"

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_metrics_agree_with_runs(self, capsys, monkeypatch, count, seed):
        # the oracle optimizes the metric subset a run draws for the seed
        seen = []
        run_one = harness._run_one

        def spy(cfg, algorithm, model, cell_seed):
            seen.append(model.metrics)
            return run_one(cfg, algorithm, model, cell_seed)

        monkeypatch.setattr(harness, "_run_one", spy)
        cfg = ExperimentConfig(
            n=4,
            metrics_count=count,
            seeds=(seed,),
            algorithms=("ii",),
            budget_ms=None,
            budget_iters=1,
        )
        run_experiment(cfg)
        code, out, _ = run_cli(
            capsys,
            "oracle", "--tables", "4", "--metrics", str(count), "--seed", str(seed),
        )
        assert code == 0
        assert out.splitlines()[0] == ",".join(f"metric{k}" for k in seen[0])

    @pytest.mark.parametrize("count", ["0", "4"])
    def test_metric_count_out_of_range(self, capsys, count):
        code, out, err = run_cli(capsys, "oracle", "--tables", "3", "--metrics", count)
        assert code == 1
        assert f"metric count {count} outside [1, 3]" in err
        assert out == ""

    def test_too_many_tables_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--tables", "9")
        assert code == 1
        assert "alpha" in err

    def test_dp_allowed_beyond_exhaustive_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--tables", "8", "--alpha", "2.0", "--seed", "0"
        )
        assert code == 0
        assert len(out.strip().splitlines()) >= 2

    def test_alpha_below_one(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--tables", "3", "--alpha", "0.5"
        )
        assert code == 1

    def test_alpha_nan(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "--tables", "3", "--alpha", "nan"
        )
        assert code == 1
        assert "config error" in err
        assert out == ""


class TestStats:
    def test_basic_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stats",
            "--tables", "3,4",
            "--seeds", "0-3",
            "--rmq-iters", "20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,median_path_length,median_pareto_size"
        assert len(lines) == 3
        for line in lines[1:]:
            n, path, size = line.split(",")
            assert int(n) in (3, 4)
            assert float(path) >= 0
            assert float(size) >= 1

    def test_without_rmq_iters_sizes_blank(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--tables", "3", "--seeds", "0-2")
        assert code == 0
        data = out.strip().splitlines()[1]
        assert data.endswith(",")

    def test_bad_table_list(self, capsys):
        code, _, _ = run_cli(capsys, "stats", "--tables", "3;4")
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--rmq-iters", "-2"),
            ("--metrics", "4"),
            ("--metrics", "0"),
            ("--tables", ","),
            ("--seeds", "1,1"),
            ("--tables", "3,3"),
            ("--seeds", "0-1", "--tables", "3,4,3"),
        ],
        ids=[
            "negative-iters",
            "metrics-4",
            "metrics-0",
            "no-tables",
            "repeated-seed",
            "repeated-table-count",
            "repeated-table-count-two-seeds",
        ],
    )
    def test_invalid_config_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "stats", "--seeds", "0", *flags)
        assert code == 1
        assert "config error" in err
        assert out == ""

    def test_bad_table_count_rejected_before_any_run(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(
            harness, "instance_model", lambda n, *a, **k: built.append(n)
        )
        code, out, err = run_cli(
            capsys, "stats", "--tables", "50,200", "--seeds", "0-9", "--rmq-iters", "20"
        )
        assert code == 1
        assert "config error" in err and "200" in err
        assert built == [] and out == ""


class TestRun:
    def test_stdout_csv_when_no_out(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--tables", "4",
            "--metrics", "2",
            "--algos", "ii",
            "--budget-iters", "20",
            "--sample-ms", "10",
            "--seeds", "0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "algorithm,seed,elapsed_ms,alpha_error"
        assert len(lines) == 3
        assert all(line.startswith("ii,0,") for line in lines[1:])

    def test_csv_files_written(self, tmp_path, capsys):
        out_path = tmp_path / "r.csv"
        code, out, _ = run_cli(
            capsys,
            "run",
            "--tables", "4",
            "--algos", "rmq,ii",
            "--budget-iters", "20",
            "--sample-ms", "10",
            "--seeds", "0,1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert (tmp_path / "r.agg.csv").exists()
        assert "wrote" in out

    def test_deterministic_under_iteration_budget(self, tmp_path, capsys):
        args = (
            "run",
            "--tables", "4",
            "--algos", "rmq,sa",
            "--budget-iters", "25",
            "--sample-ms", "5",
            "--seeds", "0-2",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_stdout_rows_equal_csv_rows(self, tmp_path, capsys):
        args = (
            "run",
            "--tables", "4",
            "--algos", "rmq,sa,2p",
            "--budget-iters", "15",
            "--sample-ms", "5",
            "--seeds", "0,1",
        )
        out_path = tmp_path / "r.csv"
        code_a, out, _ = run_cli(capsys, *args)
        code_b, _, _ = run_cli(capsys, *args, "--out", str(out_path))
        assert code_a == code_b == 0
        printed = out.strip().splitlines()
        written = [
            line
            for line in out_path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(printed) > 1
        assert printed == written

    def test_unset_options_keep_library_defaults(self, tmp_path, capsys):
        # only the flags given reach ExperimentConfig; the rest, and the
        # 10-table default of run, show in the CSV's resolved config
        out_path = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--algos", "ii",
            "--budget-iters", "2",
            "--seeds", "0",
            "--out", str(out_path),
        )
        assert code == 0
        want = ExperimentConfig(
            n=10,
            algorithms=("ii",),
            budget_ms=None,
            budget_iters=2,
            seeds=(0,),
            output_path=str(out_path),
        )
        lines = out_path.read_text().splitlines()
        assert [line[2:] for line in lines if line.startswith("# ")] == want.resolved_lines()

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--tables", "4",
            "--algos", "ii",
            "--budget-iters", "5",
            "--sample-ms", "5",
            "--seeds", "0",
            "--out", str(tmp_path / "no_dir" / "x.csv"),
        )
        assert code == 2
        assert "no_dir" in err

    @pytest.mark.xfail(
        strict=True,
        reason="costs overflow to inf on 128-table stars (ROADMAP item 4)",
    )
    def test_128_table_star_runs(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--tables", "128",
            "--topology", "star",
            "--budget-iters", "3",
            "--sample-ms", "3",
            "--seeds", "3",
            "--algos", "ii",
        )
        assert code == 0, err

    def test_exact_reference_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--tables", "4",
            "--algos", "ii",
            "--budget-iters", "50",
            "--sample-ms", "25",
            "--seeds", "0",
            "--reference", "exact",
        )
        assert code == 0
        final = out.strip().splitlines()[-1]
        assert float(final.rsplit(",", 1)[1]) >= 1.0


class TestConfigFile:
    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "tables = 4\n"
            "metrics = 2\n"
            "algos = ii\n"
            "budget_iters = 10\n"
            "sample_ms = 5\n"
            "seeds = 0\n"
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "algorithm,seed,elapsed_ms,alpha_error"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\ntables = 4\nalgos = ii\nbudget_iters = 10\n"
            "sample_ms = 5\nseeds = 0\n"
        )
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--algos", "sa"
        )
        assert code == 0
        assert all(
            line.startswith("sa,") for line in out.strip().splitlines()[1:]
        )

    @pytest.mark.parametrize(
        "in_file,flags,header",
        [
            (
                "budget_ms = 100",
                ("--budget-iters", "2", "--sample-ms", "1"),
                ["# budget_ms=None", "# budget_iters=2"],
            ),
            (
                "budget_iters = 2",
                ("--budget-ms", "50", "--sample-ms", "25"),
                ["# budget_ms=50.0", "# budget_iters=None"],
            ),
        ],
        ids=["iters-over-ms", "ms-over-iters"],
    )
    def test_budget_flag_replaces_file_budget(self, tmp_path, capsys, in_file, flags, header):
        out_path = tmp_path / "r.csv"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\n{in_file}\n")
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), *flags,
            "--tables", "3", "--seeds", "0", "--algos", "ii", "--out", str(out_path),
        )
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert [line for line in lines if line.startswith("# budget_")] == header

    def test_both_budget_flags_rejected_over_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nbudget_ms = 100\n")
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg), "--budget-ms", "50", "--budget-iters", "2",
            "--sample-ms", "1", "--tables", "3", "--seeds", "0", "--algos", "ii",
        )
        assert code == 1
        assert "at most one of budget_ms and budget_iters" in err
        assert out == ""

    def test_catalog_section(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\ntables = 3\nalgos = ii\nbudget_iters = 10\n"
            "sample_ms = 5\nseeds = 0\n"
            "[catalog]\nscan_ops = s:1.0\njoin_ops = hash\n"
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0

    def test_catalog_coefficient_validated(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\ntables = 3\nalgos = ii\nbudget_iters = 10\n"
            "sample_ms = 5\nseeds = 0\n"
            "[catalog]\nscan_ops = s:1.0\njoin_ops = sort_merge:-5\n"
        )
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "config error" in err
        assert "buffer_pages" in err
        assert out == ""

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.ini")
        assert code == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nwarp_speed = 9\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "warp_speed" in err

    @pytest.mark.parametrize(
        "text,named",
        [
            ("[experimnet]\ntables = 4\n", "[experimnet]"),
            ("[experiment]\ntables = 4\n[Catalog]\njoin_ops = hash\n", "[Catalog]"),
            ("[catalog]\nscan_ops = s:1\njoin_ops = hash\nbuffer_ops = 3\n", "buffer_ops"),
            ("[DEFAULT]\nwarp_speed = 9\n[catalog]\nscan_ops = s:1\njoin_ops = hash\n", "warp_speed"),
            ("[DEFAULT]\ntables = 4\n[catalog]\nscan_ops = s:1\njoin_ops = hash\n", "tables"),
        ],
        ids=["section", "section-case", "catalog-key", "default-key", "default-unread"],
    )
    def test_unknown_section_or_key_rejected(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        # flags that make a run finish at once should the file be accepted
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg),
            "--budget-iters", "1", "--sample-ms", "1", "--seeds", "0", "--algos", "ii",
        )
        assert code == 1
        assert "config error" in err
        assert named in err
        assert str(cfg) in err
        assert out == ""

    def test_default_section_reaches_experiment_only(self, tmp_path, capsys):
        # configparser merges [DEFAULT] into [catalog] too, which reads
        # none of its keys
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[DEFAULT]\ntables = 3\nalgos = ii\n"
            "[experiment]\nbudget_iters = 10\nsample_ms = 5\nseeds = 0\n"
            "[catalog]\nscan_ops = s:1.0\njoin_ops = hash, sort_merge:8\n"
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows and all(row.startswith("ii,0,") for row in rows)

    def test_bare_percent_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nout = runs%.csv\n")
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg),
            "--budget-iters", "1", "--sample-ms", "1", "--seeds", "0", "--algos", "ii",
        )
        assert code == 1
        assert "config error" in err
        assert str(cfg) in err
        assert out == ""

    def test_double_percent_is_one_percent(self, tmp_path, capsys):
        out_path = tmp_path / "runs%.csv"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\ntables = 3\nalgos = ii\nbudget_iters = 1\n"
            f"sample_ms = 1\nseeds = 0\nout = {tmp_path}/runs%%.csv\n"
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert out_path.exists(), out

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("not an ini file at all [ [[")
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1


def test_import_loads_only_the_standard_library():
    # a fresh interpreter, because pytest and its plugins import modules of
    # their own; modules loaded before moqo (site hooks) are left out
    code = (
        "import sys; before = set(sys.modules); import moqo.cli; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "sys.exit(sorted(new - sys.stdlib_module_names - {'moqo'}) or None)"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
