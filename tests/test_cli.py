"""Command line interface: parsing, exit codes, output formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from moqo import harness
from moqo.cli import main
from moqo.harness import ExperimentConfig, run_experiment


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_seeds(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--tables", "4", "--seeds", "5-2", "--budget-iters", "5"
        )
        assert code == 1

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
        ],
        ids=["negative-iters", "metrics-4", "metrics-0", "no-tables"],
    )
    def test_invalid_config_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "stats", "--seeds", "0", *flags)
        assert code == 1
        assert "config error" in err
        assert out == ""


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
