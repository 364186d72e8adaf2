"""Command line front end.

Subcommands:
  run     execute a benchmark experiment and write CSV results
  stats   report climb path lengths and Pareto-set sizes per table count
  oracle  print the exact or DP frontier of one generated instance

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime
failures (I/O, budget-infeasible oracle runs, internal errors).
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .baselines import MAX_EXHAUSTIVE_TABLES, dp_frontier, exhaustive_frontier
from .costmodel import N_METRICS, Topology
from .harness import (
    BASE_ALGORITHMS,
    SAMPLES_HEADER,
    ClimbStatsConfig,
    ExperimentConfig,
    ReferenceMode,
    _split_tokens,
    climb_stats,
    instance_model,
    parse_catalog_spec,
    run_experiment,
    sample_row,
)
from .querygen import GenSpec, SelectivityMode


# the table count of ``moqo run`` when neither a flag nor the config sets it
_RUN_TABLES = 10


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems with exit code 1."""

    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_seeds(raw: str) -> tuple:
    """Accept comma-separated ints and inclusive A-B ranges."""
    seeds: list = []
    for token in _split_tokens(raw):
        sep = token.find("-", 1)
        if sep != -1:
            try:
                start, stop = int(token[:sep]), int(token[sep + 1 :])
            except ValueError as exc:
                raise _ConfigError(f"bad seed range {token!r}") from exc
            if stop < start:
                raise _ConfigError(f"empty seed range {token!r}")
            seeds.extend(range(start, stop + 1))
        else:
            try:
                seeds.append(int(token))
            except ValueError as exc:
                raise _ConfigError(f"bad seed {token!r}") from exc
    if not seeds:
        raise _ConfigError("no seeds given")
    return tuple(seeds)


def _enum_value(cls, raw: str, what: str):
    try:
        return cls(raw)
    except ValueError as exc:
        choices = ", ".join(member.value for member in cls)
        raise _ConfigError(f"unknown {what} {raw!r}; choose from {choices}") from exc


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        default=None,
        help=f"join graph shape: chain, cycle, or star (default {GenSpec.topology.value})",
    )
    parser.add_argument(
        "--selectivity",
        default=None,
        help="edge selectivity sampler: steinbrunn or minmax "
        f"(default {GenSpec.selectivity_mode.value})",
    )
    parser.add_argument(
        "--metrics",
        type=int,
        default=None,
        help=f"number of cost metrics to optimize, 1-{N_METRICS} (default {N_METRICS})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moqo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--config", default=None, help="INI config file; flags override it")
    run.add_argument(
        "--tables", type=int, default=None, help=f"tables per query (default {_RUN_TABLES})"
    )
    _add_instance_flags(run)
    run.add_argument(
        "--algos",
        default=None,
        help=f"comma list of {', '.join(BASE_ALGORITHMS)}, dp:<alpha>",
    )
    run.add_argument("--budget-ms", type=float, default=None, help="time budget per run")
    run.add_argument(
        "--budget-iters", type=int, default=None, help="iteration budget per run"
    )
    run.add_argument(
        "--sample-ms",
        type=float,
        default=None,
        help="sampling interval (iterations under --budget-iters)",
    )
    run.add_argument("--seeds", default=None, help="comma list and/or A-B ranges")
    run.add_argument(
        "--reference", default=None, help="reference frontier mode: union or exact"
    )
    run.add_argument("--out", default=None, help="samples CSV path")

    stats = sub.add_parser(
        "stats", help="climb path and Pareto-set statistics"
    )
    stats.add_argument(
        "--tables",
        default=None,
        help="comma list of table counts (default "
        f"{','.join(map(str, ClimbStatsConfig.table_counts))})",
    )
    _add_instance_flags(stats)
    stats.add_argument("--seeds", default=None, help="comma list and/or A-B ranges")
    stats.add_argument(
        "--rmq-iters",
        type=int,
        default=None,
        help="optimizer iterations for Pareto-set sizes (0 skips them)",
    )

    oracle = sub.add_parser(
        "oracle", help="print a reference frontier"
    )
    oracle.add_argument("--tables", type=int, required=True, help="tables per query")
    _add_instance_flags(oracle)
    oracle.add_argument(
        "--seed", type=int, default=None, help=f"instance seed (default {GenSpec.seed})"
    )
    oracle.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="DP approximation factor; omitted runs the exhaustive oracle",
    )
    return parser


_CONFIG_KEYS = {
    "tables": int,
    "topology": str,
    "selectivity": str,
    "metrics": int,
    "algos": str,
    "budget_ms": float,
    "budget_iters": int,
    "sample_ms": float,
    "seeds": str,
    "reference": str,
    "out": str,
}


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise _ConfigError(f"malformed config file {path!r}: {exc}") from exc
    out: dict = {}
    if parser.has_section("experiment"):
        for key, raw in parser.items("experiment"):
            if key not in _CONFIG_KEYS:
                raise _ConfigError(f"unknown config key {key!r} in {path!r}")
            try:
                out[key] = _CONFIG_KEYS[key](raw)
            except ValueError as exc:
                raise _ConfigError(f"bad value for {key!r} in {path!r}: {raw}") from exc
    if parser.has_section("catalog"):
        scans = parser.get("catalog", "scan_ops", fallback="")
        joins = parser.get("catalog", "join_ops", fallback="")
        try:
            out["catalog"] = parse_catalog_spec(scans, joins)
        except (ValueError, KeyError) as exc:
            raise _ConfigError(f"bad catalog in {path!r}: {exc}") from exc
    return out


def _given(args: argparse.Namespace, keys) -> dict:
    """The options among ``keys`` that the command line sets."""
    return {k: v for k, v in vars(args).items() if k in keys and v is not None}


# option -> (library field, parser or None to pass the value as is), for
# the options not named and typed as their field; an option left unset is
# not passed, so its default lives in the library alone
_FIELDS = {
    "topology": ("topology", lambda raw: _enum_value(Topology, raw, "topology")),
    "selectivity": (
        "selectivity_mode",
        lambda raw: _enum_value(SelectivityMode, raw, "selectivity mode"),
    ),
    "metrics": ("metrics_count", None),
    "algos": ("algorithms", lambda raw: tuple(_split_tokens(raw))),
    "sample_ms": ("sample_interval", None),
    "seeds": ("seeds", _parse_seeds),
    "reference": (
        "reference_mode",
        lambda raw: _enum_value(ReferenceMode, raw, "reference mode"),
    ),
    "out": ("output_path", None),
    "rmq_iters": ("rmq_iterations", None),
}


def _fields(values: dict) -> dict:
    """Library keyword arguments for the options given, parsed."""
    out = {}
    for key, value in values.items():
        name, parse = _FIELDS.get(key, (key, None))
        out[name] = value if parse is None else parse(value)
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    values = _load_config_file(args.config) if args.config else {}
    values.update(_given(args, _CONFIG_KEYS))
    # run's own rules: a table count default, and no time budget when
    # only an iteration budget is given
    n = values.pop("tables", _RUN_TABLES)
    if "budget_iters" in values and "budget_ms" not in values:
        values["budget_ms"] = None
    try:
        cfg = ExperimentConfig(n=n, **_fields(values))
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    samples, aggregates = run_experiment(cfg)
    if not cfg.output_path:
        print(SAMPLES_HEADER)
        for s in samples:
            print(sample_row(s))
    else:
        print(f"wrote {len(samples)} samples to {cfg.output_path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    keys = ("topology", "selectivity", "metrics", "seeds", "rmq_iters")
    kwargs = _fields(_given(args, keys))
    if args.tables is not None:
        try:
            kwargs["table_counts"] = tuple(int(tok) for tok in _split_tokens(args.tables))
        except ValueError as exc:
            raise _ConfigError(f"bad table counts {args.tables!r}") from exc
    try:
        rows = climb_stats(ClimbStatsConfig(**kwargs))
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    print("n,median_path_length,median_pareto_size")
    for row in rows:
        size = row["median_pareto_size"]
        print(f"{row['n']},{row['median_path_length']:g},{'' if size is None else f'{size:g}'}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _fields(_given(args, ("topology", "selectivity", "metrics", "seed")))
    try:
        model = instance_model(args.tables, **instance)
        if args.alpha is not None:
            archive = dp_frontier(model, args.alpha)
        elif args.tables > MAX_EXHAUSTIVE_TABLES:
            raise ValueError(
                f"exhaustive oracle supports at most {MAX_EXHAUSTIVE_TABLES} tables; "
                "pass --alpha to use DP"
            )
        else:
            archive = exhaustive_frontier(model)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    costs = sorted(archive.costs())
    print(",".join(f"metric{k}" for k in model.metrics))
    for cost in costs:
        print(",".join(repr(c) for c in cost))
    return 0


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {"run": _cmd_run, "stats": _cmd_stats, "oracle": _cmd_oracle}[args.command]
    try:
        return handler(args)
    except _ConfigError as exc:
        print(f"moqo: config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"moqo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
