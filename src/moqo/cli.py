"""Command line front end.

Subcommands:
  run     execute a benchmark experiment and write CSV results
  stats   report climb path lengths and Pareto-set sizes per table count
  oracle  print the exact or DP frontier of one generated instance

Each option is defined once, in ``_OPTIONS``. Its flag is its name with
dashes, ``run``'s names are the ``[experiment]`` keys of a config file,
and flag and file values share one parser, so a bad value from either is
the same config error.

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
    STATS_TABLE_COUNTS,
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
        if sep == -1:
            seeds.append(int(token))
            continue
        start, stop = int(token[:sep]), int(token[sep + 1 :])
        if stop < start:
            raise ValueError(f"empty seed range {token!r}")
        seeds.extend(range(start, stop + 1))
    return tuple(seeds)


def _choice(cls, what: str):
    """The parser of a value of enum ``cls``."""

    def parse(raw: str):
        try:
            return cls(raw)
        except ValueError:
            choices = ", ".join(member.value for member in cls)
            raise ValueError(f"unknown {what} {raw!r}; choose from {choices}") from None

    return parse


# option -> (library field, parser of its text, help); the flag is the
# option with dashes, and an option left unset is not passed, so its
# default lives in the library alone
_OPTIONS = {
    "config": ("config", str, "INI config file; flags override it"),
    "tables": ("n", int, f"tables per query (default {ExperimentConfig.n})"),
    "topology": (
        "topology",
        _choice(Topology, "topology"),
        f"join graph shape: chain, cycle, or star (default {GenSpec.topology.value})",
    ),
    "selectivity": (
        "selectivity_mode",
        _choice(SelectivityMode, "selectivity mode"),
        "edge selectivity sampler: steinbrunn or minmax "
        f"(default {GenSpec.selectivity_mode.value})",
    ),
    "metrics": (
        "metrics_count",
        int,
        f"number of cost metrics to optimize, 1-{N_METRICS} (default {N_METRICS})",
    ),
    "algos": (
        "algorithms",
        lambda raw: tuple(_split_tokens(raw)),
        f"comma list of {', '.join(BASE_ALGORITHMS)}, dp:<alpha>",
    ),
    "budget_ms": ("budget_ms", float, "time budget per run"),
    "budget_iters": ("budget_iters", int, "iteration budget per run"),
    "sample_ms": ("sample_interval", float, "sampling interval (iterations under --budget-iters)"),
    "seeds": ("seeds", _parse_seeds, "comma list and/or A-B ranges"),
    "reference": (
        "reference_mode",
        _choice(ReferenceMode, "reference mode"),
        "reference frontier mode: union or exact",
    ),
    "out": ("output_path", str, "samples CSV path"),
    "rmq_iters": (
        "rmq_iterations", int, "optimizer iterations for Pareto-set sizes (0 skips them)"
    ),
    "seed": ("seed", int, f"instance seed (default {GenSpec.seed})"),
    "alpha": ("alpha", float, "DP approximation factor; omitted runs the exhaustive oracle"),
}

_INSTANCE = ("topology", "selectivity", "metrics")
_RUN = (
    "config", "tables", *_INSTANCE, "algos", "budget_ms", "budget_iters",
    "sample_ms", "seeds", "reference", "out",
)

# config section -> the keys it reads; [experiment] reads run's options
_CONFIG_SECTIONS = {
    "experiment": tuple(key for key in _RUN if key != "config"),
    "catalog": ("scan_ops", "join_ops"),
}


def _parsed(values: dict, options: dict, where: str = "") -> dict:
    """Library keyword arguments for the option texts in ``values``."""
    out = {}
    for key, raw in values.items():
        field, parse, _ = options[key]
        try:
            out[field] = parse(raw)
        except ValueError as exc:
            raise _ConfigError(f"bad value for {key!r}{where}: {exc}") from exc
    return out


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise _ConfigError(f"malformed config file {path!r}: {exc}") from exc
    # configparser merges [DEFAULT] into every section; some section must read each key
    defaults = parser.defaults()
    raw: dict = {}
    for section in parser.sections():
        keys = _CONFIG_SECTIONS.get(section)
        if keys is None:
            raise _ConfigError(f"unknown config section [{section}] in {path!r}")
        try:
            items = parser.items(section)  # interpolates, so a bare % raises here
        except configparser.Error as exc:
            raise _ConfigError(f"bad value in [{section}] of {path!r}: {exc}") from exc
        for key, value in items:
            if key in keys:
                raw[key] = value
            elif key not in defaults:
                raise _ConfigError(f"unknown config key {key!r} in [{section}] of {path!r}")
    for key in defaults:
        if key not in raw:
            raise _ConfigError(f"no section reads [DEFAULT] key {key!r} in {path!r}")
    scan_ops, join_ops = (raw.pop(key, "") for key in _CONFIG_SECTIONS["catalog"])
    out = _parsed(raw, _OPTIONS, f" in {path!r}")
    if parser.has_section("catalog"):
        try:
            out["catalog"] = parse_catalog_spec(scan_ops, join_ops)
        except (ValueError, KeyError) as exc:
            raise _ConfigError(f"bad catalog in {path!r}: {exc}") from exc
    return out


def _cmd_run(kwargs: dict) -> int:
    config = kwargs.pop("config", None)
    values = _load_config_file(config) if config else {}
    # a budget flag replaces the file's budget of either kind
    if "budget_ms" in kwargs or "budget_iters" in kwargs:
        values.pop("budget_ms", None)
        values.pop("budget_iters", None)
    values.update(kwargs)
    try:
        cfg = ExperimentConfig(**values)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    samples, _ = run_experiment(cfg)
    if not cfg.output_path:
        print(SAMPLES_HEADER)
        for s in samples:
            print(sample_row(s))
    else:
        print(f"wrote {len(samples)} samples to {cfg.output_path}")
    return 0


def _cmd_stats(kwargs: dict) -> int:
    try:
        rows = climb_stats(**kwargs)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    print("n,median_path_length,median_pareto_size")
    for row in rows:
        size = row["median_pareto_size"]
        print(f"{row['n']},{row['median_path_length']:g},{'' if size is None else f'{size:g}'}")
    return 0


def _cmd_oracle(kwargs: dict) -> int:
    alpha = kwargs.pop("alpha", None)
    try:
        model = instance_model(**kwargs)
        if alpha is not None:
            archive = dp_frontier(model, alpha)
        elif kwargs["n"] > MAX_EXHAUSTIVE_TABLES:
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


# command -> (handler, help, its options in flag order, the options it
# reads otherwise than _OPTIONS); oracle alone requires --tables
_COMMANDS = {
    "run": (_cmd_run, "run a benchmark experiment", _RUN, {}),
    "stats": (
        _cmd_stats,
        "climb path and Pareto-set statistics",
        ("tables", *_INSTANCE, "seeds", "rmq_iters"),
        {
            "tables": (
                "table_counts",
                lambda raw: tuple(int(tok) for tok in _split_tokens(raw)),
                "comma list of table counts (default "
                f"{','.join(map(str, STATS_TABLE_COUNTS))})",
            )
        },
    ),
    "oracle": (
        _cmd_oracle,
        "print a reference frontier",
        ("tables", *_INSTANCE, "seed", "alpha"),
        {"tables": ("n", int, "tables per query")},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moqo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (_, text, keys, own) in _COMMANDS.items():
        options = sub.add_parser(command, help=text)
        for key in keys:
            options.add_argument(
                "--" + key.replace("_", "-"),
                required=command == "oracle" and key == "tables",
                help={**_OPTIONS, **own}[key][2],
            )
    return parser


def main(argv: list | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, _, _, own = _COMMANDS[args.pop("command")]
    given = {key: raw for key, raw in args.items() if raw is not None}
    try:
        return handler(_parsed(given, {**_OPTIONS, **own}))
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
