"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads rmq-star50,oracle-star8 --seeds 0-9 \
        --seconds 20 --trace 0 --out spread.json

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
reports for every metric its median, its first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
spread as a share of the median. Failed checks are totalled per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(raw: str) -> list:
    out = []
    for token in raw.split(","):
        lo, _, hi = token.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma list")
    parser.add_argument("--seeds", required=True, help="comma list and/or A-B ranges")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        units: dict = {}
        attempted = failed = 0
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
            metrics.update(
                (k, (v, "")) for k, v in record["detail"].items() if isinstance(v, (int, float))
            )
            for name, (value, unit) in metrics.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        summary[workload] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: dict(unit=units[name], **summarise(vals)) for name, vals in values.items()
            },
        }
        for name, stats in summary[workload]["metrics"].items():
            print(f"  {workload} {name}: median {stats['median']:.6g} spread {stats['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
