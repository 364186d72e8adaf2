"""Run one moqo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rmq-star50 --seed 0 --seconds 20 --trace 0

Run from anywhere; the moqo sources are taken from ``src/`` next to this
directory. One process, one thread, one closed-loop caller. The run
repeats passes over the seed's units until ``--seconds`` is spent (at
least one pass), checks every output, and prints two JSON lines: a run
record with the workload's own metrics, then the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run makes one
untraced and one traced pass and reports the per-layer metrics.
"""

from __future__ import annotations

import os

# pin numpy/BLAS to one thread before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("rmq-star50", "rmq-star8-converge", "oracle-star8", "experiment-chain10")

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import moqo.cli; "
    "print(time.perf_counter() - t)"
)


def _import_seconds(repeats: int = 5) -> float:
    """Median time to import moqo in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def _git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository (the benchmark never looks above its checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _one_pass(workload, units, checker):
    """Set up, run and check one pass; returns its timings and results."""
    state, setup_s = _timed(workload.setup, units)
    out, wall_s = _timed(workload.run, state)
    digests, samples = workload.check(state, out, checker)
    return setup_s, wall_s, digests, samples


def measured_run(workload, units, seconds, checker) -> dict:
    """Untraced passes until the time is spent; end-to-end metrics."""
    import_s = _import_seconds()
    started = time.perf_counter()
    setups, walls, passes, digests = [], [], [], None
    while True:
        setup_s, wall_s, pass_digests, samples = _one_pass(workload, units, checker)
        setups.append(setup_s)
        walls.append(wall_s)
        passes.append(samples)
        if digests is None:
            digests = pass_digests
        else:
            checker.check(pass_digests == digests, "a repeated pass changed its digests")
        if time.perf_counter() - started + wall_s > seconds:
            break
    if len(walls) == 1:
        # a single pass: repeat its first unit to check reproducibility
        _, _, again, _ = _one_pass(workload, units[:1], checker)
        key = next(iter(again))
        checker.check(again[key] == digests[key], f"unit {key}: repeat changed its digest")
    while len(setups) < 3:
        setups.append(_timed(workload.setup, units)[1])
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = dict(workload.detail(walls, passes))
    detail.update(passes=len(walls), pass_walls_s=walls, import_s=import_s,
                  setup_inprocess_s=statistics.median(setups))
    return {"metrics": metrics, "detail": detail, "digests": digests}


def traced_run(workload, units, checker, spans_path) -> dict:
    """One untraced and one traced pass; per-layer metrics."""
    from tracer import Tracer, layer_metrics

    _, untraced_wall, digests, _ = _one_pass(workload, units, checker)
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        state, _ = _timed(workload.setup, units)
    finally:
        setup_tracer.uninstall()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("pass"):
            out, traced_wall = _timed(workload.run, state)
    finally:
        tracer.uninstall()
    traced_digests, _ = workload.check(state, out, checker)
    checker.check(traced_digests == digests, "traced digests differ from untraced ones")
    metrics = layer_metrics(tracer, setup_tracer, traced_wall, untraced_wall)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in tracer.span_rows():
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "spans": len(tracer.span_rows())}
    return {"metrics": metrics, "detail": detail, "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write traced spans as JSON lines here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "moqo" / "__init__.py").is_file():
        print(f"perfbench: no moqo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    from checks import Checker
    from workloads import workloads

    load = os.getloadavg()
    workload = workloads(SCRATCH)[args.workload]
    units = workload.units(args.seed)
    checker = Checker()
    try:
        if args.trace:
            result = traced_run(workload, units, checker, args.spans)
        else:
            result = measured_run(workload, units, args.seconds, checker)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    detail = result["detail"]
    detail["error_rate"] = checker.failed / checker.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "loadavg_start": list(load),
        "instances": list(result["digests"]),
        "digests": result["digests"],
        "failures": checker.failures[:20],
        "detail": detail,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
