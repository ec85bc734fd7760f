"""End-to-end campaign and Figure 10 benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inject-value --seed 1 \
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with no tracing installed;
``--trace 1`` reports the per-layer metrics from a run whose timed
rounds alternate between traced and untraced (the untraced ones give
``trace.overhead_frac``).  The line before it echoes the workload, the
seed and ``failed_frac``.  See ``perfbench/README.md`` for why each
workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: Cold set-ups per run (after one untimed warm-up set-up).
SETUP_ROUNDS = 9

WORKLOADS = ("inject-value", "inject-addr", "recover", "figure10")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse to run
    against any other copy of the package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    for variable in ("REPRO_ARTIFACT_STORE", "REPRO_INSTRUMENT_CACHE"):
        os.environ.pop(variable, None)  # every run starts without disk caches
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from spans import Tracer
    from workloads import make_workload, throughput

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, out_dir)
    tracer = Tracer(out_dir / "workers") if args.trace else None
    traced_wall = 0.0

    setups = []
    for index in range(SETUP_ROUNDS + 1):
        if tracer is not None and index:
            tracer.install()
        try:
            seconds = workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if index:
            setups.append(seconds)
            if tracer is not None:
                traced_wall += seconds

    workload.warm()
    rounds = []
    index = 0
    start = time.perf_counter()
    while not index or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            cells = workload.run_round(index)
        finally:
            if traced:
                tracer.uninstall()
                tracer.collect_workers()
        for cell in cells:
            cell.traced = traced
            if traced:
                traced_wall += cell.wall
        rounds.extend(cells)
        index += 1

    attempted, failed = workload.check()
    shutil.rmtree(out_dir, ignore_errors=True)

    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        from layers import layer_metrics

        metrics = layer_metrics(workload, tracer, rounds, traced_wall)
    else:
        metrics = {
            "items_per_s": (throughput(rounds), "1/s"),
            "items_per_cpu_s": (throughput(rounds, "cpu"), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": index,
        "setup_rounds": len(setups),
        "failed_frac": failed / max(1, attempted),
    }))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
