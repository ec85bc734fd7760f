"""Compile-path benchmark: instrumentation time per Table 2 kernel.

Times ``instrument_program`` on the Resilient-Optimized configuration
(index-set splitting + inspector hoisting — the most analysis-heavy
build) per benchmark and writes ``BENCH_instrument.json``.  Every timed
slow and fast repeat starts from a cleared artifact store, so it
computes its own polyhedral analysis (the ``poly`` namespace) and ISL
memos:

* **slow_s** — the ISL slow path (:func:`repro.isl.fastpath.slow_path`:
  gist pruning, emptiness/FM memoization and the subset short-circuit
  disabled).  This is the same-machine comparison the ``--fail-below``
  gate uses (CI runs ``--quick --fail-below 1.0``: the fast path must
  never lose).
* **fast_s** — the fast path, each repeat a *cold* compile.
* **pair_cold_s** — Figure 10's pair from a cleared store: Resilient,
  then Resilient-Optimized, as
  :func:`repro.experiments.figure10.build_benchmark` builds them (the
  second reads the first's shared analysis).
* **cached_s** — a content-addressed instrumentation-cache hit
  (:mod:`repro.instrument.cache`), the steady-state cost for campaign
  sweeps and repeated harness runs.

``PRE_PR_BASELINE_S`` records the wall-clock of the same protocol at
the commit preceding the fast-compile work (measured via a git
worktree on the reference machine); ``speedup_vs_pre_pr`` includes the
untoggleable optimizations (integer coefficient representation,
constraint-row interning) that benefit both paths.  On other machines
those numbers are indicative only — the slow/fast ratio is the
portable metric.  See docs/COMPILE_PERF.md.

Usage::

    PYTHONPATH=src python benchmarks/bench_instrument.py
    PYTHONPATH=src python benchmarks/bench_instrument.py --quick \
        --fail-below 1.0 --out BENCH_instrument.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.figure10 import OPTIMIZED, RESILIENT  # noqa: E402
from repro.instrument.cache import (  # noqa: E402
    clear_cache,
    instrument_cached,
)
from repro.instrument.pipeline import instrument_program  # noqa: E402
from repro.ir.printer import program_to_text  # noqa: E402
from repro.isl import fastpath  # noqa: E402
from repro.programs import ALL_BENCHMARKS  # noqa: E402
from repro.service.store import clear_store  # noqa: E402

# Wall-clock of this protocol (min of 3 cold repeats) at commit
# 7658625 — the tree before the fast compile path — on the reference
# machine that produced the checked-in BENCH_instrument.json.
PRE_PR_BASELINE_S = {
    "adi": 5.091803,
    "cg": 0.008039,
    "cholesky": 0.491583,
    "dsyrk": 0.039835,
    "jacobi1d": 0.162645,
    "lu": 0.426046,
    "moldyn": 0.003691,
    "seidel": 1.301549,
    "strsm": 0.147281,
    "trisolv": 0.102526,
}


def bench_one(name: str, repeats: int) -> dict:
    program = ALL_BENCHMARKS[name].program()
    instrument_program(program, OPTIMIZED)  # warm code paths / imports

    slow_s = float("inf")
    slow_text = None
    with fastpath.slow_path():
        for _ in range(repeats):
            clear_store()
            start = time.perf_counter()
            slow_program, _ = instrument_program(program, OPTIMIZED)
            slow_s = min(slow_s, time.perf_counter() - start)
        slow_text = program_to_text(slow_program)

    fast_s = float("inf")
    for _ in range(repeats):
        clear_store()
        start = time.perf_counter()
        fast_program, _ = instrument_program(program, OPTIMIZED)
        fast_s = min(fast_s, time.perf_counter() - start)
    # The timing loop doubles as a sanity check: both paths must build
    # the same program (the differential suite in tests/isl is the
    # authoritative test).
    assert program_to_text(fast_program) == slow_text, (
        f"{name}: fast and slow ISL paths disagree"
    )

    pair_cold_s = float("inf")
    for _ in range(repeats):
        clear_store()
        start = time.perf_counter()
        instrument_program(program, RESILIENT)
        instrument_program(program, OPTIMIZED)
        pair_cold_s = min(pair_cold_s, time.perf_counter() - start)

    clear_cache()
    instrument_cached(program, OPTIMIZED)  # populate
    cached_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        instrument_cached(program, OPTIMIZED)
        cached_s = min(cached_s, time.perf_counter() - start)

    baseline_s = PRE_PR_BASELINE_S.get(name)
    return {
        "benchmark": name,
        "slow_s": slow_s,
        "fast_s": fast_s,
        "pair_cold_s": pair_cold_s,
        "cached_s": cached_s,
        "speedup": slow_s / fast_s,
        "pre_pr_baseline_s": baseline_s,
        "speedup_vs_pre_pr": (
            baseline_s / fast_s if baseline_s is not None else None
        ),
    }


def geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        choices=sorted(ALL_BENCHMARKS),
        help="subset to time (default: all 10)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="1 repeat, 3 benchmarks — the CI smoke set",
    )
    parser.add_argument("--out", default="BENCH_instrument.json")
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 when the geomean slow/fast speedup is below X",
    )
    args = parser.parse_args(argv)

    names = args.benchmarks or list(sorted(ALL_BENCHMARKS))
    repeats = args.repeats
    if args.quick:
        names = args.benchmarks or ["jacobi1d", "trisolv", "cholesky"]
        repeats = 1

    rows = []
    for name in names:
        row = bench_one(name, repeats)
        rows.append(row)
        vs_pre = (
            f" vs-pre-PR={row['speedup_vs_pre_pr']:6.2f}x"
            if row["speedup_vs_pre_pr"] is not None
            else ""
        )
        print(
            f"{row['benchmark']:<10} slow={row['slow_s'] * 1000:9.1f}ms "
            f"fast={row['fast_s'] * 1000:9.1f}ms "
            f"pair={row['pair_cold_s'] * 1000:9.1f}ms "
            f"cached={row['cached_s'] * 1000:7.2f}ms "
            f"speedup={row['speedup']:6.2f}x{vs_pre}"
        )

    summary = {
        "repeats": repeats,
        "options": "index_set_splitting=True, hoist_inspectors=True",
        "geomean_speedup": geomean([row["speedup"] for row in rows]),
        "total_slow_s": sum(row["slow_s"] for row in rows),
        "total_fast_s": sum(row["fast_s"] for row in rows),
    }
    summary["total_speedup"] = (
        summary["total_slow_s"] / summary["total_fast_s"]
    )
    vs_pre_pr = [
        row["speedup_vs_pre_pr"]
        for row in rows
        if row["speedup_vs_pre_pr"] is not None
    ]
    if vs_pre_pr:
        summary["geomean_speedup_vs_pre_pr"] = geomean(vs_pre_pr)
    line = (
        f"{'geomean':<10} slow/fast={summary['geomean_speedup']:.2f}x  "
        f"total={summary['total_speedup']:.2f}x"
    )
    if vs_pre_pr:
        line += f"  vs-pre-PR={summary['geomean_speedup_vs_pre_pr']:.2f}x"
    print(line)

    payload = {"benchmarks": rows, "summary": summary}
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if (
        args.fail_below is not None
        and summary["geomean_speedup"] < args.fail_below
    ):
        print(
            f"FAIL: geomean speedup {summary['geomean_speedup']:.2f}x "
            f"< required {args.fail_below:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
