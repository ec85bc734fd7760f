"""Backend shoot-out: interpreter vs compiled kernel.

Times the two execution backends on the instrumented (split + hoisted)
builds of the 10 paper benchmarks — the exact programs a Figure 10
campaign runs thousands of times — and writes ``BENCH_backends.json``.
The compiled kernel runs its inlined-memory body here (the runs are
injector-free, like a campaign's golden run).  Compile time is
reported separately from run time because campaigns pay it once per
worker and amortize it over every trial.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py --quick \
        --fail-below 1.0 --out BENCH_backends.json

``--fail-below X`` exits non-zero when the geometric-mean
interpreter-vs-compiled speedup falls below ``X`` (CI uses 1.0:
compiled must never be slower).  See docs/BACKENDS.md for how to read
the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.instrument.pipeline import (  # noqa: E402
    InstrumentationOptions,
    instrument_program,
)
from repro.programs import ALL_BENCHMARKS  # noqa: E402
from repro.runtime.compile import (  # noqa: E402
    clear_kernel_cache,
    compile_program,
)
from repro.runtime.interpreter import run_program  # noqa: E402

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)


def _copy_values(values: dict) -> dict:
    return {
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in values.items()
    }


def bench_one(name: str, scale: str, repeats: int) -> dict:
    module = ALL_BENCHMARKS[name]
    program = module.program()
    params = dict(
        module.SMALL_PARAMS if scale == "small" else module.DEFAULT_PARAMS
    )
    values = module.initial_values(params, seed=7)
    program, _ = instrument_program(program, OPTIMIZED)

    clear_kernel_cache()
    start = time.perf_counter()
    kernel = compile_program(program)
    compile_s = time.perf_counter() - start

    interp_s = compiled_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ri = run_program(program, params, initial_values=_copy_values(values))
        interp_s = min(interp_s, time.perf_counter() - start)
        start = time.perf_counter()
        rc = kernel.execute(params, initial_values=_copy_values(values))
        compiled_s = min(compiled_s, time.perf_counter() - start)
        # The timing loop doubles as a sanity check on the bit-identity
        # contract (the differential suite is the authoritative test).
        assert ri.counts == rc.counts, f"{name}: op counts diverge"
        assert (
            ri.checksums.sums == rc.checksums.sums
        ), f"{name}: checksums diverge"

    return {
        "benchmark": name,
        "scale": scale,
        "params": params,
        "interp_s": interp_s,
        "compiled_s": compiled_s,
        "compile_s": compile_s,
        "speedup": interp_s / compiled_s,
        "statements": ri.statements_executed,
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
    parser.add_argument(
        "--scale", choices=("small", "default"), default="default"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale, 1 repeat, 3 benchmarks — the CI smoke set",
    )
    parser.add_argument("--out", default="BENCH_backends.json")
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 when the interp-vs-compiled geomean speedup is "
        "below X",
    )
    args = parser.parse_args(argv)

    names = args.benchmarks or list(ALL_BENCHMARKS)
    scale = args.scale
    repeats = args.repeats
    if args.quick:
        names = args.benchmarks or ["jacobi1d", "trisolv", "cholesky"]
        scale = "small"
        repeats = 1

    rows = []
    for name in names:
        row = bench_one(name, scale, repeats)
        rows.append(row)
        print(
            f"{row['benchmark']:<10} interp={row['interp_s']:8.3f}s "
            f"compiled={row['compiled_s']:.3f}s "
            f"compile={row['compile_s']:.3f}s "
            f"speedup={row['speedup']:6.2f}x"
        )

    summary = {
        "scale": scale,
        "repeats": repeats,
        "geomean_speedup": geomean([row["speedup"] for row in rows]),
        "total_interp_s": sum(row["interp_s"] for row in rows),
        "total_compiled_s": sum(row["compiled_s"] for row in rows),
    }
    summary["total_speedup"] = (
        summary["total_interp_s"] / summary["total_compiled_s"]
    )
    print(
        f"{'geomean':<10} speedup={summary['geomean_speedup']:6.2f}x  "
        f"total={summary['total_speedup']:.2f}x"
    )

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
