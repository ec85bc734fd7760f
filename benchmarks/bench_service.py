"""Sharded-campaign throughput over a shared artifact store.

Runs the same fault-injection campaign on ``--workers`` worker
processes twice — cold, against a fresh shared disk store, and warm,
over the same store — checks both are canonical-identical to the
in-process serial run, and reports trials/sec plus the warm-run
artifact-store hit rate.  Writes ``BENCH_service.json`` (CI uploads it
as an artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import ProgramCampaignSpec, run_campaign  # noqa: E402
from repro.service import set_store_dir  # noqa: E402
from repro.service.store import clear_store, namespace_hit_rate  # noqa: E402


def _canonical(result) -> list[dict]:
    return [record.canonical() for record in result.records]


def _drop_local_caches() -> None:
    """Forget every in-process artifact so the next run starts cold
    (forked workers inherit the driver's memory caches otherwise):
    every store namespace, golden, kernel and instrument included.
    The disk store is untouched."""
    clear_store()


def bench_spec(spec: ProgramCampaignSpec, workers: int, store: Path) -> dict:
    # Reference records: the in-process serial run.
    set_store_dir(None)
    expected = _canonical(run_campaign(spec, workers=1))

    # Cold: fresh disk store, no in-process artifacts.
    set_store_dir(store)
    _drop_local_caches()
    start = time.perf_counter()
    cold = run_campaign(spec, workers=workers)
    cold_s = time.perf_counter() - start

    # Warm: same store, local caches dropped again so every hit is a
    # disk hit against the shared store.
    _drop_local_caches()
    start = time.perf_counter()
    warm = run_campaign(spec, workers=workers)
    warm_s = time.perf_counter() - start
    set_store_dir(None)

    assert expected == _canonical(cold), f"{spec.benchmark}: cold diverges"
    assert expected == _canonical(warm), f"{spec.benchmark}: warm diverges"
    hit_rate = namespace_hit_rate(
        warm.store or {}, ("golden", "kernel", "instrument")
    )
    return {
        "benchmark": spec.benchmark,
        "trials": spec.trials,
        "workers": workers,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_trials_per_s": spec.trials / cold_s,
        "warm_trials_per_s": spec.trials / warm_s,
        "warm_vs_cold": cold_s / warm_s,
        "warm_store_hit_rate": hit_rate,
        "shards": (warm.service or {}).get("shards"),
        "verdicts": warm.counts,
    }


def geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks", nargs="+", default=["cholesky", "jacobi1d"]
    )
    parser.add_argument(
        "--scale", choices=("small", "default"), default="small"
    )
    parser.add_argument("--trials", type=int, default=64)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one benchmark, fewer trials (CI smoke sizing)",
    )
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    benchmarks = args.benchmarks
    trials = args.trials
    if args.quick:
        benchmarks = benchmarks[:1]
        trials = min(trials, 24)

    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        for name in benchmarks:
            spec = ProgramCampaignSpec(
                benchmark=name, scale=args.scale, trials=trials, seed=11
            )
            row = bench_spec(spec, args.workers, Path(tmp) / name)
            rows.append(row)
            print(
                f"{row['benchmark']:<10} cold="
                f"{row['cold_trials_per_s']:8.1f} trials/s  warm="
                f"{row['warm_trials_per_s']:8.1f}  "
                f"warm/cold={row['warm_vs_cold']:5.2f}x  "
                f"hit_rate={row['warm_store_hit_rate']:.2f}  identical"
            )

    summary = {
        "workers": args.workers,
        "trials": trials,
        "geomean_warm_vs_cold": geomean(
            [row["warm_vs_cold"] for row in rows]
        ),
        "min_warm_hit_rate": min(
            (row["warm_store_hit_rate"] for row in rows), default=0.0
        ),
    }
    print(f"{'geomean':<10} warm/cold={summary['geomean_warm_vs_cold']:.2f}x")

    payload = {"benchmarks": rows, "summary": summary}
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
