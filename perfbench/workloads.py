"""The four benchmark workloads.

Each workload offers the same four steps to ``run.py``:

* ``setup()`` — one cold set-up (caches cleared first); returns seconds;
* ``warm()`` — a small untimed round, so lazy imports and first-call
  costs land before the timed rounds;
* ``run_round(index)`` — one timed round of fixed size; returns one
  :class:`Round` per cell;
* ``check()`` — the reference check, outside every timed region;
  returns ``(attempted, failed)``.

Inputs come only from the command-line seed: campaign seeds and the
programs' ``init_seed`` derive from it, and so does the Figure 10 row
order.
"""

from __future__ import annotations

import dataclasses
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from repro.campaign import ProgramCampaignSpec, derive_seed, run_campaign
from repro.campaign.records import read_log
from repro.service.store import (
    COUNTER_FIELDS,
    clear_store,
    counters_add,
    counters_delta,
    counters_snapshot,
)

#: Trials replayed through the interpreter per campaign cell.
REFERENCE_SAMPLES = 3


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cold_reset() -> None:
    """Drop every process-wide cache a fresh invocation starts without."""
    from repro.experiments.figure10 import clear_wall_build_cache
    from repro.recovery import plan
    from repro.runtime.vector import clear_dispatch_caches, clear_profit_memo

    clear_store()
    clear_wall_build_cache()
    clear_profit_memo()
    clear_dispatch_caches()
    # The recovery-plan memo has no public reset.
    plan._PLAN_CACHE.clear()


@dataclasses.dataclass
class Round:
    """One cell of one timed round: a campaign, or a Figure 10 pass."""

    cell: tuple
    items: int
    wall: float
    cpu: float
    traced: bool = False


def throughput(rounds, field: str = "wall") -> float:
    """Items per second of a typical round: each cell's median time
    (``wall`` or ``cpu``) over the rounds, summed over the cells.  Cell
    sizes are fixed, so this is the rate of a round assembled from
    median campaigns; a failed campaign (time 0) is left out."""
    times: dict[tuple, list[float]] = {}
    items: dict[tuple, int] = {}
    for r in rounds:
        if r.wall > 0 and r.cpu > 0:
            times.setdefault(r.cell, []).append(getattr(r, field))
            items[r.cell] = r.items
    seconds = sum(statistics.median(values) for values in times.values())
    return sum(items.values()) / seconds if seconds else 0.0


class CampaignWorkload:
    """Repeated campaigns over fixed (benchmark, fault model, trials)
    cells at default scale.  A round runs one campaign per cell."""

    def __init__(self, name, seed, cells, out_dir, workers=1, log=False,
                 recover=False):
        self.name = name
        self.seed = seed
        self.cells = cells
        self.out_dir = Path(out_dir)
        self.workers = workers
        self.log = log
        self.recover = recover
        self.counters: dict = {}
        self.campaigns: list[tuple[tuple, ProgramCampaignSpec, list]] = []
        self.failed = 0

    def spec(self, cell, index: int, trials: int | None = None):
        benchmark, model, size = cell
        return ProgramCampaignSpec(
            trials=size if trials is None else trials,
            seed=derive_seed(self.seed, "perfbench", self.name, benchmark,
                             model, index),
            init_seed=derive_seed(self.seed, "perfbench-init", benchmark),
            benchmark=benchmark,
            scale="default",
            fault_model=model,
            recover=self.recover,
        )

    def setup(self) -> float:
        cold_reset()
        base = counters_snapshot()
        start = time.perf_counter()
        for cell in self.cells:
            self.spec(cell, 0).prepare()
        elapsed = time.perf_counter() - start
        counters_add(self.counters, counters_delta(counters_snapshot(), base))
        return elapsed

    def warm(self) -> None:
        for cell in self.cells:
            self._campaign(self.spec(cell, -1, trials=2 * self.workers))

    def run_round(self, index: int) -> list[Round]:
        rounds = []
        for cell in self.cells:
            spec = self.spec(cell, index)
            records, seconds, cpu = self._campaign(spec)
            self.campaigns.append((cell, spec, records))
            rounds.append(Round(cell, spec.trials, seconds, cpu))
        return rounds

    def _campaign(self, spec):
        log_path = None
        if self.log:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            log_path = str(self.out_dir / "campaign.jsonl")
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            result = run_campaign(spec, workers=self.workers,
                                  log_path=log_path)
        except Exception as error:  # a broken program is a failed round
            print(f"campaign failed: {error!r}", file=sys.stderr)
            self.failed += spec.trials
            return [], 0.0, 0.0
        seconds = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        counters_add(self.counters, {
            "store": {
                name: {f: entry.get(f, 0) for f in COUNTER_FIELDS}
                for name, entry in (result.store or {}).items()
            },
            "vector": result.vector or {},
        })
        records = result.records or []
        self.failed += _index_errors(records, spec.trials)
        if log_path is not None:
            logged = read_log(log_path).records
            if [r.canonical() for r in logged] != [
                r.canonical() for r in records
            ]:
                self.failed += spec.trials
        return records, seconds, cpu

    def check(self) -> tuple[int, int]:
        """Every index once per campaign (counted as the campaigns ran),
        plus a seeded sample replayed through the interpreter."""
        rng = random.Random(derive_seed(self.seed, "perfbench-check"))
        attempted = sum(spec.trials for _, spec, _ in self.campaigns)
        failed = self.failed
        for cell in self.cells:
            ran = [(s, r) for c, s, r in self.campaigns if c == cell and r]
            for _ in range(REFERENCE_SAMPLES if ran else 0):
                spec, records = rng.choice(ran)
                record = rng.choice(records)
                reference = dataclasses.replace(spec, backend="interp")
                expected = reference.run_trial(
                    record.index, reference.prepare()
                )
                if expected.canonical() != record.canonical():
                    failed += 1
        return attempted, failed

    def records(self):
        for _, _, records in self.campaigns:
            yield from records


def _index_errors(records, trials: int) -> int:
    """Trials missing or duplicated in a campaign's records."""
    indices = sorted(record.index for record in records)
    if indices == list(range(trials)):
        return 0
    return max(1, trials - len(set(indices) & set(range(trials))))


class Figure10Workload:
    """The cold Figure 10 run: all ten overhead rows with wall timing,
    caches cleared before every round."""

    workers = 1

    def __init__(self, seed):
        from repro.programs import ALL_BENCHMARKS

        self.seed = seed
        self.names = list(ALL_BENCHMARKS)
        self.counters: dict = {}
        self.rows: list = []

    def setup(self) -> float:
        from repro.experiments.figure10 import build_benchmark

        cold_reset()
        base = counters_snapshot()
        start = time.perf_counter()
        for name in self.names:
            build_benchmark(name, "default")
        elapsed = time.perf_counter() - start
        counters_add(self.counters, counters_delta(counters_snapshot(), base))
        return elapsed

    def warm(self) -> None:
        from repro.experiments.figure10 import overhead_row

        cold_reset()
        overhead_row(self.names[0], "default", wall=True)

    def run_round(self, index: int) -> list[Round]:
        from repro.experiments.figure10 import overhead_row

        order = list(self.names)
        random.Random(derive_seed(self.seed, "perfbench-f10", index)).shuffle(
            order
        )
        cold_reset()
        base = counters_snapshot()
        cpu = cpu_seconds()
        start = time.perf_counter()
        rows = [overhead_row(name, "default", wall=True) for name in order]
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        counters_add(self.counters, counters_delta(counters_snapshot(), base))
        self.rows.extend(rows)
        return [Round(("figure10",), len(rows), wall, cpu)]

    def check(self) -> tuple[int, int]:
        """Each row's cost-model ratios must follow from the
        interpreter's operation counts; wall ratios must be positive."""
        import math

        from repro.experiments.figure10 import build_benchmark, measure_counts
        from repro.runtime.costmodel import CostModel

        model = CostModel()
        expected = {}
        for name in self.names:
            counts = measure_counts(build_benchmark(name, "default"),
                                    backend="interp")
            expected[name] = (
                model.overhead(counts["original"], counts["resilient"]),
                model.overhead(counts["original"], counts["optimized"]),
            )
        failed = 0
        for row in self.rows:
            walls = (row.wall_resilient, row.wall_resilient_optimized)
            if (row.resilient, row.resilient_optimized) != expected[
                row.benchmark
            ] or not all(w is not None and math.isfinite(w) and w > 0
                         for w in walls):
                failed += 1
        return len(self.rows), failed

    def records(self):
        return iter(())


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "inject-value":
        cells = [("cholesky", "random_cell", 40), ("lu", "random_cell", 40),
                 ("jacobi1d", "random_cell", 120)]
        return CampaignWorkload(name, seed, cells, out_dir)
    if name == "inject-addr":
        cells = [("cholesky", "addrgen_store", 40),
                 ("cholesky", "addrgen_load", 40),
                 ("cg", "addrgen_store", 40), ("cg", "addrgen_load", 40)]
        return CampaignWorkload(name, seed, cells, out_dir, workers=2,
                                log=True)
    if name == "recover":
        cells = [("lu", "random_cell", 30), ("cg", "random_cell", 30)]
        return CampaignWorkload(name, seed, cells, out_dir, recover=True)
    if name == "figure10":
        return Figure10Workload(seed)
    raise ValueError(f"unknown workload {name!r}")
