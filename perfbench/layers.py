"""Per-layer metrics of a traced run.

Span times cover the traced regions only: the cold set-ups after the
warm-up, and every other timed round.  Store and vector counters cover
the whole run (set-ups included), taken as ``counters_snapshot`` /
``counters_delta`` deltas per set-up or Figure 10 round and from each
``CampaignResult`` (driver plus reaped workers) per campaign.  Record
fields (injections, recovery actions, ``elapsed``) cover every timed
round.  A layer the workload never reaches reads 0.
"""

from __future__ import annotations

import os

from spans import summarize
from workloads import throughput


def _hit_frac(store: dict, names) -> float:
    served = total = 0
    for name in names:
        entry = store.get(name, {})
        hits = entry.get("hits", 0) + entry.get("disk_hits", 0)
        served += hits
        total += hits + entry.get("misses", 0)
    return served / total if total else 0.0


def layer_metrics(workload, tracer, rounds, traced_wall) -> dict:
    spans = summarize(tracer.spans)
    driver = os.getpid()
    root_s = sum(
        span.end - span.start
        for span in tracer.spans
        if span.parent is None and span.pid == driver
    )

    def span(name: str, field: str = "s"):
        return spans.get(name, {}).get(field, 0)

    records = list(workload.records())
    extra = [record.extra for record in records]
    store = workload.counters.get("store", {})
    vector = workload.counters.get("vector", {})
    wall = sum(r.wall for r in rounds)

    traced = throughput([r for r in rounds if r.traced])
    untraced = throughput([r for r in rounds if not r.traced])
    overhead = 1.0 - traced / untraced if traced and untraced else 0.0

    metrics = {
        "execute.s": (span("execute"), "s"),
        "execute.calls": (span("execute", "calls"), "count"),
        "execute.steps_per_s": (
            span("execute", "steps") / span("execute") if span("execute")
            else 0.0,
            "1/s",
        ),
        "verdict.s": (span("trial", "self_s"), "s"),
        "faults.injected_frac": (
            sum(r.verdict != "no_injection" for r in records) / len(records)
            if records else 0.0,
            "frac",
        ),
        "log.write_s": (span("log.write"), "s"),
        "log.records": (span("log.write", "calls"), "count"),
        "engine.driver_wait_s": (span("engine.wait"), "s"),
        "engine.worker_busy_frac": (
            sum(r.elapsed for r in records) / (workload.workers * wall)
            if records else 0.0,
            "frac",
        ),
        "recovery.plan_s": (span("recovery.plan"), "s"),
        "recovery.run_plan_s": (span("recovery.run_plan"), "s"),
    }
    for field in ("replays", "targeted_restores", "full_restores"):
        metrics[f"recovery.{field}"] = (
            sum(e.get(field, 0) for e in extra), "count"
        )
    for field in ("runs", "probes", "fallbacks"):
        metrics[f"vector.{field}"] = (vector.get(field, 0), "count")
    metrics.update({
        "instrument.s": (span("instrument"), "s"),
        "instrument.calls": (span("instrument", "calls"), "count"),
        "isl.memo_hit_frac": (
            _hit_frac(store, [n for n in store if n.startswith("isl_")]),
            "frac",
        ),
        "compile.s": (span("compile"), "s"),
        "compile.calls": (span("compile", "calls"), "count"),
        "kernel.hit_frac": (_hit_frac(store, ["kernel"]), "frac"),
        "golden.s": (span("golden"), "s"),
        "golden.hit_frac": (_hit_frac(store, ["golden"]), "frac"),
        "figure10.build_s": (span("figure10.build"), "s"),
        "figure10.counts_s": (span("figure10.counts"), "s"),
        "figure10.wall_s": (span("figure10.wall"), "s"),
        "python_gen.compile_s": (span("python_gen"), "s"),
        "trace.coverage_frac": (
            root_s / traced_wall if traced_wall else 0.0, "frac"
        ),
        "trace.overhead_frac": (overhead, "frac"),
    })
    return metrics
