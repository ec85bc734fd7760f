"""Running a campaign: in-process or sharded, always bit-identical.

Because every trial is self-seeded (:func:`repro.campaign.spec.trial_seed`),
parallelism is pure fan-out: with ``workers > 1`` the pending indices
are cut into contiguous shards and handed to worker processes through
the shard dispatcher (:mod:`repro.service.dispatcher`), which streams
records back in whatever order they finish.  Kept records are sorted
by index, so the record *set* — and therefore every aggregate — is
identical for any worker count; the differential tests in
``tests/campaign/`` pin this contract.

Resume: with ``log_path`` set, each finished trial is appended to a
JSONL log as it completes.  A killed campaign leaves a valid prefix
(plus at most one torn line, which the reader drops); ``resume=True``
re-runs exactly the missing indices and rewrites a clean merged log.
:func:`resume_campaign` reconstructs the spec from the log header, so
a log file alone is enough to finish a campaign.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.campaign.records import (
    LogContents,
    TrialRecord,
    read_log,
    write_header,
    write_record,
    write_stats,
)
from repro.campaign.spec import CampaignSpec, spec_from_dict
from repro.campaign.stats import CampaignSummary, summarize_counts
from repro.service.dispatcher import run_shards
from repro.service.store import (
    COUNTER_FIELDS,
    counters_add,
    counters_delta,
    counters_snapshot,
    store_stats,
)


def _execute_trials(spec, prepared, indices):
    """Yield the records for ``indices``.

    The one trial loop shared by the in-process path and the
    dispatcher's workers — bit-identity across worker counts is this
    function being the only way trials run.
    """
    for index in indices:
        yield spec.run_trial(index, prepared)


@dataclass
class CampaignResult:
    """What a campaign produced (records optional for huge runs)."""

    spec: CampaignSpec
    counts: dict[str, int]
    records: list[TrialRecord] | None = None
    elapsed: float = 0.0
    resumed_trials: int = 0
    """How many trials were recovered from the log instead of re-run."""
    log_path: str | None = None
    workers: int = 1
    pruned: int = 0
    """Trials short-circuited by the static oracle this run
    (``spec.prune='static'``): their records carry a *predicted*
    verdict (``extra.predicted``) instead of a measured one."""
    vector: dict[str, int] | None = None
    """Vector-backend counters (probes/runs/fallbacks/memoized winners),
    aggregated across driver and workers (see
    :func:`repro.runtime.vector.vector_stats`)."""
    store: dict[str, dict] | None = None
    """Per-namespace artifact-store stats (every namespace the run
    touched — golden, kernel, instrument, ISL memos), aggregated across
    this process and every worker (workers ship monotone counter deltas
    back with each shard)."""
    service: dict | None = None
    """Dispatcher metrics (shards, reissues, per-shard throughput) when
    the campaign fanned out over worker processes; ``None`` for
    in-process runs."""

    def summary(self) -> CampaignSummary:
        return summarize_counts(self.counts)


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    log_path: str | None = None,
    resume: bool = False,
    keep_records: bool = True,
    progress: Callable | None = None,
    endpoint_factory: Callable | None = None,
) -> CampaignResult:
    """Run (or finish) a campaign.

    ``workers=1`` runs in-process; ``workers>1`` shards the pending
    trials over that many worker processes (see
    :func:`repro.service.dispatcher.run_shards`, which also documents
    ``progress`` — live :class:`~repro.service.dispatcher.ServiceProgress`
    snapshots — and the ``endpoint_factory`` transport seam).  With
    ``keep_records=False`` only verdict counts are retained in memory
    (the log, if any, still gets every record) — use this for
    10^5-trial table sweeps.
    """
    if spec.trials < 0:
        raise ValueError("trials must be >= 0")
    start = time.perf_counter()
    base = counters_snapshot()
    done = _load_done(spec, log_path, resume)
    pending = [i for i in range(spec.trials) if i not in done]
    handle = _open_log(log_path, spec, done)

    counts: Counter[str] = Counter(r.verdict for r in done.values())
    kept: list[TrialRecord] = list(done.values()) if keep_records else []

    def consume(record: TrialRecord) -> None:
        counts[record.verdict] += 1
        if keep_records:
            kept.append(record)
        if handle is not None:
            write_record(handle, record)

    pending, pruned = _prune_predicted(spec, pending, consume)

    worker_totals: dict = {}
    service = None
    try:
        if workers <= 1 or len(pending) <= 1:
            prepared = spec.prepare() if pending else None
            for record in _execute_trials(spec, prepared, pending):
                consume(record)
        else:
            worker_totals, service = run_shards(
                spec,
                pending,
                workers,
                consume,
                counts,
                flush=handle.flush if handle is not None else None,
                progress=progress,
                endpoint_factory=endpoint_factory,
            )
        stats = aggregate_stats(worker_totals, base)
        if handle is not None:
            write_stats(
                handle,
                stats if service is None else {**stats, "service": service},
            )
    finally:
        if handle is not None:
            handle.close()

    if keep_records:
        kept.sort(key=lambda record: record.index)
    return CampaignResult(
        spec=spec,
        counts=dict(counts),
        records=kept if keep_records else None,
        elapsed=time.perf_counter() - start,
        resumed_trials=len(done),
        log_path=log_path,
        workers=workers,
        pruned=pruned,
        vector=stats["vector"],
        store=stats["store"],
        service=service,
    )


def aggregate_stats(
    worker_totals: dict | None, driver_base: dict | None = None
) -> dict:
    """Merged store + vector counters of *this run*: the driver's
    counter growth since ``driver_base`` plus every worker's shipped
    deltas — the log's stats trailer payload.  ``size``/``limit``
    gauges come from the driver's live namespaces."""
    combined: dict = {"store": {}, "vector": {}}
    counters_add(combined, counters_delta(counters_snapshot(), driver_base))
    if worker_totals:
        counters_add(combined, worker_totals)
    local = store_stats()
    store: dict[str, dict] = {}
    for name in sorted(set(combined["store"]) | set(local)):
        flat = combined["store"].get(name, {})
        entry = {field: flat.get(field, 0) for field in COUNTER_FIELDS}
        gauges = local.get(name, {})
        entry["size"] = gauges.get("size", 0)
        entry["limit"] = gauges.get("limit", 0)
        store[name] = entry
    return {"store": store, "vector": combined["vector"]}


def _load_done(
    spec: CampaignSpec, log_path: str | None, resume: bool
) -> dict[int, TrialRecord]:
    """Records recoverable from an existing log (resume runs only)."""
    if not resume:
        return {}
    if log_path is None:
        raise ValueError("resume=True needs a log_path")
    if not os.path.exists(log_path):
        return {}
    contents = read_log(log_path)
    _check_header(contents, spec)
    return {r.index: r for r in contents.records if r.index < spec.trials}


def _open_log(log_path: str | None, spec: CampaignSpec, done: dict):
    """Start (or restart) the campaign log.

    Rewrites from scratch: on resume this drops any torn tail line and
    re-serializes the recovered prefix before new appends.
    """
    if log_path is None:
        return None
    handle = open(log_path, "w")
    write_header(handle, spec.to_dict())
    for index in sorted(done):
        write_record(handle, done[index])
    handle.flush()
    return handle


def _prune_predicted(spec: CampaignSpec, pending: list[int], consume):
    """Static pruning: trials the oracle proves DETECTED or MASKED are
    consumed as predicted records (schema-compatible, resume-safe — a
    resumed run sees them as done) and never executed; everything
    value-dependent stays pending for measurement."""
    pruned = 0
    if pending and getattr(spec, "prune", "none") == "static":
        from repro.analysis.oracle import StaticOracle

        oracle = StaticOracle(spec, spec.prepare())
        remaining = []
        for index in pending:
            predicted = oracle.predict(index)
            if predicted is None:
                remaining.append(index)
            else:
                pruned += 1
                consume(predicted)
        pending = remaining
    return pending, pruned


def resume_campaign(
    log_path: str, workers: int = 1, keep_records: bool = True
) -> CampaignResult:
    """Finish the campaign a log file describes (spec from the header)."""
    contents = read_log(log_path)
    if contents.spec_dict is None:
        raise ValueError(f"{log_path}: no campaign header found")
    spec = spec_from_dict(contents.spec_dict)
    return run_campaign(
        spec,
        workers=workers,
        log_path=log_path,
        resume=True,
        keep_records=keep_records,
    )


def _check_header(contents: LogContents, spec: CampaignSpec) -> None:
    """Refuse a log written by a different campaign.  Specs compare in
    normalised form, so a header carrying fields that no longer exist
    (``spec_from_dict`` drops them) still matches its campaign."""
    if contents.spec_dict is None:
        return
    try:
        logged = spec_from_dict(contents.spec_dict).to_dict()
    except ValueError:
        logged = None
    if logged != spec.to_dict():
        raise ValueError(
            "log header does not match the campaign spec being resumed; "
            "refusing to merge records from a different campaign"
        )


def replay_trial(
    spec: CampaignSpec, index: int, prepared=None
) -> TrialRecord:
    """Re-run one trial in isolation (the per-index replay guarantee).

    ``spec.prepare()`` is content-addressed end to end — the golden-run
    cache keys on the spec's golden digest and the kernel LRU on the IR
    digest — so a replay never recompiles or re-executes a golden run
    another replay (or the original campaign, in-process) already paid
    for; the golden leg itself dispatches through the vector backend
    when profitable.  Pass ``prepared`` to replay many indices against
    one explicitly shared context without any cache lookups.
    """
    if prepared is None:
        prepared = spec.prepare()
    return spec.run_trial(index, prepared)


def sort_records(log_or_records) -> list[TrialRecord]:
    """Records sorted by index, from a log path or a record iterable."""
    if isinstance(log_or_records, str):
        return read_log(log_or_records).records
    return sorted(log_or_records, key=lambda record: record.index)
