"""Async shard dispatcher: a campaign as a fleet of index-range shards.

Per-trial SHA-256 seeding (:func:`repro.campaign.spec.trial_seed`)
makes every trial a pure function of ``(spec, index)``, so a campaign
cuts into contiguous **shards** of pending indices that can run
anywhere, in any order, any number of times.
:func:`repro.campaign.engine.run_campaign` hands its pending trials to
:func:`run_shards` whenever ``workers > 1``, and the dispatcher
exploits all three freedoms:

* **fan-out** — shards go to a pool of workers behind the
  :class:`WorkerEndpoint` protocol.  The bundled transport is
  :class:`LocalProcessEndpoint` (one ``multiprocessing`` child per
  worker slot, messages over a pipe); a multi-host transport only has
  to implement the same three ``async`` methods.
* **streaming** — workers ship trial records back in small batches
  *while the shard runs*; the driver consumes them immediately (JSONL
  log append, verdict counts), so ``campaign serve`` reports live
  progress and per-shard throughput instead of a terminal summary.
* **reissue** — a worker crash mid-shard raises :class:`ShardFailed`;
  the dispatcher re-enqueues exactly the indices that never arrived
  (streamed partials are kept, deduplicated by index), replaces the
  dead endpoint, and carries on.  :data:`MAX_ATTEMPTS` bounds the
  retries per shard so a deterministically-crashing trial cannot loop
  forever.

Bit-identity contract: the record *set* equals the in-process
``workers=1`` run for every fault model, backend and ``--prune
static`` — shards execute through the engine's ``_execute_trials``
loop, pruning happens before dispatch, and verdict counts are
order-independent.  ``tests/campaign/test_service.py`` pins this
differentially.

Workers also ship artifact-store counter deltas with each completed
shard, so the final :class:`~repro.campaign.engine.CampaignResult`
(and the log's stats trailer) carries *aggregate* cache numbers —
with a shared store directory, N workers warm from one golden run and
the trailer proves it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from repro.service.store import counters_add, counters_delta, counters_snapshot

#: Records per streaming message — small enough for live progress,
#: large enough that IPC never dominates a fast trial loop.
RECORD_CHUNK = 16

#: Runs a shard gets (first try plus reissues) before the campaign
#: gives up on it.
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class Shard:
    """One dispatchable unit: a contiguous run of pending trial indices."""

    shard_id: int
    indices: tuple[int, ...]
    attempt: int = 1


class ShardFailed(RuntimeError):
    """A shard did not complete on its worker (crash, pipe loss, or an
    error escaping the trial loop).  Carries the reason; the dispatcher
    reissues the missing indices."""


@dataclass
class ShardReport:
    """Throughput accounting for one completed shard."""

    shard_id: int
    worker: int
    trials: int
    elapsed: float
    attempt: int = 1

    @property
    def trials_per_sec(self) -> float:
        return self.trials / self.elapsed if self.elapsed > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "worker": self.worker,
            "trials": self.trials,
            "elapsed": self.elapsed,
            "attempt": self.attempt,
            "trials_per_sec": self.trials_per_sec,
        }


@dataclass
class ServiceProgress:
    """Live snapshot handed to the ``progress`` callback after every
    :data:`RECORD_CHUNK` streamed records and every completed (or
    reissued) shard; ``last_report`` is set only for a completion."""

    total_trials: int
    done_trials: int
    total_shards: int
    completed_shards: int
    reissued: int
    elapsed: float
    counts: dict[str, int] = field(default_factory=dict)
    detection_interval: tuple[float, float] = (0.0, 1.0)
    last_report: ShardReport | None = None

    @property
    def trials_per_sec(self) -> float:
        return self.done_trials / self.elapsed if self.elapsed > 0 else 0.0


@runtime_checkable
class WorkerEndpoint(Protocol):
    """Transport contract between the dispatcher and one worker.

    ``run_shard`` must invoke ``on_record`` (from the event-loop
    thread) for every finished trial and return a completion dict —
    ``{"counters": <store counter delta>, "elapsed": <seconds>}`` —
    or raise :class:`ShardFailed`.  After a failure the endpoint is
    closed and replaced; it need not be reusable.
    """

    async def start(self) -> None: ...

    async def run_shard(self, shard: Shard, on_record: Callable) -> dict: ...

    async def close(self) -> None: ...


# ----------------------------------------------------------------------
# Local-process transport
# ----------------------------------------------------------------------
def _worker_main(conn, spec_dict: dict) -> None:
    """Child-process loop: prepare once, then run shards until told to
    quit.  Runs in a fresh process; all repro state is built here."""
    from repro.campaign.engine import _execute_trials
    from repro.campaign.spec import spec_from_dict

    spec = spec_from_dict(spec_dict)
    # Snapshot before the lazy prepare so fork-inherited cache counters
    # are subtracted out of the first shard's delta.
    base = counters_snapshot()
    prepared = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, tuple) or not message:
            continue
        if message[0] == "quit":
            break
        if message[0] != "shard":
            continue
        indices = message[1]
        started = time.perf_counter()
        try:
            if prepared is None:
                prepared = spec.prepare()
            buffer = []
            for record in _execute_trials(spec, prepared, indices):
                buffer.append(record)
                if len(buffer) >= RECORD_CHUNK:
                    conn.send(("records", buffer))
                    buffer = []
            if buffer:
                conn.send(("records", buffer))
            now = counters_snapshot()
            delta = counters_delta(now, base)
            base = now
            conn.send(
                (
                    "done",
                    {
                        "counters": delta,
                        "elapsed": time.perf_counter() - started,
                    },
                )
            )
        except Exception:
            try:
                conn.send(("error", traceback.format_exc()))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:
        pass


class LocalProcessEndpoint:
    """One worker child process, reached over a ``multiprocessing`` pipe.

    The event loop watches every worker's pipe itself (``add_reader``,
    so a selector event loop: POSIX), which lets many endpoints
    multiplex on one thread with no reader threads to hand records
    across; sends are small and non-blocking in practice.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self._ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self.process = None
        self._conn = None

    async def start(self) -> None:
        parent, child = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.spec.to_dict()),
            daemon=True,
        )
        self.process.start()
        child.close()
        self._conn = parent

    async def run_shard(self, shard: Shard, on_record: Callable) -> dict:
        if self._conn is None:
            raise ShardFailed("endpoint not started")
        try:
            self._conn.send(("shard", list(shard.indices)))
        except (OSError, BrokenPipeError) as error:
            raise ShardFailed(f"worker pipe closed: {error}") from error
        while True:
            try:
                message = await self._recv()
            except (EOFError, OSError) as error:
                raise ShardFailed(
                    f"worker died mid-shard {shard.shard_id}: {error!r}"
                ) from error
            kind = message[0]
            if kind == "records":
                for record in message[1]:
                    on_record(record)
            elif kind == "done":
                return message[1]
            elif kind == "error":
                raise ShardFailed(
                    f"shard {shard.shard_id} raised in worker:\n{message[1]}"
                )

    async def _recv(self):
        """The worker's next message, once the pipe turns readable (a
        dead worker's pipe turns readable too, and ``recv`` raises)."""
        loop = asyncio.get_running_loop()
        readable = loop.create_future()
        fd = self._conn.fileno()
        loop.add_reader(
            fd, lambda: readable.done() or readable.set_result(None)
        )
        try:
            await readable
        finally:
            loop.remove_reader(fd)
        return self._conn.recv()

    async def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(("quit",))
            except (OSError, BrokenPipeError):
                pass
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self.process is not None:
            self.process.join(timeout=5)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5)
            self.process = None


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
def _make_shards(pending: list[int], workers: int) -> list[Shard]:
    """Contiguous shards over the pending indices, about four per
    worker: enough for load balancing and fine-grained crash recovery,
    few enough that per-shard overhead never shows on fast trials."""
    if not pending:
        return []
    size = -(-len(pending) // (4 * workers))
    return [
        Shard(shard_id=i, indices=tuple(pending[start : start + size]))
        for i, start in enumerate(range(0, len(pending), size))
    ]


def run_shards(
    spec,
    pending: list[int],
    workers: int,
    consume: Callable,
    counts: dict[str, int],
    flush: Callable[[], None] | None = None,
    progress: Callable[[ServiceProgress], None] | None = None,
    endpoint_factory: Callable[[], WorkerEndpoint] | None = None,
) -> tuple[dict, dict]:
    """Run trials ``pending`` of ``spec`` on ``workers`` endpoints.

    ``consume`` receives every record exactly once, on this thread, as
    it streams in; ``counts`` is the caller's live verdict tally, read
    for ``progress`` snapshots.  ``flush`` runs after every completed
    shard (the caller's log).  ``endpoint_factory`` swaps the transport
    (tests inject crashing endpoints; multi-host backends slot in
    here): each call must return a fresh, unstarted
    :class:`WorkerEndpoint`.

    Returns the workers' summed store counter deltas and the service
    metadata (shards, reissues, per-shard reports).
    """
    from repro.campaign.stats import summarize_counts

    start = time.perf_counter()
    shards = _make_shards(pending, workers)
    if endpoint_factory is None:
        endpoint_factory = lambda: LocalProcessEndpoint(spec)  # noqa: E731

    worker_totals: dict = {}
    reports: list[ShardReport] = []
    reissued = 0
    done_indices: set[int] = set()

    def emit_progress(last: ShardReport | None) -> None:
        if progress is None:
            return
        progress(
            ServiceProgress(
                total_trials=len(pending),
                done_trials=len(done_indices),
                total_shards=len(shards),
                completed_shards=len(reports),
                reissued=reissued,
                elapsed=time.perf_counter() - start,
                counts=dict(counts),
                detection_interval=summarize_counts(
                    counts
                ).detection_interval(),
                last_report=last,
            )
        )

    def on_record(record) -> None:
        if record.index in done_indices:
            return
        done_indices.add(record.index)
        consume(record)
        if len(done_indices) % RECORD_CHUNK == 0:
            emit_progress(None)

    async def worker_loop(queue: deque, slot: int) -> None:
        nonlocal reissued
        endpoint = endpoint_factory()
        await endpoint.start()
        try:
            while queue:
                shard = queue.popleft()
                shard_started = time.perf_counter()
                try:
                    info = await endpoint.run_shard(shard, on_record)
                except ShardFailed as failure:
                    missing = tuple(
                        i for i in shard.indices if i not in done_indices
                    )
                    await endpoint.close()
                    if missing:
                        if shard.attempt >= MAX_ATTEMPTS:
                            raise RuntimeError(
                                f"shard {shard.shard_id} failed "
                                f"{shard.attempt} times; giving up: "
                                f"{failure}"
                            ) from failure
                        queue.append(
                            Shard(
                                shard_id=shard.shard_id,
                                indices=missing,
                                attempt=shard.attempt + 1,
                            )
                        )
                        reissued += 1
                    emit_progress(None)
                    endpoint = endpoint_factory()
                    await endpoint.start()
                    continue
                counters_add(worker_totals, info.get("counters", {}))
                report = ShardReport(
                    shard_id=shard.shard_id,
                    worker=slot,
                    trials=len(shard.indices),
                    elapsed=time.perf_counter() - shard_started,
                    attempt=shard.attempt,
                )
                reports.append(report)
                emit_progress(report)
                if flush is not None:
                    flush()
        finally:
            await endpoint.close()

    async def drive() -> None:
        queue = deque(shards)
        async with asyncio.TaskGroup() as group:
            for slot in range(min(workers, len(shards))):
                group.create_task(worker_loop(queue, slot))

    if shards:
        try:
            asyncio.run(drive())
        except BaseExceptionGroup as group:
            # TaskGroup wraps worker-loop failures; surface the first
            # real error with the engine's exception contract.
            raise group.exceptions[0] from group
    return worker_totals, {
        "workers": workers,
        "shards": len(shards),
        "shard_trials": len(shards[0].indices) if shards else 0,
        "reissued": reissued,
        "reports": [report.to_json() for report in reports],
    }
