"""Sharded-campaign contracts: bit-identity, crash reissue, warm store.

``run_campaign(workers=N)`` with N > 1 hands shards of the pending
trials to worker processes through the shard dispatcher.  The record
set must equal the in-process ``workers=1`` reference for every fault
model, backend, ``--prune static`` and ``recover=True``, in memory and
in the JSONL log; a worker killed mid-shard costs a reissue, never a
record; and a warm second run over a shared disk store is nearly pure
cache hits.
"""

import functools
import json
import random

import pytest

from repro.campaign import (
    ChecksumCampaignSpec,
    ProgramCampaignSpec,
    read_log,
    run_campaign,
)
from repro.runtime.faults import FAULT_MODELS
from repro.service import (
    ENV_STORE_DIR,
    LocalProcessEndpoint,
    ServiceProgress,
    Shard,
    ShardFailed,
    set_store_dir,
)
from repro.service.dispatcher import RECORD_CHUNK, _make_shards
from repro.service.store import namespace_hit_rate


@pytest.fixture(autouse=True)
def no_disk_store(monkeypatch):
    monkeypatch.delenv(ENV_STORE_DIR, raising=False)
    set_store_dir(None)
    yield
    set_store_dir(None)


DEMO = """
program demo(n) {
  array A[n][n];
  for j = 0 .. n - 1 {
    S1: A[j][j] = sqrt(A[j][j]);
    for i = j + 1 .. n - 1 {
      S2: A[i][j] = A[i][j] / A[j][j];
    }
  }
}
"""

CHECKSUM_SPEC = ChecksumCampaignSpec(
    size=64, bits=2, pattern="random", trials=120, seed=20140609
)


def canonical(records):
    return [record.canonical() for record in records]


@functools.lru_cache(maxsize=None)
def serial_reference(spec):
    """The in-process ``workers=1`` records every sharded run must equal."""
    return canonical(run_campaign(spec, workers=1).records)


def assert_matches_serial(spec, workers, tmp_path):
    """Sharded run == serial reference, in memory and in the log."""
    log = str(tmp_path / f"w{workers}.jsonl")
    result = run_campaign(spec, workers=workers, log_path=log)
    expected = serial_reference(spec)
    assert canonical(result.records) == expected
    contents = read_log(log)
    assert not contents.truncated
    assert canonical(contents.records) == expected
    assert result.service is not None and result.service["workers"] == workers
    return result


def _program_spec(**kwargs):
    defaults = dict(
        trials=8,
        seed=77,
        program_text=DEMO,
        params={"n": 6},
        init={"A": "randspd"},
    )
    defaults.update(kwargs)
    return ProgramCampaignSpec(**defaults)


WORKERS = (2, 3)


@pytest.mark.parametrize("workers", WORKERS)
class TestBitIdentity:
    """Sharded campaign == in-process campaign, canonically."""

    def test_checksum_campaign(self, workers, tmp_path):
        assert_matches_serial(CHECKSUM_SPEC, workers, tmp_path)

    def test_program_campaign(self, workers, tmp_path):
        assert_matches_serial(_program_spec(), workers, tmp_path)

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_every_fault_model(self, workers, model, tmp_path):
        spec = ProgramCampaignSpec(
            trials=6,
            seed=31,
            benchmark="jacobi1d",
            scale="small",
            fault_model=model,
        )
        assert_matches_serial(spec, workers, tmp_path)

    @pytest.mark.parametrize("backend", ("interp", "compiled", "vector"))
    def test_every_backend(self, workers, backend, tmp_path):
        spec = _program_spec(backend=backend)
        assert_matches_serial(spec, workers, tmp_path)

    def test_static_prune(self, workers, tmp_path):
        # Half of these trials are predicted; the rest are sharded.
        spec = ProgramCampaignSpec(
            trials=12,
            seed=9,
            benchmark="cholesky",
            scale="small",
            prune="static",
        )
        result = assert_matches_serial(spec, workers, tmp_path)
        assert 0 < result.pruned == run_campaign(spec, workers=1).pruned

    def test_recovery_campaign(self, workers, tmp_path):
        spec = _program_spec(trials=6, recover=True)
        assert_matches_serial(spec, workers, tmp_path)


class TestLogAndResume:
    def test_stats_trailer_written(self, tmp_path):
        log = str(tmp_path / "svc.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=2, log_path=log)
        contents = read_log(log)
        assert contents.stats is not None
        assert "golden" in contents.stats["store"]
        assert contents.stats["service"]["shards"] >= 1
        # The trailer is valid JSONL understood (skipped or parsed) by
        # every reader — the last line of the file.
        with open(log) as handle:
            last = json.loads(handle.read().splitlines()[-1])
        assert last["type"] == "stats"

    def test_resume_from_truncated_log(self, tmp_path):
        log = str(tmp_path / "svc.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=2, log_path=log)
        with open(log) as handle:
            lines = handle.readlines()
        keep = 1 + 40  # header + 40 trials
        with open(log, "w") as handle:
            handle.writelines(lines[:keep])
            handle.write('{"type": "trial", "ind')  # torn tail
        resumed = run_campaign(
            CHECKSUM_SPEC, workers=2, log_path=log, resume=True
        )
        assert resumed.resumed_trials == 40
        assert canonical(resumed.records) == serial_reference(CHECKSUM_SPEC)

    def test_progress_streams_per_chunk_and_per_shard(self):
        seen: list[ServiceProgress] = []
        result = run_campaign(CHECKSUM_SPEC, workers=2, progress=seen.append)
        shards = result.service["shards"]
        completions = [p for p in seen if p.last_report is not None]
        assert len(completions) == shards
        # One more snapshot per RECORD_CHUNK streamed records.
        assert len(seen) == shards + CHECKSUM_SPEC.trials // RECORD_CHUNK
        done = [p.done_trials for p in seen]
        assert done == sorted(done)
        assert seen[-1].done_trials == CHECKSUM_SPEC.trials
        assert seen[-1].completed_shards == shards
        low, high = seen[-1].detection_interval
        assert 0.0 <= low <= high <= 1.0


#: Shards of 64 trials at 2 workers: four RECORD_CHUNK messages each,
#: and ~2.5 ms per trial, so a worker killed within the first two
#: messages is still computing when it dies.
CRASH_SPEC = ProgramCampaignSpec(
    trials=8 * 64, seed=20140609, benchmark="cholesky", scale="small"
)

#: Seeded (shard, records streamed before the kill) pairs.
CRASH_POINTS = sorted(
    {
        (rng.randrange(8), rng.randrange(2 * RECORD_CHUNK + 1))
        for rng in map(random.Random, range(6))
    }
)


class _CrashingEndpoint:
    """Wraps LocalProcessEndpoint; the first attempt at shard
    ``target`` kills its worker once ``after`` records have streamed
    back, and notes which of the shard's indices never arrived."""

    def __init__(self, spec, crash):
        self._inner = LocalProcessEndpoint(spec)
        self._crash = crash

    async def start(self):
        await self._inner.start()

    async def run_shard(self, shard, on_record):
        crash = self._crash
        if shard.shard_id != crash["target"] or shard.attempt != 1:
            return await self._inner.run_shard(shard, on_record)
        arrived = set()

        def tripwire(record):
            on_record(record)
            arrived.add(record.index)
            if len(arrived) == crash["after"]:
                self._inner.process.kill()

        if crash["after"] == 0:
            self._inner.process.kill()
        try:
            return await self._inner.run_shard(shard, tripwire)
        finally:
            crash["missing"] = set(shard.indices) - arrived

    async def close(self):
        await self._inner.close()


class TestCrashReissue:
    @pytest.mark.parametrize("target,after", CRASH_POINTS)
    def test_killed_worker_reissues_missing_indices(
        self, target, after, tmp_path
    ):
        log = str(tmp_path / "crash.jsonl")
        crash = {"target": target, "after": after}
        result = run_campaign(
            CRASH_SPEC,
            workers=2,
            log_path=log,
            endpoint_factory=lambda: _CrashingEndpoint(CRASH_SPEC, crash),
        )
        assert result.service["shard_trials"] == 64
        assert crash["missing"], "the worker finished before it died"
        assert result.service["reissued"] >= 1
        # Verdict-by-index identity with an uninterrupted serial run —
        # in memory and in the rewritten JSONL log.
        expected = serial_reference(CRASH_SPEC)
        assert canonical(result.records) == expected
        logged = sorted(read_log(log).records, key=lambda r: r.index)
        assert canonical(logged) == expected

    def test_persistent_failure_gives_up(self):
        class _DeadEndpoint:
            async def start(self):
                pass

            async def run_shard(self, shard, on_record):
                raise ShardFailed("always down")

            async def close(self):
                pass

        with pytest.raises(RuntimeError, match="giving up"):
            run_campaign(
                ChecksumCampaignSpec(
                    size=64, bits=2, pattern="random", trials=6, seed=1
                ),
                workers=2,
                endpoint_factory=lambda: _DeadEndpoint(),
            )


class TestWarmStore:
    def test_second_run_hits_store(self, tmp_path):
        set_store_dir(tmp_path / "store")
        spec = ProgramCampaignSpec(
            trials=6, seed=11, benchmark="cholesky", scale="small"
        )
        cold = run_campaign(spec, workers=2)
        warm = run_campaign(spec, workers=2)
        assert canonical(cold.records) == canonical(warm.records)
        rate = namespace_hit_rate(
            warm.store, ("golden", "kernel", "instrument")
        )
        assert rate >= 0.90, warm.store

    def test_shards_share_one_golden_run(self, tmp_path):
        # Forked workers inherit the driver's in-memory golden cache;
        # clear it so this campaign's preparations are observable.
        from repro.campaign.golden import clear_cache

        clear_cache()
        set_store_dir(tmp_path / "store")
        spec = ProgramCampaignSpec(
            trials=6, seed=11, benchmark="jacobi1d", scale="small"
        )
        result = run_campaign(spec, workers=2)
        golden = result.store["golden"]
        # Six one-trial shards, two workers: each worker prepares at
        # most once (shards reuse the worker's prepared context), so
        # golden-run work is bounded by the worker count.
        assert result.service["shards"] == 6
        assert golden["misses"] + golden["disk_hits"] <= 2
        assert golden["misses"] + golden["disk_hits"] >= 1


class TestShardPlanning:
    """About four contiguous shards per worker, no size cap."""

    def test_shards_cover_pending_exactly(self):
        shards = _make_shards(list(range(100)), workers=3)
        flat = [i for shard in shards for i in shard.indices]
        assert flat == list(range(100))
        assert [len(s.indices) for s in shards] == [9] * 11 + [1]
        assert all(isinstance(shard, Shard) for shard in shards)

    @pytest.mark.parametrize(
        "pending,workers,size",
        [(20000, 2, 2500), (40, 2, 5), (7, 2, 1), (100, 3, 9)],
    )
    def test_size_is_ceil_pending_over_four_per_worker(
        self, pending, workers, size
    ):
        shards = _make_shards(list(range(pending)), workers=workers)
        assert len(shards[0].indices) == size
        assert len(shards) == -(-pending // size)

    def test_empty_pending(self):
        assert _make_shards([], workers=2) == []
