"""Campaign orchestration contracts: bit-identity, crash reissue,
forked trials, warm store.

``run_campaign(workers=N)`` runs in-process for N = 1 and otherwise
hands shards of the pending trials to worker processes through the
shard dispatcher; either way injected trials may fork off a shared
carrier pass at their triggers (:mod:`repro.campaign.carrier`).  The
record set must equal per-index :func:`replay_trial` records for every
fault model, backend, ``--prune static`` and ``recover=True``, with
forking forced on and off, in memory and in the JSONL log; a worker
killed mid-shard costs a reissue, never a record; a forked child
touches neither the log nor the worker pipe; and a warm second run
over a shared disk store is nearly pure cache hits.
"""

import functools
import json
import math
import os
import random
import signal
import time

import pytest

from repro.analysis.oracle import StaticOracle
from repro.campaign import (
    ChecksumCampaignSpec,
    ProgramCampaignSpec,
    carrier,
    read_log,
    run_campaign,
)
from repro.campaign.engine import replay_trial
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


@functools.lru_cache(maxsize=None)
def replay_reference(spec):
    """Every index replayed alone (statically predicted indices as the
    oracle predicts them): what any campaign run of ``spec`` must
    record, however its trials were scheduled."""
    oracle = None
    if getattr(spec, "prune", "none") == "static":
        oracle = StaticOracle(spec, spec.prepare())
    records = []
    for index in range(spec.trials):
        predicted = oracle.predict(index) if oracle is not None else None
        records.append(predicted or replay_trial(spec, index))
    return canonical(records)


@pytest.fixture(params=("fork", "plain"))
def fork_gate(request, monkeypatch):
    """Force the carrier's fork gate open (a fork costs nothing) or
    shut (a fork costs forever); forked workers inherit the patch."""
    cost = 0.0 if request.param == "fork" else math.inf
    monkeypatch.setattr(carrier, "_fork_cost_s", cost)
    return request.param


@pytest.fixture
def fork_on(monkeypatch):
    monkeypatch.setattr(carrier, "_fork_cost_s", 0.0)


def assert_matches_replay(spec, workers, tmp_path, gate):
    """A campaign run == per-index replays, in memory and in the log."""
    log = str(tmp_path / f"w{workers}.jsonl")
    result = run_campaign(spec, workers=workers, log_path=log)
    expected = replay_reference(spec)
    assert canonical(result.records) == expected
    contents = read_log(log)
    assert not contents.truncated
    assert canonical(sorted(contents.records, key=lambda r: r.index)) == (
        expected
    )
    assert contents.stats["trials"] == result.trials
    if workers > 1:
        assert result.service["workers"] == workers
    forked = result.trials["forked"]
    if gate == "plain" or isinstance(spec, ChecksumCampaignSpec):
        assert forked == 0
    elif workers == 1 and not spec.recover:
        # One carrier for the in-process call; every trial but the one
        # it took over itself (and any without a trigger) forked.
        assert result.trials["carriers"] == 1
        assert forked >= 1
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


WORKERS = (1, 2, 3)


@pytest.mark.parametrize("workers", WORKERS)
class TestBitIdentity:
    """Every orchestration == per-index replay, canonically."""

    def test_checksum_campaign(self, workers, tmp_path):
        assert_matches_replay(CHECKSUM_SPEC, workers, tmp_path, "plain")

    def test_program_campaign(self, workers, fork_gate, tmp_path):
        assert_matches_replay(_program_spec(), workers, tmp_path, fork_gate)

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_every_fault_model(self, workers, model, fork_gate, tmp_path):
        spec = ProgramCampaignSpec(
            trials=6,
            seed=31,
            benchmark="jacobi1d",
            scale="small",
            fault_model=model,
        )
        assert_matches_replay(spec, workers, tmp_path, fork_gate)

    @pytest.mark.parametrize("backend", ("interp", "compiled"))
    def test_every_backend(self, workers, backend, fork_gate, tmp_path):
        spec = _program_spec(backend=backend)
        assert_matches_replay(spec, workers, tmp_path, fork_gate)

    def test_static_prune(self, workers, fork_gate, tmp_path):
        # Half of these trials are predicted; the rest are executed.
        spec = ProgramCampaignSpec(
            trials=12,
            seed=9,
            benchmark="cholesky",
            scale="small",
            prune="static",
        )
        result = assert_matches_replay(spec, workers, tmp_path, fork_gate)
        assert 0 < result.pruned == run_campaign(spec, workers=1).pruned

    def test_recovery_campaign(self, workers, fork_gate, tmp_path):
        spec = _program_spec(trials=6, recover=True)
        assert_matches_replay(spec, workers, tmp_path, fork_gate)


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


def _record_child_pids(monkeypatch, path):
    """Make every forked trial child note its pid before it exits."""
    finish = carrier._ForkPoint.finish_child

    def noting(self, result, error):
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        finish(self, result, error)

    monkeypatch.setattr(carrier._ForkPoint, "finish_child", noting)


def _alive(pid: int) -> bool:
    """Running (not exited or a zombie awaiting its reaper)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


#: Every kill point on the plain path; every other one with forks
#: forced on (each of the 512 small trials then pays a whole fork).
CRASH_CASES = [("plain", *point) for point in CRASH_POINTS] + [
    ("fork", *point) for point in CRASH_POINTS[::2]
]


class TestCrashReissue:
    @pytest.mark.parametrize("gate,target,after", CRASH_CASES)
    def test_killed_worker_reissues_missing_indices(
        self, gate, target, after, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            carrier, "_fork_cost_s", 0.0 if gate == "fork" else math.inf
        )
        log = str(tmp_path / "crash.jsonl")
        children = tmp_path / "children.txt"
        _record_child_pids(monkeypatch, children)
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
        if gate == "plain":
            return
        assert result.trials["forked"] > 0
        # A child orphaned by the kill runs out its own suffix and
        # exits; it never reports through the dead worker's pipe.
        pids = [int(line) for line in children.read_text().split()]
        deadline = time.monotonic() + 30
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))

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


class TestForkedTrials:
    """The fork path's process hygiene and failure transport."""

    SPEC = ProgramCampaignSpec(
        trials=10, seed=5, benchmark="cholesky", scale="small"
    )

    def test_children_leave_the_log_alone(self, fork_on, tmp_path):
        # Each child inherits the driver's buffered log handle with
        # unflushed records in it; flushing it would duplicate lines.
        log = tmp_path / "forked.jsonl"
        result = run_campaign(self.SPEC, workers=1, log_path=str(log))
        assert result.trials["forked"] > 0
        lines = log.read_text().splitlines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds == ["header"] + ["trial"] * self.SPEC.trials + ["stats"]
        logged = sorted(read_log(str(log)).records, key=lambda r: r.index)
        assert canonical(logged) == replay_reference(self.SPEC)

    def _earliest_trigger(self):
        prepared = self.SPEC.prepare()
        return min(
            range(self.SPEC.trials),
            key=lambda i: self.SPEC.trial_injector(i, prepared)[1].arms_at(),
        )

    def _failing(self, monkeypatch, index, failure, where):
        classify = ProgramCampaignSpec.classify_trial

        def failing(spec, trial_index, *args):
            if trial_index == index:
                where.write_text(str(os.getpid()))
                failure()
            return classify(spec, trial_index, *args)

        monkeypatch.setattr(ProgramCampaignSpec, "classify_trial", failing)

    @pytest.mark.parametrize("gate", ("fork", "plain"))
    def test_child_exception_surfaces_unchanged(
        self, gate, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            carrier, "_fork_cost_s", 0.0 if gate == "fork" else math.inf
        )
        index = self._earliest_trigger()
        where = tmp_path / "pid"

        def boom():
            raise ZeroDivisionError(f"trial {index} went wrong")

        self._failing(monkeypatch, index, boom, where)
        with pytest.raises(ZeroDivisionError) as raised:
            run_campaign(self.SPEC, workers=1)
        assert str(raised.value) == f"trial {index} went wrong"
        # Same exception either way, raised in a child only when forked.
        in_child = int(where.read_text()) != os.getpid()
        assert in_child == (gate == "fork")

    def test_child_killed_by_signal_fails_the_campaign(
        self, fork_on, monkeypatch, tmp_path
    ):
        index = self._earliest_trigger()
        where = tmp_path / "pid"
        self._failing(
            monkeypatch,
            index,
            lambda: os.kill(os.getpid(), signal.SIGKILL),
            where,
        )
        log = tmp_path / "killed.jsonl"
        with pytest.raises(carrier.ChildTrialFailed, match=f"trial {index}"):
            run_campaign(self.SPEC, workers=1, log_path=str(log))
        assert int(where.read_text()) != os.getpid()
        # Whatever streamed before the failure is intact; the killed
        # index is missing, so a resume re-runs it.
        logged = read_log(str(log)).records
        assert index not in {record.index for record in logged}


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
