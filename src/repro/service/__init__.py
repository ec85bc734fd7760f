"""Campaign service layer: shard dispatch + the unified artifact store.

Two pieces (see ``docs/SERVICE.md``):

* :mod:`repro.service.store` — the **content-addressed artifact
  store**: one digest-keyed get-or-compute layer (in-memory LRU plus an
  opt-in shared disk directory) behind every process-wide cache the
  toolchain keeps — golden runs, compiled kernels, instrumented
  programs, and the ISL memos — with per-namespace hit/miss/eviction
  stats.  N campaign workers warm up from one golden run, and a second
  campaign over the same spec is pure cache hits.

* :mod:`repro.service.dispatcher` — the **async shard dispatcher**
  behind ``run_campaign(workers=N)`` for N > 1: cuts a campaign into
  index-range shards, fans them out to worker processes over a
  transport-agnostic :class:`WorkerEndpoint` protocol (local processes
  today, multi-host backends later), streams trial records back as
  they complete for live progress, and reissues shards lost to worker
  crashes.  A sharded campaign's records are bit-identical to the
  in-process ``workers=1`` run — per-trial SHA-256 seeding makes every
  trial a pure function of ``(spec, index)``.
"""

from repro.service.dispatcher import (
    LocalProcessEndpoint,
    ServiceProgress,
    Shard,
    ShardFailed,
    ShardReport,
    WorkerEndpoint,
)
from repro.service.store import (
    ENV_STORE_DIR,
    Namespace,
    clear_store,
    namespace,
    namespace_hit_rate,
    set_store_dir,
    store_dir,
    store_stats,
)

__all__ = [
    "ENV_STORE_DIR",
    "LocalProcessEndpoint",
    "Namespace",
    "ServiceProgress",
    "Shard",
    "ShardFailed",
    "ShardReport",
    "WorkerEndpoint",
    "clear_store",
    "namespace",
    "namespace_hit_rate",
    "set_store_dir",
    "store_dir",
    "store_stats",
]
