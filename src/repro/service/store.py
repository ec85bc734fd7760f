"""Unified content-addressed artifact store.

Every expensive artifact the toolchain computes is a pure function of
content we already digest: golden runs key on the campaign spec's
golden digest, compiled kernels on the IR digest (+ opt level + batch
shape), instrumented programs on the printed-IR SHA-256, the ISL memos
on canonical constraint-system hashes.  Before this module each owner
kept a private ``OrderedDict`` with its own counters, its own eviction
loop, and (for the instrumentation cache) its own disk layer — and N
campaign worker processes each re-warmed all four.

The store is one get-or-compute layer shared by all of them:

* a :class:`Namespace` per artifact kind (``golden``, ``kernel``,
  ``instrument``, ``isl_empty``, ``isl_fm``, ``isl_count``), each an
  LRU-bounded in-memory map with hit/miss/eviction/disk-hit counters;
* an **opt-in shared disk directory** (:func:`set_store_dir` or the
  ``REPRO_ARTIFACT_STORE`` environment variable — the env var so
  campaign worker processes inherit it) holding one pickle per key
  under ``<dir>/<namespace>/``.  Writes are atomic (temp file +
  rename); reads are tolerant — a corrupted, truncated or unreadable
  entry is a miss, never an error.  Namespaces opt in per kind:
  artifacts that cannot round-trip a process boundary (the ISL memos
  key on interned objects) stay memory-only, and namespaces with
  non-picklable values (compiled kernels) provide ``encode``/``decode``
  hooks that persist a rebuildable form (the generated sources) instead;
* **aggregatable counters**: :func:`counters_snapshot` /
  :func:`counters_delta` let campaign workers ship monotone counter
  deltas back to the driver, so ``campaign run``/``report`` show
  *aggregate* hit/miss numbers instead of silently dropping every
  worker's view when the worker exits.

The content-addressing contract is the owners' to keep: a namespace
key must capture everything the artifact depends on.  The store only
promises that equal keys share one computation (per process, plus
across processes through the disk layer).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable

ENV_STORE_DIR = "REPRO_ARTIFACT_STORE"

_MISS = object()

#: Counter names that only ever grow — the aggregatable subset of
#: :meth:`Namespace.stats` (``size``/``limit`` are gauges and stay
#: per-process).
COUNTER_FIELDS = ("hits", "misses", "evictions", "disk_hits")


class Namespace:
    """One artifact kind: an LRU map with counters and optional disk.

    ``encode(value)`` must return a picklable payload (or ``None`` to
    keep the entry memory-only); ``decode(payload)`` rebuilds the value
    (or returns ``None`` to treat the disk entry as a miss — the
    validation hook).  ``dir_resolver`` lets an owner point the
    namespace at its own directory (the instrumentation cache's
    ``REPRO_INSTRUMENT_CACHE`` compatibility path); when it yields
    nothing, a disk-enabled namespace falls back to
    ``<store dir>/<name>/``.
    """

    def __init__(
        self,
        name: str,
        limit: int = 128,
        disk: bool = False,
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
        dir_resolver: Callable[[], os.PathLike | str | None] | None = None,
    ) -> None:
        if limit < 1:
            raise ValueError("namespace limit must be positive")
        self.name = name
        self.limit = limit
        self.disk = disk
        self.encode = encode
        self.decode = decode
        self.dir_resolver = dir_resolver
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0

    # ------------------------------------------------------------------
    # Memory layer
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable, default=None):
        """Memory-only probe (the ISL-memo fast path: no disk, no
        compute).  Counts a hit or a miss."""
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return default
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def store(self, key: Hashable, value) -> None:
        """Insert (memory only), evicting LRU entries past the bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]):
        """The full lookup chain: memory -> disk -> ``compute()``.

        A computed value is written through to disk (when enabled); a
        disk-loaded value is promoted into the memory layer.
        """
        value = self._entries.get(key, _MISS)
        if value is not _MISS:
            self.hits += 1
            self._entries.move_to_end(key)
            return value
        value = self._disk_load(key)
        if value is not _MISS:
            self.disk_hits += 1
        else:
            self.misses += 1
            value = compute()
            self._disk_store(key, value)
        self.store(key, value)
        return value

    def keys(self) -> list[Hashable]:
        return list(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "size": len(self._entries),
            "limit": self.limit,
        }

    def set_limit(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("namespace limit must be positive")
        self.limit = limit
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop the memory layer and reset counters (disk untouched)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def directory(self) -> Path | None:
        """Where this namespace persists, if anywhere."""
        if self.dir_resolver is not None:
            resolved = self.dir_resolver()
            if resolved is not None:
                return Path(resolved)
        if not self.disk:
            return None
        base = store_dir()
        return base / self.name if base is not None else None

    def digest(self, key: Hashable) -> str:
        """Disk filename for a key.  String keys are assumed to already
        be content digests (the instrumentation cache's SHA-256 hex);
        anything else is hashed over its ``repr``, which for the tuples
        of primitives used as keys is deterministic across processes.
        """
        if isinstance(key, str):
            return key
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    def _entry_path(self, key: Hashable) -> Path | None:
        directory = self.directory()
        if directory is None:
            return None
        return directory / f"{self.digest(key)}.pkl"

    def _disk_load(self, key: Hashable):
        path = self._entry_path(key)
        if path is None:
            return _MISS
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return _MISS
        if self.decode is not None:
            try:
                value = self.decode(payload)
            except Exception:
                return _MISS
            return _MISS if value is None else value
        return payload

    def _disk_store(self, key: Hashable, value) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        payload = value
        if self.encode is not None:
            try:
                payload = self.encode(value)
            except Exception:
                return
            if payload is None:
                return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent,
                prefix=f".{self.digest(key)[:16]}-",
                suffix=".tmp",
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(
                        payload, handle, protocol=pickle.HIGHEST_PROTOCOL
                    )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            # Unpicklable values and read-only/full directories degrade
            # to memory-only, never an error.
            pass


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------
_NAMESPACES: dict[str, Namespace] = {}
_STORE_DIR: Path | None = None


def namespace(name: str, **kwargs) -> Namespace:
    """The namespace registered under ``name``, creating it on first
    use.  Construction keyword arguments only apply on creation; later
    callers get the existing instance unchanged."""
    existing = _NAMESPACES.get(name)
    if existing is None:
        existing = Namespace(name, **kwargs)
        _NAMESPACES[name] = existing
    return existing


def namespaces() -> list[Namespace]:
    return list(_NAMESPACES.values())


def store_dir() -> Path | None:
    """The shared disk directory, if any (explicit beats env var)."""
    if _STORE_DIR is not None:
        return _STORE_DIR
    env = os.environ.get(ENV_STORE_DIR)
    return Path(env) if env else None


def set_store_dir(path: str | os.PathLike | None) -> None:
    """Enable (or with ``None`` disable) the shared disk layer."""
    global _STORE_DIR
    _STORE_DIR = Path(path) if path is not None else None


def store_stats() -> dict[str, dict[str, int]]:
    """Per-namespace stats of every registered namespace."""
    return {name: ns.stats() for name, ns in sorted(_NAMESPACES.items())}


def clear_store() -> None:
    """Drop every namespace's memory layer and counters (tests)."""
    for ns in _NAMESPACES.values():
        ns.clear()


# ----------------------------------------------------------------------
# Cross-process counter aggregation
# ----------------------------------------------------------------------
def store_counters() -> dict[str, dict[str, int]]:
    """The monotone counter subset of :func:`store_stats`."""
    return {
        name: {field: getattr(ns, field) for field in COUNTER_FIELDS}
        for name, ns in _NAMESPACES.items()
    }


def counters_snapshot() -> dict[str, dict]:
    """Everything a campaign worker reports deltas of: store counters
    plus the vector backend's dispatch counters."""
    from repro.runtime.vector import vector_stats

    return {"store": store_counters(), "vector": dict(vector_stats())}


def _diff_flat(now: dict, base: dict) -> dict[str, int]:
    return {
        key: max(0, int(value) - int(base.get(key, 0)))
        for key, value in now.items()
    }


def counters_delta(now: dict, base: dict | None) -> dict:
    """``now - base`` over a :func:`counters_snapshot` pair (clamped at
    zero; a missing base namespace counts from zero)."""
    if base is None:
        return now
    base_store = base.get("store", {})
    return {
        "store": {
            name: _diff_flat(flat, base_store.get(name, {}))
            for name, flat in now.get("store", {}).items()
        },
        "vector": _diff_flat(now.get("vector", {}), base.get("vector", {})),
    }


def counters_add(total: dict, delta: dict) -> dict:
    """Accumulate a worker delta into ``total`` in place (and return
    it).  Shapes follow :func:`counters_snapshot`."""
    for name, flat in delta.get("store", {}).items():
        into = total.setdefault("store", {}).setdefault(name, {})
        for key, value in flat.items():
            into[key] = into.get(key, 0) + value
    vector = total.setdefault("vector", {})
    for key, value in delta.get("vector", {}).items():
        vector[key] = vector.get(key, 0) + value
    return total


def merged_store_stats(extra: dict[str, dict] | None) -> dict[str, dict]:
    """This process's :func:`store_stats` with worker counter deltas
    folded in (``size``/``limit`` stay the local gauges)."""
    stats = store_stats()
    for name, flat in (extra or {}).items():
        entry = stats.setdefault(
            name,
            {field: 0 for field in COUNTER_FIELDS} | {"size": 0, "limit": 0},
        )
        for field in COUNTER_FIELDS:
            entry[field] = entry.get(field, 0) + flat.get(field, 0)
    return stats


def namespace_hit_rate(
    stats: dict[str, dict[str, int]],
    names: Iterable[str] | None = None,
) -> float:
    """Aggregate (memory + disk) hit fraction over the chosen
    namespaces — the ``>= 90%`` warm-campaign gate in CI.  Namespaces
    with zero lookups contribute nothing; with no lookups anywhere the
    rate is 0.0."""
    hits = 0
    total = 0
    for name, entry in stats.items():
        if names is not None and name not in names:
            continue
        served = entry.get("hits", 0) + entry.get("disk_hits", 0)
        hits += served
        total += served + entry.get("misses", 0)
    return hits / total if total else 0.0
