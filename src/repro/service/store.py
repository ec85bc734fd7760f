"""Unified content-addressed artifact store.

Every expensive artifact the toolchain computes is a pure function of
content we already digest: golden runs key on the campaign spec's
golden digest and the whole package's :func:`code_digest`, compiled
kernels on the IR digest and the emitter's :func:`code_digest`,
instrumented programs on the printed-IR SHA-256 and the
:func:`code_digest` of the instrumenter and the layers under it, the
shared polyhedral analyses on the printed-IR SHA-256, the ISL memos on
canonical constraint-system hashes.  Before this module each owner
kept a private ``OrderedDict`` with its own counters, its own eviction
loop, and (for the instrumentation cache) its own disk layer — and N
campaign worker processes each re-warmed all four.

The store is one get-or-compute layer shared by all of them:

* a :class:`Namespace` per artifact kind (``golden``, ``kernel``,
  ``instrument``, ``poly``, ``isl_empty``, ``isl_fm``, ``isl_count``),
  each an LRU-bounded in-memory map with hit/miss/eviction/disk-hit
  counters;
* an **opt-in shared disk directory** (:func:`set_store_dir` or the
  ``REPRO_ARTIFACT_STORE`` environment variable — the env var so
  campaign worker processes inherit it) holding one pickle per key
  under ``<dir>/<namespace>/``.  Writes are atomic (temp file +
  rename); reads are tolerant — a corrupted, truncated or unreadable
  entry is a miss, never an error.  Namespaces opt in per kind:
  artifacts that cannot round-trip a process boundary (the ISL memos
  key on interned objects, and the polyhedral analyses hold ISL sets)
  stay memory-only, and namespaces with
  non-picklable values (compiled kernels) provide ``encode``/``decode``
  hooks that persist a rebuildable form (the generated sources) instead;
* **aggregatable counters**: :func:`counters_snapshot` /
  :func:`counters_delta` let campaign workers ship monotone counter
  deltas back to the driver, so ``campaign run``/``report`` show
  *aggregate* hit/miss numbers instead of silently dropping every
  worker's view when the worker exits.  :func:`store_stats` is the one
  place to read a namespace's counters.

The content-addressing contract is the owners' to keep: a namespace
key must capture everything the artifact depends on.  The store only
promises that equal keys share one computation (per process, plus
across processes through the disk layer).
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def code_digest(*patterns: str) -> str:
    """SHA-256 (16 hex digits) over the ``repro`` source files matching
    ``patterns`` (globs relative to the package directory).

    An owner folds this into its keys when its artifacts are outputs of
    that code, so an on-disk store directory can never serve entries
    produced by a *different version* of it: editing any matched file
    changes every key, and the stale pickles simply stop being
    addressed.  Computed once per process (the sources cannot change
    under a running process we care about), from the files in sorted
    order.
    """
    root = Path(__file__).resolve().parent.parent
    paths = sorted({path for pattern in patterns for path in root.glob(pattern)})
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        try:
            digest.update(path.read_bytes())
        except OSError:
            pass
        digest.update(b"\0")
    return digest.hexdigest()[:16]


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


#: How injected trials ran in this process (monotone): ``carriers``
#: counts shared golden-prefix passes, ``forked`` the trials finished in
#: a child forked off a carrier, and ``trapped`` the kernel runs that
#: took the inline body with a one-shot injector on its load trap.
TRIAL_PATHS = {"carriers": 0, "forked": 0, "trapped": 0}


def counters_snapshot() -> dict[str, dict]:
    """Everything a campaign worker reports deltas of: store counters
    and the trial paths."""
    return {
        "store": store_counters(),
        "trials": dict(TRIAL_PATHS),
    }


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
        "trials": _diff_flat(now.get("trials", {}), base.get("trials", {})),
    }


def counters_add(total: dict, delta: dict) -> dict:
    """Accumulate a worker delta into ``total`` in place (and return
    it).  Shapes follow :func:`counters_snapshot`."""
    for name, flat in delta.get("store", {}).items():
        into = total.setdefault("store", {}).setdefault(name, {})
        for key, value in flat.items():
            into[key] = into.get(key, 0) + value
    into = total.setdefault("trials", {})
    for key, value in delta.get("trials", {}).items():
        into[key] = into.get(key, 0) + value
    return total


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
