"""Unit tests for the unified content-addressed artifact store."""

import os
import pickle

import pytest

from repro.service import store as store_mod
from repro.service.store import (
    ENV_STORE_DIR,
    Namespace,
    counters_add,
    counters_delta,
    namespace,
    namespace_hit_rate,
    set_store_dir,
    store_dir,
)


@pytest.fixture(autouse=True)
def clean_store(monkeypatch):
    monkeypatch.delenv(ENV_STORE_DIR, raising=False)
    set_store_dir(None)
    # Tests register throwaway namespaces; drop them afterwards so the
    # process-wide registry does not accumulate across the suite.
    before = set(store_mod._NAMESPACES)
    yield
    set_store_dir(None)
    for name in list(store_mod._NAMESPACES):
        if name not in before:
            del store_mod._NAMESPACES[name]


class TestMemoryLayer:
    def test_get_or_compute_computes_once(self):
        ns = Namespace("t-basic")
        calls = []
        value = ns.get_or_compute("k", lambda: calls.append(1) or 42)
        again = ns.get_or_compute("k", lambda: calls.append(1) or 43)
        assert value == again == 42
        assert len(calls) == 1
        stats = ns.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_lookup_counts_and_preserves_false(self):
        ns = Namespace("t-false")
        assert ns.lookup("k") is None
        ns.store("k", False)
        # False is a legitimate cached value (the ISL emptiness memo
        # stores False verdicts) and must come back as a hit.
        assert ns.lookup("k") is False
        stats = ns.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_lru_eviction_order(self):
        ns = Namespace("t-lru", limit=2)
        ns.store("a", 1)
        ns.store("b", 2)
        assert ns.lookup("a") == 1  # refresh a; b is now oldest
        ns.store("c", 3)
        assert ns.keys() == ["a", "c"]
        assert ns.stats()["evictions"] == 1

    def test_set_limit_shrinks(self):
        ns = Namespace("t-shrink", limit=8)
        for i in range(6):
            ns.store(i, i)
        ns.set_limit(2)
        assert len(ns.keys()) == 2
        with pytest.raises(ValueError):
            ns.set_limit(0)

    def test_clear_resets_counters(self):
        ns = Namespace("t-clear")
        ns.get_or_compute("k", lambda: 1)
        ns.clear()
        assert ns.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "disk_hits": 0,
            "size": 0,
            "limit": 128,
        }

    def test_registry_returns_same_instance(self):
        first = namespace("t-registry", limit=4)
        second = namespace("t-registry", limit=999)
        assert first is second
        assert second.limit == 4


class TestDiskLayer:
    def test_roundtrip_across_clear(self, tmp_path):
        set_store_dir(tmp_path)
        ns = Namespace("t-disk", disk=True)
        ns.get_or_compute(("k", 1), lambda: {"x": 2})
        ns.clear()
        value = ns.get_or_compute(("k", 1), lambda: pytest.fail("recompute"))
        assert value == {"x": 2}
        stats = ns.stats()
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 0

    def test_string_keys_keep_their_name(self, tmp_path):
        # The instrumentation cache's SHA-256 hex keys must map to
        # ``<key>.pkl`` so existing disk caches stay addressable.
        set_store_dir(tmp_path)
        ns = Namespace("t-names", disk=True)
        ns.get_or_compute("abc123", lambda: 7)
        assert (tmp_path / "t-names" / "abc123.pkl").exists()

    def test_tuple_keys_digest_deterministically(self, tmp_path):
        set_store_dir(tmp_path)
        ns = Namespace("t-digest", disk=True)
        key = ("digest", 2, (3, 4))
        ns.get_or_compute(key, lambda: 1)
        fresh = Namespace("t-digest2")
        assert ns.digest(key) == fresh.digest(key)
        assert (tmp_path / "t-digest" / f"{ns.digest(key)}.pkl").exists()

    def test_corrupted_entry_recomputes(self, tmp_path):
        set_store_dir(tmp_path)
        ns = Namespace("t-corrupt", disk=True)
        ns.get_or_compute("k", lambda: 5)
        path = tmp_path / "t-corrupt" / "k.pkl"
        path.write_bytes(b"not a pickle")
        ns.clear()
        assert ns.get_or_compute("k", lambda: 6) == 6
        assert ns.stats()["misses"] == 1

    def test_decode_veto_is_a_miss(self, tmp_path):
        set_store_dir(tmp_path)
        ns = Namespace("t-veto", disk=True, decode=lambda payload: None)
        ns.get_or_compute("k", lambda: 1)
        ns.clear()
        assert ns.get_or_compute("k", lambda: 2) == 2

    def test_encode_none_keeps_entry_memory_only(self, tmp_path):
        set_store_dir(tmp_path)
        ns = Namespace("t-memonly", disk=True, encode=lambda value: None)
        ns.get_or_compute("k", lambda: 1)
        assert not (tmp_path / "t-memonly").exists() or not list(
            (tmp_path / "t-memonly").glob("*.pkl")
        )

    def test_encode_decode_hooks_roundtrip(self, tmp_path):
        set_store_dir(tmp_path)
        ns = Namespace(
            "t-codec",
            disk=True,
            encode=lambda value: {"wrapped": value},
            decode=lambda payload: payload["wrapped"],
        )
        ns.get_or_compute("k", lambda: [1, 2])
        raw = pickle.loads(
            (tmp_path / "t-codec" / "k.pkl").read_bytes()
        )
        assert raw == {"wrapped": [1, 2]}
        ns.clear()
        assert ns.get_or_compute("k", lambda: None) == [1, 2]

    def test_unpicklable_value_degrades_silently(self, tmp_path):
        set_store_dir(tmp_path)
        ns = Namespace("t-unpick", disk=True)
        value = ns.get_or_compute("k", lambda: lambda: 1)  # a closure
        assert callable(value)
        assert ns.lookup("k") is value

    def test_env_var_enables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path))
        assert store_dir() == tmp_path
        ns = Namespace("t-env", disk=True)
        ns.get_or_compute("k", lambda: 3)
        assert list((tmp_path / "t-env").glob("*.pkl"))

    def test_explicit_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "env"))
        set_store_dir(tmp_path / "explicit")
        assert store_dir() == tmp_path / "explicit"

    def test_dir_resolver_wins(self, tmp_path):
        set_store_dir(tmp_path / "store")
        private = tmp_path / "private"
        ns = Namespace("t-resolver", disk=True, dir_resolver=lambda: private)
        ns.get_or_compute("k", lambda: 1)
        assert (private / "k.pkl").exists()

    def test_unwritable_dir_degrades(self, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, 0o500)
        try:
            ns = Namespace(
                "t-ro", disk=True, dir_resolver=lambda: target / "sub"
            )
            assert ns.get_or_compute("k", lambda: 9) == 9
        finally:
            os.chmod(target, 0o700)


class TestCounterAggregation:
    def test_delta_and_add_roundtrip(self):
        base = {
            "store": {"golden": {"hits": 1, "misses": 2}},
            "trials": {"carriers": 3},
        }
        now = {
            "store": {
                "golden": {"hits": 4, "misses": 2},
                "kernel": {"hits": 1, "misses": 1},
            },
            "trials": {"carriers": 5, "forked": 2},
        }
        delta = counters_delta(now, base)
        assert delta["store"]["golden"] == {"hits": 3, "misses": 0}
        assert delta["store"]["kernel"] == {"hits": 1, "misses": 1}
        assert delta["trials"] == {"carriers": 2, "forked": 2}
        total = {}
        counters_add(total, delta)
        counters_add(total, delta)
        assert total["store"]["golden"]["hits"] == 6
        assert total["trials"]["carriers"] == 4

    def test_delta_clamps_at_zero(self):
        # A replaced worker restarts its counters; a shrinking counter
        # must not poison the aggregate with negative numbers.
        delta = counters_delta(
            {"store": {"g": {"hits": 1}}, "trials": {}},
            {"store": {"g": {"hits": 5}}, "trials": {}},
        )
        assert delta["store"]["g"]["hits"] == 0

    def test_hit_rate(self):
        stats = {
            "golden": {"hits": 8, "disk_hits": 1, "misses": 1},
            "kernel": {"hits": 0, "disk_hits": 0, "misses": 10},
        }
        assert namespace_hit_rate(stats, ("golden",)) == 0.9
        assert namespace_hit_rate(stats) == 0.45
        assert namespace_hit_rate({}) == 0.0


class TestGoldenKeys:
    def test_source_edit_changes_the_key(self, tmp_path, monkeypatch):
        """A store directory that survives an edit anywhere in the
        package must not serve golden values the old code made."""
        from repro.campaign import golden

        key = ("t-golden", 1)
        set_store_dir(tmp_path)
        golden.clear_cache()
        try:
            golden.golden_run(key, lambda: 41)
            golden.clear_cache()
            assert golden.golden_run(key, lambda: 42) == 41
            assert golden.cached_keys() == [key]
            assert store_mod.store_stats()["golden"]["disk_hits"] == 1
            current = golden.code_digest("**/*.py")
            monkeypatch.setattr(
                golden, "code_digest", lambda *patterns: current + "-x"
            )
            golden.clear_cache()
            assert golden.golden_run(key, lambda: 42) == 42
            stats = store_mod.store_stats()["golden"]
            assert stats["misses"] == 1 and stats["disk_hits"] == 0
        finally:
            golden.clear_cache()


class TestCodeDigest:
    """The one hasher behind code-versioned keys (kernels, instrument)."""

    def test_hashes_paths_and_contents(self):
        import hashlib
        from pathlib import Path

        root = Path(store_mod.__file__).resolve().parent.parent
        path = root / "runtime" / "codegen.py"
        expected = hashlib.sha256(
            b"runtime/codegen.py\0" + path.read_bytes() + b"\0"
        ).hexdigest()[:16]
        uncached = store_mod.code_digest.__wrapped__
        assert uncached("runtime/codegen.py") == expected
        assert store_mod.code_digest("runtime/codegen.py") == expected

    def test_scoped_by_pattern(self):
        from repro.runtime.compile import EMITTER_SOURCES

        emitter = store_mod.code_digest(*EMITTER_SOURCES)
        assert emitter == store_mod.code_digest(*reversed(EMITTER_SOURCES))
        assert emitter != store_mod.code_digest("runtime/codegen.py")
        assert emitter != store_mod.code_digest("instrument/*.py")
        assert store_mod.code_digest("no/such/*.py") == (
            store_mod.code_digest("no/other/*.py")
        )
