"""Content-addressed instrumentation cache: correctness and tolerance.

The contract under test: a cache hit (memory or disk) is
indistinguishable from a fresh ``instrument_program`` call; distinct
programs or options never share a key; and a corrupted on-disk entry
degrades to a recompute, never an error.
"""

import pickle

import pytest

from repro.instrument import cache as icache
from repro.instrument.cache import cache_key, instrument_cached
from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.parser import parse_program
from repro.ir.printer import program_to_text
from repro.service.store import ENV_STORE_DIR, set_store_dir, store_stats

PROGRAM_TEXT = """
program p(n) {
  array A[n];
  array B[n];
  for i = 0 .. n - 1 { S0: B[i] = A[i] + 1; }
  for i = 0 .. n - 1 { S1: A[i] = B[i] * 2; }
}
"""

OPT = InstrumentationOptions(index_set_splitting=True, hoist_inspectors=True)


@pytest.fixture(autouse=True)
def clean_cache(monkeypatch):
    monkeypatch.delenv(ENV_STORE_DIR, raising=False)
    set_store_dir(None)
    icache.clear_cache()
    yield
    set_store_dir(None)
    icache.clear_cache()
    icache.set_cache_limit(128)


@pytest.fixture
def program():
    return parse_program(PROGRAM_TEXT)


class TestMemoryLayer:
    def test_hit_identical_to_fresh(self, program):
        fresh_program, fresh_report = instrument_program(program, OPT)
        first = instrument_cached(program, OPT)
        second = instrument_cached(program, OPT)
        assert second[0] is first[0]  # shared frozen instance
        assert program_to_text(first[0]) == program_to_text(fresh_program)
        assert set(first[1].plans) == set(fresh_report.plans)
        stats = store_stats()["instrument"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_distinct_options_distinct_keys(self, program):
        plain = InstrumentationOptions()
        assert cache_key(program, OPT) != cache_key(program, plain)
        instrument_cached(program, OPT)
        instrument_cached(program, plain)
        # Same program, different options: two independent entries even
        # when the instrumented output happens to coincide.
        stats = store_stats()["instrument"]
        assert stats["misses"] == 2 and stats["size"] == 2

    def test_distinct_programs_distinct_keys(self, program):
        other = parse_program(PROGRAM_TEXT.replace("+ 1", "+ 2"))
        assert cache_key(program, OPT) != cache_key(other, OPT)

    def test_default_options_key_matches_explicit(self, program):
        assert cache_key(program) == cache_key(
            program, InstrumentationOptions()
        )

    def test_backends_share_one_entry(self):
        """Instrumentation never reads the backend: an interpreter and
        a compiled campaign on the same program and options make one
        miss, then a hit."""
        from repro.campaign import ProgramCampaignSpec, run_campaign
        from repro.campaign.golden import clear_cache

        clear_cache()
        for backend in ("interp", "compiled"):
            spec = ProgramCampaignSpec(
                trials=2, seed=3, program_text=PROGRAM_TEXT,
                params={"n": 6}, backend=backend,
            )
            run_campaign(spec)
        stats = store_stats()["instrument"]
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_lru_eviction(self, program):
        icache.set_cache_limit(1)
        instrument_cached(program, OPT)
        instrument_cached(program, InstrumentationOptions())
        stats = store_stats()["instrument"]
        assert stats["size"] == 1
        assert stats["evictions"] == 1


def _entry(tmp_path, program):
    """Where the store keeps an instrumented program: one pickle per
    key under the store directory's ``instrument/``."""
    return tmp_path / "instrument" / f"{cache_key(program, OPT)}.pkl"


class TestDiskLayer:
    def test_roundtrip(self, program, tmp_path):
        set_store_dir(tmp_path)
        first = instrument_cached(program, OPT)
        assert _entry(tmp_path, program).exists()
        icache.clear_cache()  # drop memory, keep disk
        second = instrument_cached(program, OPT)
        stats = store_stats()["instrument"]
        assert stats["disk_hits"] == 1 and stats["misses"] == 0
        assert program_to_text(second[0]) == program_to_text(first[0])
        assert set(second[1].plans) == set(first[1].plans)

    def test_code_edit_changes_the_key(self, program, tmp_path, monkeypatch):
        """A disk directory that survives an edit to the instrumenter,
        or to the polyhedral, ISL or IR code under it, must not serve
        the old build."""
        assert {"poly/*.py", "isl/*.py", "ir/*.py"} <= set(icache.CODE_SOURCES)
        set_store_dir(tmp_path)
        instrument_cached(program, OPT)
        icache.clear_cache()
        instrument_cached(program, OPT)
        assert store_stats()["instrument"]["disk_hits"] == 1
        current = icache.code_digest(*icache.CODE_SOURCES)
        monkeypatch.setattr(
            icache, "code_digest", lambda *patterns: current + "-x"
        )
        icache.clear_cache()
        instrument_cached(program, OPT)
        stats = store_stats()["instrument"]
        assert stats["misses"] == 1 and stats["disk_hits"] == 0

    def test_corrupted_entry_recomputed(self, program, tmp_path):
        set_store_dir(tmp_path)
        first = instrument_cached(program, OPT)
        path = _entry(tmp_path, program)
        path.write_bytes(b"not a pickle")
        icache.clear_cache()
        second = instrument_cached(program, OPT)
        assert store_stats()["instrument"]["misses"] == 1  # recomputed
        assert program_to_text(second[0]) == program_to_text(first[0])
        # The recompute rewrote a valid entry.
        icache.clear_cache()
        instrument_cached(program, OPT)
        assert store_stats()["instrument"]["disk_hits"] == 1

    def test_wrong_payload_type_rejected(self, program, tmp_path):
        set_store_dir(tmp_path)
        path = _entry(tmp_path, program)
        path.parent.mkdir()
        path.write_bytes(pickle.dumps({"not": "an entry"}))
        instrument_cached(program, OPT)
        assert store_stats()["instrument"]["misses"] == 1

    def test_env_var_enables_disk(self, program, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path))
        instrument_cached(program, OPT)
        assert _entry(tmp_path, program).exists()
        icache.clear_cache()
        instrument_cached(program, OPT)
        assert store_stats()["instrument"]["disk_hits"] == 1

    def test_old_private_directory_entry_is_a_cold_miss(
        self, program, tmp_path
    ):
        """An entry in the layout of the removed instrument-only
        directory (``<dir>/<key>.pkl``) is never read: a miss, not an
        error."""
        set_store_dir(tmp_path)
        fresh = instrument_program(program, OPT)
        (tmp_path / f"{cache_key(program, OPT)}.pkl").write_bytes(
            pickle.dumps(fresh)
        )
        instrument_cached(program, OPT)
        stats = store_stats()["instrument"]
        assert stats["misses"] == 1 and stats["disk_hits"] == 0
        assert _entry(tmp_path, program).exists()

    def test_unwritable_dir_degrades_to_memory(self, program, tmp_path):
        target = tmp_path / "sub"
        target.mkdir()
        target.chmod(0o500)  # read/execute only
        set_store_dir(target)
        try:
            first = instrument_cached(program, OPT)
            second = instrument_cached(program, OPT)
            assert second[0] is first[0]
        finally:
            target.chmod(0o700)
