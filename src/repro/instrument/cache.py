"""Content-addressed instrumentation cache.

Instrumenting a program is a pure function of its printed IR and the
:class:`InstrumentationOptions`, and for the larger Table 2 kernels it
costs hundreds of milliseconds even on the fast ISL path.  Campaign
sweeps, the Figure 10 harness and repeated CLI invocations all
re-instrument identical inputs, so :func:`instrument_cached` memoizes
``instrument_program`` under a SHA-256 key of

    ``program_to_text(program)`` + the options field tuple
    + the code digest of the instrumenter and the layers it calls
      (``instrument/``, ``poly/``, ``isl/``, ``ir/``).

Nothing else goes in: instrumentation never reads which backend will
run the result, so interpreter campaigns, compiled campaigns and the
Figure 10 builds share one entry.

Storage is the ``instrument`` namespace of
:mod:`repro.service.store`: an in-memory LRU with hit/miss/eviction
counters, plus an on-disk layer holding one pickle per key.  The disk
directory resolves in order:

* ``set_cache_dir`` / the ``REPRO_INSTRUMENT_CACHE`` environment
  variable (the historical opt-in; entries live directly in that
  directory as ``<key>.pkl``), else
* the unified artifact store's shared directory
  (``REPRO_ARTIFACT_STORE`` / ``set_store_dir``), under its
  ``instrument/`` subdirectory.

Either way the store's disk semantics apply: writes are atomic (temp
file + rename) and reads tolerant — a corrupted, truncated or
unreadable entry is treated as a miss and recomputed, never an error.

``Program`` is a frozen dataclass, so sharing the cached instance is
safe; treat the cached :class:`InstrumentationReport` as read-only.
Programs that print to identical text are identical by construction of
the key — that is the content-addressing contract.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import fields
from pathlib import Path

from repro.instrument.pipeline import (
    InstrumentationOptions,
    InstrumentationReport,
    instrument_program,
)
from repro.ir.nodes import Program
from repro.ir.printer import program_to_text
from repro.service.store import code_digest, namespace

ENV_CACHE_DIR = "REPRO_INSTRUMENT_CACHE"

_Entry = tuple[Program, InstrumentationReport]

_DEFAULT_LIMIT = 128

#: The sources an instrumented program is an output of.
CODE_SOURCES = ("instrument/*.py", "poly/*.py", "isl/*.py", "ir/*.py")

_CACHE_DIR: Path | None = None


def _validate(payload):
    """Disk decode hook: only a well-formed entry is served."""
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], Program)
        and isinstance(payload[1], InstrumentationReport)
    ):
        return payload
    return None


def _ns():
    return namespace(
        "instrument",
        limit=_DEFAULT_LIMIT,
        disk=True,
        decode=_validate,
        dir_resolver=_legacy_dir,
    )


def cache_key(
    program: Program, options: InstrumentationOptions | None = None
) -> str:
    """SHA-256 over the printed program, every options field and the
    code digest of everything the output depends on.

    Adding a field to ``InstrumentationOptions`` automatically changes
    the key, so stale entries can never be served across an options
    schema change; :data:`CODE_SOURCES`'s digest
    (:func:`~repro.service.store.code_digest`) does the same for changes
    to the instrumenter or to the polyhedral, ISL and IR layers under
    it (an on-disk cache surviving a ``git pull`` would otherwise serve
    outputs of the old code).
    """
    options = options or InstrumentationOptions()
    option_items = tuple(
        (f.name, getattr(options, f.name)) for f in fields(options)
    )
    payload = (
        program_to_text(program)
        + "\n#options#"
        + repr(option_items)
        + "\n#code#"
        + code_digest(*CODE_SOURCES)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def instrument_cached(
    program: Program, options: InstrumentationOptions | None = None
) -> _Entry:
    """``instrument_program`` memoized under the content-addressed key."""
    key = cache_key(program, options)
    return _ns().get_or_compute(
        key, lambda: instrument_program(program, options)
    )


# ----------------------------------------------------------------------
# On-disk layer (opt-in)
# ----------------------------------------------------------------------
def _legacy_dir() -> Path | None:
    """The instrument-specific directory, if configured.  Returning
    ``None`` lets the namespace fall back to the unified store dir."""
    if _CACHE_DIR is not None:
        return _CACHE_DIR
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else None


def cache_dir() -> Path | None:
    """The active on-disk directory, if any (explicit beats env var,
    which beats the shared artifact-store directory)."""
    return _ns().directory()


def set_cache_dir(path: str | os.PathLike | None) -> None:
    """Enable (or with ``None`` disable) the instrument-specific disk
    directory.  The shared store directory, when set, still applies."""
    global _CACHE_DIR
    _CACHE_DIR = Path(path) if path is not None else None


# ----------------------------------------------------------------------
# Management (mirrors repro.campaign.golden); counters are the
# ``instrument`` entry of repro.service.store.store_stats()
# ----------------------------------------------------------------------
def set_cache_limit(limit: int) -> None:
    """Re-bound the in-memory layer (evicting oldest when shrinking)."""
    _ns().set_limit(limit)


def clear_cache() -> None:
    """Drop the in-memory layer and reset counters (disk is untouched)."""
    _ns().clear()
