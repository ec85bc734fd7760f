"""Optimization pipeline for the compiled execution backend.

The emitter in :mod:`repro.runtime.codegen` always runs these passes:
expression folding with coalesced count updates, loop-invariant code
motion into per-loop preambles, guard fusion of the ``&&`` chains
index-set splitting emits, small constant-trip and provably-0/1-trip
loop unrolling, and static elimination of the per-bundle load cache
where affine alias analysis proves every hit/miss at compile time.

Each kernel gets two bodies from this one configuration, told apart by
the emitter's ``inline_mem`` flag:

* the **hooked** body, whose every access goes through the
  :class:`~repro.runtime.memory.Memory` methods, so every injector
  observation point is preserved verbatim;
* the **inline** body, with bounds checks and word-array accesses
  inlined (no :class:`Memory` method calls on the hot path), selected
  at run time when no fault injector is attached, or when a one-shot
  injector is (``random_cell``, ``burst``) and the body is
  trap-exact — it then calls the injector once, from a load trap.

Every pass is bound by the bit-identity contract spelled out in
:mod:`repro.runtime.opt.analysis`: identical load/store event order,
identical :class:`OpCounts`, identical checksum streams and identical
failure behaviour.
"""

from __future__ import annotations

from repro.runtime.opt.analysis import (
    COUNTERS,
    Folded,
    GuardChain,
    analyze_guard_chain,
    fuse_condition,
    keys_never_alias,
    loop_trip_at_most_one,
    loop_trip_constant,
    ref_affine_key,
    try_fold,
)

__all__ = [
    "COUNTERS",
    "Folded",
    "GuardChain",
    "analyze_guard_chain",
    "fuse_condition",
    "keys_never_alias",
    "loop_trip_at_most_one",
    "loop_trip_constant",
    "ref_affine_key",
    "try_fold",
]

#: Cap for full constant-trip unrolling; provable 0/1-trip loops are
#: always rewritten to an ``if`` regardless of this cap.
UNROLL_LIMIT = 4
