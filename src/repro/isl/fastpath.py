"""ISL hot-path switchboard: memoization and pruning toggles.

The polyhedral substrate spends almost all of its time deciding
emptiness of conjunctive systems produced by subtraction chains
(``Set.subtract`` → ``BasicSet.is_empty``).  Three optimizations make
that path fast:

* **gist pruning** in ``set_ops._subtract_basic`` — constraints of the
  subtrahend already implied by the minuend are dropped before
  negation, so their (necessarily empty) disjuncts are never built;
* a **process-wide emptiness memo** keyed by the canonical structural
  hash of a constraint system (the frozenset of its normalized
  constraints — the parametric verdict depends on nothing else);
* **interned coefficient rows** on ``Constraint`` so the quick
  feasibility/contradiction witnesses stop rebuilding dicts per call.

All three are semantics-preserving.  They can be disabled together via
:func:`set_fast_path` — ``benchmarks/bench_instrument.py`` uses the
slow path as its same-machine baseline, and the differential tests in
``tests/isl/`` pit the two paths against each other and against point
enumeration.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable

from repro.service.store import namespace

_ENABLED = True

# The three memos are memory-only namespaces of the unified artifact
# store: their keys are interned/structural objects that do not
# round-trip a process boundary, so they never opt into the disk layer
# — but their counters aggregate across campaign workers like every
# other namespace.
_EMPTY_MEMO_LIMIT = 1 << 16
_FM_MEMO_LIMIT = 1 << 14
_COUNT_MEMO_LIMIT = 1 << 12


def _empty_ns():
    return namespace("isl_empty", limit=_EMPTY_MEMO_LIMIT)


def _fm_ns():
    return namespace("isl_fm", limit=_FM_MEMO_LIMIT)


def _count_ns():
    return namespace("isl_count", limit=_COUNT_MEMO_LIMIT)


def fast_path_enabled() -> bool:
    """Whether the ISL hot-path optimizations are active."""
    return _ENABLED


def set_fast_path(enabled: bool) -> None:
    """Toggle gist pruning + emptiness memoization (benchmark baseline)."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def slow_path():
    """Run a block with the optimizations disabled (fresh memo after)."""
    previous = _ENABLED
    set_fast_path(False)
    try:
        yield
    finally:
        set_fast_path(previous)


def memo_lookup(key: Hashable) -> bool | None:
    """Cached emptiness verdict for a constraint system, if any."""
    if not _ENABLED:
        return None
    return _empty_ns().lookup(key)


def memo_store(key: Hashable, verdict: bool) -> None:
    if not _ENABLED:
        return
    _empty_ns().store(key, verdict)


def fm_memo_lookup(key: Hashable) -> tuple[tuple, bool] | None:
    """Cached Fourier–Motzkin elimination result, if any."""
    if not _ENABLED:
        return None
    return _fm_ns().lookup(key)


def fm_memo_store(key: Hashable, constraints: tuple, exact: bool) -> None:
    if not _ENABLED:
        return
    _fm_ns().store(key, (constraints, exact))


def count_memo_lookup(key: Hashable):
    """Cached piecewise-polynomial cardinality for a set, if any.

    Keyed by content (space + the frozensets of normalized
    constraints + the counted dims), so structurally equal sets built
    by different instrumentation runs share one construction.  The
    cached :class:`~repro.isl.piecewise.PiecewisePolynomial` is
    immutable, so returning the same instance is safe.
    """
    if not _ENABLED:
        return None
    return _count_ns().lookup(key)


def count_memo_store(key: Hashable, value) -> None:
    if not _ENABLED:
        return
    _count_ns().store(key, value)


def clear_memo() -> None:
    """Drop all cached verdicts (benchmarks, tests)."""
    for ns in (_empty_ns(), _fm_ns(), _count_ns()):
        ns.clear()
