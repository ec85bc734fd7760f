"""Removed: the NumPy vector backend.

It never committed a run on any benchmark workload, so it was deleted
(docs/BACKENDS.md, "Vector backend (removed)").  These two names stay
as no-ops only because ``perfbench/`` still resets them between rounds.
"""


def clear_dispatch_caches() -> None:
    """No-op; nothing is cached any more."""


def clear_profit_memo() -> None:
    """No-op; nothing is memoized any more."""
