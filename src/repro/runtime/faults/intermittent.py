"""ITHICA-style intermittent stuck-bit faults.

A defective cell whose one bit reads (and writes) stuck at a fixed
value for a *window* of the execution, then heals.  Unlike the
single-shot flip of :class:`~repro.runtime.faults.value.RandomCellFlipper`,
the defect re-fires on **every access** of the cell while active — in
particular it re-corrupts the cell after a recovery rollback restores
clean words, which is exactly the scenario that separates honest
``recovery_failed`` reporting from a silent wrong-output ``recovered``.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.runtime.faults.base import (
    FaultInjector,
    InjectionRecord,
    injectable_targets,
)


class IntermittentStuckBit(FaultInjector):
    """One bit of one cell stuck at 0 or 1 for a window of loads.

    The window opens at a load ordinal drawn uniformly from
    ``[1, expected_loads]`` and covers ``window`` load events.  At the
    opening the defective array/cell/bit (and the stuck value, unless
    ``stuck_to`` pins it) are drawn and the cell's word is forced at
    rest; while the window is active every load and store of the cell
    re-forces the bit.  After the window the defect heals — the cell
    simply retains whatever (possibly forced) word it last held.
    """

    def __init__(
        self,
        expected_loads: int,
        window: int,
        rng: random.Random,
        target_arrays: Iterable[str] | None = None,
        stuck_to: int | None = None,
    ) -> None:
        if expected_loads < 1:
            raise ValueError("expected_loads must be >= 1")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if stuck_to not in (None, 0, 1):
            raise ValueError(f"stuck_to must be None, 0 or 1: {stuck_to}")
        self.window = window
        self.stuck_to = stuck_to
        self.target_arrays = (
            tuple(target_arrays) if target_arrays is not None else None
        )
        self.record: InjectionRecord | None = None
        self.no_targets = self.target_arrays == ()
        if self.no_targets:
            self.start = 0  # RNG untouched for un-injectable specs
        else:
            self.start = rng.randint(1, expected_loads)
        self.rng = rng
        self._array: str | None = None
        self._cell: tuple[int, ...] = ()
        self._bit = 0
        self._value = 0
        self._end = 0

    @property
    def injected(self) -> bool:
        return self.record is not None

    def arms_at(self):
        # Once armed the defect acts on every access of its window.
        if self.record is not None or self.no_targets:
            return None
        return ("load", self.start)

    def _force(self, word: int) -> int:
        if self._value:
            return word | (1 << self._bit)
        return word & ~(1 << self._bit)

    def _arm(self, memory) -> bool:
        arrays = injectable_targets(memory, self.target_arrays)
        if not arrays:
            self.no_targets = True
            return False
        self._array = self.rng.choice(arrays)
        shape = memory.shape(self._array)
        self._cell = tuple(self.rng.randrange(extent) for extent in shape)
        self._bit = self.rng.randrange(64)
        self._value = (
            self.stuck_to
            if self.stuck_to is not None
            else self.rng.randint(0, 1)
        )
        self._end = memory.load_count + self.window - 1
        self.record = InjectionRecord(
            array=self._array,
            indices=self._cell,
            bits=(self._bit,),
            at_load=memory.load_count,
            kind="stuck_bit",
            cells=(self._cell,),
            window=(memory.load_count, self._end),
            stuck_to=self._value,
        )
        # The defect manifests immediately: force the bit at rest.
        word = memory.peek_bits(self._array, self._cell)
        if self._force(word) != word:
            memory.flip_bits(self._array, self._cell, (self._bit,))
        return True

    def _active(self, memory) -> bool:
        return self.record is not None and memory.load_count <= self._end

    def before_load(self, memory, name, indices, word):
        if self.no_targets:
            return None
        if self.record is None:
            if memory.load_count < self.start or not self._arm(memory):
                return None
        if (
            self._active(memory)
            and name == self._array
            and tuple(indices) == self._cell
        ):
            forced = self._force(word)
            if forced != word:
                return forced
        return None

    def after_store(self, memory, name, indices, word):
        if (
            self._active(memory)
            and name == self._array
            and tuple(indices) == self._cell
        ):
            forced = self._force(word)
            if forced != word:
                return forced
        return None
