"""Static fault-outcome classification over a timeline.

For a strike that flips bit set ``B`` of one cell at load-ordinal
``t``, the corrupted value is consumed by exactly the cell's loads with
ordinal ``>= t`` up to (and excluding) the cell's next store — the
*vulnerability window*.  Each window is classified:

* :data:`MASKED` — the window contains no load: the flip dies in an
  overwrite (or after the last access) without ever being read.  The
  faulty run is instruction-for-instruction identical to the golden run
  outside the struck cell, so the measured verdict is *benign*.
* :data:`DETECTED` — the flip provably unbalances a checksum pair that
  a final verifier checks.  With ``v = old bits`` and ``v' = v ^ B``,
  channel 0 of pair ``(L, R)`` differs by ``(v' - v) * net (mod 2^64)``
  where ``net`` is the signed sum of the window's contribution counts
  (``L`` positive, ``R`` negative).  ``v' - v`` has 2-adic valuation
  exactly ``min(B)``, so the product is nonzero — detection — iff
  ``v2(net mod 2^64) + min(B) < 64``.
* :data:`VULNERABLE` — the window has loads but every checked pair's
  net is provably zero: the checksums are structurally blind here (the
  redirected-store / dead-contribution class of docs/FAULT_MODELS.md);
  whether the run ends in SDC is value-dependent.
* :data:`UNKNOWN` — the undecided rest on a data-dependent program
  (:attr:`~repro.analysis.timeline.Timeline.data_dependent`), where a
  corrupted read can change the event stream itself, so neither a
  detection proof nor structural blindness holds.

The delta formula above implicitly assumes every *other* cell
generation contributes a zero net to the pair (corruption that
propagates into other cells then cancels out of the pair).  That is
exactly the def/use balance the instrumentation establishes, and
:class:`ProgramClassifier` *verifies* it per generation instead of
assuming it: any pair with a nonzero per-generation net anywhere in the
program is excluded from detection reasoning.  MASKED classifications
never rely on it (nothing corrupt is ever loaded).
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb

from repro.analysis.timeline import Timeline

MASK64 = (1 << 64) - 1

DETECTED = "detected"
MASKED = "masked"
VULNERABLE = "vulnerable"
UNKNOWN = "unknown"

CLASSES = (DETECTED, MASKED, VULNERABLE, UNKNOWN)


def v2(value: int) -> int:
    """2-adic valuation of a nonzero 64-bit value."""
    return (value & -value).bit_length() - 1


class Window:
    """One vulnerability-window equivalence class of strike times."""

    __slots__ = ("masked", "min_v2")

    def __init__(self, masked: bool, min_v2: int | None = None) -> None:
        self.masked = masked
        self.min_v2 = min_v2
        """Smallest ``v2(net)`` over checked pairs with nonzero net."""


MASKED_WINDOW = Window(masked=True)


class ProgramClassifier:
    """Per-cell, per-strike-time classification for one timeline."""

    def __init__(self, timeline: Timeline) -> None:
        self.timeline = timeline
        self.final_pairs = timeline.final_assert_pairs()
        self.valid_pairs = tuple(
            pair for pair in self.final_pairs if self._pair_balanced(pair)
        )
        """Final-assert pairs whose per-generation nets are all provably
        zero — the only pairs detection predictions may rely on."""
        self.detection_allowed = (
            bool(self.valid_pairs)
            and not timeline.divide_hazard
            and not timeline.data_dependent
        )
        self.undecided = UNKNOWN if timeline.data_dependent else VULNERABLE
        """The class of a window with loads and no detection proof."""
        self._segments: dict[tuple[str, tuple[int, ...]], tuple] = {}

    # -- generation-balance validation ----------------------------------
    def _pair_balanced(self, pair: tuple[str, str]) -> bool:
        left, right = pair
        for events in self.timeline.cells.values():
            net = 0
            for event in events:
                if not event.is_load:
                    if net != 0:
                        return False
                    net = 0
                for name, count in event.contribs:
                    if name == left:
                        net += count
                    elif name == right:
                        net -= count
            if net != 0:
                return False
        return True

    # -- per-cell vulnerability windows ---------------------------------
    def segments(self, array: str, cell: tuple[int, ...]):
        """``(floors, windows)``: strike time ``t`` falls in segment
        ``i = bisect_left(floors, t)`` (``i == len`` means past the last
        event — masked)."""
        key = (array, cell)
        cached = self._segments.get(key)
        if cached is not None:
            return cached
        events = self.timeline.cells.get(key, [])
        pairs = self.valid_pairs
        reverse_out: list[tuple[int, Window]] = []
        nets = [0] * len(pairs)
        for event in reversed(events):
            if not event.is_load:
                nets = [0] * len(pairs)
                reverse_out.append((event.loads_before, MASKED_WINDOW))
                continue
            for name, count in event.contribs:
                for position, (left, right) in enumerate(pairs):
                    if name == left:
                        nets[position] += count
                    elif name == right:
                        nets[position] -= count
            residues = [net & MASK64 for net in nets]
            min_valuation = min(
                (v2(residue) for residue in residues if residue),
                default=None,
            )
            reverse_out.append(
                (event.ordinal, Window(masked=False, min_v2=min_valuation))
            )
        reverse_out.reverse()
        floors = [floor for floor, _ in reverse_out]
        windows = [window for _, window in reverse_out]
        result = (floors, windows)
        self._segments[key] = result
        return result

    def window_at(self, array: str, cell: tuple[int, ...], t: int) -> Window:
        floors, windows = self.segments(array, cell)
        position = bisect_left(floors, t)
        if position >= len(windows):
            return MASKED_WINDOW
        return windows[position]

    # -- verdicts over windows ------------------------------------------
    def window_detects(self, window: Window, bits) -> bool:
        """Provable final-assert detection for flipped bit set ``bits``."""
        return (
            self.detection_allowed
            and not window.masked
            and window.min_v2 is not None
            and bool(bits)
            and window.min_v2 + min(bits) < 64
        )

    def classify(self, array: str, cell: tuple[int, ...], t: int, bits) -> str:
        window = self.window_at(array, cell, t)
        if window.masked:
            return MASKED
        if self.window_detects(window, bits):
            return DETECTED
        return self.undecided

    def window_fractions(self, window: Window, num_bits: int) -> dict[str, float]:
        """Aggregate class fractions for a uniform ``num_bits``-bit flip
        landing in this window (bit positions drawn without replacement
        from 0..63; provable detection needs ``min(B) < 64 - v2``)."""
        if window.masked:
            return {MASKED: 1.0}
        if (
            self.detection_allowed
            and window.min_v2 is not None
            and num_bits > 0
        ):
            probability = detect_probability(window.min_v2, num_bits)
        else:
            probability = 0.0
        fractions: dict[str, float] = {}
        if probability > 0.0:
            fractions[DETECTED] = probability
        if probability < 1.0:
            fractions[self.undecided] = 1.0 - probability
        return fractions


def detect_probability(valuation: int, num_bits: int) -> float:
    """P(min of ``num_bits`` distinct bits < 64 - valuation)."""
    if num_bits <= 0:
        return 0.0
    if valuation <= 0:
        return 1.0
    if valuation >= 64:
        return 0.0
    return 1.0 - comb(valuation, num_bits) / comb(64, num_bits)
