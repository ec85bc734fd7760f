"""Static per-trial oracle: predict campaign verdicts without running.

:class:`StaticOracle` builds a trial's real injector
(:meth:`~repro.campaign.spec.ProgramCampaignSpec.trial_injector`) and
fires it on the golden run's recorded accesses
(:class:`~repro.analysis.timeline.Timeline`), from the access its
``arms_at()`` names until it sets its ``record``.  Up to that access a
trial runs the golden run, so the replay learns *where* the fault
lands without mirroring any injector's random draws.  It then asks the
:class:`~repro.analysis.classify.ProgramClassifier` whether that site
is provably ``DETECTED`` (a checked checksum pair must unbalance) or
``MASKED`` (the corruption dies unread — measured verdict *benign*).
Only those two proofs short-circuit a trial; anything value-dependent
returns ``None`` and the campaign engine runs the trial for real —
``--prune static`` therefore concentrates measured execution on the
``VULNERABLE``/unknown frontier.

A predicted record is schema-compatible with a measured one: same
verdict vocabulary, the injector's own injection dict, and
``extra.predicted = True`` so reports and resumes can tell them apart.

The oracle disables itself (``enabled = False`` with a ``reason``)
whenever any of its assumptions does not hold: recovery campaigns
(trials re-execute), a fault-free run that fails, shadow regions in
the target list, or an event-total mismatch against the prepared golden
run (the safety valve that guards the whole construction).
"""

from __future__ import annotations

import time

from repro.analysis.classify import (
    DETECTED as CLASS_DETECTED,
    MASKED as CLASS_MASKED,
    ProgramClassifier,
)
from repro.analysis.timeline import (
    Timeline,
    TimelineUnsupported,
    build_timeline,
)
from repro.campaign.records import BENIGN, DETECTED, NO_INJECTION, TrialRecord
from repro.runtime.faults.base import injectable_targets
from repro.runtime.memory import build_memory_for_program

CLASS_NO_INJECTION = "no_injection"


class StaticOracle:
    """Predicts provable trial outcomes for one campaign spec."""

    def __init__(self, spec, prepared=None):
        self.spec = spec
        self.enabled = False
        self.reason = ""
        self.timeline: Timeline | None = None
        self.classifier: ProgramClassifier | None = None
        if getattr(spec, "kind", None) != "program":
            self.reason = "only program campaigns have a static timeline"
            return
        if spec.recover:
            self.reason = "recovery trials re-execute; not modeled"
            return
        if prepared is None:
            prepared = spec.prepare()
        if getattr(prepared, "plan", None) is not None:
            self.reason = "recovery plan attached; not modeled"
            return
        try:
            timeline = build_timeline(
                prepared.program, prepared.params, prepared.values
            )
        except TimelineUnsupported as exc:
            self.reason = f"timeline unavailable: {exc}"
            return
        if (
            timeline.total_loads != prepared.total_loads
            or timeline.total_stores != prepared.total_stores
        ):
            # Safety valve: if the recorded event stream does not match
            # the measured golden run exactly, nothing downstream can be
            # trusted.
            self.reason = (
                "recorded event totals "
                f"({timeline.total_loads}L/{timeline.total_stores}S) "
                "disagree with the golden run "
                f"({prepared.total_loads}L/{prepared.total_stores}S)"
            )
            return
        self.targets = tuple(prepared.targets)
        for name in self.targets:
            if name not in timeline.shapes:
                self.reason = f"target {name!r} is not a declared region"
                return
            if name in timeline.shadow:
                self.reason = (
                    f"target {name!r} is a shadow region; counter "
                    "corruption invalidates the recorded stream"
                )
                return
        self.prepared = prepared
        self.timeline = timeline
        self.classifier = ProgramClassifier(timeline)
        self._memory = build_memory_for_program(
            prepared.program, prepared.params, wild_reads=True
        )
        """Zeroed scratch memory the injectors fire on: a struck word
        then holds exactly the bits its injector flipped."""
        self.injectable = injectable_targets(self._memory, self.targets)
        self.enabled = True

    # ------------------------------------------------------------------
    def predict(self, index: int) -> TrialRecord | None:
        """A predicted :class:`TrialRecord`, or ``None`` = run it."""
        if not self.enabled:
            return None
        start = time.perf_counter()
        seed, injector = self.spec.trial_injector(index, self.prepared)
        record, masks = self._fire(injector)
        if record is None:
            verdict, injection, predicted_class = (
                NO_INJECTION, None, CLASS_NO_INJECTION
            )
        else:
            outcome = self._prove(record, masks)
            if outcome is None:
                return None
            verdict, predicted_class = outcome
            injection = record.to_dict()
        return TrialRecord(
            index=index,
            seed=seed,
            verdict=verdict,
            injection=injection,
            elapsed=time.perf_counter() - start,
            extra={
                "fault_model": self.spec.fault_model,
                "predicted": True,
                "predicted_class": predicted_class,
            },
        )

    def _fire(self, injector):
        """Replay the golden accesses from the injector's arm point on
        the scratch memory until it records its injection (or gives up,
        finding nothing to strike).  Returns the record (or ``None``)
        and the bits flipped in each struck cell."""
        arms = injector.arms_at()
        if arms is None:
            return None, {}
        memory = self._memory
        memory.injector = injector
        for event in self.timeline.accesses_from(*arms):
            if event.is_load:
                memory.load_count = event.ordinal - 1
                memory.store_count = event.stores_before
                memory.load_bits(event.array, event.indices)
            else:
                memory.load_count = event.loads_before
                memory.store_count = event.ordinal - 1
                memory.store_bits(event.array, event.indices, 0)
            if injector.record is not None or injector.arms_at() is None:
                break
        memory.injector = None
        record = injector.record
        if record is None:
            return None, {}
        masks = {}
        for cell in record.masked_cells():
            masks[cell] = memory.peek_bits(record.array, cell)
            memory.poke_bits(record.array, cell, 0)  # zero for the next trial
        return record, masks

    # -- per-kind proofs -------------------------------------------------
    def _prove(self, record, masks):
        """``(verdict, class)`` when the injection's outcome is provable;
        ``masks`` maps each struck cell to the bits flipped in it."""
        timeline = self.timeline
        classifier = self.classifier
        if record.kind in ("value", "burst"):
            exposed = []
            for cell, mask in masks.items():
                window = classifier.window_at(
                    record.array, cell, record.at_load
                )
                if not window.masked:
                    bits = tuple(bit for bit in range(64) if mask >> bit & 1)
                    exposed.append((window, bits))
            if not exposed:
                return BENIGN, CLASS_MASKED
            if len(exposed) == 1 and classifier.window_detects(*exposed[0]):
                # Every other struck cell is masked (zero checksum delta),
                # so the single exposed cell's provable imbalance survives
                # the sum over cells.
                return DETECTED, CLASS_DETECTED
            return None
        if record.kind == "stuck_bit":
            if (
                timeline.last_load_ordinal(record.array, record.indices)
                < record.at_load
            ):
                # The forced bit is never read at or after the arm point:
                # stores during the window are re-forced at rest but those
                # words are never loaded either, so nothing propagates and
                # no contribution is corrupted.  (Never predict DETECTED
                # here — forcing can be a value-level no-op.)
                return BENIGN, CLASS_MASKED
            return None
        if record.kind == "addrgen_store":
            # BENIGN iff neither the stale intended cell nor the clobbered
            # actual cell (both in ``cells`` when in bounds) is loaded
            # before its next (clean) store, and the fired store carries
            # no effectful contribution.  (The def-side contribution
            # itself uses register bits + the intended address, so it is
            # identical in both runs; the checks below are the belt to
            # that suspender.)
            event = timeline.stores[record.at_load - 1]
            if any(count != 0 for _, count in event.contribs):
                return None
            if all(
                timeline.store_kills(record.array, cell, event)
                for cell in record.cells
            ):
                return BENIGN, CLASS_MASKED
            return None
        # A redirected load reads a pristine word from the wrong cell;
        # what that word does is value-dependent, so measure it.
        return None
