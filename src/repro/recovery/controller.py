"""Detect–localize–recover: the re-execution recovery controller.

The controller drives a :class:`~repro.recovery.plan.RecoveryPlan`
segment by segment over a *shared* :class:`Memory` and
:class:`ChecksumState`:

1. before each segment it takes an epoch checkpoint (copy-on-write,
   bounded ring — :mod:`repro.recovery.checkpoint`);
2. it runs the segment with ``halt_on_mismatch=True`` on the chosen
   backend (interpreter or compiled kernel — the two are bit-identical,
   so recovery outcomes are too);
3. when a verifier fires, it consults per-array localization
   (:func:`repro.instrument.localize.corrupted_groups`) and restores
   only the regions that are dirty-this-epoch or implicated — falling
   back to a full epoch rollback when the mismatch does not name a
   structure, and escalating to full restores on repeated failures;
4. it replays the failed segment.  Under the paper's transient-fault
   model the fault has already fired (injectors trigger on a load
   ordinal, once), so the replay is fault-free;
5. a retry budget bounds the replays per segment; exhausting it
   declares the run unrecoverable (fail-stop with state intact for
   diagnosis).

Everything observable — epochs run, replays, restored regions, op
counts, final memory — is deterministic given the program, parameters
and injector, which is what lets campaigns fan recovery trials out
across processes and lets the differential suite pin interpreter
against compiled kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import math

from repro.instrument.localize import corrupted_groups
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.plan import (
    SEGMENT_HI,
    SEGMENT_LO,
    RecoveryPlan,
    build_recovery_plan,
)
from repro.runtime.compile import CompileError, compile_program
from repro.runtime.costmodel import OpCounts
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import Memory, build_memory_for_program
from repro.runtime.state import ChecksumMismatch, ChecksumState

__all__ = [
    "RecoveryPolicy",
    "RecoveryResult",
    "run_with_recovery",
    "run_plan",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the recovery controller."""

    max_retries: int = 3
    """Replays allowed per detection episode before declaring the run
    unrecoverable.  The default covers the full escalation ladder:
    targeted restore → full epoch restore → one-epoch rewind."""
    ring: int = 2
    """Checkpoints retained.  Depth 2 is load-bearing: a boundary-pair
    mismatch can stem from corruption that landed *after* a cell's
    clean value entered the previous epoch's boundary stamp but before
    this epoch's checkpoint copied the words — restoring the current
    epoch then replays the same mismatch, and only rewinding to the
    previous epoch's checkpoint (re-running its body, re-stamping the
    boundary) clears it."""
    targeted_restore: bool = True
    """Restore dirty ∪ implicated regions on the first replay when the
    mismatch localizes; ``False`` forces full epoch rollbacks."""
    segment_epochs: int | None = None
    """Time-loop iterations batched into one segment (checkpoint +
    boundary handoff per segment, not per iteration).  ``None`` picks
    ``ceil(√epochs)`` — ``O(√epochs)`` boundary stamps total, so the
    all-cells handoff sums stay amortized even when the outer loop is
    fine-grained — at the price of replaying up to ``√epochs``
    iterations per rollback."""


@dataclass
class RecoveryResult:
    """Everything observable about one recovered (or failed) run."""

    plan: RecoveryPlan
    memory: Memory
    checksums: ChecksumState
    backend: str
    detected: bool = False
    recovered: bool = False
    failed: bool = False
    epochs: int = 0
    """Segments completed (epoch batches in ``"epochs"`` mode)."""
    replays: int = 0
    targeted_restores: int = 0
    full_restores: int = 0
    implicated: tuple[str, ...] = ()
    mismatches: list[ChecksumMismatch] = field(default_factory=list)
    counts: OpCounts = field(default_factory=OpCounts)
    statements_executed: int = 0
    first_detection_step: int | None = None
    checkpoint_stats: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return not self.failed


class _SegmentRunner:
    """One backend's way of running segment programs (shared state)."""

    def __init__(
        self,
        plan: RecoveryPlan,
        backend: str,
        memory: Memory,
        checksums: ChecksumState,
        channels: int,
        max_steps: int | None,
        wild_reads: bool,
    ) -> None:
        self.plan = plan
        self.memory = memory
        self.checksums = checksums
        self.channels = channels
        self.max_steps = max_steps
        self.wild_reads = wild_reads
        self.kernels = None
        self.backend = "interp"
        if backend == "compiled":
            try:
                first = compile_program(plan.first_program)
                rest = (
                    compile_program(plan.rest_program)
                    if plan.rest_program is not None
                    else None
                )
            except CompileError:
                pass  # whole-plan interpreter fallback (bit-identical)
            else:
                self.kernels = (first, rest)
                self.backend = "compiled"
        elif backend != "interp":
            raise ValueError(f"unknown backend {backend!r}")

    def checkpoint_fns(self):
        if self.kernels is None:
            return None, None
        first = self.kernels[0]
        return first.checkpoint_entry, first.restore_entry

    def run(self, index: int, params: Mapping[str, int]):
        program = self.plan.segment_program(index)
        if self.kernels is not None:
            kernel = self.kernels[0] if index == 0 else self.kernels[1]
            # A one-shot injector may run on the inline body's load
            # trap; the kernel re-attaches it after each segment, so a
            # trigger in a later segment still fires.
            return kernel.execute(
                params,
                memory=self.memory,
                channels=self.channels,
                max_steps=self.max_steps,
                halt_on_mismatch=True,
                checksums=self.checksums,
            )
        interpreter = Interpreter(
            program,
            params,
            memory=self.memory,
            channels=self.channels,
            max_steps=self.max_steps,
            halt_on_mismatch=True,
            checksums=self.checksums,
        )
        return interpreter.run()


def run_plan(
    plan: RecoveryPlan,
    params: Mapping[str, int],
    initial_values: Mapping[str, object] | None = None,
    injector=None,
    channels: int = 1,
    max_steps: int | None = 50_000_000,
    wild_reads: bool = False,
    backend: str = "compiled",
    policy: RecoveryPolicy | None = None,
) -> RecoveryResult:
    """Execute a plan with checkpointing and re-execution recovery.

    ``max_steps`` is a per-segment budget (each epoch and each replay
    gets the full allowance).
    """
    policy = policy or RecoveryPolicy()
    run_params = {p: int(params[p]) for p in plan.source.params}
    memory = build_memory_for_program(
        plan.first_program, run_params, injector, wild_reads=wild_reads
    )
    if initial_values:
        for name, values in initial_values.items():
            memory.initialize(name, values)
    checksums = ChecksumState(channels=channels)
    runner = _SegmentRunner(
        plan,
        backend,
        memory,
        checksums,
        channels,
        max_steps,
        wild_reads,
    )
    checkpoint_fn, restore_fn = runner.checkpoint_fns()
    store = CheckpointStore(
        memory,
        ring=policy.ring,
        checkpoint_fn=checkpoint_fn,
        restore_fn=restore_fn,
    )
    result = RecoveryResult(
        plan=plan, memory=memory, checksums=checksums, backend=runner.backend
    )
    implicated: set[str] = set()

    if plan.mode == "epochs":
        iteration_values = list(plan.epoch_range(run_params))
        batch = policy.segment_epochs or max(
            1, math.isqrt(max(0, len(iteration_values) - 1)) + 1
        )
        segments = [
            (
                index,
                {
                    **run_params,
                    SEGMENT_LO: chunk[0],
                    SEGMENT_HI: chunk[-1],
                },
            )
            for index, chunk in enumerate(
                iteration_values[start : start + batch]
                for start in range(0, len(iteration_values), batch)
            )
        ]
    else:
        segments = [(0, run_params)]

    # Escalation ladder per detection episode (attempt = replays so
    # far):  1. targeted restore of the current epoch's checkpoint
    # (dirty ∪ implicated regions); 2. full restore of it; 3. full
    # restore of the PREVIOUS retained checkpoint and re-execution from
    # that epoch.  Rung 3 handles the boundary-window case: corruption
    # that landed after a cell's clean value entered epoch ``k-1``'s
    # boundary stamp but before epoch ``k``'s checkpoint copied the
    # words — the newer checkpoint holds the corrupt word against a
    # clean stamp, so only re-running epoch ``k-1`` re-stamps a
    # consistent pair.  Replays are deterministic (the fault has
    # fired), so each rung is conclusive and a still-failing run after
    # the ladder is declared unrecoverable.
    checkpoints: dict[int, object] = {}
    index = 0
    attempt = 0
    episode: int | None = None  # segment where the current episode began
    while index < len(segments):
        segment_index, segment_params = segments[index]
        if segment_index not in checkpoints:
            checkpoints[segment_index] = store.take(segment_index, checksums)
            for old in [
                k
                for k in checkpoints
                if k <= segment_index - policy.ring
            ]:
                del checkpoints[old]
        checkpoint = checkpoints[segment_index]
        sub = runner.run(0 if segment_index == 0 else 1, segment_params)
        result.counts = result.counts.merged_with(sub.counts)
        result.statements_executed += sub.statements_executed
        if not sub.mismatches:
            index += 1
            if episode is not None and index > episode:
                # Progressed past the segment that detected: episode
                # closed, the replayed work verified clean.
                result.recovered = True
                attempt = 0
                episode = None
            continue
        # A verifier fired: detect → localize → restore → replay.
        result.detected = True
        result.mismatches.extend(sub.mismatches)
        if result.first_detection_step is None:
            result.first_detection_step = (
                result.statements_executed - sub.statements_executed
                + sub.first_detection_step
                if sub.first_detection_step is not None
                else result.statements_executed
            )
        if episode is None:
            episode = index
        attempt += 1
        if attempt > policy.max_retries:
            result.failed = True
            break
        rewind = checkpoints.get(segment_index - 1)
        if attempt >= 3 and rewind is not None:
            # Rung 3: rewind one epoch.  Drop the suspect newer
            # checkpoint; it is retaken clean after the replay.
            store.restore(rewind, checksums)
            result.full_restores += 1
            del checkpoints[segment_index]
            index -= 1
            result.replays += 1
            continue
        targeted = None
        if policy.targeted_restore and plan.localized and attempt == 1:
            groups = corrupted_groups(sub.mismatches)
            regions = plan.implicated_regions(groups)
            if regions:
                implicated.update(regions)
                targeted = store.dirty_since(checkpoint) | regions
        if targeted is not None:
            store.restore(checkpoint, checksums, only=targeted)
            result.targeted_restores += 1
        else:
            store.restore(checkpoint, checksums)
            result.full_restores += 1
        result.replays += 1

    result.epochs = index if result.failed else len(segments)
    result.implicated = tuple(sorted(implicated))
    result.checkpoint_stats = dict(store.stats)
    return result


def run_with_recovery(
    program,
    params: Mapping[str, int],
    initial_values: Mapping[str, object] | None = None,
    injector=None,
    channels: int = 1,
    max_steps: int | None = 50_000_000,
    wild_reads: bool = False,
    backend: str = "compiled",
    policy: RecoveryPolicy | None = None,
    options=None,
    localize: bool = True,
) -> RecoveryResult:
    """Plan + execute in one call (CLI and test convenience)."""
    plan = build_recovery_plan(program, options=options, localize=localize)
    return run_plan(
        plan,
        params,
        initial_values=initial_values,
        injector=injector,
        channels=channels,
        max_steps=max_steps,
        wild_reads=wild_reads,
        backend=backend,
        policy=policy,
    )
