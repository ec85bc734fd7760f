"""The golden run's event stream, recorded from the reference interpreter.

The classifier (:mod:`repro.analysis.classify`) and the campaign
oracle (:mod:`repro.analysis.oracle`) need to know, for every memory
cell, *when* it is loaded and stored (in the global load/store ordinal
streams the fault injectors trigger on) and *which checksum
contributions* consume each loaded register copy.  This module records
exactly that from one fault-free run of
:class:`~repro.runtime.interpreter.Interpreter`, observed through the
two hooks it already has:

* a never-acting :class:`~repro.runtime.faults.base.FaultInjector`
  (``injector=``) sees every load and store with its ordinal;
* a :class:`~repro.runtime.state.ChecksumState` subclass
  (``checksums=``) sees every verifier, and joins each contribution to
  the latest event on its address — the register copy the interpreter
  consumed (an instrumented assignment loads each cell once per bundle,
  and its stored value feeds the def contribution).

The one fact a run cannot show is what faultable data *could* steer in
another run.  One walk over the IR answers it:

* ``divide_hazard`` — some divisor reads memory, so a corrupted value
  could crash the run instead of reaching a verifier (suppresses
  *detected* predictions; masked windows are unaffected because the
  faulty run never feeds corrupt data into the divisor);
* ``data_dependent`` — memory reads steer control flow, a subscript, a
  loop bound, a contribution count or which loads happen at all, so a
  corrupted read can change the event stream itself.  Such programs
  keep their masked proofs (an unread corruption leaves the run
  golden) but lose detection proofs.

:class:`TimelineUnsupported` means the fault-free run itself failed.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from repro.ir.nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    ChecksumAdd,
    ChecksumReset,
    CounterIncrement,
    If,
    Loop,
    Program,
    Select,
    VarRef,
    WhileLoop,
    walk_expressions,
    walk_statements,
)
from repro.runtime.faults.base import FaultInjector
from repro.runtime.interpreter import InterpreterError, run_program
from repro.runtime.memory import MemoryError64, lazy_numpy
from repro.runtime.state import ChecksumState
from repro.service.store import namespace

#: Timelines kept per process (memory-only ``timeline`` store namespace).
_LIMIT = 8


class TimelineUnsupported(Exception):
    """The program's fault-free run failed, so it has no event stream."""


class LoadEvent:
    """One load in the global ordinal stream (1-based, dense)."""

    __slots__ = ("ordinal", "stores_before", "array", "indices", "contribs")

    is_load = True

    def __init__(
        self, ordinal: int, stores_before: int, array: str, indices: tuple
    ) -> None:
        self.ordinal = ordinal
        self.stores_before = stores_before
        self.array = array
        self.indices = indices
        self.contribs: list[tuple[str, int]] = []


class StoreEvent:
    """One store: ``loads_before`` positions it between load ordinals."""

    __slots__ = ("ordinal", "loads_before", "array", "indices", "contribs")

    is_load = False

    def __init__(
        self, ordinal: int, loads_before: int, array: str, indices: tuple
    ) -> None:
        self.ordinal = ordinal
        self.loads_before = loads_before
        self.array = array
        self.indices = indices
        self.contribs: list[tuple[str, int]] = []


class Timeline:
    """The complete event stream of one (program, params, values) run."""

    def __init__(self) -> None:
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.shadow: set[str] = set()
        self.loads: list[LoadEvent] = []
        self.stores: list[StoreEvent] = []
        self.cells: dict[tuple[str, tuple[int, ...]], list] = {}
        self.loads_by_array: dict[str, list[int]] = {}
        self.stores_by_array: dict[str, list[StoreEvent]] = {}
        self.asserts: list[tuple[int, int, tuple]] = []
        self.divide_hazard = False
        self.data_dependent = False

    @property
    def total_loads(self) -> int:
        return len(self.loads)

    @property
    def total_stores(self) -> int:
        return len(self.stores)

    # -- queries used by the classifier / oracle ------------------------
    def cell_events(self, array: str, cell: tuple[int, ...]) -> list:
        return self.cells.get((array, cell), [])

    def last_load_ordinal(self, array: str, cell: tuple[int, ...]) -> int:
        """0 when the cell is never loaded."""
        for event in reversed(self.cell_events(array, cell)):
            if event.is_load:
                return event.ordinal
        return 0

    def store_kills(
        self, array: str, cell: tuple[int, ...], store_event: StoreEvent
    ) -> bool:
        """No load of ``(array, cell)`` strictly after ``store_event``
        before the cell's next store — a value written (or clobbered)
        at that point dies unread."""
        key = (store_event.loads_before, 1, store_event.ordinal)
        for event in self.cell_events(array, cell):
            if event.is_load:
                event_key = (event.ordinal, 0, 0)
            else:
                event_key = (event.loads_before, 1, event.ordinal)
            if event_key <= key:
                continue
            return not event.is_load
        return True

    def final_assert_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs checked after the last load *and* store (dedup'd)."""
        seen: dict[tuple[str, str], None] = {}
        for loads_before, stores_before, pairs in self.asserts:
            if (
                loads_before == self.total_loads
                and stores_before == self.total_stores
            ):
                for pair in pairs:
                    seen.setdefault(tuple(pair), None)
        return tuple(seen)

    def accesses_from(self, kind: str, ordinal: int):
        """The loads and stores in execution order, starting at the
        ``ordinal``-th access of ``kind`` (``"load"`` or ``"store"``)."""
        loads, stores = self.loads, self.stores
        if kind == "load":
            if ordinal > len(loads):
                return
            i, j = ordinal - 1, loads[ordinal - 1].stores_before
        else:
            if ordinal > len(stores):
                return
            i, j = stores[ordinal - 1].loads_before, ordinal - 1
        while i < len(loads) or j < len(stores):
            if i < len(loads) and loads[i].stores_before <= j:
                yield loads[i]
                i += 1
            else:
                yield stores[j]
                j += 1


class _Recorder(FaultInjector, ChecksumState):
    """Watches one fault-free run: as its (never-acting) injector it
    sees each load and store, as its checksum state each contribution
    and verifier."""

    def __init__(self, timeline: Timeline) -> None:
        ChecksumState.__init__(self)
        self.timeline = timeline
        self._latest: dict[int, LoadEvent | StoreEvent] = {}
        """Byte address -> the latest event on that cell."""

    def _record(self, memory, event, name, indices) -> None:
        self.timeline.cells.setdefault((name, indices), []).append(event)
        self._latest[memory.address_of(name, indices)] = event

    def before_load(self, memory, name, indices, word):
        event = LoadEvent(memory.load_count, memory.store_count, name, indices)
        self.timeline.loads.append(event)
        self.timeline.loads_by_array.setdefault(name, []).append(
            event.ordinal
        )
        self._record(memory, event, name, indices)
        return None

    def after_store(self, memory, name, indices, word):
        event = StoreEvent(
            memory.store_count, memory.load_count, name, indices
        )
        self.timeline.stores.append(event)
        self.timeline.stores_by_array.setdefault(name, []).append(event)
        self._record(memory, event, name, indices)
        return None

    def add(self, which, bits, count=1, address=None) -> None:
        super().add(which, bits, count, address)
        # An expression-valued contribution has no address: no cell's
        # register copy feeds it (the IR walk flags one that reads).
        if address is not None:
            self._latest[address].contribs.append((which, count))

    def verify(self, pairs):
        timeline = self.timeline
        timeline.asserts.append(
            (timeline.total_loads, timeline.total_stores, tuple(pairs))
        )
        return super().verify(pairs)


def ir_hazards(program: Program) -> tuple[bool, bool]:
    """``(divide_hazard, data_dependent)`` from one walk over the IR."""
    regions = {decl.name for decl in (*program.arrays, *program.scalars)}

    def reads(expr) -> bool:
        return any(
            isinstance(node, ArrayRef)
            or (isinstance(node, VarRef) and node.name in regions)
            for node in walk_expressions(expr)
        )

    data_dependent = False
    steering = []  # a memory read in these steers the event stream
    others = []  # every other expression (checked node by node below)
    for stmt in walk_statements(program.body):
        if isinstance(stmt, (WhileLoop, ChecksumReset)):
            data_dependent = True
        if isinstance(stmt, (If, WhileLoop)):
            steering.append(stmt.cond)
        elif isinstance(stmt, Loop):
            steering += [stmt.lower, stmt.upper]
        elif isinstance(stmt, Assign):
            others += [stmt.lhs, stmt.rhs]
            instr = stmt.instrumentation
            if instr:
                for use in instr.uses:
                    others.append(use.ref)
                    steering.append(use.count)
                others += instr.counter_increments
                if instr.pre_overwrite:
                    # Its def count is a counter loaded from memory.
                    data_dependent = True
                    others.append(instr.pre_overwrite.counter)
                if instr.duplicate_store is not None:
                    others.append(instr.duplicate_store)
                if instr.definition:
                    steering.append(instr.definition.count)
        elif isinstance(stmt, ChecksumAdd):
            # A reference contributes its cell's register copy; any
            # other expression contributes a function of its reads.
            if isinstance(stmt.value, (ArrayRef, VarRef)):
                others.append(stmt.value)
            else:
                steering.append(stmt.value)
            steering.append(stmt.count)
        elif isinstance(stmt, CounterIncrement):
            others.append(stmt.counter)
            steering.append(stmt.amount)
    data_dependent = data_dependent or any(reads(expr) for expr in steering)
    divide_hazard = False
    for expr in steering + others:
        for node in walk_expressions(expr):
            if isinstance(node, ArrayRef):
                if any(reads(index) for index in node.indices):
                    data_dependent = True
            elif isinstance(node, BinOp):
                if node.op in ("/", "%") and reads(node.right):
                    divide_hazard = True
                elif node.op in ("&&", "||") and (
                    reads(node.left) and reads(node.right)
                ):
                    data_dependent = True
            elif isinstance(node, Call):
                if node.func == "mod" and len(node.args) == 2 and reads(
                    node.args[1]
                ):
                    divide_hazard = True
            elif isinstance(node, Select):
                if reads(node.cond) and (
                    reads(node.if_true) or reads(node.if_false)
                ):
                    data_dependent = True
    return divide_hazard, data_dependent


def _record_golden_run(
    program: Program, params: dict[str, int], initial_values
) -> Timeline:
    timeline = Timeline()
    recorder = _Recorder(timeline)
    try:
        result = run_program(
            program,
            params,
            initial_values=initial_values,
            injector=recorder,
            checksums=recorder,
        )
    except (
        InterpreterError, MemoryError64, ArithmeticError, ValueError
    ) as exc:
        raise TimelineUnsupported(f"fault-free run failed: {exc}") from None
    memory = result.memory
    timeline.shapes = {
        name: memory.shape(name)
        for name in memory.region_names(include_shadow=True)
    }
    timeline.shadow = set(timeline.shapes) - set(memory.region_names())
    timeline.divide_hazard, timeline.data_dependent = ir_hazards(program)
    return timeline


def _key(program: Program, params: dict[str, int], initial_values) -> str:
    from repro.ir.printer import program_to_text

    digest = hashlib.sha256(program_to_text(program).encode("utf-8"))
    digest.update(repr(sorted(params.items())).encode("utf-8"))
    np = lazy_numpy()
    for name in sorted(initial_values or {}):
        array = np.ascontiguousarray(initial_values[name])
        digest.update(f"\0{name}:{array.dtype.str}:{array.shape}\0".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def build_timeline(
    program: Program,
    params: Mapping[str, int],
    initial_values: Mapping[str, object] | None = None,
) -> Timeline:
    """The timeline of ``program`` run fault-free on ``initial_values``
    (zeroed memory when omitted), memoized in the memory-only
    ``timeline`` namespace of the artifact store.

    Raises :class:`TimelineUnsupported` when that run fails.
    """
    params = {p: int(params[p]) for p in program.params}
    return namespace("timeline", limit=_LIMIT).get_or_compute(
        _key(program, params, initial_values),
        lambda: _record_golden_run(program, params, initial_values),
    )
