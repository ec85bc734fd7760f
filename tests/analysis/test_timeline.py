"""The recorded timeline: the golden run's event stream, exactly.

Everything in ``repro.analysis`` rests on the timeline holding the
instrumented program's load/store stream event-for-event.  These
tests pin the recorded totals against the measured golden run on every
benchmark, check the cell-level query helpers and the store memo, and
pin the IR walk that decides what faultable data could steer.
"""

from __future__ import annotations

import pytest

from repro.analysis.classify import ProgramClassifier
from repro.analysis.timeline import build_timeline, ir_hazards
from repro.campaign import ProgramCampaignSpec
from repro.ir.parser import parse_program
from repro.programs import ALL_BENCHMARKS
from repro.service.store import clear_store, store_stats

IRREGULAR = ["cg", "moldyn"]


def _prepared(benchmark):
    spec = ProgramCampaignSpec(
        trials=1, seed=0, benchmark=benchmark, scale="small"
    )
    return spec.prepare()


def _timeline(benchmark):
    prepared = _prepared(benchmark)
    return build_timeline(prepared.program, prepared.params, prepared.values)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_totals_match_golden_run(name):
    prepared = _prepared(name)
    timeline = _timeline(name)
    assert timeline.total_loads == prepared.total_loads
    assert timeline.total_stores == prepared.total_stores
    assert timeline.total_loads > 0


@pytest.mark.parametrize("name", IRREGULAR)
def test_irregular_benchmarks_data_dependent(name):
    """Data steers cg's and moldyn's subscripts and loops: the run is
    recorded, but its stream supports masked proofs only."""
    timeline = _timeline(name)
    assert timeline.data_dependent
    assert not ProgramClassifier(timeline).detection_allowed


def test_cell_queries_consistent():
    timeline = _timeline("jacobi1d")
    for (array, cell), events in timeline.cells.items():
        loads = [e.ordinal for e in events if e.is_load]
        last = timeline.last_load_ordinal(array, cell)
        if loads:
            assert last == max(loads)
        else:
            assert last == 0
    # Per-array load ordinal lists partition the global load stream.
    total = sum(len(v) for v in timeline.loads_by_array.values())
    assert total == timeline.total_loads


def _event_key(event):
    # Stores happen between loads: a store with loads_before=S precedes
    # every load with ordinal > S (same ordering store_kills uses).
    if event.is_load:
        return (event.ordinal, 0, 0)
    return (event.loads_before, 1, event.ordinal)


def test_store_kills():
    """A store kills a cell iff no later load reads it before the
    cell's next store."""
    timeline = _timeline("jacobi1d")
    checked = 0
    for (array, cell), events in timeline.cells.items():
        ordered = sorted(events, key=_event_key)
        for position, event in enumerate(ordered):
            if event.is_load:
                continue
            # The first later event decides: a load reads the stored
            # value (not killed); a store overwrites it clean (killed);
            # no later event = never read again (killed).
            following = ordered[position + 1:]
            expected = not (following and following[0].is_load)
            assert timeline.store_kills(array, cell, event) == expected
            checked += 1
    assert checked > 0


def test_memoized():
    """One recording per (program, params, values) in the ``timeline``
    store namespace; ``clear_store()`` drops it."""
    clear_store()
    prepared = _prepared("cg")
    first = build_timeline(prepared.program, prepared.params, prepared.values)
    again = build_timeline(prepared.program, prepared.params, prepared.values)
    assert again is first
    assert store_stats()["timeline"]["hits"] == 1
    # Other data is another run (cg's subscripts read its data).
    zeroed = build_timeline(prepared.program, prepared.params)
    assert zeroed is not first
    clear_store()
    assert (
        build_timeline(prepared.program, prepared.params, prepared.values)
        is not first
    )


HAZARDS = {
    # body -> (divide_hazard, data_dependent)
    "B[i] = A[i] * 2.0;": (False, False),
    "B[i] = A[C[i]];": (False, True),
    "B[C[i]] = 1.0;": (False, True),
    "for j = 0 .. C[i] { B[j] = 1.0; }": (False, True),
    "if (A[i] > 0.0) { B[i] = 1.0; }": (False, True),
    "add_to_chksm(def_cs, A[i], C[i]);": (False, True),
    "add_to_chksm(def_cs, A[i] + 1.0, 1);": (False, True),
    "inc_use_count(N[i], C[i]);": (False, True),
    "while (t < n) { t = t + 1; }": (False, True),
    "B[i] = 1.0 / A[i];": (True, False),
    "B[i] = A[i] / 2.0;": (False, False),
    "D[i] = mod(i, C[i]);": (True, False),
    "B[i] = A[i] > 0.0 ? 1.0 : 2.0;": (False, False),
    "B[i] = A[i] > 0.0 ? A[i] : 0.0;": (False, True),
    "B[i] = A[i] > 0.0 && B[i] > 0.0;": (False, True),
}


@pytest.mark.parametrize("body", list(HAZARDS))
def test_ir_walk(body):
    """What a read can steer decides the flags, not whether it is read."""
    program = parse_program(
        f"""
program hazards(n) {{
  array A[n];
  array B[n];
  array C[n] : i64;
  array D[n] : i64;
  array N[n] : i64;
  scalar t : i64;
  for i = 0 .. n - 1 {{
    {body}
  }}
}}
"""
    )
    assert ir_hazards(program) == HAZARDS[body]
