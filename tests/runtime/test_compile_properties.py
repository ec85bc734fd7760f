"""Property test: random affine programs round-trip through codegen.

For any program from :func:`repro.ir.generate.random_affine_program`,
the instrumented build must (a) compile without falling back, (b) run
bit-identically on both backends, and (c) keep the fault-free def/use
checksum balance — the invariant the whole detection scheme rests on.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.generate import MIN_PARAM, random_affine_program
from repro.runtime.compile import compile_program, run_compiled
from repro.runtime.interpreter import run_program

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)


@lru_cache(maxsize=None)
def _program_for(seed: int):
    return random_affine_program(seed)


@lru_cache(maxsize=None)
def _instrumented_for(seed: int):
    # Instrumentation (polyhedral counting) dominates example cost, so
    # memoize it per seed and keep the seed space small.
    return instrument_program(_program_for(seed), OPTIMIZED)[0]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=24),
    n=st.integers(min_value=MIN_PARAM, max_value=MIN_PARAM + 2),
)
def test_roundtrip_preserves_balance(seed, n):
    instrumented = _instrumented_for(seed)
    params = {"n": n}

    # (a) the generator's output is always compilable — no fallback.
    kernel = compile_program(instrumented)
    assert kernel.entry is not None

    # (b) backends agree observable-for-observable.
    interp = run_program(instrumented, params, channels=2)
    compiled = run_compiled(
        instrumented, params, channels=2, fallback=False
    )
    assert interp.checksums.sums == compiled.checksums.sums
    assert (
        interp.checksums.contribution_count
        == compiled.checksums.contribution_count
    )
    assert interp.counts == compiled.counts
    assert interp.statements_executed == compiled.statements_executed
    assert interp.memory.snapshot() == compiled.memory.snapshot()
    assert interp.memory.load_count == compiled.memory.load_count
    assert interp.memory.store_count == compiled.memory.store_count

    # (c) fault-free instrumented runs stay balanced on every channel.
    assert not compiled.mismatches
    for sums in compiled.checksums.sums:
        assert sums.get("def", 0) == sums.get("use", 0)
        assert sums.get("e_def", 0) == sums.get("e_use", 0)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=24))
def test_uninstrumented_roundtrip(seed):
    """The plain (no-checksum) build also lowers and agrees."""
    program = _program_for(seed)
    params = {"n": MIN_PARAM}
    interp = run_program(program, params)
    compiled = run_compiled(program, params, fallback=False)
    assert interp.memory.snapshot() == compiled.memory.snapshot()
    assert interp.counts == compiled.counts
