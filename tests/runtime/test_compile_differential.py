"""Differential suite: compiled kernels are bit-identical to the
interpreter on every bundled benchmark.

The compiled backend's whole value rests on one claim — swapping it in
never changes a single observable: checksum sums, contribution counts,
operation counts, memory words, access counters, step counts, detection
verdicts, and the injector's record of where the fault landed.  These
tests compare full :class:`ExecutionResult`s field by field, fault-free
and under seeded injectors, with ``fallback=False`` so a silent
interpreter fallback cannot mask a codegen gap.
"""

from __future__ import annotations

import random

import pytest

from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.parser import parse_program
from repro.programs import ALL_BENCHMARKS
from repro.runtime.compile import (
    CompileError,
    clear_kernel_cache,
    compile_program,
    ir_digest,
    run_compiled,
)
from repro.runtime.faults import RandomCellFlipper
from repro.runtime.interpreter import run_program
from repro.service.store import set_store_dir, store_stats

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)


def _build(name: str, instrumented: bool):
    module = ALL_BENCHMARKS[name]
    program = module.program()
    params = dict(module.SMALL_PARAMS)
    values = module.initial_values(params, seed=7)
    if instrumented:
        program, _ = instrument_program(program, OPTIMIZED)
    return program, params, values


def _copy(values):
    return {
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in values.items()
    }


def assert_identical(interp, compiled, injectors=None):
    """Field-by-field equality of two ExecutionResults."""
    assert interp.checksums.sums == compiled.checksums.sums
    assert (
        interp.checksums.contribution_count
        == compiled.checksums.contribution_count
    )
    assert [str(m) for m in interp.mismatches] == [
        str(m) for m in compiled.mismatches
    ]
    assert interp.counts == compiled.counts
    assert interp.statements_executed == compiled.statements_executed
    assert interp.first_detection_step == compiled.first_detection_step
    assert interp.error_detected == compiled.error_detected
    assert interp.memory.snapshot() == compiled.memory.snapshot()
    assert interp.memory.load_count == compiled.memory.load_count
    assert interp.memory.store_count == compiled.memory.store_count
    assert interp.memory.wild_accesses == compiled.memory.wild_accesses
    if injectors is not None:
        assert repr(injectors[0].record) == repr(injectors[1].record)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
@pytest.mark.parametrize("instrumented", [False, True])
def test_fault_free_identical(name, instrumented):
    program, params, values = _build(name, instrumented)
    for channels in (1, 2):
        interp = run_program(
            program, params, initial_values=_copy(values), channels=channels
        )
        compiled = run_compiled(
            program,
            params,
            initial_values=_copy(values),
            channels=channels,
            fallback=False,
        )
        assert_identical(interp, compiled)
        if instrumented:
            assert not interp.mismatches


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_injected_identical(name):
    """Same injector seed, same verdict — bit for bit."""
    program, params, values = _build(name, instrumented=True)
    baseline = run_program(program, params, initial_values=_copy(values))
    window = max(1, baseline.memory.load_count)
    for seed in (11, 23, 47):
        inj_interp = RandomCellFlipper(2, window, random.Random(seed))
        inj_compiled = RandomCellFlipper(2, window, random.Random(seed))
        interp = run_program(
            program,
            params,
            initial_values=_copy(values),
            injector=inj_interp,
            channels=2,
            wild_reads=True,
            halt_on_mismatch=True,
        )
        compiled = run_compiled(
            program,
            params,
            initial_values=_copy(values),
            injector=inj_compiled,
            channels=2,
            wild_reads=True,
            halt_on_mismatch=True,
            fallback=False,
        )
        assert_identical(interp, compiled, (inj_interp, inj_compiled))


class TestKernelCache:
    def test_digest_stable_and_distinct(self):
        p1 = ALL_BENCHMARKS["trisolv"].program()
        p2 = ALL_BENCHMARKS["trisolv"].program()
        assert ir_digest(p1) == ir_digest(p2)
        assert ir_digest(p1) != ir_digest(ALL_BENCHMARKS["lu"].program())

    def test_compile_once_then_hit(self):
        clear_kernel_cache()
        program = ALL_BENCHMARKS["jacobi1d"].program()
        first = compile_program(program)
        second = compile_program(program)
        assert first is second
        assert first.fast_source != first.source  # two bodies
        stats = store_stats()["kernel"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_emitter_edit_changes_the_key(self, tmp_path, monkeypatch):
        """A store directory that survives an edit to the emitter must
        not serve the old generated sources."""
        from repro.runtime import compile as compile_mod

        program = ALL_BENCHMARKS["jacobi1d"].program()
        set_store_dir(tmp_path)
        try:
            clear_kernel_cache()
            compile_program(program)
            clear_kernel_cache()
            compile_program(program)
            assert store_stats()["kernel"]["disk_hits"] == 1
            current = compile_mod.code_digest(*compile_mod.EMITTER_SOURCES)
            monkeypatch.setattr(
                compile_mod, "code_digest", lambda *patterns: current + "-x"
            )
            clear_kernel_cache()
            compile_program(program)
            stats = store_stats()["kernel"]
            assert stats["misses"] == 1 and stats["disk_hits"] == 0
        finally:
            set_store_dir(None)
            clear_kernel_cache()

    def test_register_budget_falls_back(self):
        program, params, values = _build("jacobi1d", instrumented=True)
        interp = run_program(
            program,
            params,
            initial_values=_copy(values),
            register_budget=2,
        )
        via_backend = run_compiled(
            program,
            params,
            initial_values=_copy(values),
            register_budget=2,
        )
        assert interp.spills == via_backend.spills
        assert interp.checksums.sums == via_backend.checksums.sums
        with pytest.raises(CompileError):
            run_compiled(
                program,
                params,
                initial_values=_copy(values),
                register_budget=2,
                fallback=False,
            )

    def test_unsupported_construct_raises_without_fallback(self):
        program = parse_program(
            """
            program tiny(n) {
              array A[n];
              for i = 0 .. n - 1 {
                S1: A[i] = i;
              }
            }
            """
        )
        # Sabotage: reference an undeclared region so lowering fails.
        from dataclasses import replace

        from repro.ir.nodes import Assign, VarRef

        bad_stmt = Assign(lhs=VarRef("ghost"), rhs=VarRef("i"), label="S9")
        loop = program.body[0]
        bad_loop = replace(loop, body=loop.body + (bad_stmt,))
        bad = replace(program, body=(bad_loop,))
        with pytest.raises(CompileError):
            run_compiled(bad, {"n": 4}, fallback=False)
        # With fallback the interpreter's own error surfaces instead
        # (it reaches memory with the undeclared name).
        from repro.runtime.memory import MemoryError64

        with pytest.raises(MemoryError64):
            run_compiled(bad, {"n": 4})
