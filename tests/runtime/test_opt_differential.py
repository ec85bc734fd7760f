"""Differential suite for the kernel optimizer (``runtime/opt``).

The optimizer's contract is stricter than "same answer": a kernel
compiled at any ``--opt-level`` must replay the interpreter's exact
observable trace — checksum sums, op counts, memory words, load/store
*event order* (pinned by where a seeded injector strikes), and the
injector's record of the fault site.  These tests sweep
(opt level × fault model × benchmark) cells and compare canonical
trial records element-wise, plus direct ExecutionResult comparisons
fault-free and injected.

Also here: the kernel-LRU aliasing regression (a level-0 and a
level-2 kernel of the same program must never be the same cache
entry) and the instrumentation-cache backend-fingerprint keying.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ProgramCampaignSpec, run_campaign
from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.generate import MIN_PARAM, random_affine_program
from repro.programs import ALL_BENCHMARKS
from repro.runtime.compile import (
    clear_kernel_cache,
    compile_program,
    run_compiled,
)
from repro.runtime.faults import FAULT_MODELS, RandomCellFlipper
from repro.runtime.interpreter import run_program
from repro.runtime.opt import OPT_LEVELS, config_for_level

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)

# The campaign sweep uses a representative benchmark subset (dense
# triangular, stencil, and the irregular cutoff kernel) — the full
# 10-benchmark × model matrix already runs interp-vs-compiled in
# test_fault_models_differential; here the axis under test is the
# optimizer level.
SWEEP_BENCHMARKS = ("cholesky", "jacobi1d", "moldyn")


def _build(name: str, instrumented: bool = True):
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


@pytest.mark.parametrize("level", OPT_LEVELS)
@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_fault_free_identical_at_level(name, level):
    """Every benchmark, every level: bit-identical to the interpreter."""
    program, params, values = _build(name)
    interp = run_program(
        program, params, initial_values=_copy(values), channels=2
    )
    compiled = run_compiled(
        program,
        params,
        initial_values=_copy(values),
        channels=2,
        fallback=False,
        opt_level=level,
    )
    assert_identical(interp, compiled)
    assert not interp.mismatches


@pytest.mark.parametrize("level", OPT_LEVELS)
@pytest.mark.parametrize("name", SWEEP_BENCHMARKS)
def test_injected_identical_at_level(name, level):
    """Seeded value-flip trials: the injector must strike the same
    load event and the run must unwind identically at every level —
    this pins load/store *order*, not just totals."""
    program, params, values = _build(name)
    baseline = run_program(program, params, initial_values=_copy(values))
    window = max(1, baseline.memory.load_count)
    for seed in (13, 29):
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
            opt_level=level,
        )
        assert_identical(interp, compiled, (inj_interp, inj_compiled))


def _canonical_records(spec: ProgramCampaignSpec):
    result = run_campaign(spec, workers=1)
    assert result.records is not None
    return [record.canonical() for record in result.records]


@pytest.mark.parametrize("model", FAULT_MODELS)
@pytest.mark.parametrize("name", SWEEP_BENCHMARKS)
def test_campaign_records_identical_across_levels(name, model):
    """(opt level × fault model × benchmark): canonical trial records
    — verdicts, injector trigger indices, detection steps — must be
    equal across the interpreter and every optimizer level."""
    base = ProgramCampaignSpec(
        benchmark=name,
        scale="small",
        trials=3,
        seed=2000 + FAULT_MODELS.index(model),
        fault_model=model,
        backend="interp",
    )
    reference = _canonical_records(base)
    for level in OPT_LEVELS:
        spec = replace(base, backend="compiled", opt_level=level)
        assert spec.prepare().kernel is not None, (
            f"{name} L{level}: compiled campaign silently fell back "
            f"to the interpreter"
        )
        assert _canonical_records(spec) == reference, (
            f"{name} × {model} diverges at opt level {level}"
        )


class TestKernelCacheKeying:
    """The opt level is part of the kernel-LRU key."""

    def test_levels_never_alias(self):
        program, _, _ = _build("trisolv")
        clear_kernel_cache()
        k0 = compile_program(program, opt_level=0)
        k2 = compile_program(program, opt_level=2)
        assert k0 is not k2
        assert k0.source != k2.source
        assert k0.opt_level == 0 and k2.opt_level == 2
        # Repeat lookups hit the per-level entries, never cross-serve.
        assert compile_program(program, opt_level=0) is k0
        assert compile_program(program, opt_level=2) is k2

    def test_invalid_level_rejected(self):
        program, _, _ = _build("trisolv")
        with pytest.raises(ValueError):
            compile_program(program, opt_level=7)

    def test_level2_has_fast_entry_level0_does_not(self):
        program, _, _ = _build("trisolv")
        clear_kernel_cache()
        k0 = compile_program(program, opt_level=0)
        k2 = compile_program(program, opt_level=2)
        assert k0.fast_entry is None
        assert k2.fast_entry is not None
        assert k2.fast_source != k2.source


class TestInstrumentCacheKeying:
    """The content-addressed instrumentation cache partitions per
    backend fingerprint (optimizer configuration)."""

    def test_fingerprints_partition_keys(self):
        from repro.instrument.cache import cache_key

        program, _, _ = _build("trisolv", instrumented=False)
        fp0 = config_for_level(0).fingerprint()
        fp2 = config_for_level(2).fingerprint()
        assert fp0 != fp2
        keys = {
            cache_key(program, OPTIMIZED, backend_fingerprint=fp)
            for fp in (None, fp0, fp2)
        }
        assert len(keys) == 3
        # Deterministic: the same fingerprint re-addresses the same key.
        assert cache_key(
            program, OPTIMIZED, backend_fingerprint=fp2
        ) == cache_key(program, OPTIMIZED, backend_fingerprint=fp2)


@lru_cache(maxsize=None)
def _random_instrumented(seed: int):
    return instrument_program(random_affine_program(seed), OPTIMIZED)[0]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=24),
    n=st.integers(min_value=MIN_PARAM, max_value=MIN_PARAM + 2),
    level=st.sampled_from(OPT_LEVELS),
)
def test_random_programs_roundtrip_op_counts(seed, n, level):
    """Property: for any generated affine program, optimized codegen
    round-trips the interpreter's op counts, checksums, and memory
    image at every level."""
    instrumented = _random_instrumented(seed)
    params = {"n": n}
    interp = run_program(instrumented, params, channels=2)
    compiled = run_compiled(
        instrumented, params, channels=2, fallback=False, opt_level=level
    )
    assert interp.counts == compiled.counts
    assert interp.checksums.sums == compiled.checksums.sums
    assert (
        interp.checksums.contribution_count
        == compiled.checksums.contribution_count
    )
    assert interp.statements_executed == compiled.statements_executed
    assert interp.memory.snapshot() == compiled.memory.snapshot()
    assert interp.memory.load_count == compiled.memory.load_count
    assert interp.memory.store_count == compiled.memory.store_count
    assert not compiled.mismatches
