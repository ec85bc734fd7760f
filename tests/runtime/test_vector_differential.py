"""Differential suite: the vector backend is bit-identical to the
scalar kernel on every contract field, for every bundled benchmark.

The vector identity contract is *final-image + final-checksum-state*
equality plus the memory access totals the campaign layer consumes:
region words, checksum sums, contribution count, load/store counts,
statements executed, mismatch events and the first detection step.
The per-op :class:`OpCounts` breakdown and intra-run event *order* are
explicitly out of contract (whole-array execution reorders them); an
injector on the memory image disables vector dispatch entirely, so
injected runs keep the scalar event-order guarantees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.generate import MIN_PARAM, random_affine_program
from repro.ir.parser import parse_program
from repro.programs import ALL_BENCHMARKS
from repro.runtime import vector as vec
from repro.runtime.compile import (
    VectorVerificationError,
    _check_vector_identity,
    clear_kernel_cache,
    compile_program,
    run_compiled,
)
from repro.runtime.interpreter import run_program
from repro.runtime.memory import build_memory_for_program
from repro.runtime.state import ChecksumState
from repro.runtime.vector import runner as vrunner
from repro.runtime.vector.plan import plan_program

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)

#: seidel's in-place stencil aliases its own write cells at run time in
#: every lane configuration; the runner must always bounce it.
RUNTIME_FALLBACK = {"seidel"}


@pytest.fixture(autouse=True)
def _fresh_vector_state():
    vec.clear_profit_memo()
    vec.clear_dispatch_caches()
    vrunner.reset_stats()
    yield
    vec.clear_profit_memo()
    vec.clear_dispatch_caches()


def _kernel_with_plan(program):
    kernel = compile_program(program)
    kernel._vector_plan_for()
    return kernel


def _build(name: str):
    module = ALL_BENCHMARKS[name]
    program, _ = instrument_program(module.program(), OPTIMIZED)
    params = dict(module.SMALL_PARAMS)
    values = module.initial_values(params, seed=7)
    return program, params, values


def _copy(values):
    return {
        k: (v.copy() if hasattr(v, "copy") else v)
        for k, v in values.items()
    }


def _force_vector(kernel, params, channels):
    """Pre-seed the profitability memo so dispatch skips the probe."""
    run_params = {p: int(params[p]) for p in kernel.program.params}
    vec.record_profit(
        vec.profit_key(kernel, run_params, channels), 0.0, 1.0
    )


def _assert_contract_equal(scalar, memory, checksums, out):
    """Vector (memory, checksums, out-dict) vs a scalar ExecutionResult."""
    for name, region in scalar.memory._regions.items():
        assert list(memory._regions[name].words) == list(region.words), name
    assert checksums.sums == scalar.checksums.sums
    assert (
        checksums.contribution_count
        == scalar.checksums.contribution_count
    )
    assert memory.load_count == scalar.memory.load_count
    assert memory.store_count == scalar.memory.store_count
    assert out["statements_executed"] == scalar.statements_executed
    assert out["mismatches"] == list(scalar.mismatches)
    assert out["first_detection_step"] == scalar.first_detection_step


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_benchmark_differential(name, channels):
    """Every Figure 10 benchmark: vector commit is bit-identical (or a
    clean runtime fallback that leaves the state untouched)."""
    program, params, values = _build(name)
    scalar = run_program(
        program, params, initial_values=_copy(values), channels=channels
    )
    plan = plan_program(program)
    assert plan is not None, f"{name}: expected a compile-time plan"
    memory = build_memory_for_program(program, params)
    for rname, array in values.items():
        memory.initialize(rname, array)
    checksums = ChecksumState(channels=channels)
    kernel = _kernel_with_plan(program)
    out = vrunner.execute_vector(
        kernel, params, memory, checksums, 50_000_000, False
    )
    if name in RUNTIME_FALLBACK:
        assert out is None
        # the transactional attempt must not have touched the state
        assert memory.load_count == 0 and memory.store_count == 0
        assert checksums.contribution_count == 0
        return
    assert out is not None, f"{name}: unexpected runtime fallback"
    _assert_contract_equal(scalar, memory, checksums, out)


def test_dispatch_path_commits_vector():
    """run_compiled(vectorize=True) with a won memo takes the vector
    path and returns a contract-identical ExecutionResult."""
    program, params, values = _build("jacobi1d")
    scalar = run_compiled(program, params, initial_values=_copy(values))
    kernel = compile_program(program)
    _force_vector(kernel, params, 1)
    vrunner.reset_stats()
    result = run_compiled(
        program, params, initial_values=_copy(values), vectorize=True
    )
    assert vrunner.VECTOR_RUNS == 1, "vector path did not engage"
    assert result.checksums.sums == scalar.checksums.sums
    assert (
        result.checksums.contribution_count
        == scalar.checksums.contribution_count
    )
    assert result.memory.load_count == scalar.memory.load_count
    assert result.memory.store_count == scalar.memory.store_count
    assert (
        result.statements_executed == scalar.statements_executed
    )
    assert result.memory.snapshot() == scalar.memory.snapshot()
    # the per-op breakdown is out of contract and zeroed on this path
    assert result.counts.loads == 0


def test_probe_protocol_returns_scalar_result():
    """An undecided key probes, returns the (authoritative) scalar
    result, and memoizes a verdict for later dispatches."""
    program, params, values = _build("dsyrk")
    kernel = compile_program(program)
    run_params = {p: int(params[p]) for p in program.params}
    key = vec.profit_key(kernel, run_params, 1)
    assert vec.profit_state(key) is None
    result = run_compiled(
        program, params, initial_values=_copy(values), vectorize=True
    )
    # the probe run itself answers with scalar counts (not zeroed)
    assert result.counts.loads > 0
    assert vec.profit_state(key) is not None


def test_injector_disables_vector():
    """Any injector on the memory image forces the scalar path."""
    import random

    from repro.runtime.faults import RandomCellFlipper

    program, params, values = _build("jacobi1d")
    kernel = compile_program(program)
    _force_vector(kernel, params, 1)
    vrunner.reset_stats()
    injector = RandomCellFlipper(
        num_bits=1, expected_loads=100, rng=random.Random(3)
    )
    run_compiled(
        program,
        params,
        initial_values=_copy(values),
        injector=injector,
        vectorize=True,
        wild_reads=True,
    )
    assert vrunner.VECTOR_RUNS == 0


def test_kill_switch(monkeypatch):
    program, params, values = _build("jacobi1d")
    kernel = compile_program(program)
    _force_vector(kernel, params, 1)
    monkeypatch.setenv("REPRO_VECTOR", "0")
    vrunner.reset_stats()
    run_compiled(
        program, params, initial_values=_copy(values), vectorize=True
    )
    assert vrunner.VECTOR_RUNS == 0


def test_verify_vector_clean():
    program, params, values = _build("cholesky")
    result = run_compiled(
        program,
        params,
        initial_values=_copy(values),
        vectorize=True,
        verify_vector=True,
    )
    scalar = run_compiled(program, params, initial_values=_copy(values))
    assert result.checksums.sums == scalar.checksums.sums


def test_verify_vector_raises_on_divergence():
    """The comparator flags every contract field independently."""
    program, params, values = _build("jacobi1d")
    scalar = run_compiled(program, params, initial_values=_copy(values))
    memory = scalar.memory
    checksums = scalar.checksums
    good = {
        "statements_executed": scalar.statements_executed,
        "mismatches": list(scalar.mismatches),
        "first_detection_step": scalar.first_detection_step,
    }
    # identical inputs pass
    _check_vector_identity(
        "jacobi1d", memory, checksums, scalar, memory, checksums, good
    )
    bad = dict(good, statements_executed=good["statements_executed"] + 1)
    with pytest.raises(VectorVerificationError, match="steps"):
        _check_vector_identity(
            "jacobi1d", memory, checksums, scalar, memory, checksums, bad
        )
    from repro.runtime.compile import _clone_checksums

    skewed = _clone_checksums(checksums)
    skewed.sums[0]["def"] ^= 1
    with pytest.raises(VectorVerificationError, match="checksum sums"):
        _check_vector_identity(
            "jacobi1d", memory, checksums, scalar, memory, skewed, good
        )


@pytest.mark.parametrize("fault_model", ["random_cell", "stuck_bit"])
@pytest.mark.parametrize("extra", [{}, {"recover": True}])
def test_campaign_records_identical_vector_on_off(
    monkeypatch, fault_model, extra
):
    """Campaign records are canonical-identical with vectorized golden
    and recovery legs on vs. off."""
    from repro.campaign import ProgramCampaignSpec
    from repro.campaign.engine import run_campaign
    from repro.campaign.golden import clear_cache

    def canon(records):
        return [
            (r.index, r.seed, r.verdict, r.injection, r.extra)
            for r in records
        ]

    def run_once():
        clear_cache()
        clear_kernel_cache()
        vec.clear_profit_memo()
        vec.clear_dispatch_caches()
        spec = ProgramCampaignSpec(
            trials=8,
            seed=5,
            benchmark="jacobi1d",
            scale="small",
            fault_model=fault_model,
            **extra,
        )
        return canon(run_campaign(spec).records)

    monkeypatch.setenv("REPRO_VECTOR", "0")
    off = run_once()
    monkeypatch.setenv("REPRO_VECTOR", "1")
    on = run_once()
    assert on == off


def test_replay_trial_matches_campaign_record():
    """Per-index replay (with and without a shared prepared context)
    reproduces the campaign's record exactly."""
    from repro.campaign import ProgramCampaignSpec
    from repro.campaign.engine import replay_trial, run_campaign

    spec = ProgramCampaignSpec(
        trials=6, seed=9, benchmark="jacobi1d", scale="small"
    )
    result = run_campaign(spec)
    prepared = spec.prepare()
    for record in result.records:
        for replay in (
            replay_trial(spec, record.index),
            replay_trial(spec, record.index, prepared=prepared),
        ):
            assert replay.index == record.index
            assert replay.seed == record.seed
            assert replay.verdict == record.verdict
            assert replay.injection == record.injection


# ----------------------------------------------------------------------
# Property: per-statement fallback composes with full-vector programs
# ----------------------------------------------------------------------

_MIXED_TEMPLATE = """
program mixed(n) {{
  array A[n];
  array B[n];
  scalar s;
  for i = 0 .. n - 1 {{
    S1: A[i] = i * 3 + 1;
  }}
  while (s < {k}) {{
    W1: s = s + 1;
  }}
  for i = 0 .. n - 1 {{
    S2: B[i] = A[i] * 2 + s;
  }}
}}
"""


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=0, max_value=9),
)
def test_mixed_spine_composes(n, k):
    """A program mixing vector nests with sequential-spine statements
    (a while loop the planner can never vectorize) stays bit-identical:
    the spine runs scalar-style inside the vector run, the nests run
    whole-array, and the composition commits the same state."""
    program, _ = instrument_program(
        parse_program(_MIXED_TEMPLATE.format(k=k)), OPTIMIZED
    )
    params = {"n": n}
    scalar = run_program(program, params, channels=2)
    plan = plan_program(program)
    assert plan is not None
    memory = build_memory_for_program(program, params)
    checksums = ChecksumState(channels=2)
    kernel = _kernel_with_plan(program)
    out = vrunner.execute_vector(
        kernel, params, memory, checksums, 50_000_000, False
    )
    assert out is not None
    _assert_contract_equal(scalar, memory, checksums, out)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=24),
    n=st.integers(min_value=MIN_PARAM, max_value=MIN_PARAM + 2),
)
def test_random_affine_programs_compose(seed, n):
    """Random affine programs: whatever mix of vector nests, chains and
    per-statement fallback the planner produces, a committed vector run
    matches the interpreter on every contract field — and a planner or
    runtime fallback leaves the scalar path authoritative."""
    program, _ = instrument_program(random_affine_program(seed), OPTIMIZED)
    params = {"n": n}
    scalar = run_program(program, params, channels=2)
    plan = plan_program(program)
    if plan is None:
        return  # whole-program fallback: nothing to compare
    memory = build_memory_for_program(program, params)
    checksums = ChecksumState(channels=2)
    kernel = _kernel_with_plan(program)
    out = vrunner.execute_vector(
        kernel, params, memory, checksums, 50_000_000, False
    )
    if out is None:
        # runtime fallback must leave the state untouched
        assert memory.load_count == 0 and memory.store_count == 0
        return
    _assert_contract_equal(scalar, memory, checksums, out)
