"""Differential suite for the optimized kernel (``runtime/opt``).

Every compiled kernel runs the optimizer's full pipeline (folding,
LICM, guard fusion, unrolling, the static cache) and carries two
bodies: the *hooked* body, whose every load and store goes through the
:class:`~repro.runtime.memory.Memory` methods and so through the
injector hooks, and the *inline* body, which reads region words
directly and fires a one-shot injector from its load trap.  The kernel
picks the body per run.  Its contract is stricter than "same answer":
whichever body runs must replay the interpreter's exact observable
trace — checksum sums, op counts, memory words, load/store *event
order* (the access stream an injector's hooks see, in order), and the
injector's record of the fault site.

``test_compile_differential`` covers the inline body fault-free and
under the one-shot value flip.  This file covers the rest: the hooked
body with and without the address hooks consulted, the hooked body
under a value flip on the benchmarks the trap would otherwise take,
full-result identity for every fault model, and campaign records with
every trigger forked off a carrier run.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ProgramCampaignSpec, carrier, run_campaign
from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.generate import MIN_PARAM, random_affine_program
from repro.programs import ALL_BENCHMARKS
from repro.runtime.compile import compile_program, run_compiled
from repro.runtime.faults import (
    FAULT_MODELS,
    FaultInjector,
    RandomCellFlipper,
)
from repro.runtime.interpreter import run_program
from repro.service.store import TRIAL_PATHS

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)

BENCHMARKS = sorted(ALL_BENCHMARKS)
IRREGULAR = ("cg", "moldyn")
TRAP_EXACT = [name for name in BENCHMARKS if name not in IRREGULAR]

# The forked-campaign sweep uses a representative benchmark subset
# (dense triangular, stencil, and the irregular cutoff kernel); the
# full 10-benchmark × model matrix runs with the default fork gate in
# test_fault_models_differential.
SWEEP_BENCHMARKS = ("cholesky", "jacobi1d", "moldyn")

#: How a fault-free run reaches the hooked body: through an injector
#: that never acts, with the address hooks off (the path of a stuck
#: bit) or on (the path of an address fault and of a campaign carrier).
HOOKED_BODIES = {"hooked": False, "redirecting": True}


class _Observer(FaultInjector):
    """Never corrupts anything; logs every hook call, in order."""

    def __init__(self, redirects: bool):
        self.redirects = redirects
        self.events: list[tuple[str, str, tuple[int, ...]]] = []

    def before_load(self, memory, name, indices, word):
        self.events.append(("load", name, indices))

    def after_store(self, memory, name, indices, word):
        self.events.append(("store", name, indices))

    def redirect_load(self, memory, name, indices):
        self.events.append(("redirect_load", name, indices))

    def redirect_store(self, memory, name, indices):
        self.events.append(("redirect_store", name, indices))


def _build(name: str):
    module = ALL_BENCHMARKS[name]
    program, _ = instrument_program(module.program(), OPTIMIZED)
    params = dict(module.SMALL_PARAMS)
    values = module.initial_values(params, seed=7)
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


def _observed_pair(program, params, values, redirects, channels=2):
    """(interp, compiled, interp observer, compiled observer)."""
    watch_interp = _Observer(redirects)
    watch_compiled = _Observer(redirects)
    interp = run_program(
        program,
        params,
        initial_values=_copy(values),
        injector=watch_interp,
        channels=channels,
    )
    compiled = run_compiled(
        program,
        params,
        initial_values=_copy(values),
        injector=watch_compiled,
        channels=channels,
        fallback=False,
    )
    return interp, compiled, watch_interp, watch_compiled


@pytest.mark.parametrize("body", sorted(HOOKED_BODIES))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_fault_free_identical_on_hooked_body(name, body):
    """Every benchmark on the hooked body: bit-identical to the
    interpreter, and the injector hooks see the interpreter's access
    stream event for event (what stuck-bit and address faults act on)."""
    program, params, values = _build(name)
    interp, compiled, seen_interp, seen_compiled = _observed_pair(
        program, params, values, HOOKED_BODIES[body]
    )
    assert_identical(interp, compiled)
    assert not interp.mismatches
    assert seen_compiled.events == seen_interp.events
    loads = [e for e in seen_compiled.events if e[0] == "load"]
    assert len(loads) == compiled.memory.load_count > 0
    redirected = [e for e in seen_compiled.events if e[0] == "redirect_load"]
    assert len(redirected) == (len(loads) if HOOKED_BODIES[body] else 0)


@pytest.mark.parametrize("name", TRAP_EXACT)
def test_injected_identical_on_hooked_body(name):
    """Seeded value flips on the benchmarks whose one-shot trials
    normally take the inline body's load trap, forced onto the hooked
    body instead: the injector must strike the same load event and the
    run must unwind identically — this pins load/store *order* on the
    body every other fault model runs on."""
    program, params, values = _build(name)
    assert compile_program(program).trap_exact
    baseline = run_program(program, params, initial_values=_copy(values))
    window = max(1, baseline.memory.load_count)
    for seed in (13, 29):
        inj_interp = RandomCellFlipper(2, window, random.Random(seed))
        inj_compiled = RandomCellFlipper(2, window, random.Random(seed))
        inj_compiled.one_shot = False
        interp = run_program(
            program,
            params,
            initial_values=_copy(values),
            injector=inj_interp,
            channels=2,
            wild_reads=True,
            halt_on_mismatch=True,
        )
        trapped = TRIAL_PATHS["trapped"]
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
        assert TRIAL_PATHS["trapped"] == trapped
        assert inj_compiled.record is not None
        assert_identical(interp, compiled, (inj_interp, inj_compiled))


def _spec(name: str, model: str, backend: str, trials: int = 3):
    return ProgramCampaignSpec(
        benchmark=name,
        scale="small",
        trials=trials,
        seed=2000 + FAULT_MODELS.index(model),
        fault_model=model,
        backend=backend,
    )


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("model", FAULT_MODELS)
def test_every_model_identical_results(model, name):
    """(fault model × benchmark): each trial's whole ExecutionResult —
    memory image, op counts, access and wild-access counters, not just
    the verdict a campaign record keeps — and the injector's record
    equal the interpreter's, on whichever body the kernel picks."""
    compiled_spec = _spec(name, model, "compiled")
    interp_spec = replace(compiled_spec, backend="interp")
    compiled_prepared = compiled_spec.prepare()
    interp_prepared = interp_spec.prepare()
    assert compiled_prepared.kernel is not None
    assert interp_prepared.kernel is None
    for index in range(compiled_spec.trials):
        _, inj_interp = interp_spec.trial_injector(index, interp_prepared)
        _, inj_compiled = compiled_spec.trial_injector(
            index, compiled_prepared
        )
        interp = interp_spec.execute_injected(interp_prepared, inj_interp)
        compiled = compiled_spec.execute_injected(
            compiled_prepared, inj_compiled
        )
        assert_identical(interp, compiled, (inj_interp, inj_compiled))


def _canonical_records(spec: ProgramCampaignSpec):
    result = run_campaign(spec, workers=1)
    assert result.records is not None
    return result, [record.canonical() for record in result.records]


@pytest.mark.parametrize("model", FAULT_MODELS)
@pytest.mark.parametrize("name", SWEEP_BENCHMARKS)
def test_forked_campaign_records_identical(name, model, monkeypatch):
    """(fault model × benchmark) with the carrier's fork gate forced
    open: trials forked mid-run off one compiled carrier pass — on the
    trap body or the redirecting hooked body — record exactly what the
    interpreter records when every trial runs from the start."""
    monkeypatch.setattr(carrier, "_fork_cost_s", float("inf"))
    _, reference = _canonical_records(_spec(name, model, "interp", 4))
    monkeypatch.setattr(carrier, "_fork_cost_s", 0.0)
    spec = _spec(name, model, "compiled", 4)
    assert spec.prepare().kernel is not None
    result, records = _canonical_records(spec)
    assert result.trials["carriers"] == 1
    assert result.trials["forked"] >= 1
    assert records == reference, f"{name} × {model} diverges when forked"


@lru_cache(maxsize=None)
def _random_instrumented(seed: int):
    return instrument_program(random_affine_program(seed), OPTIMIZED)[0]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=24),
    n=st.integers(min_value=MIN_PARAM, max_value=MIN_PARAM + 2),
    body=st.sampled_from(sorted(HOOKED_BODIES)),
)
def test_random_programs_roundtrip_on_hooked_body(seed, n, body):
    """Property: for any generated affine program, the hooked body
    round-trips the interpreter's op counts, checksums, memory image
    and access stream."""
    instrumented = _random_instrumented(seed)
    interp, compiled, seen_interp, seen_compiled = _observed_pair(
        instrumented, {"n": n}, {}, HOOKED_BODIES[body]
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
    assert seen_compiled.events == seen_interp.events
    assert not compiled.mismatches
