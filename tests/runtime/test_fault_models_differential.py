"""Cross-backend differential suite over the full fault-model taxonomy.

The fault-model subsystem's whole contract is that a model implemented
once against the :class:`Memory` choke point behaves bit-identically
under the interpreter and the compiled backend — injection records,
verdicts, recovery outcomes, everything.  These tests pin that contract
for **every (fault model × benchmark × backend) cell**: the same
campaign spec is run once per backend and the canonical trial records
(timing dropped) must be equal element-wise.

The compiled side additionally asserts that a kernel really was
compiled (``prepare().kernel is not None``), so a silent interpreter
fallback can never turn these into interp-vs-interp tautologies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import ProgramCampaignSpec, run_campaign
from repro.programs import ALL_BENCHMARKS
from repro.runtime.faults import FAULT_MODELS

BENCHMARKS = sorted(ALL_BENCHMARKS)

# One spec seed per model keeps trial streams distinct across cells.
SEEDS = {model: 1000 + i for i, model in enumerate(FAULT_MODELS)}


def _spec(model: str, benchmark: str, backend: str, **overrides):
    fields = dict(
        trials=3,
        seed=SEEDS[model],
        benchmark=benchmark,
        scale="small",
        fault_model=model,
        backend=backend,
    )
    fields.update(overrides)
    return ProgramCampaignSpec(**fields)


def _canonical_records(spec: ProgramCampaignSpec):
    result = run_campaign(spec, workers=1)
    assert result.records is not None
    return [record.canonical() for record in result.records]


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("model", FAULT_MODELS)
def test_backends_bit_identical(model, name):
    interp = _spec(model, name, "interp")
    compiled = _spec(model, name, "compiled")
    assert compiled.prepare().kernel is not None, (
        f"{name}: compiled campaign silently fell back to the "
        f"interpreter — the cell would not exercise codegen"
    )
    assert _canonical_records(interp) == _canonical_records(compiled)


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("model", FAULT_MODELS)
def test_backends_identical_recovery_outcomes(model, name):
    """Recovery campaigns too: same rollbacks, same final verdicts."""
    interp = _spec(
        model, name, "interp", trials=2, recover=True
    )
    compiled = _spec(
        model, name, "compiled", trials=2, recover=True
    )
    records_interp = _canonical_records(interp)
    records_compiled = _canonical_records(compiled)
    assert records_interp == records_compiled
    # The recovery extras (replays, restores, epochs) are part of the
    # canonical form; spot-check they are present so a schema change
    # cannot quietly drop them from the comparison.
    for record in records_interp:
        assert "replays" in record["extra"]
        assert record["extra"]["fault_model"] == model


@pytest.mark.parametrize("model", FAULT_MODELS)
def test_trial_records_replayable(model):
    """Any single trial replays to the same canonical record, alone —
    through the caches, or against one explicitly shared context."""
    from repro.campaign.engine import replay_trial

    spec = _spec(model, "trisolv", "compiled", trials=4)
    result = run_campaign(spec, workers=1)
    prepared = spec.prepare()
    for record in result.records:
        for replay in (
            replay_trial(spec, record.index),
            replay_trial(spec, record.index, prepared=prepared),
        ):
            assert replay.canonical() == record.canonical()


def test_worker_count_invariant_for_new_models():
    """Fan-out must not change verdicts for any new model."""
    for model in ("addrgen_store", "stuck_bit", "burst"):
        spec = _spec(model, "jacobi1d", "compiled", trials=6)
        serial = _canonical_records(spec)
        parallel = [
            r.canonical()
            for r in run_campaign(spec, workers=2).records
        ]
        assert serial == parallel


def test_backend_field_does_not_change_trial_seeds():
    """The backend is execution detail, not identity: the two specs of
    a differential cell must derive identical per-trial seeds."""
    interp = _spec("addrgen_load", "lu", "interp")
    compiled = replace(interp, backend="compiled")
    assert interp.seed == compiled.seed
    assert interp.digest() != compiled.digest()
    assert interp.golden_digest() != compiled.golden_digest()


# ----------------------------------------------------------------------
# The trap body: one-shot injectors on the inline kernel entry
# ----------------------------------------------------------------------
ONE_SHOT_MODELS = ("random_cell", "burst")
IRREGULAR = ("cg", "moldyn")
TRAP_EXACT = [name for name in BENCHMARKS if name not in IRREGULAR]


def _trapped() -> int:
    from repro.service.store import TRIAL_PATHS

    return TRIAL_PATHS["trapped"]


@pytest.mark.parametrize("name", TRAP_EXACT)
@pytest.mark.parametrize("model", ONE_SHOT_MODELS)
def test_trap_body_matches_interpreter(model, name, monkeypatch):
    """Every compiled trial of a one-shot model on a trap-exact kernel
    runs on the inline body's load trap — and equals the interpreter."""
    import math

    from repro.campaign import carrier

    # No forks: each trial is its own trapped kernel run.
    monkeypatch.setattr(carrier, "_fork_cost_s", math.inf)
    compiled = _spec(
        model, name, "compiled", trials=4, seed=SEEDS[model] + 7
    )
    assert compiled.prepare().kernel.trap_exact
    before = _trapped()
    records = _canonical_records(compiled)
    assert _trapped() - before == compiled.trials
    interp = replace(compiled, backend="interp")
    assert records == _canonical_records(interp)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_trap_exactness(name):
    """Only kernels whose every load site is inlined may run injected
    trials on the inline body: the eight affine benchmarks.  cg and
    moldyn load through Memory methods."""
    from repro.runtime.compile import compile_program

    program = _spec("random_cell", name, "compiled").prepare().program
    assert compile_program(program).trap_exact == (name not in IRREGULAR)


def test_recovery_trigger_after_first_segment():
    """A one-shot fault that fires in a later epoch segment: the trap
    body detaches the injector while a segment runs and must re-attach
    it, or the next segment would run fault-free."""
    import random

    from repro.recovery import run_plan
    from repro.runtime.faults import RandomCellFlipper

    spec = _spec("random_cell", "lu", "compiled", trials=1, recover=True)
    prepared = spec.prepare()
    assert prepared.plan.mode == "epochs"

    def run(backend):
        injector = RandomCellFlipper(
            num_bits=2,
            expected_loads=prepared.total_loads,
            rng=random.Random(11),
            target_arrays=prepared.targets,
        )
        injector.trigger = prepared.total_loads - 3
        before = _trapped()
        outcome = run_plan(
            prepared.plan,
            prepared.params,
            initial_values=prepared.values,
            injector=injector,
            wild_reads=True,
            backend=backend,
        )
        return injector, outcome, _trapped() - before

    injector, outcome, trapped = run("compiled")
    assert trapped >= outcome.epochs > 1
    assert injector.record is not None
    assert injector.record.at_load == prepared.total_loads - 3
    reference, expected, _ = run("interp")
    assert injector.record == reference.record
    assert outcome.epochs == expected.epochs
    assert outcome.detected == expected.detected
    assert outcome.replays == expected.replays
    assert outcome.memory.snapshot() == expected.memory.snapshot()
