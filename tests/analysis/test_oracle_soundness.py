"""Soundness of the static classifier against brute-force injection.

The contract ``--prune static`` rests on: whenever the classifier
calls a (site × strike-time × bit-set) ``detected``, a real injection
there must raise a checksum mismatch; whenever it says ``masked``,
the run must end clean with corruption confined to the struck cell.
The property suite enumerates injections with
:class:`~repro.runtime.faults.ScheduledBitFlip` — the deterministic
analogue of the random_cell injector — on generated programs, on an
affine benchmark and on the irregular ``cg``, and the cross-validation
half replays whole campaign trials through the
:class:`~repro.analysis.oracle.StaticOracle` for every fault model.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.classify import DETECTED, MASKED, ProgramClassifier
from repro.analysis.oracle import StaticOracle
from repro.analysis.timeline import TimelineUnsupported, build_timeline
from repro.campaign import ProgramCampaignSpec
from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.generate import MIN_PARAM, random_affine_program
from repro.runtime.faults import ScheduledBitFlip
from repro.runtime.faults.base import linear_offset
from repro.runtime.faults.spec import FAULT_MODELS
from repro.runtime.interpreter import run_program

OPTIMIZED = InstrumentationOptions(
    index_set_splitting=True, hoist_inspectors=True
)
BIT_SETS = ((0,), (63,), (0, 1))


@lru_cache(maxsize=None)
def _instrumented_for(seed: int):
    return instrument_program(random_affine_program(seed), OPTIMIZED)[0]


def _diff_cells(clean: dict, faulted: dict):
    """(region, linear offset) pairs whose raw words differ.

    ``Memory.snapshot()`` is a flat raw-word list per region, indexed
    by linear offset.
    """
    diffs = set()
    for name, words in clean.items():
        for offset, (before, after) in enumerate(zip(words, faulted[name])):
            if before != after:
                diffs.add((name, offset))
    return diffs


def _check_sites(program, params, values=None):
    """Exhaustively inject at segment-representative strike times and
    assert the static verdicts against the measured runs."""
    try:
        timeline = build_timeline(program, params, values)
    except TimelineUnsupported:
        pytest.skip("generated program fails its fault-free run")
    classifier = ProgramClassifier(timeline)
    clean = run_program(program, params, initial_values=values)
    assert not clean.mismatches
    clean_snapshot = clean.memory.snapshot()
    checked = detected_cases = 0
    swept: dict[str, int] = {}
    for position, (array, cell) in enumerate(timeline.cells):
        if array in timeline.shadow:
            continue
        # The first ten cells accessed, plus the first few of every
        # other array.
        swept[array] = swept.get(array, 0) + 1
        if position >= 10 and swept[array] > 3:
            continue
        floors, _ = classifier.segments(array, cell)
        times = sorted(set(list(floors[:4]) + [timeline.total_loads]))
        for t in times:
            if t < 1:
                continue
            for bits in BIT_SETS:
                outcome = classifier.classify(array, cell, t, bits)
                if outcome not in (DETECTED, MASKED):
                    continue
                result = run_program(
                    program,
                    params,
                    initial_values=values,
                    injector=ScheduledBitFlip(
                        array, cell, list(bits), at_load=t
                    ),
                )
                checked += 1
                if outcome == DETECTED:
                    detected_cases += 1
                    assert result.mismatches, (
                        f"statically detected but measured clean: "
                        f"{array}{cell} t={t} bits={bits}"
                    )
                else:
                    assert not result.mismatches, (
                        f"statically masked but verifier fired: "
                        f"{array}{cell} t={t} bits={bits}"
                    )
                    diffs = _diff_cells(
                        clean_snapshot, result.memory.snapshot()
                    )
                    struck = (
                        array,
                        linear_offset(cell, timeline.shapes[array]),
                    )
                    assert diffs <= {struck}, (
                        f"statically masked but corruption propagated "
                        f"to {diffs - {struck}}: "
                        f"{array}{cell} t={t} bits={bits}"
                    )
    return checked, detected_cases


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=24))
def test_generated_programs_sound(seed):
    program = _instrumented_for(seed)
    checked, _ = _check_sites(program, {"n": MIN_PARAM})
    assert checked > 0


def test_benchmark_sound_and_exercises_detection():
    """On a real benchmark the sweep must hit actual DETECTED proofs
    (a vacuously-masked-only sweep would prove nothing)."""
    spec = ProgramCampaignSpec(
        trials=1, seed=0, benchmark="jacobi1d", scale="small"
    )
    prepared = spec.prepare()
    checked, detected_cases = _check_sites(prepared.program, prepared.params)
    assert checked > 0
    assert detected_cases > 0


def test_irregular_benchmark_masked_sites_sound():
    """cg's stream depends on its data: no site may be called detected,
    and every masked one must measure clean."""
    spec = ProgramCampaignSpec(
        trials=1, seed=0, benchmark="cg", scale="small"
    )
    prepared = spec.prepare()
    checked, detected_cases = _check_sites(
        prepared.program, prepared.params, prepared.values
    )
    assert checked > 0
    assert detected_cases == 0


@pytest.mark.parametrize("model", FAULT_MODELS)
@pytest.mark.parametrize("name", ["jacobi1d", "trisolv", "cg", "moldyn"])
def test_oracle_matches_measured_trials(name, model):
    """Every oracle prediction must equal the measured trial —
    verdict and the injection record, bit for bit.  On the irregular
    benchmarks (data-dependent streams) none may be ``detected``."""
    spec = ProgramCampaignSpec(
        trials=25,
        seed=7,
        benchmark=name,
        scale="small",
        fault_model=model,
    )
    prepared = spec.prepare()
    oracle = StaticOracle(spec, prepared)
    assert oracle.enabled, oracle.reason
    predictions = 0
    for index in range(spec.trials):
        predicted = oracle.predict(index)
        if predicted is None:
            continue
        predictions += 1
        measured = spec.run_trial(index, prepared)
        assert predicted.verdict == measured.verdict, (
            f"{name}/{model} trial {index}: predicted "
            f"{predicted.verdict}, measured {measured.verdict}"
        )
        assert predicted.injection == measured.injection
        assert predicted.extra["predicted"] is True
        assert measured.verdict != "sdc"
        if name in ("cg", "moldyn"):
            assert predicted.verdict != "detected"
    if model in ("random_cell", "stuck_bit", "burst"):
        # Value-fault models always have provable masked windows.  The
        # addrgen models may predict nothing: loads are structurally
        # checksum-blind and store proofs need a dying store.
        assert predictions > 0


def test_oracle_on_for_irregular_benchmark_off_for_recovery():
    spec = ProgramCampaignSpec(
        trials=5, seed=0, benchmark="cg", scale="small"
    )
    oracle = StaticOracle(spec, spec.prepare())
    assert oracle.enabled, oracle.reason
    assert oracle.timeline.data_dependent
    recovering = ProgramCampaignSpec(
        trials=5, seed=0, benchmark="cg", scale="small", recover=True
    )
    oracle = StaticOracle(recovering)
    assert not oracle.enabled
    assert "recovery" in oracle.reason
    assert oracle.predict(0) is None
