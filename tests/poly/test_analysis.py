"""The shared polyhedral analysis (:mod:`repro.poly.analysis`).

One analysis per program serves every instrumentation config, the
coverage report and ``repro analyze``; what each consumer builds from
it must be exactly what it builds from a cleared store.
"""

import pytest

from repro.experiments.figure10 import OPTIMIZED, RESILIENT, build_benchmark
from repro.instrument.classify import PlanKind
from repro.instrument.pipeline import (
    InstrumentationOptions,
    instrument_program,
)
from repro.ir.parser import parse_program
from repro.ir.printer import program_to_text
from repro.isl.counting import CountingError
from repro.poly import analysis as analysis_module
from repro.poly.analysis import program_analysis
from repro.poly.usecount import compute_live_in_counts
from repro.programs import ALL_BENCHMARKS
from repro.service.store import clear_store, store_stats

#: The default build, Figure 10's two, and the two options that change
#: what the analysis is used for (per-array checksums, no inspectors).
CONFIGS = (
    InstrumentationOptions(),
    RESILIENT,
    OPTIMIZED,
    InstrumentationOptions(localize=True),
    InstrumentationOptions(enable_iterative=False),
)


def instrumented_fingerprint(program, options):
    """Everything instrumentation decides: the printed program (``repr``
    for ``localize``, whose names do not round-trip the text syntax),
    the plans, the static counts and the demotions."""
    instrumented, report = instrument_program(program, options)
    text = (
        repr(instrumented) if options.localize
        else program_to_text(instrumented)
    )
    return text, report.plans, report.static_counts, report.demotions


@pytest.fixture(autouse=True)
def cleared_store():
    clear_store()
    yield
    clear_store()


def test_build_benchmark_analyzes_each_program_once():
    for name in ALL_BENCHMARKS:
        clear_store()
        build_benchmark(name, "small")
        stats = store_stats()["poly"]
        assert (stats["misses"], stats["hits"]) == (1, 1), name


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_shared_analysis_builds_what_a_cold_one_builds(name):
    program = ALL_BENCHMARKS[name].program()
    shared = [instrumented_fingerprint(program, options) for options in CONFIGS]
    assert store_stats()["poly"]["misses"] == 1
    for options, expected in zip(CONFIGS, shared):
        clear_store()
        assert instrumented_fingerprint(program, options) == expected, options


def test_analysis_is_keyed_on_program_text():
    first = ALL_BENCHMARKS["cholesky"].program()
    again = parse_program(program_to_text(first))
    assert again is not first
    assert program_analysis(again) is program_analysis(first)
    other = ALL_BENCHMARKS["lu"].program()
    assert program_analysis(other) is not program_analysis(first)


TWO_LIVE_ARRAYS = """
program p(n) {
  array A[n];
  array B[n];
  array C[n];
  for i = 0 .. n - 2 { S0: A[i] = 1.0; }
  for i = 0 .. n - 2 { S1: C[i] = A[i]; }
  for i = 0 .. n - 1 { S2: C[i] = B[i]; }
  for i = 0 .. n - 1 { S3: C[i] = A[i]; }
}
"""


def test_live_in_per_array_matches_the_all_arrays_map():
    analysis = program_analysis(parse_program(TWO_LIVE_ARRAYS))
    full = compute_live_in_counts(analysis.model, analysis.dependences)
    assert list(full) == ["B", "A"]
    for name in ("A", "B"):
        assert str(analysis.live_in(name)) == str(full[name])
    assert analysis.live_in("C") is None


def test_live_in_failure_demotes_in_every_config_counted_once(monkeypatch):
    real = analysis_module.compute_live_in_counts
    refused = []

    def compute_live_in_counts_refusing_b(model, dependences, arrays=None):
        if arrays == ["B"]:
            refused.append("B")
            raise CountingError("refused")
        return real(model, dependences, arrays=arrays)

    monkeypatch.setattr(
        analysis_module, "compute_live_in_counts",
        compute_live_in_counts_refusing_b,
    )
    program = parse_program(TWO_LIVE_ARRAYS)
    reports = [instrument_program(program, options)[1]
               for options in (RESILIENT, OPTIMIZED)]
    for report in reports:
        plan = report.plans["B"]
        assert plan.kind == PlanKind.DYNAMIC
        assert plan.reason == "live-in counting failed: refused"
        assert report.demotions == ["B: live-in counting failed"]
        assert report.kind_of("A") == PlanKind.STATIC
    # Every later request raises the kept failure without recounting.
    with pytest.raises(CountingError, match="refused"):
        program_analysis(program).live_in("B")
    assert refused == ["B"]
