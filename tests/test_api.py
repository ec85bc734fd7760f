"""Public-API surface tests: the documented entry points exist and the
README quickstart works verbatim."""

import numpy as np


def test_top_level_exports():
    import repro

    for name in (
        "instrument_program",
        "InstrumentationOptions",
        "parse_program",
        "program_to_text",
        "run_program",
        "__version__",
    ):
        assert hasattr(repro, name), name


def test_subpackage_exports():
    from repro.instrument import (
        duplicate_program,
        instrument_with_epochs,
        localize_checksums,
        operator_by_name,
    )
    from repro.isl import BasicMap, BasicSet, Map, Set, count_points
    from repro.ir import ChecksumReset, ProgramBuilder
    from repro.runtime import (
        ChecksumState,
        Memory,
        RandomCellFlipper,
        ScheduledBitFlip,
    )

    assert operator_by_name("modadd").commutative


def test_readme_quickstart():
    from repro import instrument_program, parse_program, run_program
    from repro.runtime.faults import ScheduledBitFlip

    program = parse_program(
        """
        program cholesky_column(n) {
          array A[n][n];
          for j = 0 .. n - 1 {
            S1: A[j][j] = sqrt(A[j][j]);
            for i = j + 1 .. n - 1 {
              S2: A[i][j] = A[i][j] / A[j][j];
            }
          }
        }
        """
    )
    resilient, report = instrument_program(program)
    assert "S1" in report.static_counts

    m = np.random.default_rng(0).standard_normal((8, 8))
    values = {"A": m @ m.T + 8 * np.eye(8)}

    clean = run_program(
        resilient, {"n": 8}, initial_values={"A": values["A"].copy()}
    )
    assert not clean.mismatches

    faulty = run_program(
        resilient,
        {"n": 8},
        initial_values={"A": values["A"].copy()},
        injector=ScheduledBitFlip("A", (0, 0), [17, 44], at_load=2),
    )
    assert faulty.error_detected


def test_version():
    import repro

    major, *_ = repro.__version__.split(".")
    assert int(major) >= 1


def test_removed_vector_backend_leaves_noop_names():
    """The end-to-end benchmark resets vector caches between rounds and
    reads ``CampaignResult.vector``; both names outlive the backend."""
    from repro.campaign import ProgramCampaignSpec, run_campaign
    from repro.runtime.vector import clear_dispatch_caches, clear_profit_memo

    assert clear_dispatch_caches() is None
    assert clear_profit_memo() is None
    spec = ProgramCampaignSpec(
        trials=2, seed=1, benchmark="trisolv", scale="small"
    )
    assert run_campaign(spec).vector is None
