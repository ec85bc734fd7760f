"""Static analysis over instrumented IR (see docs/STATIC_ANALYSIS.md).

Layers:

* :mod:`repro.analysis.timeline` — the golden run's per-cell load/store
  event stream with checksum-contribution annotations, recorded from
  the reference interpreter.
* :mod:`repro.analysis.classify` — per-(cell, strike-time) outcome
  classification: ``detected`` / ``masked`` / ``vulnerable`` /
  ``unknown``.
* :mod:`repro.analysis.oracle` — per-trial verdict prediction by firing
  each trial's own injector on the recorded stream (powers ``campaign
  run --prune static``).
* :mod:`repro.analysis.coverage` — whole-distribution class fractions
  per benchmark and fault model (``repro analyze``,
  ``ANALYSIS_coverage.json``).
* :mod:`repro.analysis.lint` — well-formedness checks for instrumented
  IR (``repro lint``, ``instrument --lint``).
"""

from repro.analysis.classify import (
    CLASSES,
    DETECTED,
    MASKED,
    UNKNOWN,
    VULNERABLE,
    ProgramClassifier,
    detect_probability,
)
from repro.analysis.coverage import analyze_all, analyze_benchmark
from repro.analysis.lint import LintIssue, has_errors, lint_program
from repro.analysis.oracle import StaticOracle
from repro.analysis.timeline import (
    Timeline,
    TimelineUnsupported,
    build_timeline,
)

__all__ = [
    "CLASSES",
    "DETECTED",
    "MASKED",
    "UNKNOWN",
    "VULNERABLE",
    "LintIssue",
    "ProgramClassifier",
    "StaticOracle",
    "Timeline",
    "TimelineUnsupported",
    "analyze_all",
    "analyze_benchmark",
    "build_timeline",
    "detect_probability",
    "has_errors",
    "lint_program",
]
