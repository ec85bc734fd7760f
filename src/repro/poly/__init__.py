"""Polyhedral analysis over the mini-language IR.

Implements the compile-time machinery of the paper's Section 3:

* :mod:`repro.poly.model` — extraction of the polyhedral model:
  iteration domains, affine access relations and 2d+1 schedules for
  every statically analyzable statement.
* :mod:`repro.poly.precedence` — schedule-order ("happens before")
  relations between statement instances.
* :mod:`repro.poly.dependences` — exact (last-writer, non-transitive)
  RAW dependences, computed as candidate writes minus killed writes.
* :mod:`repro.poly.usecount` — Algorithm 1: per-definition symbolic use
  counts as piecewise polynomials, plus live-in counts for the
  prologue of Algorithm 3.
* :mod:`repro.poly.analysis` — all of the above for one program,
  computed once and shared by every consumer (the ``poly`` namespace
  of the artifact store).
"""

from repro.poly.model import PolyhedralModel, StatementInfo, extract_model
from repro.poly.dependences import FlowDependence, compute_flow_dependences
from repro.poly.usecount import UseCountTable, compute_use_counts
from repro.poly.analysis import ProgramAnalysis, program_analysis

__all__ = [
    "PolyhedralModel",
    "StatementInfo",
    "extract_model",
    "FlowDependence",
    "compute_flow_dependences",
    "UseCountTable",
    "compute_use_counts",
    "ProgramAnalysis",
    "program_analysis",
]
