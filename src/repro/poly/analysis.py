"""One polyhedral analysis per program, shared by every consumer.

The polyhedral model, the exact flow dependences, Algorithm 1's use
counts and the live-in counts depend only on the program, not on the
:class:`~repro.instrument.pipeline.InstrumentationOptions` that follow
them (index-set splitting, inspector hoisting).  Figure 10 instruments
every program under two configurations, and the coverage report and
``repro analyze FILE`` read the same analysis again, so
:func:`program_analysis` hands them all one :class:`ProgramAnalysis`
that computes each part on first request.

Analyses live in the ``poly`` namespace of :mod:`repro.service.store`,
keyed on the SHA-256 of ``program_to_text(program)``: programs that
print alike are alike, the content contract the ``instrument`` key
relies on too.  The namespace is memory-only: an analysis holds ISL
sets, whose memos key on interned objects (the ``isl_*`` namespaces
are memory-only for the same reason), and the ``instrument``
namespace already persists the finished product.  ``clear_store()``
drops it with every other namespace.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.ir.nodes import Program
from repro.ir.printer import program_to_text
from repro.isl.counting import CountingError
from repro.isl.piecewise import PiecewisePolynomial
from repro.poly.dependences import FlowDependence, compute_flow_dependences
from repro.poly.model import PolyhedralModel, extract_model
from repro.poly.usecount import (
    UseCountTable,
    compute_live_in_counts,
    compute_use_counts,
)
from repro.service.store import namespace

#: Analyses kept per process: Figure 10's ten programs with room to
#: spare; each is a few ISL sets per statement.
_LIMIT = 32


class ProgramAnalysis:
    """The options-independent analysis of one program.

    Each part is computed on first request and kept, a
    :class:`CountingError` included: every later request raises it
    again instead of recounting.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._parts: dict = {}

    def _part(self, key, compute: Callable[[], object]):
        if key not in self._parts:
            try:
                self._parts[key] = compute()
            except CountingError as exc:
                self._parts[key] = exc
        value = self._parts[key]
        if isinstance(value, CountingError):
            raise value.with_traceback(None)
        return value

    @property
    def model(self) -> PolyhedralModel:
        return self._part("model", lambda: extract_model(self.program))

    @property
    def dependences(self) -> list[FlowDependence]:
        return self._part(
            "dependences", lambda: compute_flow_dependences(self.model)
        )

    @property
    def use_counts(self) -> UseCountTable:
        return self._part(
            "use_counts",
            lambda: compute_use_counts(self.model, self.dependences),
        )

    def live_in(self, name: str) -> PiecewisePolynomial | None:
        """One array's live-in count over its cell coordinates, or
        ``None`` when every read of it has a last writer; raises the
        array's :class:`CountingError`."""
        return self._part(
            ("live_in", name),
            lambda: compute_live_in_counts(
                self.model, self.dependences, arrays=[name]
            ).get(name),
        )


def _ns():
    return namespace("poly", limit=_LIMIT)


def program_analysis(program: Program) -> ProgramAnalysis:
    """The shared analysis of ``program`` (created on first request)."""
    key = hashlib.sha256(program_to_text(program).encode("utf-8")).hexdigest()
    return _ns().get_or_compute(key, lambda: ProgramAnalysis(program))
