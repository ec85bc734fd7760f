"""2d+1 statement schedules (paper Section 3.1).

Each edge of the AST is numbered left-to-right from 0; a statement's
schedule is the alternating vector of edge numbers and surrounding-loop
iterators on the path from the root, zero-padded to length ``2d+1``
where ``d`` is the maximum loop depth of any statement.

For the paper's running example (Figure 2/3)::

    S1[j]    ->  [0, j, 0, 0, 0]
    S2[j, i] ->  [0, j, 1, i, 0]

Schedules define the global execution order; the *precedence* relation
between two statement instances (needed by dependence analysis) is
derived in :mod:`repro.poly.precedence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.ir.nodes import Assign, If, Loop, Program, Stmt, WhileLoop

SchedComponent = Union[int, str]
"""An integer AST-edge number or a loop-iterator name."""


@dataclass(frozen=True)
class StatementSchedule:
    """The 2d+1 schedule of one labelled assignment."""

    label: str
    components: tuple[SchedComponent, ...]
    iterators: tuple[str, ...]

    @property
    def depth(self) -> int:
        return len(self.iterators)


class ScheduleTable:
    """Schedules for every labelled assignment in a program.

    ``while`` loops are treated as a single schedule level whose
    iterator is the (compiler-maintained) iteration counter; this keeps
    the relative order of statements inside the while body correct for
    the affine sub-analysis the paper applies to iterative codes.

    >>> from repro.ir.parser import parse_program
    >>> p = parse_program('''
    ... program demo(n) {
    ...   array A[n][n];
    ...   for j = 0 .. n - 1 {
    ...     S1: A[j][j] = sqrt(A[j][j]);
    ...     for i = j + 1 .. n - 1 {
    ...       S2: A[i][j] = A[i][j] / A[j][j];
    ...     }
    ...   }
    ... }
    ... ''')
    >>> table = ScheduleTable.from_program(p)
    >>> table["S1"].components
    (0, 'j', 0, 0, 0)
    >>> table["S2"].components
    (0, 'j', 1, 'i', 0)
    """

    def __init__(
        self,
        schedules: dict[str, StatementSchedule],
        by_path: dict[tuple[int, ...], StatementSchedule] | None = None,
    ) -> None:
        self._schedules = schedules
        self._by_path = by_path or {}

    @staticmethod
    def from_program(program: Program) -> "ScheduleTable":
        raw: dict[
            tuple[int, ...],
            tuple[str | None, list[SchedComponent], list[str]],
        ] = {}

        def visit(
            body: tuple[Stmt, ...],
            prefix: list[SchedComponent],
            iterators: list[str],
            path: tuple[int, ...],
        ) -> None:
            for index, stmt in enumerate(body):
                here = path + (index,)
                if isinstance(stmt, Assign):
                    raw[here] = (
                        stmt.label,
                        prefix + [index],
                        list(iterators),
                    )
                elif isinstance(stmt, Loop):
                    visit(
                        stmt.body,
                        prefix + [index, stmt.var],
                        iterators + [stmt.var],
                        here,
                    )
                elif isinstance(stmt, WhileLoop):
                    counter = stmt.counter or "__while"
                    visit(
                        stmt.body,
                        prefix + [index, counter],
                        iterators + [counter],
                        here,
                    )
                elif isinstance(stmt, If):
                    # Conditionals do not add a schedule dimension: both
                    # branches share the conditional's position.
                    visit(stmt.then_body, prefix + [index], iterators, here)
                    visit(stmt.else_body, prefix + [index], iterators, here)

        visit(program.body, [], [], ())
        if not raw:
            return ScheduleTable({})
        max_depth = max(len(iters) for _, _, iters in raw.values())
        width = 2 * max_depth + 1
        schedules: dict[str, StatementSchedule] = {}
        by_path: dict[tuple[int, ...], StatementSchedule] = {}
        for path, (label, components, iterators) in raw.items():
            padded = list(components) + [0] * (width - len(components))
            schedule = StatementSchedule(
                label=label or "?",
                components=tuple(padded),
                iterators=tuple(iterators),
            )
            by_path[path] = schedule
            if label:
                schedules[label] = schedule
        return ScheduleTable(schedules, by_path)

    def __getitem__(self, label: str) -> StatementSchedule:
        return self._schedules[label]

    def __contains__(self, label: str) -> bool:
        return label in self._schedules

    def by_path(self, path: tuple[int, ...]) -> StatementSchedule:
        """Schedule of the assignment at an AST path (labels optional)."""
        return self._by_path[path]

    def labels(self) -> list[str]:
        return list(self._schedules)

    def textual_order(self) -> list[str]:
        """Labels sorted by schedule prefix (static program order)."""

        def key(label: str) -> tuple:
            comps = self._schedules[label].components
            return tuple(c if isinstance(c, int) else -1 for c in comps)

        return sorted(self._schedules, key=key)
