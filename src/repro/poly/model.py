"""Polyhedral model extraction from the IR.

For every assignment whose *context* is statically analyzable — all
surrounding loops have affine bounds, all surrounding guards are affine
conditions, and the statement is not under a ``while`` loop — this
module produces a :class:`StatementInfo` carrying:

* the iteration domain as a :class:`~repro.isl.basic_set.BasicSet`
  (dims = surrounding iterators, params = program parameters),
* the 2d+1 schedule components,
* the write access and every read access, with each affine array access
  lowered to per-subscript :class:`~repro.isl.linear.LinExpr` forms.

Statements under a ``while`` loop can still be *relatively* analyzable
(the paper's iterative codes, Section 4.2): their domain is affine in
the iterators inside the while body, and the while level itself
contributes a symbolic trip count.  They are extracted with
``in_while=True`` so the instrumenter can combine static analysis with
inspectors.

Scalars are modeled as zero-dimensional arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isl.basic_set import BasicSet
from repro.isl.constraints import Constraint
from repro.isl.linear import LinExpr
from repro.isl.space import Space
from repro.ir.accesses import Access, statement_accesses
from repro.ir.analysis import (
    StatementContext,
    statement_contexts,
    to_affine,
)
from repro.ir.nodes import BinOp, Expr, Program, UnOp
from repro.ir.schedule import ScheduleTable, StatementSchedule


@dataclass
class StatementInfo:
    """One statically analyzable statement in the polyhedral model."""

    label: str
    context: StatementContext
    iterators: tuple[str, ...]
    domain: BasicSet
    schedule: StatementSchedule
    write: Access
    reads: list[Access]
    in_while: bool

    @property
    def path(self) -> tuple[int, ...]:
        return self.context.path

    def __repr__(self) -> str:
        return f"StatementInfo({self.label}, domain={self.domain!r})"


@dataclass
class PolyhedralModel:
    """The analyzable fragment of a program."""

    program: Program
    statements: list[StatementInfo]
    unanalyzable: list[StatementContext]
    """Assignments whose *domain* could not be modeled (non-affine loop
    bounds or guards outside a while)."""

    def by_label(self, label: str) -> StatementInfo:
        for info in self.statements:
            if info.label == label:
                return info
        raise KeyError(f"no analyzable statement labelled {label!r}")

    def labels(self) -> list[str]:
        return [info.label for info in self.statements]


def condition_constraints(
    cond: Expr, names: set[str]
) -> list[Constraint] | None:
    """Affine guard conditions as constraints, or None when non-affine.

    Handles comparisons of affine expressions, conjunctions (``&&``)
    and negated comparisons.  ``!=`` guards are not convex and are
    rejected (treated as non-affine).
    """
    if isinstance(cond, UnOp) and cond.op == "!":
        inner = cond.operand
        if isinstance(inner, BinOp) and inner.op in ("<", "<=", ">", ">=", "=="):
            flipped = {
                "<": ">=",
                "<=": ">",
                ">": "<=",
                ">=": "<",
            }
            if inner.op == "==":
                return None  # not-equals is not convex
            return condition_constraints(
                BinOp(flipped[inner.op], inner.left, inner.right), names
            )
        return None
    if isinstance(cond, BinOp):
        if cond.op == "&&":
            left = condition_constraints(cond.left, names)
            right = condition_constraints(cond.right, names)
            if left is None or right is None:
                return None
            return left + right
        if cond.op in ("<", "<=", ">", ">=", "=="):
            lhs = to_affine(cond.left, names)
            rhs = to_affine(cond.right, names)
            if lhs is None or rhs is None:
                return None
            if cond.op == "<":
                return [Constraint.lt(lhs, rhs)]
            if cond.op == "<=":
                return [Constraint.le(lhs, rhs)]
            if cond.op == ">":
                return [Constraint.gt(lhs, rhs)]
            if cond.op == ">=":
                return [Constraint.ge(lhs, rhs)]
            return [Constraint.eq_exprs(lhs, rhs)]
    return None


def statement_domain(
    program: Program, context: StatementContext
) -> BasicSet | None:
    """Iteration domain of a statement, or None when not affine.

    The domain covers the ``for`` iterators only; a surrounding
    ``while`` contributes no dimension here (its trip count is dynamic
    and handled by the general scheme / inspectors).
    """
    params = set(program.params)
    names: set[str] = set(params)
    constraints: list[Constraint] = []
    for loop in context.loops:
        lower = to_affine(loop.lower, names)
        upper = to_affine(loop.upper, names)
        if lower is None or upper is None:
            return None
        names.add(loop.var)
        var = LinExpr.var(loop.var)
        constraints.append(Constraint.ge(var, lower))
        constraints.append(Constraint.le(var, upper))
    for guard in context.guards:
        guard_constraints = condition_constraints(guard, names)
        if guard_constraints is None:
            return None
        constraints.extend(guard_constraints)
    space = Space.set_space(
        context.iterators, params=tuple(program.params), name=context.assign.label
    )
    return BasicSet(space, constraints)


def extract_model(program: Program) -> PolyhedralModel:
    """Extract the polyhedral model of a program.

    Every assignment is considered; those with affine domains become
    :class:`StatementInfo` entries (with ``in_while`` marking the
    iterative case), the rest are listed as unanalyzable.
    """
    table = ScheduleTable.from_program(program)
    statements: list[StatementInfo] = []
    unanalyzable: list[StatementContext] = []
    auto_index = 0
    for context in statement_contexts(program):
        label = context.assign.label
        if label is None:
            label = f"__S{auto_index}"
            auto_index += 1
        domain = statement_domain(program, context)
        if domain is None:
            unanalyzable.append(context)
            continue
        accesses = statement_accesses(program, context)
        schedule = table.by_path(context.path)
        statements.append(
            StatementInfo(
                label=label,
                context=context,
                iterators=context.iterators,
                domain=domain,
                schedule=schedule,
                write=accesses.write,
                reads=accesses.reads,
                in_while=bool(context.while_loops),
            )
        )
    return PolyhedralModel(
        program=program, statements=statements, unanalyzable=unanalyzable
    )


