"""Algorithm 1: compile-time use counts, plus live-in counts.

For every definition (write instance) the *use count* is the number of
read instances whose **last writer** is that definition.  With the
exact flow dependences of :mod:`repro.poly.dependences` this is, per
the paper:

    parameterize the source iteration  →  apply the dependence
    →  count the target set

yielding a piecewise polynomial in the program parameters and the
source statement's iterators (e.g. ``n - 1 - j`` on ``0 <= j <= n-2``
for Cholesky's S1).

This module also computes the **live-in counts** Algorithm 3 (line 1)
needs for its prologue: for every array cell, how many reads receive
the cell's *initial* value (reads with no last writer).  The result is
a piecewise polynomial over the cell coordinates (named ``__c0``,
``__c1``, ...), which the instrumenter turns into prologue loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isl.basic_set import BasicSet
from repro.isl.constraints import Constraint
from repro.isl.counting import CountingError, count_points, make_disjoint
from repro.isl.piecewise import PiecewisePolynomial
from repro.isl.set_ops import Set
from repro.isl.space import Space
from repro.poly.dependences import (
    SOURCE_SUFFIX,
    TARGET_SUFFIX,
    FlowDependence,
    covered_target_instances,
)
from repro.poly.model import PolyhedralModel, StatementInfo

CELL_PREFIX = "__c"


@dataclass
class StatementUseCount:
    """Use count of one statement's definition."""

    statement: StatementInfo
    count: PiecewisePolynomial
    """Piecewise polynomial over the program params and the statement's
    iterators (under their original names)."""
    exact: bool
    """False when symbolic counting failed and the instrumenter must
    fall back to the dynamic scheme for this statement."""


class UseCountTable:
    """Use counts per statement, keyed by the statement's AST path."""

    def __init__(self, entries: dict[tuple[int, ...], StatementUseCount]) -> None:
        self._entries = entries

    def get(self, info: StatementInfo) -> StatementUseCount | None:
        return self._entries.get(info.path)

    def by_label(self, label: str) -> StatementUseCount:
        for entry in self._entries.values():
            if entry.statement.label == label:
                return entry
        raise KeyError(f"no use count for statement {label!r}")

    def entries(self) -> list[StatementUseCount]:
        return list(self._entries.values())


def dependence_use_count(dep: FlowDependence) -> PiecewisePolynomial:
    """|targets| of one dependence, parameterized by the source iteration.

    Returns a piecewise polynomial whose variables are the program
    parameters plus the source statement's iterators (renamed back to
    their original names).
    """
    wrapped = dep.relation.wrapped_set()
    in_dims = dep.relation.space.in_dims
    parameterized = wrapped.parameterize(list(in_dims))
    counted = count_points(parameterized)
    unrename = {it + SOURCE_SUFFIX: it for it in dep.source.iterators}
    return counted.rename(unrename)


def compute_use_counts(
    model: PolyhedralModel, dependences: list[FlowDependence]
) -> UseCountTable:
    """Algorithm 1 over every analyzable statement.

    Statements whose write is irregular, or whose counting is inexact,
    get ``exact=False`` entries (count zero) — the instrumenter handles
    them dynamically.
    """
    entries: dict[tuple[int, ...], StatementUseCount] = {}
    params = tuple(model.program.params)
    for info in model.statements:
        space = Space.set_space((), params=params + tuple(info.iterators))
        if not info.write.is_affine:
            entries[info.path] = StatementUseCount(
                statement=info,
                count=PiecewisePolynomial.zero(space),
                exact=False,
            )
            continue
        total = PiecewisePolynomial.zero(space)
        exact = True
        for dep in dependences:
            if dep.source is not info:
                continue
            try:
                contribution = dependence_use_count(dep)
            except CountingError:
                exact = False
                break
            total = total.add(_into_space(contribution, space))
        # Adding refines domains (intersections pin variables); a final
        # normalize+merge keeps the piece count small for rendering and
        # index-set splitting.
        total = total.normalized().merged()
        entries[info.path] = StatementUseCount(
            statement=info, count=total, exact=exact
        )
    return UseCountTable(entries)


def _into_space(
    pwp: PiecewisePolynomial, space: Space
) -> PiecewisePolynomial:
    """Reinterpret a piecewise polynomial in a compatible param space.

    The counting result's parameters may be ordered differently or be a
    subset; the piece domains are rebuilt in the target space.
    """
    pieces = []
    for domain, poly in pwp.pieces:
        pieces.append((BasicSet(space, domain.constraints), poly))
    return PiecewisePolynomial(space, pieces)


# ----------------------------------------------------------------------
# Live-in counts (Algorithm 3, line 1)
# ----------------------------------------------------------------------


def compute_live_in_counts(
    model: PolyhedralModel,
    dependences: list[FlowDependence],
    arrays: list[str] | None = None,
) -> dict[str, PiecewisePolynomial]:
    """Reads-of-initial-value counts per array cell.

    For each array, returns a piecewise polynomial over parameters
    ``__c0, __c1, ...`` (the cell coordinates): the number of reads of
    that cell that happen before any write to it.  Arrays never read
    live-in are absent.  Reads in statements inside while loops are
    not counted.

    Raises :class:`CountingError` when a count cannot be obtained
    symbolically; callers fall back to dynamic (inspector) counting.
    """
    program = model.program
    params = tuple(program.params)
    if arrays is not None:
        name_set = set(arrays)
    else:
        name_set = {d.name for d in program.arrays}
        name_set |= {d.name for d in program.scalars}
    results: dict[str, PiecewisePolynomial] = {}
    for info in model.statements:
        if info.in_while:
            continue
        for position, read in enumerate(info.reads):
            if not read.is_affine or read.target not in name_set:
                continue
            rank = len(read.index_affine or ())
            cell_dims = tuple(f"{CELL_PREFIX}{k}" for k in range(rank))
            value_space = Space.set_space((), params=params + cell_dims)
            t_rename = {it: it + TARGET_SUFFIX for it in info.iterators}
            t_dims = tuple(t_rename[it] for it in info.iterators)
            domain_space = Space.set_space(t_dims, params=params, name=info.label)
            domain = BasicSet(
                domain_space,
                [c.rename(t_rename) for c in info.domain.constraints],
            )
            covered = covered_target_instances(
                dependences, info, position, params
            )
            live = Set.from_basic(domain).subtract(covered)
            if live.is_empty():
                continue
            # Pair each live read instance with its cell coordinates.
            pair_space = Space.set_space(
                t_dims, params=params + cell_dims, name=info.label
            )
            cell_constraints = []
            for k, index in enumerate(read.index_affine or ()):
                cell_constraints.append(
                    Constraint.eq_exprs(
                        index.rename(t_rename),
                        _cell_var(k),
                    )
                )
            pieces = []
            for piece in make_disjoint(live).basic_sets:
                pieces.append(
                    BasicSet(
                        pair_space, piece.constraints + tuple(cell_constraints)
                    )
                )
            pair_set = Set(pair_space, pieces)
            counted = count_points(pair_set)
            counted = _into_space(counted, value_space)
            key = read.target
            if key in results:
                results[key] = results[key].add(counted)
            else:
                results[key] = counted
    return {
        key: value.normalized().merged() for key, value in results.items()
    }


def _cell_var(k: int):
    from repro.isl.linear import LinExpr

    return LinExpr.var(f"{CELL_PREFIX}{k}")
